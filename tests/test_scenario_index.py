"""The link-class index and the scenario finders built on it.

``LinkTable`` classifies every ordered pair once (frozen pair sets plus a
per-node potential-tx adjacency), and the finders walk that adjacency
instead of scanning node tuples through the predicates. Two contracts:

* **index invariants** — each pair set equals its §5.1 definition
  evaluated over all ordered pairs from the raw PRR/RSS statistics,
  ``potential_tx_link`` is symmetric, and each adjacency list is in
  ``node_ids`` order (the finder rewrites rely on exactly these);
* **finder equivalence** — every finder returns what the naive
  ``permutations``/predicate scan below returns: the same candidates in
  the same order (so the same ``max_candidates`` truncation and the same
  seeded sample).
"""

import itertools
from types import SimpleNamespace

import pytest

from repro.experiments.scenarios import (
    ApTopology,
    InterfererTriple,
    MeshTopology,
    PairConfig,
    ScenarioError,
    _sample,
    find_ap_topology,
    find_disjoint_flows,
    find_exposed_terminal_configs,
    find_hidden_interferer_triples,
    find_hidden_terminal_configs,
    find_inrange_configs,
    find_mesh_topologies,
    find_mobility_configs,
)
from repro.net.links import LinkTable
from repro.net.testbed import Testbed
from repro.phy.modulation import NistErrorModel
from repro.phy.propagation import LogDistance, Position, RssMatrix
from repro.util.rng import RngFactory

SEEDS = (1, 11, 61)
#: ``count`` large enough that a finder returns every candidate, in order.
ALL = 10**9


@pytest.fixture(scope="module", params=SEEDS)
def testbed(request):
    return Testbed(request.param)


# ----------------------------------------------------------------------
# Reference: the naive scans the finders replaced
# ----------------------------------------------------------------------
def naive_tx_links(links):
    return [
        (a, b)
        for a, b in itertools.permutations(links.node_ids, 2)
        if links.potential_tx_link(a, b)
    ]


def naive_exposed(links, max_candidates=200_000):
    strong = [(a, b) for a, b in naive_tx_links(links) if links.strong_signal(a, b)]
    out = []
    for (s1, r1), (s2, r2) in itertools.permutations(strong, 2):
        if len({s1, r1, s2, r2}) != 4 or not links.in_range(s1, s2):
            continue
        cross = [(s1, r2), (s2, r1), (r1, r2), (r2, r1), (r1, s2), (r2, s1),
                 (s1, s2), (s2, s1)]
        if all(links.weak_signal(a, b) for a, b in cross):
            out.append(PairConfig(s1, r1, s2, r2))
            if len(out) >= max_candidates:
                break
    return out


def naive_inrange(links, max_candidates=200_000):
    out = []
    for (s1, r1), (s2, r2) in itertools.permutations(naive_tx_links(links), 2):
        if len({s1, r1, s2, r2}) != 4:
            continue
        if links.in_range(s1, s2):
            out.append(PairConfig(s1, r1, s2, r2))
            if len(out) >= max_candidates:
                break
    return out


def naive_hidden(links, max_candidates=200_000):
    out = []
    ids = links.node_ids
    for s1, s2 in itertools.combinations(ids, 2):
        if not links.out_of_range(s1, s2):
            continue
        for r1, r2 in itertools.permutations(ids, 2):
            if len({s1, s2, r1, r2}) != 4:
                continue
            if (
                links.potential_tx_link(s1, r1)
                and links.potential_tx_link(s2, r1)
                and links.potential_tx_link(s1, r2)
                and links.potential_tx_link(s2, r2)
            ):
                out.append(PairConfig(s1, r1, s2, r2))
                if len(out) >= max_candidates:
                    break
        if len(out) >= max_candidates:
            break
    return out


def naive_triples(testbed, count, seed):
    links = testbed.links
    tx_links = naive_tx_links(links)
    rng = testbed.rngs.fork("scenario", "interferer", seed).stream("sample")
    ids = links.node_ids
    triples = []
    attempts = 0
    while len(triples) < count and attempts < 100 * count:
        attempts += 1
        s, r = tx_links[int(rng.integers(0, len(tx_links)))]
        i = ids[int(rng.integers(0, len(ids)))]
        if i in (s, r):
            continue
        partners = [b for b in ids if b not in (s, r, i)
                    and links.potential_tx_link(i, b)]
        if partners:
            ir = partners[int(rng.integers(0, len(partners)))]
        else:
            ir = max((b for b in ids if b not in (s, r, i)),
                     key=lambda b: links.prr(i, b))
        triples.append(InterfererTriple(s, r, i, ir))
    return triples


def naive_disjoint(testbed, n, count, seed):
    tx_links = naive_tx_links(testbed.links)
    rng = testbed.rngs.fork("scenario", "churn", seed).stream("sample")
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        flows, used, inner = [], set(), 0
        while len(flows) < n and inner < 2000:
            inner += 1
            s, r = tx_links[int(rng.integers(0, len(tx_links)))]
            if s in used or r in used:
                continue
            flows.append((s, r))
            used.update((s, r))
        if len(flows) == n:
            out.append(tuple(flows))
    return out


def naive_mesh(testbed, count, fanout, seed):
    links = testbed.links
    positions = testbed.positions
    rng = testbed.rngs.fork("scenario", "mesh", seed).stream("sample")
    ids = links.node_ids
    out = []
    attempts = 0
    while len(out) < count and attempts < 300 * count:
        attempts += 1
        s = ids[int(rng.integers(0, len(ids)))]
        neighbours = [a for a in ids if a != s and links.potential_tx_link(s, a)]
        if len(neighbours) < fanout:
            continue
        picks = rng.choice(len(neighbours), size=fanout, replace=False)
        forwarders = [neighbours[i] for i in picks]
        used = {s, *forwarders}
        leaves = []
        ok = True
        for a in forwarders:
            dist_sa = positions[s].distance_to(positions[a])
            cands = [b for b in ids if b not in used
                     and links.potential_tx_link(a, b)
                     and positions[s].distance_to(positions[b]) > dist_sa]
            if not cands:
                ok = False
                break
            b = cands[int(rng.integers(0, len(cands)))]
            leaves.append(b)
            used.add(b)
        if ok:
            out.append(MeshTopology(s, tuple(forwarders), tuple(leaves)))
    return out


def naive_ap(testbed, num_aps, trial_seed):
    links = testbed.links
    regions = testbed.regions(3, 2)[:num_aps]
    by_region = testbed.nodes_by_region(3, 2)
    aps = []
    for region in regions:
        candidates = sorted(
            by_region[region.index],
            key=lambda n: (testbed.positions[n].x - region.center.x) ** 2
            + (testbed.positions[n].y - region.center.y) ** 2,
        )
        aps.append(next(c for c in candidates
                        if all(links.out_of_range(c, o) for o in aps)))
    rng = testbed.rngs.fork("scenario", "ap", num_aps, trial_seed).stream("pick")
    flows = []
    for region, ap in zip(regions, aps):
        clients = [n for n in by_region[region.index]
                   if n != ap and n not in aps and links.potential_tx_link(ap, n)]
        client = clients[int(rng.integers(0, len(clients)))]
        flows.append((ap, client) if rng.random() < 0.5 else (client, ap))
    return ApTopology(tuple(aps), tuple(flows))


def naive_sample(testbed, name, candidates, count, seed):
    rng = testbed.rngs.fork("scenario", name, seed).stream("sample")
    return _sample(candidates, count, rng)


# ----------------------------------------------------------------------
# Index invariants
# ----------------------------------------------------------------------
def definitions(links):
    """Each §5.1 predicate from the raw statistics, over all ordered pairs."""
    prr, rss = links.prr, links.rss
    p10, p90 = links.signal_p10_dbm, links.signal_p90_dbm

    def both(a, b, floor):
        return all(prr(x, y) > floor and rss(x, y) > p10
                   for x, y in ((a, b), (b, a)))

    return {
        "in_range": lambda a, b: both(a, b, 0.2),
        "out_of_range": lambda a, b: prr(a, b) < 0.2 and prr(b, a) < 0.2,
        "potential_tx_link": lambda a, b: both(a, b, 0.9),
        "strong_signal": lambda a, b: rss(a, b) >= p90,
        "weak_signal": lambda a, b: rss(a, b) < p90,
    }


def check_index(links):
    pairs = list(itertools.permutations(links.node_ids, 2))
    for name, definition in definitions(links).items():
        predicate = getattr(links, name)
        for a, b in pairs:
            assert predicate(a, b) == definition(a, b), (name, a, b)
    for a, b in pairs:
        assert links.potential_tx_link(a, b) == links.potential_tx_link(b, a)
    order = {n: i for i, n in enumerate(links.node_ids)}
    for a in links.node_ids:
        adjacency = links.potential_tx_neighbours(a)
        assert list(adjacency) == [
            b for b in links.node_ids if b != a and links.potential_tx_link(a, b)
        ]
        assert [order[b] for b in adjacency] == sorted(order[b] for b in adjacency)
    assert links.potential_tx_links() == naive_tx_links(links)


def test_index_matches_definitions(testbed):
    check_index(testbed.links)


# ----------------------------------------------------------------------
# Finder equivalence on full testbeds
# ----------------------------------------------------------------------
PAIR_FINDERS = [
    ("exposed", find_exposed_terminal_configs, naive_exposed),
    ("inrange", find_inrange_configs, naive_inrange),
    ("hidden", find_hidden_terminal_configs, naive_hidden),
    ("mobility", find_mobility_configs, naive_inrange),
]


@pytest.mark.parametrize("name,finder,naive", PAIR_FINDERS,
                         ids=[f[0] for f in PAIR_FINDERS])
def test_pair_finder_matches_naive_scan(testbed, name, finder, naive):
    expected = naive(testbed.links)
    assert expected, "the testbed should offer candidates"
    assert finder(testbed, ALL) == expected
    for seed in (0, 5):
        assert finder(testbed, 12, seed=seed) == naive_sample(
            testbed, name, expected, 12, seed
        )


@pytest.mark.parametrize("name,finder,naive", PAIR_FINDERS,
                         ids=[f[0] for f in PAIR_FINDERS])
def test_max_candidates_truncation_order(testbed, name, finder, naive):
    for k in (1, 7, 50):
        assert finder(testbed, ALL, max_candidates=k) == naive(testbed.links, k)
    assert finder(testbed, 3, seed=2, max_candidates=9) == naive_sample(
        testbed, name, naive(testbed.links, 9), 3, 2
    )


def test_sampling_finders_match_naive_scan(testbed):
    for seed in (0, 3):
        assert find_hidden_interferer_triples(testbed, 25, seed) == (
            naive_triples(testbed, 25, seed)
        )
        assert find_disjoint_flows(testbed, 3, 10, seed) == (
            naive_disjoint(testbed, 3, 10, seed)
        )
        assert find_mesh_topologies(testbed, 8, 3, seed) == (
            naive_mesh(testbed, 8, 3, seed)
        )
    for num_aps in (2, 3):
        for trial in (0, 1):
            assert find_ap_topology(testbed, num_aps, trial) == (
                naive_ap(testbed, num_aps, trial)
            )


# ----------------------------------------------------------------------
# Small tables: the line topology of test_links.py and its edge cases
# ----------------------------------------------------------------------
def line_table(positions):
    rss = RssMatrix(LogDistance(exponent=3.3), positions, 18.0)
    return LinkTable(sorted(positions), rss, -93.0, NistErrorModel())


def bed(links, seed=0):
    """The slice of a Testbed the pair finders read."""
    return SimpleNamespace(links=links, rngs=RngFactory(seed))


LINE = {
    0: Position(0, 0),
    1: Position(10, 0),
    2: Position(40, 0),
    3: Position(80, 0),
    4: Position(200, 0),
}
#: Only 0 <-> 1 clears the potential-tx thresholds (1 <-> 2 is marginal).
SINGLE = {0: Position(0, 0), 1: Position(10, 0), 2: Position(72, 0),
          3: Position(300, 0)}
#: Two close nodes are the only connected pair, so neither clears the
#: 10th-percentile signal floor: no links at all.
NONE = {0: Position(0, 0), 1: Position(10, 0), 4: Position(200, 0),
        5: Position(400, 0)}


@pytest.mark.parametrize("positions,tx_links", [
    (LINE, [(0, 1), (1, 0), (1, 2), (2, 1)]),
    (SINGLE, [(0, 1), (1, 0)]),
    (NONE, []),
], ids=["line", "single", "none"])
def test_small_tables(positions, tx_links):
    links = line_table(positions)
    check_index(links)
    assert links.potential_tx_links() == tx_links
    for name, finder, naive in PAIR_FINDERS:
        expected = naive(links)
        if expected:
            assert finder(bed(links), ALL) == expected
        else:
            with pytest.raises(ScenarioError):
                finder(bed(links), ALL)
