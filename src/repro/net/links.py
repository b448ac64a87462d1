"""Link measurement and classification (paper §5.1).

Before each experiment the paper measures, for every node pair, the isolated
packet reception rate (PRR) and average signal strength at 6 Mb/s, then
classifies:

* **in range**: both directions PRR > 0.2 and signal above the 10th
  percentile of all links network-wide;
* **potential transmission link**: both directions PRR > 0.9 and signal above
  the 10th percentile (the only links experiments send data over);
* signal-strength percentile bands (90th percentile = "strong") used by the
  exposed-terminal topology constraints (Fig. 11).

We compute isolated PRR analytically from the error model — in a simulator
the channel is known exactly, so Monte-Carlo link measurement would add noise
without adding information. In-run delivery remains stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.phy.modulation import ErrorModel, Rate, RATE_6M, isolated_prr
from repro.phy.propagation import RssMatrix


@dataclass(frozen=True)
class LinkStats:
    """Measured (analytic) statistics of one directed link."""

    src: int
    dst: int
    rss_dbm: float
    prr: float


class LinkTable:
    """All-pairs link statistics plus the paper's classification predicates."""

    def __init__(
        self,
        node_ids: List[int],
        rss: RssMatrix,
        noise_dbm: float,
        error_model: ErrorModel,
        rate: Rate = RATE_6M,
        probe_size_bytes: int = 1428,
        connectivity_floor_prr: float = 1e-4,
        fading=None,
    ):
        self.node_ids = list(node_ids)
        self.rate = rate
        self.fading = fading
        self._stats: Dict[Tuple[int, int], LinkStats] = {}
        for a in self.node_ids:
            for b in self.node_ids:
                if a == b:
                    continue
                rss_dbm = rss.rss(a, b)
                if fading is not None:
                    prr = fading.mean_prr(
                        rss_dbm, noise_dbm, rate, probe_size_bytes,
                        error_model, a, b,
                    )
                else:
                    prr = isolated_prr(
                        rss_dbm, noise_dbm, rate, probe_size_bytes, error_model
                    )
                self._stats[(a, b)] = LinkStats(a, b, rss_dbm, prr)

        connected = [
            ls.rss_dbm
            for ls in self._stats.values()
            if ls.prr > connectivity_floor_prr
        ]
        #: 10th / 90th percentile of signal strength over connected links,
        #: the thresholds used throughout §5's topology constraints.
        self.signal_p10_dbm = (
            float(np.percentile(connected, 10)) if connected else -200.0
        )
        self.signal_p90_dbm = (
            float(np.percentile(connected, 90)) if connected else -200.0
        )
        self._connectivity_floor = connectivity_floor_prr
        self._classify()

    def _classify(self) -> None:
        """Evaluate the §5.1 classification once for every ordered pair.

        The predicates below are lookups into these frozen sets, and the
        scenario finders walk the per-node potential-tx adjacency instead
        of testing every node tuple.
        """
        stats = self._stats
        p10, p90 = self.signal_p10_dbm, self.signal_p90_dbm
        in_range, out_of_range, tx, strong, weak = set(), set(), set(), set(), set()
        # The sets share the stats dict's key tuples instead of new ones.
        for pair, ab in stats.items():
            ba = stats[(ab.dst, ab.src)]
            if ab.prr > 0.2 and ab.rss_dbm > p10 and ba.prr > 0.2 and ba.rss_dbm > p10:
                in_range.add(pair)
            if ab.prr < 0.2 and ba.prr < 0.2:
                out_of_range.add(pair)
            if ab.prr > 0.9 and ab.rss_dbm > p10 and ba.prr > 0.9 and ba.rss_dbm > p10:
                tx.add(pair)
            if ab.rss_dbm >= p90:
                strong.add(pair)
            if ab.rss_dbm < p90:
                weak.add(pair)
        self._in_range = frozenset(in_range)
        self._out_of_range = frozenset(out_of_range)
        self._tx = frozenset(tx)
        self._strong = frozenset(strong)
        self._weak = frozenset(weak)
        self._tx_adjacency: Dict[int, Tuple[int, ...]] = {
            a: tuple(b for b in self.node_ids if (a, b) in tx)
            for a in self.node_ids
        }

    # ------------------------------------------------------------------
    # Raw accessors
    # ------------------------------------------------------------------
    def stats(self, src: int, dst: int) -> LinkStats:
        return self._stats[(src, dst)]

    def prr(self, src: int, dst: int) -> float:
        return self._stats[(src, dst)].prr

    def rss(self, src: int, dst: int) -> float:
        return self._stats[(src, dst)].rss_dbm

    def all_links(self) -> Iterable[LinkStats]:
        return self._stats.values()

    # ------------------------------------------------------------------
    # Paper §5.1 predicates
    # ------------------------------------------------------------------
    def has_connectivity(self, a: int, b: int) -> bool:
        """True if either direction delivers anything at all."""
        return (
            self.prr(a, b) > self._connectivity_floor
            or self.prr(b, a) > self._connectivity_floor
        )

    def in_range(self, a: int, b: int) -> bool:
        """Both directions PRR > 0.2 and signal above the 10th percentile."""
        return (a, b) in self._in_range

    def out_of_range(self, a: int, b: int) -> bool:
        """PRR < 0.2 in both directions (Fig. 11(c) 'not in range')."""
        return (a, b) in self._out_of_range

    def potential_tx_link(self, a: int, b: int) -> bool:
        """Both directions PRR > 0.9 and signal above the 10th percentile."""
        return (a, b) in self._tx

    def strong_signal(self, a: int, b: int) -> bool:
        """Signal a->b in the 90th percentile of all links network-wide."""
        return (a, b) in self._strong

    def weak_signal(self, a: int, b: int) -> bool:
        """Signal a->b below the 90th percentile threshold."""
        return (a, b) in self._weak

    def potential_tx_neighbours(self, a: int) -> Tuple[int, ...]:
        """Nodes b with a potential transmission link a->b, in ``node_ids``
        order."""
        return self._tx_adjacency[a]

    def potential_tx_links(self) -> List[Tuple[int, int]]:
        """Every potential transmission link (a, b), in the order
        ``itertools.permutations(node_ids, 2)`` visits them."""
        return [(a, b) for a in self.node_ids for b in self._tx_adjacency[a]]

    # ------------------------------------------------------------------
    # Census (paper §5.1 testbed characterisation)
    # ------------------------------------------------------------------
    def census(self) -> "LinkCensus":
        """Summarise connectivity the way §5.1 characterises the testbed."""
        connected = [
            ls for ls in self._stats.values() if ls.prr > self._connectivity_floor
        ]
        dead = sum(1 for ls in connected if ls.prr < 0.1)
        mid = sum(1 for ls in connected if 0.1 <= ls.prr < 0.999)
        perfect = sum(1 for ls in connected if ls.prr >= 0.999)
        degree: Dict[int, int] = {n: 0 for n in self.node_ids}
        for ls in connected:
            if ls.prr >= 0.1:
                degree[ls.src] += 1
        degrees = sorted(degree.values())
        return LinkCensus(
            connected_pairs=len(connected),
            frac_prr_below_01=dead / len(connected) if connected else 0.0,
            frac_prr_mid=mid / len(connected) if connected else 0.0,
            frac_prr_perfect=perfect / len(connected) if connected else 0.0,
            mean_degree=float(np.mean(degrees)) if degrees else 0.0,
            median_degree=float(np.median(degrees)) if degrees else 0.0,
        )


@dataclass(frozen=True)
class LinkCensus:
    """Testbed connectivity summary, comparable to paper §5.1's numbers.

    Paper reports: 2162 connected pairs; 68 % PRR < 0.1; 12 % intermediate;
    20 % PRR = 1; mean degree 15.2; median 17.
    """

    connected_pairs: int
    frac_prr_below_01: float
    frac_prr_mid: float
    frac_prr_perfect: float
    mean_degree: float
    median_degree: float
