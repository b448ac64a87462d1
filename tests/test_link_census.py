"""The link census is exact: every analytic PRR equals the full quadrature.

``LosNlosMixtureFading.mean_prr``, ``GaussianBlockFading.mean_prr`` and
``isolated_prr`` evaluate the chunk closure only on the PER waterfall and
resolve the saturated quadrature nodes from the chunk kernel's region
bounds (``repro.phy.modulation.fade_average``). The reference loops below
are the plain full-quadrature sums — every node, in order, through
``ErrorModel.frame_success`` — and every PRR must match them bit for bit
(compared by ``float.hex``), under the ``scalar`` backend (no regions:
the full loop) and under the default backend (regions on).
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from repro.experiments.scenarios import prr_at_rate
from repro.kernels.backend import DEFAULT_BACKEND, get_backend, set_backend
from repro.kernels.chunkgrid import BITS_SAFE
from repro.net.testbed import Testbed
from repro.phy.fading import GaussianBlockFading, LosNlosMixtureFading
from repro.phy.modulation import (
    RATE_6M,
    RATES,
    NistErrorModel,
    SinrThresholdErrorModel,
    census_kernel,
    isolated_prr,
)
from repro.util.units import sinr_db

SEEDS = range(1, 21)
#: Mean RSS sweep crossing every rate's waterfall with margin on both sides.
RSS_SWEEP = [float(x) for x in np.arange(-110.0, -40.0, 0.37)]


@pytest.fixture(params=["scalar", DEFAULT_BACKEND])
def backend(request):
    previous = get_backend().name
    set_backend(request.param)
    yield request.param
    set_backend(previous)


# ----------------------------------------------------------------------
# Reference loops: the full quadrature, every node through frame_success
# ----------------------------------------------------------------------
def _grid():
    xs = np.linspace(-4.5, 4.5, 81)
    pdf = np.exp(-0.5 * xs**2)
    return xs, pdf / pdf.sum()


def ref_gaussian(sigma, rss, noise, rate, size, em):
    s = sinr_db(rss, -400.0, noise)
    total = 0.0
    for x, w in zip(*_grid()):
        total += w * em.frame_success(s + sigma * float(x), rate, size)
    return float(total)


def ref_mixture(fading, rss, noise, rate, size, em, a, b):
    if fading.is_los(a, b):
        return ref_gaussian(fading.los_sigma_db, rss, noise, rate, size, em)
    s = sinr_db(rss, -400.0, noise)
    gains = -np.log1p(-((np.arange(200) + 0.5) / 200.0))
    total = 0.0
    for g in gains:
        fade = max(-50.0, 10.0 * math.log10(float(g)))
        total += em.frame_success(s + fade, rate, size)
    return float(min(1.0, total / len(gains)))


def ref_isolated(rss, noise, rate, size, em, sigma):
    s = sinr_db(rss, -400.0, noise)
    nodes, weights = np.polynomial.hermite_e.hermegauss(17)
    weights = weights / weights.sum()
    total = 0.0
    for x, w in zip(nodes, weights):
        total += w * em.frame_success(s + sigma * float(x), rate, size)
    return float(total)


def ref_census(testbed):
    """(src, dst, rss hex, prr hex) of every directed pair, full loop."""
    cfg = testbed.config
    rows = []
    for a in testbed.node_ids:
        for b in testbed.node_ids:
            if a == b:
                continue
            rss = testbed.rss.rss(a, b)
            prr = ref_mixture(
                testbed.fading, rss, cfg.noise_dbm, cfg.rate,
                cfg.probe_size_bytes, testbed.error_model, a, b,
            )
            rows.append((a, b, rss.hex(), prr.hex()))
    return rows


@lru_cache(maxsize=None)
def ref_census_of_seed(seed):
    return ref_census(Testbed(seed))


def census_rows(testbed):
    return [
        (ls.src, ls.dst, ls.rss_dbm.hex(), ls.prr.hex())
        for ls in testbed.links.all_links()
    ]


# ----------------------------------------------------------------------
# Testbed census
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_testbed_census_matches_full_quadrature(backend, seed):
    assert census_rows(Testbed(seed)) == ref_census_of_seed(seed)


def count_closure_calls(kernel):
    """Wrap the kernel's chunk closure with a call counter."""
    calls = [0]
    chunk = kernel.chunk

    def counted(s, bits):
        calls[0] += 1
        return chunk(s, bits)

    kernel.chunk = counted
    return calls


def test_census_calls_closure_only_on_waterfall(backend):
    em = NistErrorModel()
    calls = count_closure_calls(census_kernel(em, RATE_6M))
    testbed = Testbed(1, error_model=em)
    ids = testbed.node_ids
    full = sum(
        81 if testbed.fading.is_los(a, b) else 200
        for a in ids for b in ids if a != b
    )
    testbed.links
    if backend == "scalar":
        assert calls[0] == full
    else:
        assert 0 < calls[0] < full / 2


def test_threshold_model_falls_back_to_full_loop(backend):
    em = SinrThresholdErrorModel()
    testbed = Testbed(2, error_model=em)
    assert census_kernel(em, RATE_6M).bits_safe == 0.0
    assert census_rows(testbed) == ref_census(Testbed(2, error_model=em))


@pytest.mark.parametrize("mbps", [6, 24, 54])
def test_prr_at_rate_matches_full_quadrature(backend, mbps):
    testbed = Testbed(1)
    cfg = testbed.config
    ids = testbed.node_ids
    for a, b in zip(ids, ids[1:] + ids[:1]):
        for x, y in ((a, b), (b, a)):
            expected = ref_mixture(
                testbed.fading, testbed.rss.rss(x, y), cfg.noise_dbm,
                RATES[mbps], 1428, testbed.error_model, x, y,
            )
            assert prr_at_rate(testbed, x, y, mbps).hex() == expected.hex()


# ----------------------------------------------------------------------
# Fading models and isolated_prr over an RSS sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sigma", [0.0, 2.0, 6.0])
@pytest.mark.parametrize("mbps", [6, 54])
def test_gaussian_block_fading_matches_full_quadrature(backend, sigma, mbps):
    em = NistErrorModel()
    fading = GaussianBlockFading(sigma)
    for rss in RSS_SWEEP:
        got = fading.mean_prr(rss, -93.0, RATES[mbps], 1428, em, 0, 1)
        want = ref_gaussian(sigma, rss, -93.0, RATES[mbps], 1428, em)
        assert got.hex() == want.hex(), rss


@pytest.mark.parametrize("sigma", [0.5, 3.0, 6.0])
def test_isolated_prr_with_fading_matches_full_quadrature(backend, sigma):
    em = NistErrorModel()
    for mbps in (6, 24, 54):
        for rss in RSS_SWEEP:
            got = isolated_prr(rss, -93.0, RATES[mbps], 1428, em, sigma)
            want = ref_isolated(rss, -93.0, RATES[mbps], 1428, em, sigma)
            assert got.hex() == want.hex(), (mbps, rss)


def test_frames_beyond_bits_safe_fall_back_to_full_loop(backend):
    em = NistErrorModel()
    size = int(BITS_SAFE / 8) + 1
    kernel = census_kernel(em, RATE_6M)
    fades = [-1.0, 0.0, 1.0]
    assert kernel.waterfall(100.0, fades, 8.0 * size) == (0, 3)
    fading = LosNlosMixtureFading(seed=5)
    gauss = GaussianBlockFading(2.0)
    for rss in RSS_SWEEP[::4]:
        for a, b in ((0, 1), (0, 2), (1, 2), (3, 7)):
            got = fading.mean_prr(rss, -93.0, RATE_6M, size, em, a, b)
            want = ref_mixture(fading, rss, -93.0, RATE_6M, size, em, a, b)
            assert got.hex() == want.hex()
        got = gauss.mean_prr(rss, -93.0, RATE_6M, size, em, 0, 1)
        assert got.hex() == ref_gaussian(2.0, rss, -93.0, RATE_6M, size, em).hex()


# ----------------------------------------------------------------------
# The waterfall bisection itself
# ----------------------------------------------------------------------
class TestWaterfallSpan:
    def test_regions_disabled_under_scalar(self):
        previous = get_backend().name
        set_backend("scalar")
        try:
            kernel = NistErrorModel().chunk_kernel(RATE_6M)
        finally:
            set_backend(previous)
        fades = LosNlosMixtureFading(seed=1)._nlos_fades
        for s in (-100.0, 0.0, 100.0):
            assert kernel.waterfall(s, fades, 11424.0) == (0, len(fades))

    def test_saturated_sinr_skips_every_node(self):
        kernel = NistErrorModel().chunk_kernel(RATE_6M)
        fades = LosNlosMixtureFading(seed=1)._los_fades
        assert kernel.waterfall(60.0, fades, 11424.0) == (0, 0)
        n = len(fades)
        assert kernel.waterfall(-60.0, fades, 11424.0) == (n, n)

    def test_span_edges_are_the_region_edges(self):
        em = NistErrorModel()
        kernel = em.chunk_kernel(RATE_6M)
        fades = LosNlosMixtureFading(seed=1)._nlos_fades
        bits = 11424.0
        for s in np.arange(-10.0, 40.0, 0.5):
            lo, hi = kernel.waterfall(float(s), fades, bits)
            assert lo <= hi
            for i, f in enumerate(fades):
                p = kernel.chunk(float(s) + f, bits)
                if i < lo:
                    assert p == 0.0
                elif i >= hi:
                    assert p == 1.0

    def test_zero_bits_is_not_saturated(self):
        kernel = NistErrorModel().chunk_kernel(RATE_6M)
        assert kernel.waterfall(-60.0, [0.0, 1.0], 0.0) == (0, 2)

    def test_fade_tables_checked_at_construction(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            LosNlosMixtureFading(seed=1, los_sigma_db=-0.5)
