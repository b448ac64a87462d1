"""Executor, spec, and persistence tests.

The load-bearing guarantees:

* the declarative spec + serial executor reproduce the pre-refactor runners
  bit-for-bit (golden floats captured from the hand-rolled implementations
  at smoke scale, testbed seed 1);
* the process-pool backend is bit-identical to serial;
* specs re-materialize stably (same ids, seeds, fingerprints), which is what
  makes persistence/resume sound.
"""

import json
import os
import pickle

import pytest

from repro.experiments.executor import (
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    make_backend,
    run_experiment,
    run_trial,
)
from repro.experiments.runners import (
    ExperimentScale,
    ScatterPoint,
    build_exposed_terminals,
    build_hidden_terminals,
    build_inrange_senders,
    run_exposed_terminals,
    run_hidden_terminals,
    run_inrange_senders,
)
from repro.experiments.scenarios import InterfererTriple
from repro.experiments.spec import (
    ExperimentSpec,
    MacSpec,
    TrialResult,
    TrialSpec,
    coerce_mac,
)
from repro.net.testbed import Testbed
from repro.network import build_mac_factory


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


@pytest.fixture(scope="module")
def smoke():
    return ExperimentScale.smoke()


# Golden outputs of the pre-spec hand-rolled runners (testbed seed 1,
# ExperimentScale.smoke()). The refactor must not move a single bit.
GOLDEN_FIG12_TOTALS = {
    "cs_on": [4.7904, 5.7824, 5.2128],
    "cs_off_noacks": [5.3504000000000005, 10.8896, 9.0816],
    "cmap": [5.2672, 10.8704, 8.9824],
    "cmap_win1": [4.144, 9.5168, 6.2784],
}
GOLDEN_FIG12_CONC = [
    0.20485622971853207, 0.3437460583736443, 0.9025309282763259,
    0.793616902784254, 0.8847614202965389, 0.6150589333251846,
]
GOLDEN_FIG13_TOTALS = {
    "cs_on": [5.4239999999999995, 5.1776, 5.0048],
    "cs_off_acks": [5.1744, 1.6128, 5.014399999999999],
    "cs_off_noacks": [5.5264, 0.2624, 6.4512],
    "cmap": [5.513599999999999, 3.0208, 5.7088],
}
GOLDEN_FIG15_TOTALS = {
    "cs_on": [4.7456000000000005, 2.4032, 5.0944],
    "cs_off_acks": [4.912, 1.2288000000000001, 1.1456],
    "cmap": [5.4719999999999995, 3.4976000000000003, 2.6879999999999997],
}


class CountingBackend:
    """Serial backend that records how many trials it actually ran."""

    def __init__(self):
        self.executed = 0

    def run(self, testbed, trials, on_result=None):
        self.executed += len(trials)
        return SerialBackend().run(testbed, trials, on_result=on_result)


class DyingBackend:
    """Serial backend that crashes after ``survive`` completed trials."""

    def __init__(self, survive):
        self.survive = survive

    def run(self, testbed, trials, on_result=None):
        results = []
        for trial in trials:
            if len(results) >= self.survive:
                raise RuntimeError("simulated crash mid-sweep")
            res = run_trial(testbed, trial)
            if on_result is not None:
                on_result(res)
            results.append(res)
        return results


class TestGoldenEquivalence:
    """Serial spec execution == pre-refactor hand-rolled runners."""

    def test_fig12_bit_identical(self, testbed, smoke):
        r = run_exposed_terminals(testbed, smoke)
        assert r.totals == GOLDEN_FIG12_TOTALS
        assert r.cmap_concurrency == GOLDEN_FIG12_CONC

    def test_fig13_bit_identical(self, testbed, smoke):
        r = run_inrange_senders(testbed, smoke)
        assert r.totals == GOLDEN_FIG13_TOTALS

    def test_fig15_bit_identical(self, testbed, smoke):
        r = run_hidden_terminals(testbed, smoke)
        assert r.totals == GOLDEN_FIG15_TOTALS


class TestProcessPool:
    def test_fig12_pool_matches_serial_goldens(self, testbed, smoke):
        r = run_exposed_terminals(testbed, smoke,
                                  backend=ProcessPoolBackend(jobs=2))
        assert r.totals == GOLDEN_FIG12_TOTALS
        assert r.cmap_concurrency == GOLDEN_FIG12_CONC

    def test_fig13_pool_matches_serial_goldens(self, testbed, smoke):
        r = run_inrange_senders(testbed, smoke,
                                backend=ProcessPoolBackend(jobs=2))
        assert r.totals == GOLDEN_FIG13_TOTALS

    def test_make_backend(self):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(1), SerialBackend)
        pool = make_backend(4)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.jobs == 4


class TestSpecStability:
    """Re-materializing a spec must yield identical trials — the property
    persistence/resume relies on."""

    def test_trials_stable_across_rebuilds(self, testbed, smoke):
        a = build_exposed_terminals(testbed, smoke)
        b = build_exposed_terminals(testbed, smoke)
        assert [t.trial_id for t in a.trials] == [t.trial_id for t in b.trials]
        assert [t.run_seed for t in a.trials] == [t.run_seed for t in b.trials]
        assert [t.fingerprint() for t in a.trials] == [
            t.fingerprint() for t in b.trials
        ]
        assert a.trials == b.trials

    def test_fingerprint_sensitive_to_settings(self, testbed, smoke):
        spec = build_hidden_terminals(testbed, smoke)
        trial = spec.trials[0]
        longer = TrialSpec(
            trial_id=trial.trial_id,
            nodes=trial.nodes,
            flows=trial.flows,
            mac=trial.mac,
            run_seed=trial.run_seed,
            duration=trial.duration * 2,
            warmup=trial.warmup,
        )
        assert longer.fingerprint() != trial.fingerprint()

    def test_trialspec_pickles(self, testbed, smoke):
        spec = build_inrange_senders(testbed, smoke)
        for trial in spec.trials:
            clone = pickle.loads(pickle.dumps(trial))
            assert clone == trial
            assert clone.fingerprint() == trial.fingerprint()

    def test_duplicate_trial_ids_rejected(self):
        t = TrialSpec("dup", (0, 1), ((0, 1),), MacSpec.of("cmap"), 0, 4.0, 1.0)
        with pytest.raises(ValueError):
            ExperimentSpec("x", [t, t], lambda results: results)


class TestResultStore:
    def test_resume_skips_completed_trials(self, testbed, smoke, tmp_path):
        path = str(tmp_path / "results.json")
        store = ResultStore(path, testbed_seed=1)
        first = CountingBackend()
        r1 = run_inrange_senders(testbed, smoke, backend=first, store=store)
        assert first.executed == len(build_inrange_senders(testbed, smoke).trials)

        resumed = ResultStore(path, testbed_seed=1)
        second = CountingBackend()
        r2 = run_inrange_senders(testbed, smoke, backend=second, store=resumed)
        assert second.executed == 0
        assert r2.totals == r1.totals
        assert r2.per_flow == r1.per_flow
        assert r2.cmap_concurrency == r1.cmap_concurrency

    def test_fingerprint_mismatch_reruns(self, testbed, tmp_path):
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=1, duration=4.0, warmup=1.5)
        store = ResultStore(path, testbed_seed=1)
        run_inrange_senders(testbed, tiny, backend=CountingBackend(), store=store)

        longer = ExperimentScale(configs=1, duration=5.0, warmup=1.5)
        backend = CountingBackend()
        run_inrange_senders(testbed, longer, backend=backend,
                            store=ResultStore(path, testbed_seed=1))
        assert backend.executed == len(
            build_inrange_senders(testbed, longer).trials
        )

    def test_interrupted_run_keeps_completed_trials(self, testbed, tmp_path):
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=2, duration=4.0, warmup=1.5)
        total = len(build_inrange_senders(testbed, tiny).trials)
        survive = 3
        with pytest.raises(RuntimeError):
            run_inrange_senders(testbed, tiny, backend=DyingBackend(survive),
                                store=ResultStore(path, testbed_seed=1))
        # The crash must not lose the trials that finished before it.
        assert len(ResultStore(path, testbed_seed=1)) == survive

        backend = CountingBackend()
        run_inrange_senders(testbed, tiny, backend=backend,
                            store=ResultStore(path, testbed_seed=1))
        assert backend.executed == total - survive

    def test_seed_mismatch_rejected(self, testbed, tmp_path):
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=1, duration=4.0, warmup=1.5)
        store = ResultStore(path, testbed_seed=1)
        run_inrange_senders(testbed, tiny, store=store)
        with pytest.raises(ValueError):
            ResultStore(path, testbed_seed=2)

    def test_store_binds_to_executed_testbed(self, testbed, tmp_path):
        # Even a store created without a seed must reject a foreign testbed
        # once it has been used (the executor binds it to testbed.seed).
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=1, duration=4.0, warmup=1.5)
        store = ResultStore(path)
        run_inrange_senders(testbed, tiny, store=store)
        assert store.testbed_seed == testbed.seed
        other = Testbed(seed=2)
        with pytest.raises(ValueError):
            run_inrange_senders(other, tiny, store=store)


class RudeBackend:
    """Backend that ``put``s results into the store itself but never calls
    ``on_result`` — then dies. Models a worker that batches persistence:
    the run_experiment crash path must flush the store anyway."""

    def __init__(self, store, survive):
        self.store = store
        self.survive = survive

    def run(self, testbed, trials, on_result=None):
        for trial in trials[: self.survive]:
            self.store.put(run_trial(testbed, trial))
        raise RuntimeError("simulated worker death before any save")


class _TearingOs:
    """Stands in for the executor's ``os`` module: every ``write`` lands
    only its first ``keep`` bytes on disk and then fails — a disk that
    fills up mid-append."""

    def __init__(self, keep):
        self.keep = keep

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        os.write(fd, bytes(data[: self.keep]))
        raise OSError("disk full (injected)")


class _FailingOs:
    """Stands in for the executor's ``os`` module with one function,
    ``name``, that always fails."""

    def __init__(self, name):
        self.name = name

    def __getattr__(self, name):
        if name == self.name:
            def fail(*args, **kwargs):
                raise OSError(f"{name} failed (injected)")
            return fail
        return getattr(os, name)


class TestCrashSafety:
    def test_save_fault_leaves_previous_contents_intact(
        self, testbed, tmp_path, monkeypatch
    ):
        """A crash mid-append (a write that lands a prefix, then fails)
        must leave the previous on-disk store readable, with no torn bytes
        and no temp litter behind."""
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=1, duration=4.0, warmup=1.5)
        store = ResultStore(path, testbed_seed=1)
        run_inrange_senders(testbed, tiny, store=store)
        intact = len(store)
        assert intact > 0
        before = (tmp_path / "results.json").read_bytes()

        spec = build_inrange_senders(testbed, tiny)
        extra = run_trial(testbed, spec.trials[0])
        store.put(
            type(extra)(
                trial_id="extra/0",
                flow_mbps=extra.flow_mbps,
                fingerprint="fp-extra",
            )
        )

        monkeypatch.setattr("repro.experiments.executor.os", _TearingOs(11))
        with pytest.raises(OSError):
            store.save()
        monkeypatch.undo()

        assert (tmp_path / "results.json").read_bytes() == before
        reloaded = ResultStore(path, testbed_seed=1)
        assert len(reloaded) == intact  # previous save, bit-for-bit readable
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_full_write_leaves_previous_contents_intact(
        self, tmp_path, monkeypatch, failing
    ):
        """The temp-file + rename full write (here: a legacy file's first
        save) failing before or at the rename must leave the old bytes in
        place and remove its temp file; the retry then upgrades it."""
        path = tmp_path / "results.json"
        path.write_text(json.dumps(
            {"testbed_seed": 1, "experiment": "old",
             "trials": [_fake_result(i).to_json() for i in range(2)]}))
        before = path.read_bytes()
        store = ResultStore(str(path), testbed_seed=1)
        store.put(_fake_result(2))

        monkeypatch.setattr("repro.experiments.executor.os",
                            _FailingOs(failing))
        with pytest.raises(OSError):
            store.save()
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []
        assert len(ResultStore(str(path), testbed_seed=1)) == 2
        store.save()
        assert ResultStore(str(path)).results() == [
            _fake_result(i) for i in range(3)]

    def test_uncooperative_backend_failure_still_persists(
        self, testbed, tmp_path
    ):
        """Even a backend that never calls on_result loses nothing that
        reached the store before it died."""
        path = str(tmp_path / "results.json")
        tiny = ExperimentScale(configs=2, duration=4.0, warmup=1.5)
        store = ResultStore(path, testbed_seed=1)
        with pytest.raises(RuntimeError):
            run_inrange_senders(
                testbed, tiny, backend=RudeBackend(store, survive=2),
                store=store,
            )
        assert len(ResultStore(path, testbed_seed=1)) == 2

    def test_raising_trial_keeps_earlier_results(self, testbed, tmp_path):
        """A spec whose trial raises (unknown metric) fails the sweep but
        the trials that completed before it are already on disk."""
        path = str(tmp_path / "results.json")
        good = TrialSpec("good/0", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                         0, 4.0, 1.5)
        bad = TrialSpec("bad/0", (0, 1), ((0, 1),), MacSpec.of("dcf"),
                        0, 4.0, 1.5, metrics=("no_such_metric",))
        spec = ExperimentSpec("partial", [good, bad], lambda r: r)
        with pytest.raises(KeyError):
            run_experiment(spec, testbed,
                           store=ResultStore(path, testbed_seed=1))
        reloaded = ResultStore(path, testbed_seed=1)
        assert len(reloaded) == 1
        assert reloaded.get(good) is not None


def _fake_result(i):
    return TrialResult(f"t/{i}", {(0, 1): float(i)}, {"k": i}, f"fp{i}")


def _journal_lines(path):
    with open(path, "rb") as f:
        return f.read().split(b"\n")


class TestJournal:
    """The store's on-disk journal: append-only saves, and what a crash
    at any byte of an append leaves behind."""

    def _saved(self, path, n):
        store = ResultStore(str(path), testbed_seed=1, experiment="e")
        for i in range(n):
            store.put(_fake_result(i))
            store.save()
        return store

    def test_saves_append_in_place(self, tmp_path):
        path = tmp_path / "s.json"
        self._saved(path, 1)
        inode, first = os.stat(path).st_ino, path.read_bytes()
        store = ResultStore(str(path))
        store.put(_fake_result(1))
        store.save()
        store.save()  # nothing unsaved: no bytes written
        data = path.read_bytes()
        assert os.stat(path).st_ino == inode  # appended, not replaced
        assert data.startswith(first)
        assert data.count(b"\n") == first.count(b"\n") + 1
        head = json.loads(data.split(b"\n")[0])
        assert head == {"testbed_seed": 1, "experiment": "e"}
        assert ResultStore(str(path)).results() == [
            _fake_result(0), _fake_result(1)]

    def test_torn_final_line_ignored_then_removed_by_next_save(self,
                                                               tmp_path):
        path = tmp_path / "s.json"
        self._saved(path, 3)
        with open(path, "ab") as f:
            f.write(b'{"trial_id": "t/3", "flow_m')  # crash mid-append
        store = ResultStore(str(path))
        assert [r.trial_id for r in store.results()] == ["t/0", "t/1", "t/2"]
        store.put(_fake_result(3))
        store.save()
        lines = _journal_lines(path)
        assert lines[-1] == b""  # ends on a complete record
        assert [json.loads(x) for x in lines[:-1]][1:] == [
            _fake_result(i).to_json() for i in range(4)]
        assert len(ResultStore(str(path))) == 4

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "s.json"
        self._saved(path, 3)
        lines = _journal_lines(path)
        lines[2] = b'{"trial_id": "t/1", garbage'
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match="corrupt record on line 3"):
            ResultStore(str(path))

    def test_partial_append_rolls_back_and_retry_lands_once(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "s.json"
        store = self._saved(path, 2)
        before = path.read_bytes()
        store.put(_fake_result(2))
        monkeypatch.setattr("repro.experiments.executor.os", _TearingOs(7))
        with pytest.raises(OSError, match="injected"):
            store.save()
        monkeypatch.undo()
        assert path.read_bytes() == before  # no torn bytes left behind
        assert len(ResultStore(str(path))) == 2

        store.save()  # the retry
        records = [json.loads(x) for x in _journal_lines(path)[1:-1]]
        assert [r["trial_id"] for r in records] == ["t/0", "t/1", "t/2"]
        assert ResultStore(str(path)).results() == [
            _fake_result(i) for i in range(3)]

    def test_save_fault_hook_fires_before_any_byte(self, tmp_path):
        path = tmp_path / "s.json"
        store = self._saved(path, 1)
        before = path.read_bytes()

        def hook(site, key):
            assert (site, key) == ("store.save", str(path))
            raise OSError("injected store write failure")

        store.fault_hook = hook
        store.put(_fake_result(1))
        with pytest.raises(OSError):
            store.save()
        assert path.read_bytes() == before
        store.fault_hook = None
        store.save()
        assert len(ResultStore(str(path))) == 2

    def test_legacy_single_object_file_loads_and_upgrades(self, tmp_path):
        path = tmp_path / "s.json"
        legacy = {"testbed_seed": 4, "experiment": "old",
                  "trials": [_fake_result(i).to_json() for i in range(2)]}
        path.write_text(json.dumps(legacy))
        store = ResultStore(str(path), testbed_seed=4)
        assert store.experiment == "old"
        assert store.results() == [_fake_result(0), _fake_result(1)]
        store.put(_fake_result(2))
        store.save()
        lines = _journal_lines(path)
        assert json.loads(lines[0]) == {"testbed_seed": 4,
                                        "experiment": "old"}
        assert len(lines) == 5  # header + 3 records + the final newline
        assert ResultStore(str(path)).results() == [
            _fake_result(i) for i in range(3)]

    def test_header_change_rewrites_the_file(self, tmp_path):
        path = tmp_path / "s.json"
        store = ResultStore(str(path))
        store.put(_fake_result(0))
        store.save()
        store.testbed_seed = 3  # bound late, as run_experiment does
        store.save()
        reloaded = ResultStore(str(path))
        assert reloaded.testbed_seed == 3 and len(reloaded) == 1

    def test_rebuild_from_stores_ingests_both_formats(self, tmp_path):
        from repro.service.runtable import RunTable

        stores = tmp_path / "stores"
        stores.mkdir()
        self._saved(stores / "new.json", 3)
        (stores / "old.json").write_text(json.dumps(
            {"testbed_seed": 1, "experiment": "legacy",
             "trials": [_fake_result(i).to_json() for i in range(2)]}))
        rt = RunTable(str(tmp_path / "runs.sqlite"))
        try:
            assert rt.rebuild_from_stores(str(stores)) == 5
            assert rt.counts_by_experiment() == {"e": 3, "legacy": 2}
        finally:
            rt.close()


class TestMacRegistry:
    def test_known_protocols(self):
        assert callable(build_mac_factory("cmap"))
        assert callable(build_mac_factory("dcf", {"carrier_sense": False}))

    @pytest.mark.parametrize(
        "protocol", ["cmap", "dcf", "rtscts", "ecsma", "iamac", "autorate"]
    )
    def test_every_mac_variant_is_string_addressable(self, testbed, protocol):
        """All MAC variants run through the registry and pickle (so they can
        cross the process-pool boundary), not just cmap/dcf."""
        spec = TrialSpec(
            f"registry/{protocol}", (0, 1), ((0, 1),), MacSpec.of(protocol),
            run_seed=0, duration=2.0, warmup=0.5,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.mac.build() is not None
        result = run_trial(testbed, spec)
        assert result.mbps(0, 1) >= 0.0

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            build_mac_factory("aloha")

    def test_rate_ints_resolve(self, testbed):
        spec = TrialSpec(
            "rates", (0, 1), ((0, 1),),
            MacSpec.of("cmap", data_rate=12, control_rate=6),
            run_seed=0, duration=3.0, warmup=1.0,
        )
        result = run_trial(testbed, spec)
        assert result.mbps(0, 1) >= 0.0

    def test_coerce_raw_factory_is_serial_only(self):
        from repro.network import cmap_factory

        mac = coerce_mac(cmap_factory())
        assert mac.inline is not None
        assert callable(mac.build())
        stripped = pickle.loads(pickle.dumps(mac))
        with pytest.raises(ValueError):
            stripped.build()

    def test_inline_wraps_never_share_fingerprints(self):
        # Sequentially created closures can reuse id()s after GC; the wrap
        # serial must keep their fingerprints distinct so a ResultStore can
        # never serve one inline experiment's results to another.
        from repro.network import cmap_factory

        def trial_for(mac):
            return TrialSpec("x", (0, 1), ((0, 1),), mac, 0, 4.0, 1.0)

        fingerprints = set()
        for _ in range(4):
            fingerprints.add(trial_for(coerce_mac(cmap_factory())).fingerprint())
        assert len(fingerprints) == 4


class TestScatterPointDefault:
    def test_hear_probability_defaults_to_zero(self):
        point = ScatterPoint(InterfererTriple(0, 1, 2, 3), 0.5, 1.0, 0.5)
        assert point.hear_probability == 0.0  # no AttributeError before set
        point.set_hear_probability(0.9, 0.8)
        assert point.hear_probability == pytest.approx(0.7)
