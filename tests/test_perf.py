"""Tests for the performance engine: parallel determinism, cache, timing."""

from __future__ import annotations

import functools
import gc
import itertools
import os
import pickle

import pytest

from repro.perf.cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    ScenarioCache,
    code_fingerprint,
    get_scenario_cache,
    resolve_cache_flag,
)
from repro.perf.parallel import (
    WORKERS_ENV,
    collect_associations,
    effective_workers,
    map_store_shards,
    map_units,
    resolve_workers,
    run_isp_simulations,
)
from repro.perf.verify import atlas_diffs, cdn_scenario_diffs
from repro.workloads import build_atlas_scenario, build_cdn_scenario

#: Small enough for a sub-second serial build, big enough to exercise
#: every pipeline stage (sanitization, both population kinds, merging).
ATLAS_SCALE = dict(probes_per_as=4, years=0.3)
CDN_SCALE = dict(
    days=12,
    fixed_subscribers_per_registry=24,
    mobile_devices_per_registry=30,
    featured_subscribers=24,
)


# ---------------------------------------------------------------------------
# Parallel determinism
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def atlas_serial():
    """One serial build shared by the parity tests (and its oracle with it)."""
    return build_atlas_scenario(seed=11, workers=1, cache=False, **ATLAS_SCALE)


def test_atlas_parallel_matches_serial(atlas_serial):
    parallel = build_atlas_scenario(seed=11, workers=2, cache=False, **ATLAS_SCALE)
    assert atlas_diffs(atlas_serial, parallel) == []


def test_cdn_parallel_matches_serial():
    serial = build_cdn_scenario(seed=11, workers=1, cache=False, **CDN_SCALE)
    parallel = build_cdn_scenario(seed=11, workers=2, cache=False, **CDN_SCALE)
    assert cdn_scenario_diffs(serial, parallel) == []


def test_different_seeds_detected_by_verifier(atlas_serial):
    other = build_atlas_scenario(seed=12, workers=1, cache=False, **ATLAS_SCALE)
    assert atlas_diffs(atlas_serial, other)


def test_run_isp_simulations_grafts_plans_back():
    """Post-build plan state (worker-side mutations) must reach the parent."""
    serial = build_atlas_scenario(seed=5, workers=1, cache=False, **ATLAS_SCALE)
    parallel = build_atlas_scenario(seed=5, workers=3, cache=False, **ATLAS_SCALE)
    for name, isp in serial.isps.items():
        other = parallel.isps[name]
        assert isp.v4_plan.in_use_count == other.v4_plan.in_use_count
        if isp.v6_plan is not None:
            assert isp.v6_plan.in_use_count == other.v6_plan.in_use_count


def test_unpicklable_jobs_fall_back_to_serial():
    class Unpicklable:
        def __reduce__(self):
            raise TypeError("nope")

    sentinel = Unpicklable()

    class FakeIsp:
        config = sentinel
        v4_plan = None
        v6_plan = None
        asn = 1

    captured = []

    class FakeSim:
        def __init__(self, isp, count, end_hour, seed):
            captured.append((isp, count, end_hour, seed))

        def run(self):
            return {"serial": True}

    import repro.perf.parallel as parallel_mod

    original = parallel_mod.IspSimulation
    parallel_mod.IspSimulation = FakeSim
    try:
        results = run_isp_simulations([(FakeIsp(), 3)], 24.0, seed=9, workers=4)
    finally:
        parallel_mod.IspSimulation = original
    assert results == [{"serial": True}]
    assert captured and captured[0][1:] == (3, 24.0, 9)


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv(WORKERS_ENV, "5")
    assert resolve_workers() == 5
    assert resolve_workers(2) == 2  # explicit beats the environment
    monkeypatch.setenv(WORKERS_ENV, "auto")
    assert resolve_workers() == max(1, os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_effective_workers_clamps_to_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert effective_workers(4, 10) == 4  # request honoured
    assert effective_workers(16, 3) == 3  # never more workers than units
    assert effective_workers(4, 0) == 1  # nothing to do
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert effective_workers(4, 10) == 2  # clamped to the hardware
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert effective_workers(4, 10) == 1  # single core: serial path
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert effective_workers(4, 10) == 1  # unknown core count: stay serial


def test_single_core_simulations_take_serial_path(monkeypatch):
    """Regression: a 1-core host must never pay process-pool overhead
    (the shipped baseline measured parallel at 0.48x serial there)."""
    import repro.perf.parallel as parallel_mod

    monkeypatch.setattr(os, "cpu_count", lambda: 1)

    class BoomPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("process pool must not start on one core")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", BoomPool)

    class FakeSim:
        def __init__(self, isp, count, end_hour, seed):
            pass

        def run(self):
            return {"serial": True}

    monkeypatch.setattr(parallel_mod, "IspSimulation", FakeSim)
    results = run_isp_simulations([(object(), 2)], 24.0, seed=1, workers=4)
    assert results == [{"serial": True}]


def test_single_core_collection_takes_serial_path(monkeypatch):
    import repro.perf.parallel as parallel_mod

    monkeypatch.setattr(os, "cpu_count", lambda: 1)

    class BoomPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("process pool must not start on one core")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", BoomPool)
    sentinel = object()
    monkeypatch.setattr(parallel_mod, "collect", lambda *a, **k: sentinel)
    result = collect_associations([object()], None, None, workers=4)
    assert result is sentinel


def test_collect_associations_serial_and_parallel_agree():
    scenario = build_cdn_scenario(seed=3, workers=1, cache=False, **CDN_SCALE)
    # Rebuild in parallel; collect_associations is exercised through the
    # builder, so compare the resulting datasets triple-for-triple.
    redo = build_cdn_scenario(seed=3, workers=2, cache=False, **CDN_SCALE)
    assert scenario.dataset.triples_by_asn == redo.dataset.triples_by_asn
    assert scenario.dataset.total_collected == redo.dataset.total_collected
    assert redo.dataset.classifier is not None  # reattached post-merge


def test_collect_associations_empty_populations_serial_path():
    from repro.bgp.registry import Registry
    from repro.bgp.table import RoutingTable

    registry = Registry()
    table = RoutingTable()
    dataset = collect_associations([], table, registry, workers=4)
    assert dataset.total_collected == 0


# ---------------------------------------------------------------------------
# Streamed fan-out and scratch hygiene
# ---------------------------------------------------------------------------


def _square(value):
    return value * value


def test_map_units_serial_preserves_order():
    assert list(map_units(_square, range(7), kind="test", workers=1)) == [
        v * v for v in range(7)
    ]


def test_map_units_pool_preserves_order(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert list(map_units(_square, range(23), kind="test", workers=2)) == [
        v * v for v in range(23)
    ]


def test_map_units_consumes_unbounded_streams_lazily(monkeypatch):
    # A generator longer than any in-flight window must not be drained
    # eagerly: stop consuming results and the stream stops advancing.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pulled = []

    def stream():
        for value in range(10_000):
            pulled.append(value)
            yield value

    results = map_units(_square, stream(), kind="test", workers=2)
    head = [next(results) for _ in range(8)]
    assert head == [v * v for v in range(8)]
    assert len(pulled) <= 8 + 2 * 2  # consumed + the 2 * workers window
    results.close()


def _fail_on_zero(value):
    if value == 0:
        raise RuntimeError("unit 0 failed")
    return value


def test_map_units_propagates_errors_without_draining_the_stream(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pulled = []

    def stream():
        for value in itertools.count():
            pulled.append(value)
            yield value

    with pytest.raises(RuntimeError, match="unit 0 failed"):
        list(map_units(_fail_on_zero, stream(), kind="test", workers=2))
    assert len(pulled) <= 2 * 2 + 1


def _record_setup(log_path):
    with open(log_path, "a") as handle:
        handle.write(f"{os.getpid()}\n")
    return "state"


def _pid_with_state(state, unit):
    return os.getpid(), state, unit


def _setup_pids(log_path):
    return [int(line) for line in log_path.read_text().split()]


def test_map_units_runs_setup_once_per_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    log_path = tmp_path / "setup.log"
    results = list(
        map_units(
            _pid_with_state,
            range(12),
            kind="test",
            workers=2,
            setup=functools.partial(_record_setup, str(log_path)),
        )
    )
    assert [(state, unit) for _pid, state, unit in results] == [
        ("state", unit) for unit in range(12)
    ]
    setup_pids = _setup_pids(log_path)
    # One setup call per worker process, never one per unit.
    assert len(setup_pids) == len(set(setup_pids)) <= 2
    assert os.getpid() not in setup_pids
    assert {pid for pid, _state, _unit in results} <= set(setup_pids)


def test_map_units_serial_path_runs_setup_once(tmp_path):
    log_path = tmp_path / "setup.log"
    results = list(
        map_units(
            _pid_with_state,
            range(5),
            kind="test",
            workers=1,
            setup=functools.partial(_record_setup, str(log_path)),
        )
    )
    assert results == [(os.getpid(), "state", unit) for unit in range(5)]
    assert _setup_pids(log_path) == [os.getpid()]


def test_compact_sources_clamps_workers_to_shards(tmp_path, monkeypatch):
    # Regression: the compaction fan-out clamped only to the cores, so
    # compacting 2 shards with workers=4 started a 4-process pool.
    import repro.perf.parallel as parallel_mod
    from repro.obs import telemetry, telemetry_snapshot
    from repro.store import ShardSource, build_store_from_triples, compact_sources

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pool_sizes = []
    real_pool = parallel_mod.ProcessPoolExecutor

    def spy_pool(*args, max_workers, **kwargs):
        pool_sizes.append(max_workers)
        return real_pool(*args, max_workers=max_workers, **kwargs)

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", spy_pool)
    store = build_store_from_triples(
        [(day, (day % 5) << 8, (day + 1) << 64) for day in range(40)],
        tmp_path / "source",
        shards=2,
        workers=1,
    )
    source = ShardSource(str(store.directory), store.shards, tuple(store.shard_rows))
    with telemetry(True, reset=True):
        compacted = compact_sources([source], tmp_path / "out", shards=2, workers=4)
        series = telemetry_snapshot()["metrics"]["counters"]["pool.tasks"]
    assert compacted.digest() == store.digest()
    assert pool_sizes == [2]
    workers = {
        key.split("worker=")[1]
        for key in series
        if "kind=store_compact" in key
    }
    assert 1 <= len(workers) <= 2


def _build_scratch_store(tmp_path):
    from repro.store import build_store_from_triples

    store = build_store_from_triples(
        [(day, (day % 5) << 8, (day + 1) << 64) for day in range(40)],
        tmp_path / "store",
        shards=4,
    )
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    return store, scratch


def _boom_task(store, index, scratch):
    from pathlib import Path

    if index >= 2:
        raise RuntimeError("shard task failed")
    (Path(scratch) / f"run-{index:04d}.bin").write_bytes(b"x" * 16)
    return index


def test_map_store_shards_discards_scratch_on_serial_failure(tmp_path):
    store, scratch = _build_scratch_store(tmp_path)
    task = functools.partial(_boom_task, scratch=str(scratch))
    with pytest.raises(RuntimeError, match="shard task failed"):
        map_store_shards(task, store, workers=1, scratch=scratch)
    # The completed shards' partial runs are gone; the directory (owned
    # by the caller) survives for the retry.
    assert scratch.is_dir()
    assert list(scratch.iterdir()) == []


def test_map_store_shards_discards_scratch_on_pool_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    store, scratch = _build_scratch_store(tmp_path)
    task = functools.partial(_boom_task, scratch=str(scratch))
    with pytest.raises(RuntimeError, match="shard task failed"):
        map_store_shards(task, store, workers=2, scratch=scratch)
    assert scratch.is_dir()
    assert list(scratch.iterdir()) == []


# ---------------------------------------------------------------------------
# Scenario cache
# ---------------------------------------------------------------------------


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


def test_cache_round_trip(cache_dir):
    cold = build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    cache = get_scenario_cache()
    assert cache.directory == cache_dir
    assert cache.stats.puts >= 1
    hits_before = cache.stats.hits
    warm = build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    assert cache.stats.hits == hits_before + 1
    assert atlas_diffs(cold, warm) == []


def test_cache_hit_skips_full_collection(cache_dir):
    """A cache hit triggers no full (generation-2) collection.

    Automatic generation-2 passes depend on the allocations the process
    made before the hit, so the heap is collected first: what is
    counted is then only what the hit itself causes.
    """
    build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    hits_before = get_scenario_cache().stats.hits
    full_passes = []
    gc.collect()

    def count(phase, info):
        if phase == "start" and info["generation"] == 2:
            full_passes.append(info)

    gc.callbacks.append(count)
    try:
        build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    finally:
        gc.callbacks.remove(count)
    assert get_scenario_cache().stats.hits == hits_before + 1
    assert full_passes == []


def test_cache_cdn_round_trip(cache_dir):
    cold = build_cdn_scenario(seed=21, workers=1, cache=True, **CDN_SCALE)
    warm = build_cdn_scenario(seed=21, workers=1, cache=True, **CDN_SCALE)
    assert cdn_scenario_diffs(cold, warm) == []


def test_cache_changed_params_miss(cache_dir):
    build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    cache = get_scenario_cache()
    misses_before = cache.stats.misses
    build_atlas_scenario(seed=22, workers=1, cache=True, **ATLAS_SCALE)
    assert cache.stats.misses == misses_before + 1


def test_cache_workers_not_in_key(cache_dir):
    """workers= never changes the output, so it must share a cache entry."""
    build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    cache = get_scenario_cache()
    hits_before = cache.stats.hits
    warm = build_atlas_scenario(seed=21, workers=2, cache=True, **ATLAS_SCALE)
    assert cache.stats.hits == hits_before + 1
    assert warm is not None


def test_cache_code_fingerprint_invalidates(cache_dir, monkeypatch):
    build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    import repro.perf.cache as cache_mod

    monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "different-code")
    cache = get_scenario_cache()
    misses_before = cache.stats.misses
    build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    assert cache.stats.misses == misses_before + 1


def test_cache_corrupt_entry_is_miss_and_removed(tmp_path):
    cache = ScenarioCache(tmp_path)
    key = cache.key("thing", {"x": 1})
    assert cache.put("thing", key, {"payload": [1, 2, 3]})
    assert cache.get("thing", key) == {"payload": [1, 2, 3]}
    # Corrupt the entry on disk: next get must miss and remove it.
    entry = next(tmp_path.glob("thing-*.pkl"))
    entry.write_bytes(b"not a pickle")
    assert cache.get("thing", key) is None
    assert cache.stats.errors == 1
    assert not entry.exists()


def test_cache_key_mismatch_guard(tmp_path):
    cache = ScenarioCache(tmp_path)
    key = cache.key("thing", {"x": 1})
    path = cache._path_for("thing", key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"key": "some-other-key", "scenario": 42}))
    assert cache.get("thing", key) is None
    assert not path.exists()


def test_cache_put_evicts_entries_of_other_code(tmp_path, monkeypatch):
    import repro.perf.cache as cache_mod
    from repro.obs import telemetry, telemetry_snapshot

    cache = ScenarioCache(tmp_path)
    monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "a" * 64)
    assert cache.put("thing", cache.key("thing", {"x": 1}), "old")
    assert cache.put("other", cache.key("other", {"x": 1}), "kept")
    monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "b" * 64)
    key = cache.key("thing", {"x": 1})
    with telemetry(True, reset=True):
        assert cache.put("thing", key, "new")
        counters = telemetry_snapshot()["metrics"]["counters"]
    assert [path.name for path in tmp_path.glob("thing-*.pkl")] == [
        cache._path_for("thing", key).name
    ]
    assert len(list(tmp_path.glob("other-*.pkl"))) == 1  # another builder's entry stays
    assert cache.stats.evictions == 1
    assert counters["cache.evictions"]["builder=thing"] == 1
    assert cache.get("thing", key) == "new"
    assert cache.stats.hits == 1


def test_cache_clear(tmp_path):
    cache = ScenarioCache(tmp_path)
    for x in range(3):
        cache.put("thing", cache.key("thing", {"x": x}), x)
    assert cache.clear() == 3
    assert cache.get("thing", cache.key("thing", {"x": 0})) is None


def test_cache_key_is_param_order_independent(tmp_path):
    cache = ScenarioCache(tmp_path)
    assert cache.key("b", {"x": 1, "y": 2}) == cache.key("b", {"y": 2, "x": 1})
    assert cache.key("b", {"x": 1}) != cache.key("b", {"x": 2})
    assert cache.key("b", {"x": 1}) != cache.key("c", {"x": 1})


def test_resolve_cache_flag(monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert resolve_cache_flag() is False
    assert resolve_cache_flag(True) is True
    assert resolve_cache_flag(False) is False
    monkeypatch.setenv(CACHE_ENV, "1")
    assert resolve_cache_flag() is True
    assert resolve_cache_flag(False) is False  # explicit beats the environment
    monkeypatch.setenv(CACHE_ENV, "off")
    assert resolve_cache_flag() is False


def test_code_fingerprint_stable():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


# ---------------------------------------------------------------------------
# RSS probes and the baseline artifact
# ---------------------------------------------------------------------------


def test_current_rss_bytes_without_proc(monkeypatch):
    """Without /proc the getrusage fallback still bounds the RSS."""
    import builtins

    from repro.perf import timing

    real_open = builtins.open

    def proc_denied(path, *args, **kwargs):
        if isinstance(path, str) and path.startswith("/proc/"):
            raise OSError("no /proc on this platform")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", proc_denied)
    rss = timing.current_rss_bytes()
    assert rss is None or rss > 0


def test_rss_sampler_handles_unreadable_rss(monkeypatch):
    from repro.perf import timing

    monkeypatch.setattr(timing, "current_rss_bytes", lambda: None)
    with timing.RssSampler(interval=0.001) as sampler:
        pass
    assert sampler.peak_bytes is None


def test_rss_sampler_tracks_peak(monkeypatch):
    from repro.perf import timing

    samples = iter([100, 300, 200])
    monkeypatch.setattr(
        timing, "current_rss_bytes", lambda: next(samples, 150)
    )
    sampler = timing.RssSampler(interval=60.0)  # no thread samples fire
    with sampler:
        sampler.sample()
        sampler.sample()
    assert sampler.peak_bytes == 300


def test_repo_root_in_checkout_and_installed(tmp_path, monkeypatch):
    from repro.perf import timing
    from repro.perf.profiling import _repo_root

    checkout = timing.repo_root()
    assert (checkout / "pyproject.toml").is_file()
    assert _repo_root() == checkout

    # Installed layout (site-packages has no pyproject.toml above it):
    # artifacts must land in the CWD, never in a Python prefix.
    fake = tmp_path / "site-packages" / "repro" / "perf" / "timing.py"
    fake.parent.mkdir(parents=True)
    fake.touch()
    monkeypatch.setattr(timing, "__file__", str(fake))
    monkeypatch.chdir(tmp_path)
    assert timing.repo_root() == tmp_path
    assert _repo_root() == tmp_path


# ---------------------------------------------------------------------------
# Pickling of the IP value types (what makes the fan-out possible)
# ---------------------------------------------------------------------------


def test_ip_types_pickle_round_trip():
    from repro.ip.addr import IPv4Address, IPv6Address
    from repro.ip.prefix import IPv4Prefix, IPv6Prefix

    for value in (
        IPv4Address(0xC0A80101),
        IPv6Address(0x20010DB8 << 96),
        IPv4Prefix.parse("192.0.2.0/24"),
        IPv6Prefix.parse("2001:db8::/32"),
    ):
        clone = pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == value
        assert type(clone) is type(value)
