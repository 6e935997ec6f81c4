"""Parity tests: the columnar kernels vs the pure-Python reference.

Every kernel in ``repro.core.analysis_np`` — and the fused engine
tables built from them — must be *bit-identical* to its reference in
``changes.py``/``timefraction.py``/``periodicity.py``/``dualstack.py``/
``spatial.py``.  The randomized streams here cover the awkward shapes:
observation gaps, single-run probes, all-identical values, probes with
no runs at all.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.atlas.echo import EchoRun  # noqa: E402
from repro.atlas.sanitize import SanitizedProbe  # noqa: E402
from repro.bgp.table import RoutingTable  # noqa: E402
from repro.core import analysis_np as anp  # noqa: E402
from repro.core.changes import (  # noqa: E402
    changes_from_runs,
    sandwiched_durations,
    v6_runs_to_prefix_runs,
)
from repro.core.dualstack import split_durations_by_stack  # noqa: E402
from repro.core.periodicity import detect_periods, probe_exhibits_period  # noqa: E402
from repro.core.spatial import cpl_histogram, crossing_rates  # noqa: E402
from repro.core.timefraction import (  # noqa: E402
    cumulative_total_time_fraction,
    evaluate_cdf,
    total_duration_years,
    total_time_fraction,
)
from repro.core.fused import (  # noqa: E402
    figure5_from_stats,
    fused_probe_stats,
    table2_from_stats,
)
from repro.ip.addr import IPv4Address, IPv6Address  # noqa: E402
from repro.ip.prefix import IPv4Prefix, IPv6Prefix  # noqa: E402

SEEDS = (0, 1, 2, 7, 2020)

_V4_POOL = [0xC6336400 + i for i in range(0, 96, 7)]  # 198.51.100.0/24 area
_V6_BASE = 0x20010DB8 << 96


def _v6_value(rng: random.Random) -> int:
    pool = rng.randrange(4)  # few /64s so rekeying actually merges
    iid = rng.randrange(1 << 16)
    return _V6_BASE | (pool << 64) | iid


def _random_runs(rng: random.Random, probe_id: int, family: int) -> list:
    """One probe's run stream: gaps, merges, censored edges — the works."""
    shape = rng.random()
    if shape < 0.15:
        return []  # probe with no runs in this family
    count = 1 if shape < 0.3 else rng.randrange(2, 9)
    runs = []
    hour = rng.randrange(0, 6)
    identical = rng.random() < 0.15  # all runs carry the same value
    fixed_v4 = rng.choice(_V4_POOL)
    fixed_v6 = _v6_value(rng)
    for _ in range(count):
        span = rng.randrange(1, 8)
        observed = rng.randrange(1, span + 1)
        max_gap = 0 if observed == span else rng.randrange(0, span)
        if family == 4:
            value = IPv4Address(fixed_v4 if identical else rng.choice(_V4_POOL))
        else:
            value = IPv6Address(fixed_v6 if identical else _v6_value(rng))
        runs.append(
            EchoRun(
                probe_id=probe_id,
                family=family,
                value=value,
                first=hour,
                last=hour + span - 1,
                observed=observed,
                max_gap=max_gap,
            )
        )
        # Mostly adjacent (gap 0) so sandwiched durations exist; some gaps.
        hour += span + rng.choice([0, 0, 0, 1, 3])
    return runs


def _random_probes(seed: int, count: int = 14) -> list:
    rng = random.Random(seed)
    probes = []
    for index in range(count):
        v4_runs = _random_runs(rng, index, 4)
        v6_runs = _random_runs(rng, index, 6)
        probes.append(
            SanitizedProbe(
                probe_id=str(index),
                asn=64500,
                dual_stack=bool(v6_runs) and rng.random() < 0.7,
                v4_runs=v4_runs,
                v6_runs=v6_runs,
            )
        )
    return probes


def _routing_table() -> RoutingTable:
    table = RoutingTable()
    table.announce(IPv4Prefix.parse("198.51.100.0/24"), 64500)
    table.announce(IPv4Prefix.parse("198.51.100.32/27"), 64501)  # more specific
    table.announce(IPv6Prefix.parse("2001:db8::/32"), 64500)
    table.announce(IPv6Prefix.parse("2001:db8:0:1::/64"), 64502)
    return table


def _packed(hi, lo) -> list:
    return [(int(h) << 64) | int(l) for h, l in zip(hi, lo)]


# ---------------------------------------------------------------------------
# Change detection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_change_table_matches_reference(seed):
    """The fused pass's change table and per-probe change counts."""
    probes = _random_probes(seed)
    stats = fused_probe_stats(anp.ProbeColumns(probes))
    table = stats.v4_changes
    expected = []
    for index, probe in enumerate(probes):
        for change in changes_from_runs(probe.v4_runs):
            expected.append(
                (index, change.hour, int(change.old_value), int(change.new_value),
                 change.boundary_gap)
            )
    got = list(
        zip(
            table.probe_index.tolist(),
            table.hour.tolist(),
            _packed(table.old_hi, table.old_lo),
            _packed(table.new_hi, table.new_lo),
            table.boundary_gap.tolist(),
        )
    )
    assert got == expected
    assert stats.v4_change_counts.tolist() == [
        len(changes_from_runs(probe.v4_runs)) for probe in probes
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_rekey_v6_runs_matches_reference(seed):
    probes = _random_probes(seed)
    cols = anp.columns_from_runs(
        [probe.v6_runs for probe in probes], value_type=IPv6Address
    )
    merged = anp.rekey_v6_runs(cols, 64)
    expected = [v6_runs_to_prefix_runs(probe.v6_runs, 64) for probe in probes]
    assert merged.run_counts().tolist() == [len(runs) for runs in expected]
    flat = [run for runs in expected for run in runs]
    assert _packed(merged.value_hi, merged.value_lo) == [
        int(run.value.network) for run in flat
    ]
    assert merged.first.tolist() == [run.first for run in flat]
    assert merged.last.tolist() == [run.last for run in flat]
    assert merged.observed.tolist() == [run.observed for run in flat]
    assert merged.max_gap.tolist() == [run.max_gap for run in flat]


# ---------------------------------------------------------------------------
# Sandwiched durations and dual-stack coverage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_duration_table_matches_reference(seed):
    probes = _random_probes(seed)
    cols = anp.columns_from_runs([probe.v4_runs for probe in probes])
    _changes, table, _ = anp.changes_and_durations(*cols.rows())
    expected = []
    for index, probe in enumerate(probes):
        for duration in sandwiched_durations(probe.v4_runs):
            expected.append((index, duration.start, duration.end))
    got = list(
        zip(table.probe_index.tolist(), table.start.tolist(), table.end.tolist())
    )
    assert got == expected


@st.composite
def _run_tables(draw):
    """Per-probe IPv4 run series: empty and single-run probes, boundary
    gaps of 0-2 hours, repeated values."""
    probes = []
    for probe in range(draw(st.integers(0, 5))):
        runs, hour = [], draw(st.integers(0, 3))
        for _ in range(draw(st.integers(0, 6))):
            span = draw(st.integers(1, 4))
            value = IPv4Address(draw(st.sampled_from(_V4_POOL[:4])))
            runs.append(EchoRun(probe, 4, value, hour, hour + span - 1, span))
            hour += span + draw(st.integers(0, 2))
        probes.append(runs)
    return probes


def _kernel_rows(rows):
    """``(probe, run)`` pairs as the kernel's row columns."""
    probe = np.array([p for p, _ in rows], dtype=np.int64)
    lo = np.array([int(run.value) for _, run in rows], dtype=np.uint64)
    first = np.array([run.first for _, run in rows], dtype=np.int64)
    last = np.array([run.last for _, run in rows], dtype=np.int64)
    return probe, np.zeros(len(rows), dtype=np.uint64), lo, first, last


def _change_set(changes) -> list:
    return sorted(zip(
        changes.probe_index.tolist(), changes.hour.tolist(), changes.old_lo.tolist(),
        changes.new_lo.tolist(), changes.boundary_gap.tolist(),
    ))


def _duration_set(durations) -> list:
    return sorted(zip(
        durations.probe_index.tolist(), durations.start.tolist(), durations.end.tolist()
    ))


@settings(max_examples=200, deadline=None)
@given(probes=_run_tables(), data=st.data())
def test_changes_and_durations_carry_matches_one_pass(probes, data):
    """Folding each probe's later runs with its earlier runs' carried
    state gives the one-pass changes, durations and last-row state, and
    both equal the pure-Python reference."""
    cuts = [data.draw(st.integers(0, len(runs))) for runs in probes]
    whole = [(p, run) for p, runs in enumerate(probes) for run in runs]
    changes, durations, (ends, runs, gap_ok) = anp.changes_and_durations(*_kernel_rows(whole))
    state = {whole[e][0]: (whole[e][1], n, ok) for e, n, ok in zip(ends, runs, gap_ok)}

    head = [(p, run) for p, series in enumerate(probes) for run in series[:cuts[p]]]
    head_changes, head_durations, (ends, runs, gap_ok) = anp.changes_and_durations(
        *_kernel_rows(head)
    )
    carried = {head[e][0]: (head[e][1], n, ok) for e, n, ok in zip(ends, runs, gap_ok)}
    tail, count, ok = [], [], []
    for p, series in enumerate(probes):
        if series[cuts[p]:] and p in carried:
            run, n, flag = carried[p]
            tail.append((p, run))
            count.append(n)
            ok.append(flag)
        for run in series[cuts[p]:]:
            tail.append((p, run))
            count.append(0)
            ok.append(False)
    carry = (np.array(count, dtype=np.int64), np.array(ok, dtype=bool))
    tail_changes, tail_durations, (ends, runs, gap_ok) = anp.changes_and_durations(
        *_kernel_rows(tail), carry=carry
    )
    carried.update({tail[e][0]: (tail[e][1], n, ok) for e, n, ok in zip(ends, runs, gap_ok)})

    assert sorted(_change_set(head_changes) + _change_set(tail_changes)) == (
        _change_set(changes)
    )
    assert sorted(_duration_set(head_durations) + _duration_set(tail_durations)) == (
        _duration_set(durations)
    )
    assert carried == state
    assert _change_set(changes) == sorted(
        (p, c.hour, int(c.old_value), int(c.new_value), c.boundary_gap)
        for p, series in enumerate(probes) for c in changes_from_runs(series)
    )
    assert _duration_set(durations) == sorted(
        (p, d.start, d.end)
        for p, series in enumerate(probes) for d in sandwiched_durations(series)
    )
    assert {p: n for p, (_run, n, _ok) in state.items()} == {
        p: len(series) for p, series in enumerate(probes) if series
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_dual_stack_mask_matches_reference(seed):
    probes = _random_probes(seed)
    v4_cols = anp.columns_from_runs([probe.v4_runs for probe in probes])
    v6_cols = anp.columns_from_runs(
        [probe.v6_runs for probe in probes], value_type=IPv6Address
    )
    _changes, durations, _ = anp.changes_and_durations(*v4_cols.rows())
    mask = anp.dual_stack_mask(v6_cols.probe_of_run(), v6_cols.first, v6_cols.last, durations)
    hours = durations.hours().astype(float)
    np_dual = hours[mask].tolist()
    np_non_dual = hours[~mask].tolist()
    py_dual, py_non_dual = [], []
    for probe in probes:
        dual, non_dual = split_durations_by_stack(
            sandwiched_durations(probe.v4_runs), probe.v6_runs
        )
        py_dual.extend(float(d.hours) for d in dual)
        py_non_dual.extend(float(d.hours) for d in non_dual)
    assert np_dual == py_dual
    assert np_non_dual == py_non_dual


# ---------------------------------------------------------------------------
# Total time fraction (Eq. 1) and periodicity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_ttf_and_cdf_match_reference(seed):
    rng = random.Random(seed)
    durations = [float(rng.randrange(1, 200)) for _ in range(rng.randrange(1, 120))]
    reference = total_time_fraction(durations)
    values, fractions = anp.total_time_fraction_columns(durations)
    assert values.tolist() == list(reference.keys())
    assert fractions.tolist() == list(reference.values())
    ref_xs, ref_ys = cumulative_total_time_fraction(durations)
    xs, ys = anp.cumulative_ttf_columns(durations)
    assert xs.tolist() == ref_xs and ys.tolist() == ref_ys
    grid = anp.evaluate_cdf_columns(xs, ys)
    assert grid.tolist() == evaluate_cdf(ref_xs, ref_ys)
    assert anp.total_duration_years_np(durations) == total_duration_years(durations)


def test_ttf_empty_and_invalid():
    values, fractions = anp.total_time_fraction_columns([])
    assert values.tolist() == [] and fractions.tolist() == []
    with pytest.raises(ValueError):
        anp.total_time_fraction_columns([3.0, 0.0])
    with pytest.raises(ValueError):
        total_time_fraction([3.0, 0.0])  # same contract as the reference


@pytest.mark.parametrize("seed", SEEDS)
def test_periodicity_matches_reference(seed):
    rng = random.Random(seed)
    durations = []
    for _ in range(rng.randrange(1, 60)):
        if rng.random() < 0.5:
            durations.append(24.0 + rng.choice([-1.0, 0.0, 0.5, 1.0]))
        else:
            durations.append(float(rng.randrange(1, 400)))
    assert anp.detect_periods_np(durations) == detect_periods(durations)
    assert anp.detect_periods_np([]) == detect_periods([]) == []


# ---------------------------------------------------------------------------
# CPL histograms and boundary crossings (through the fused engine)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_cpl_histogram_matches_reference(seed):
    probes = _random_probes(seed)
    got = figure5_from_stats(fused_probe_stats(anp.ProbeColumns(probes)))
    by_probe = {
        probe.probe_id: changes_from_runs(v6_runs_to_prefix_runs(probe.v6_runs, 64))
        for probe in probes
    }
    assert got == cpl_histogram(by_probe)


@pytest.mark.parametrize("seed", SEEDS)
def test_crossing_rates_match_reference(seed):
    probes = _random_probes(seed)
    table = _routing_table()
    got = table2_from_stats(fused_probe_stats(anp.ProbeColumns(probes)), table)
    v4_changes = [
        change for probe in probes for change in changes_from_runs(probe.v4_runs)
    ]
    v6_changes = [
        change
        for probe in probes
        for change in changes_from_runs(v6_runs_to_prefix_runs(probe.v6_runs, 64))
    ]
    assert got == crossing_rates(v4_changes, v6_changes, table)


# ---------------------------------------------------------------------------
# Packing and engine dispatch
# ---------------------------------------------------------------------------


def test_columns_from_runs_type_enforcement():
    run = EchoRun(
        probe_id=0, family=4, value=IPv4Address(1), first=0, last=0, observed=1
    )
    with pytest.raises(TypeError):
        anp.columns_from_runs([[run]], value_type=IPv6Address)


def test_empty_population_kernels():
    cols = anp.columns_from_runs([])
    assert cols.n_probes == 0 and cols.n_runs == 0
    assert anp.changes_and_durations(*cols.rows())[1].n_durations == 0
    assert anp.rekey_v6_runs(cols).n_runs == 0
    stats = fused_probe_stats(anp.ProbeColumns([]))
    assert stats.v4_changes.n_changes == 0
    assert figure5_from_stats(stats) == cpl_histogram({})


def test_resolve_engine_dispatch(monkeypatch):
    import repro.core.engine as engine_module
    from repro.core.engine import ENGINES, resolve_engine

    assert ENGINES == ("fused", "py")
    assert resolve_engine() == "fused"
    assert resolve_engine("py") == "py"
    assert resolve_engine("fused") == "fused"
    for retired in ("np", "fast"):
        with pytest.raises(ValueError, match="fused"):
            resolve_engine(retired)
    # No environment variable selects the engine any more.
    assert not hasattr(engine_module, "ENGINE_ENV")
    monkeypatch.setenv("REPRO_ANALYSIS_ENGINE", "py")
    assert resolve_engine() == "fused"


def test_fused_engine_errors_propagate(monkeypatch):
    """A fused-path error surfaces instead of being retried on the reference."""
    from repro.core import report
    from repro.workloads import analyze_atlas_scenario, build_atlas_scenario

    probes = _random_probes(3)
    scenario = build_atlas_scenario(probes_per_as=2, years=0.3, seed=1, cache=False)

    def boom(*args, **kwargs):
        raise TypeError("unpackable")

    monkeypatch.setattr(report._anp, "concat_run_columns", boom)
    with pytest.raises(TypeError, match="unpackable"):
        report.table1_row("AS", 64500, "DE", probes, engine="fused")
    with pytest.raises(TypeError, match="unpackable"):
        analyze_atlas_scenario(scenario, engine="fused")


def test_figure1_fused_errors_propagate(monkeypatch):
    """A fused Figure 1 error surfaces instead of being retried on the reference."""
    from repro.core import report

    durations = [float(hours) for hours in (24, 24, 48, 168, 3)]

    def boom(*args, **kwargs):
        raise TypeError("unpackable")

    monkeypatch.setattr(anp, "cumulative_ttf_columns", boom)
    with pytest.raises(TypeError, match="unpackable"):
        report.figure1_series("curve", durations, engine="fused")


@pytest.mark.parametrize("seed", SEEDS)
def test_report_layer_parity_harness(seed):
    from repro.perf.verify import association_diffs, atlas_diffs
    from repro.workloads import build_atlas_scenario

    rng = random.Random(seed + 4000)
    triples = [
        (rng.randrange(60), rng.randrange(8), rng.randrange(6) << 64)
        for _ in range(rng.randrange(1, 120))
    ]
    scenario = build_atlas_scenario(probes_per_as=2, years=0.3, seed=seed, cache=False)
    assert atlas_diffs(scenario) == []
    assert association_diffs(triples) == []


# ---------------------------------------------------------------------------
# Periodicity, dual-stack splitting, associations, delegation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_probe_period_flags_match_reference(seed):
    import numpy as np

    from repro.core.periodicity import CANONICAL_PERIODS

    rng = random.Random(seed + 100)
    per_probe = {}
    for probe in range(rng.randrange(1, 12)):
        period = rng.choice(CANONICAL_PERIODS)
        durations = []
        for _ in range(rng.randrange(0, 16)):
            if rng.random() < 0.6:
                durations.append(period + rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0]))
            else:
                durations.append(float(rng.randrange(1, 500)))
        per_probe[probe] = durations
    flat = np.array(
        [d for durations in per_probe.values() for d in durations], dtype=np.float64
    )
    index = np.array(
        [p for p, durations in per_probe.items() for _ in durations], dtype=np.int64
    )
    flags = anp.probe_period_flags(*anp.period_tallies(flat, index, len(per_probe)))
    for position, period in enumerate(CANONICAL_PERIODS):
        for probe, durations in per_probe.items():
            assert flags[probe, position] == probe_exhibits_period(durations, period)


@pytest.mark.parametrize("seed", SEEDS)
def test_box_stats_np_matches_reference(seed):
    import numpy as np

    from repro.core.associations import association_box_stats, box_stats
    from repro.core.associations_np import box_stats_np

    rng = random.Random(seed + 300)
    values = [float(rng.randrange(1, 150)) for _ in range(rng.randrange(1, 200))]
    assert box_stats_np(np.array(values)) == box_stats(values)
    triples = [
        (rng.randrange(90), rng.randrange(10), rng.randrange(8) << 64)
        for _ in range(rng.randrange(1, 150))
    ]
    assert association_box_stats(triples, engine="fused") == association_box_stats(
        triples, engine="py"
    )
    with pytest.raises(ValueError):
        box_stats_np(np.empty(0))


@pytest.mark.parametrize("seed", SEEDS)
def test_inferred_plen_distribution_matches_reference(seed):
    from repro.core.delegation import (
        inferred_plen_distribution,
        inferred_plen_distribution_for_probes,
        per_probe_prefixes_from_runs,
    )

    probes = _random_probes(seed)
    expected = inferred_plen_distribution(per_probe_prefixes_from_runs(probes, 64))
    assert inferred_plen_distribution_for_probes(probes, engine="fused") == expected
    assert inferred_plen_distribution_for_probes(probes, engine="py") == expected
    # Shared-pack path: a caller-supplied ProbeColumns yields the same.
    columns = anp.ProbeColumns(probes)
    assert (
        inferred_plen_distribution_for_probes(probes, engine="fused", columns=columns)
        == expected
    )


def test_inferred_plen_non_64_raises_on_both_engines():
    """Only /64 takes the fused path; other lengths hit the reference's
    own rejection on either engine."""
    from repro.core.delegation import inferred_plen_distribution_for_probes

    probes = _random_probes(2)
    errors = []
    for engine in ("fused", "py"):
        with pytest.raises(ValueError) as excinfo:
            inferred_plen_distribution_for_probes(
                probes, min_distinct=1, plen=56, engine=engine
            )
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]


def test_probe_columns_memoizes_packs():
    probes = _random_probes(11)
    columns = anp.ProbeColumns(probes)
    assert columns.n_probes == len(probes)
    assert columns.v4() is columns.v4()
    assert columns.v6() is columns.v6()
    assert columns.v6_prefix() is columns.v6_prefix()
    assert columns.asns() is columns.asns()
    assert columns.dual_flags() is columns.dual_flags()
