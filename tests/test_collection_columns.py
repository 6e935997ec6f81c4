"""Collection fast path and scenario column memoization.

The Atlas platform packs a probe's interval timeline straight into run
columns (the ``fused`` collection path) instead of materializing
per-hour echo records or run objects; it must produce ``ProbeData``
equal to the reference path's.  The scenario object memoizes per-AS ``ProbeColumns``
packs keyed by engine, so every table/figure reuses one pack — and an
engine flip mid-session must never serve stale columns.
"""

from __future__ import annotations

import dataclasses

import pytest

np = pytest.importorskip("numpy")

from repro.core.engine import ENGINE_ENV  # noqa: E402
from repro.workloads import build_atlas_scenario  # noqa: E402


@pytest.fixture(scope="module")
def scenario():
    return build_atlas_scenario(probes_per_as=5, years=0.5, seed=42)


def _specs(scenario):
    return [probe.spec for probe in scenario.raw_probes]


def test_collection_fast_path_matches_reference(scenario):
    platform = scenario.platform
    anomalies = set()
    for spec in _specs(scenario):
        anomalies.add(spec.anomaly)
        fast = platform.probe_data(spec, engine="fused")
        reference = platform.probe_data(spec, engine="py")
        assert fast == reference, f"collection diverges for {spec}"
    # The scenario's anomaly cycle must actually be exercised.
    assert "none" in anomalies and len(anomalies) >= 3


def test_collection_fast_path_privacy_iid(scenario):
    platform = scenario.platform
    for spec in _specs(scenario)[:6]:
        private = dataclasses.replace(spec, iid_mode="privacy")
        assert platform.probe_data(private, engine="fused") == platform.probe_data(
            private, engine="py"
        )


def test_run_columns_matches_columns_from_runs(scenario):
    from repro.core.analysis_np import columns_from_runs
    from repro.ip.addr import IPv4Address, IPv6Address

    platform = scenario.platform
    for spec in _specs(scenario):
        fast = platform.probe_data(spec, engine="fused")
        reference = platform.probe_data(spec, engine="py")
        for family, value_type in ((4, IPv4Address), (6, IPv6Address)):
            direct = fast.v4 if family == 4 else fast.v6
            packed = columns_from_runs(
                [reference.v4_runs if family == 4 else reference.v6_runs],
                value_type=value_type,
            )
            for field in (
                "offsets", "value_hi", "value_lo", "first", "last", "observed", "max_gap"
            ):
                assert np.array_equal(
                    getattr(direct, field), getattr(packed, field)
                ), f"collected v{family} column {field} diverges for {spec}"
                assert getattr(direct, field).dtype == getattr(packed, field).dtype


def test_engine_flip_never_serves_stale_columns(scenario, monkeypatch):
    scenario.invalidate_analysis_columns()
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    columns = scenario.analysis_columns()
    assert columns is not None
    assert scenario.analysis_columns() is columns  # memoized
    monkeypatch.setenv(ENGINE_ENV, "py")
    assert scenario.analysis_columns() is None  # flip: columnar pack not served
    monkeypatch.setenv(ENGINE_ENV, "fused")
    assert scenario.analysis_columns() is columns  # flip back: same pack
    assert scenario.analysis_columns(engine="py") is None  # explicit beats env

    # Replacing the probe list invalidates by identity, not just by id().
    original = scenario.probes
    scenario.probes = list(scenario.probes)
    try:
        fresh = scenario.analysis_columns()
        assert fresh is not None and fresh is not columns
    finally:
        scenario.probes = original
    scenario.invalidate_analysis_columns()
    assert scenario.analysis_columns() is not columns


def test_per_asn_columns_cover_asn_probes(scenario):
    scenario.invalidate_analysis_columns()
    for name, isp in scenario.isps.items():
        columns = scenario.analysis_columns(isp.asn, engine="fused")
        assert columns.n_probes == len(scenario.probes_in(isp.asn))
    scenario.invalidate_analysis_columns()
