"""Parity and buffer-backing tests for the fused single-pass engine.

The fused engine (``repro.core.fused``) computes every per-probe
intermediate in one traversal of the packed run columns; everything it
emits must be *bit-identical* to the pure-Python reference (``"py"``).
The randomized streams here reuse the awkward shapes of
``test_analysis_np.py`` — observation gaps, single-run probes, probes
with no runs, v6-only probes — across several ASes so the per-AS
selection paths are exercised too, and hand-built edge populations
(empty, single run, v6-only, a change crossing both /24 and BGP
boundaries) pin the degenerate cases.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

from repro.atlas.echo import EchoRun  # noqa: E402
from repro.atlas.sanitize import SanitizedProbe  # noqa: E402
from repro.bgp.table import RoutingTable  # noqa: E402
from repro.core import fused  # noqa: E402
from repro.core.analysis_np import ProbeColumns  # noqa: E402
from repro.core.report import (  # noqa: E402
    as_durations,
    figure1_for_as,
    figure5_for_as,
    periodic_networks,
    table1_row,
    table2_row,
)
from repro.ip.addr import IPv4Address, IPv6Address  # noqa: E402
from repro.ip.prefix import IPv4Prefix, IPv6Prefix  # noqa: E402

pytestmark = pytest.mark.fused

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
        hour += span + rng.choice([0, 0, 0, 1, 3])
    return runs


_ASNS = (64500, 64501, 64502)


def _random_probes(seed: int, count: int = 18) -> list:
    """A multi-AS probe population with every awkward shape mixed in."""
    rng = random.Random(seed)
    probes = []
    for index in range(count):
        v4_runs = _random_runs(rng, index, 4)
        v6_runs = _random_runs(rng, index, 6)
        probes.append(
            SanitizedProbe(
                probe_id=str(index),
                asn=_ASNS[index % len(_ASNS)],
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


def _artifacts(probes, table, engine):
    """Every report entry point under one engine, per AS."""
    by_asn = {asn: [p for p in probes if p.asn == asn] for asn in _ASNS}
    out = {}
    for asn, members in by_asn.items():
        out[asn] = {
            "table1": table1_row(f"AS{asn}", asn, "US", members, engine=engine),
            "durations": as_durations(members, engine=engine),
            "figure1": figure1_for_as(f"AS{asn}", members, engine=engine),
            "figure5": figure5_for_as(members, engine=engine),
            "table2": table2_row(members, table, engine=engine),
        }
    out["periods"] = periodic_networks(
        {f"AS{asn}": members for asn, members in by_asn.items()},
        min_probes=2,
        engine=engine,
    )
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_parity(seed):
    """fused == py on every report artifact, randomized streams."""
    probes = _random_probes(seed)
    table = _routing_table()
    assert _artifacts(probes, table, "fused") == _artifacts(probes, table, "py")


@pytest.mark.parametrize(
    "probes",
    [
        [],  # no probes at all
        [SanitizedProbe("0", 64500, False, [], [])],  # probe with no runs
        [  # single-run probe: no changes, no sandwiched durations
            SanitizedProbe(
                "0", 64500, False,
                [EchoRun(0, 4, IPv4Address(_V4_POOL[0]), 0, 5, 6, 0)], [],
            )
        ],
        [  # v6-only probe: v4 pack is empty, v6 side fully exercised
            SanitizedProbe(
                "0", 64500, True, [],
                [
                    EchoRun(0, 6, IPv6Address(_V6_BASE | (1 << 64)), 0, 3, 4, 0),
                    EchoRun(0, 6, IPv6Address(_V6_BASE | (2 << 64)), 4, 9, 6, 0),
                    EchoRun(0, 6, IPv6Address(_V6_BASE | (1 << 64)), 10, 12, 3, 0),
                ],
            )
        ],
        [  # changes crossing both the /24 and the BGP-prefix boundary
            SanitizedProbe(
                "0", 64500, True,
                [
                    EchoRun(0, 4, IPv4Address(0xC6336405), 0, 3, 4, 0),  # .100.5
                    EchoRun(0, 4, IPv4Address(0xC6336509), 4, 9, 6, 0),  # .101.9
                    EchoRun(0, 4, IPv4Address(0xC6336428), 10, 12, 3, 0),  # .100.40
                ],
                [
                    EchoRun(0, 6, IPv6Address(_V6_BASE | (1 << 64)), 0, 5, 6, 0),
                    EchoRun(0, 6, IPv6Address(_V6_BASE | (2 << 64)), 6, 12, 7, 0),
                ],
            )
        ],
    ],
    ids=["empty", "no-runs", "single-run", "v6-only", "crosses-24-and-bgp"],
)
def test_edge_case_parity(probes):
    """Degenerate populations agree between the fused engine and py."""
    table = _routing_table()

    def artifacts(engine):
        return (
            table1_row("edge", 64500, "US", probes, engine=engine),
            as_durations(probes, engine=engine),
            figure1_for_as("edge", probes, engine=engine),
            figure5_for_as(probes, engine=engine),
            table2_row(probes, table, engine=engine),
        )

    assert artifacts("fused") == artifacts("py")


def test_fused_stats_memoized_on_pack():
    """fused_probe_stats reuses one FusedProbeStats per pack."""
    columns = ProbeColumns(_random_probes(0))
    first = fused.fused_probe_stats(columns)
    assert fused.fused_probe_stats(columns) is first


def test_workloads_fused_engine_end_to_end():
    """analyze/periodicity under engine='fused' match 'py'."""
    from repro.workloads import (
        analyze_atlas_scenario,
        build_atlas_scenario,
        periodicity_for_scenario,
    )

    scenario = build_atlas_scenario(probes_per_as=3, years=0.4, seed=7, cache=False)
    py_analysis = analyze_atlas_scenario(scenario, engine="py")
    fused_result = analyze_atlas_scenario(scenario, engine="fused")
    assert fused_result.engine == "fused"
    assert (
        fused_result.table1,
        fused_result.table2,
        fused_result.figure1,
        fused_result.figure5,
    ) == (py_analysis.table1, py_analysis.table2, py_analysis.figure1,
          py_analysis.figure5)
    assert periodicity_for_scenario(
        scenario, min_probes=2, engine="fused"
    ) == periodicity_for_scenario(scenario, min_probes=2, engine="py")


def test_fused_verify_helper():
    """perf.verify's atlas and association harnesses pass on a fresh
    scenario, covering the delegation and association artifacts."""
    from repro.perf.verify import association_diffs, atlas_diffs
    from repro.workloads import build_atlas_scenario

    rng = random.Random(11)
    triples = [
        (rng.randrange(60), rng.randrange(8), rng.randrange(6) << 64)
        for _ in range(100)
    ]
    scenario = build_atlas_scenario(probes_per_as=3, years=0.3, seed=1, cache=False)
    assert atlas_diffs(scenario) == []
    assert association_diffs(triples) == []
