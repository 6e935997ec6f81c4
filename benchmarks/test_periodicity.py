"""Section 3.2 text: consistent periodic renumbering detection.

Paper shape: well-defined IPv4 modes at 1 day (DTAG), 1.5 days
(Proximus), 1 week (Orange) and 2 weeks (BT) for non-dual-stack
probes; IPv6 24-hour renumbering in German ASes (DTAG, Versatel,
Netcologne); no periodicity in lease-renewing ISPs (Comcast).
"""

import pytest

from repro.core.report import render_table
from repro.workloads import periodicity_for_scenario


def compute_periodicity(scenario):
    # min_probes=2 keeps the detection meaningful at reduced benchmark
    # scales where an AS may only carry a couple of NDS probes.  The
    # detection runs on the default fused engine and reuses the
    # scenario's memoized column packs.
    return periodicity_for_scenario(scenario, min_probes=2)


def test_periodicity(benchmark, atlas_scenario, artifact_writer):
    v4_periods, v6_periods = benchmark(compute_periodicity, atlas_scenario)

    rows = []
    for name in atlas_scenario.isps:
        rows.append(
            [
                name,
                f"{v4_periods[name]:g}h" if name in v4_periods else "-",
                f"{v6_periods[name]:g}h" if name in v6_periods else "-",
            ]
        )
    artifact_writer(
        "periodicity",
        render_table(
            ["AS", "v4 NDS period", "v6 period"],
            rows,
            title="Detected consistent periodic renumbering",
        ),
    )

    # IPv4 modes the paper reports for non-dual-stack probes.
    assert v4_periods.get("DTAG") == 24.0
    assert v4_periods.get("Proximus") == 36.0
    assert v4_periods.get("Orange") == 7 * 24.0
    assert v4_periods.get("BT") == 14 * 24.0
    # Lease-renewing ISPs show no consistent period.
    assert "Comcast" not in v4_periods
    assert "Free SAS" not in v4_periods
    # IPv6 24-hour renumbering in German periodic ASes.
    assert v6_periods.get("Versatel") == 24.0
    assert v6_periods.get("Netcologne") == 24.0
    assert v6_periods.get("DTAG") == 24.0
    # Stable-IPv6 ISPs show none.
    assert "Orange" not in v6_periods
    assert "Comcast" not in v6_periods


@pytest.mark.slow
def test_periodic_network_count_at_scale(benchmark, artifact_writer):
    """§3.2: "consistent periodic renumbering on 35 networks".

    The featured profiles cover only a handful of periodic ASes; with a
    long tail of 36 additional small periodic ISPs (periods from the
    paper's observed set: 12 h ... 2 weeks), the detector must flag
    (nearly) all of them and none of the lease-renewing controls.
    """
    from repro.netsim.profiles import periodic_cohort, profile_by_name
    from repro.workloads import build_atlas_scenario

    profiles = periodic_cohort(36) + [profile_by_name("Comcast"), profile_by_name("Free SAS")]
    scenario = build_atlas_scenario(
        probes_per_as=8,
        years=1.0,
        seed=555,
        profiles=profiles,
        anomaly_fraction=0.0,
        bad_tag_fraction=0.0,
    )

    detected = benchmark.pedantic(
        lambda: compute_periodicity(scenario)[0], rounds=1, iterations=1
    )
    periodic_names = {name for name in detected if name.startswith("Periodic-")}
    artifact_writer(
        "periodicity_scale",
        f"periodic networks detected: {len(periodic_names)} / 36 "
        f"(controls flagged: {sorted(set(detected) - periodic_names)})",
    )
    assert len(periodic_names) >= 33  # nearly all of the cohort
    assert "Comcast" not in detected
    assert "Free SAS" not in detected
