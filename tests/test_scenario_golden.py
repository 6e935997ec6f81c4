"""Golden digests of small Atlas scenarios.

Each digest is a canonical sha256 over everything a scenario build
produces: the raw per-probe echo runs, the sanitized (virtual) probes,
the sanitization report and every simulated subscriber timeline.  A
change to the simulator's event queue, its address draws, probe
collection or the routing-table lookups that moves one output bit or
one RNG draw fails here; a process-pool build must reproduce the same
digests.  Update them only for an intended change of output.
"""

import dataclasses
import hashlib

import pytest

from repro.ip.addr import IPAddress
from repro.ip.prefix import IPPrefix
from repro.workloads import build_atlas_scenario

#: (seed, sha256) for ``build_atlas_scenario(probes_per_as=3, years=0.5)``.
GOLDEN = {
    0: "da1ddb7f0a441e64a8b8d31970be17148b8cdc778e0b267aeb844437d6455e56",
    1: "0660de3fbf66ce94f756f55de27b7413d682d6c5747be39ca9ab6460672dde20",
}


def _value(value) -> tuple:
    if isinstance(value, IPPrefix):
        return ("prefix", value.family, int(value.network), value.plen)
    if isinstance(value, IPAddress):
        return ("address", value.family, int(value))
    raise TypeError(f"unexpected timeline value {value!r}")


def _runs(runs) -> list:
    return [
        (run.probe_id, run.family, int(run.value), run.first, run.last, run.observed, run.max_gap)
        for run in runs
    ]


def scenario_digest(scenario) -> str:
    """Canonical sha256 over raw runs, sanitized probes, report, timelines."""
    digest = hashlib.sha256()

    def feed(*items) -> None:
        digest.update(repr(items).encode())
        digest.update(b"\n")

    for data in scenario.raw_probes:
        feed(
            "raw",
            data.probe.probe_id,
            data.probe.asn,
            data.probe.tags,
            data.spec.anomaly,
            data.v4_src_public,
            data.v6_src_mismatch,
            _runs(data.v4_runs),
            _runs(data.v6_runs),
        )
    for probe in scenario.probes:
        feed(
            "probe",
            probe.probe_id,
            probe.asn,
            probe.dual_stack,
            _runs(probe.v4_runs),
            _runs(probe.v6_runs),
        )
    feed("report", sorted(dataclasses.asdict(scenario.report).items()))
    for asn in sorted(scenario.timelines):
        for sub_id in sorted(scenario.timelines[asn]):
            timeline = scenario.timelines[asn][sub_id]
            feed(
                "timeline",
                asn,
                sub_id,
                timeline.subscriber_id,
                timeline.dual_stack,
                *(
                    [(iv.start, iv.end, _value(iv.value)) for iv in intervals]
                    for intervals in (timeline.v4, timeline.v6_lan, timeline.v6_delegation)
                ),
            )
    return digest.hexdigest()


def _build(seed: int, workers: int = 1):
    return build_atlas_scenario(
        probes_per_as=3, years=0.5, seed=seed, workers=workers, cache=False
    )


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_scenario_digest_is_pinned(seed):
    scenario = _build(seed)
    anomalies = [data.spec.anomaly for data in scenario.raw_probes]
    assert any(anomaly != "none" for anomaly in anomalies)
    assert scenario_digest(scenario) == GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_pooled_build_reproduces_digest(seed):
    assert scenario_digest(_build(seed, workers=2)) == GOLDEN[seed]
