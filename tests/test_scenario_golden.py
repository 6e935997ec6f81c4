"""Golden digests of Atlas scenarios.

Each digest is a canonical sha256 over everything a scenario build
produces: the raw per-probe echo runs, the sanitized (virtual) probes,
the sanitization report and every simulated subscriber timeline.  A
change to the simulator's event queue, its address draws, probe
collection or the routing-table lookups that moves one output bit or
one RNG draw fails here; a process-pool build must reproduce the same
digests.  Together the pinned builds fire every simulator event kind.
Update them only for an intended change of output.
"""

import dataclasses
import hashlib

import pytest

from repro.bgp.registry import RIR
from repro.ip.addr import IPAddress
from repro.ip.prefix import IPPrefix
from repro.netsim.cpe import CpeBehavior
from repro.netsim.isp import IspConfig, PolicyEpoch, V4AddressingConfig, V6AddressingConfig
from repro.netsim.policy import ChangePolicy
from repro.workloads import build_atlas_scenario

#: (seed, sha256) for ``build_atlas_scenario(probes_per_as=3, years=0.5)``.
GOLDEN = {
    0: "da1ddb7f0a441e64a8b8d31970be17148b8cdc778e0b267aeb844437d6455e56",
    1: "0660de3fbf66ce94f756f55de27b7413d682d6c5747be39ca9ab6460672dde20",
}

#: sha256 of the benchmark-scale build (seed 3, ``probes_per_as=20,
#: years=2``): it fires ``scramble`` events, which the GOLDEN builds do not.
BENCHMARK_SCALE_GOLDEN = "080f381641345d88b8378f5826d97cd142946e7086eea4959a163ea35e6e6cae"

#: sha256 of :func:`_custom_build`, whose two profiles fire ``policy`` and
#: ``infra`` events, which no default profile schedules.
CUSTOM_PROFILE_GOLDEN = "658045eabacd0b65cf52d448dc936af5536e89ad8222953ecd32e9913a692bbc"

DAY = 24.0


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


def custom_profiles() -> list:
    """Two profiles exercising every event kind of the simulator.

    ``Evolving`` is the policy-epoch ISP of ``tests/test_policy_epochs.py``
    with a dual-stack, rebooting, scrambling population; ``OutageNet`` is
    the infrastructure-outage ISP of ``tests/test_infra_outages.py``.
    """
    scramble_cpe = CpeBehavior(
        lan_selection="scramble", scramble_period_hours=10 * DAY, reboot_mean_hours=40 * DAY
    )
    constant_cpe = CpeBehavior(lan_selection="constant", reboot_mean_hours=60 * DAY)
    evolving = IspConfig(
        name="Evolving",
        asn=64700,
        country="XX",
        rir=RIR.RIPE,
        dual_stack_fraction=0.6,
        v4=V4AddressingConfig(
            policy_nds=ChangePolicy.periodic(DAY, jitter_hours=0.5),
            policy_ds=ChangePolicy.exponential(20 * DAY),
            ds_legacy_fraction=0.5,
            num_blocks=2,
            block_plen=18,
            epochs=(
                PolicyEpoch(
                    30 * DAY,
                    ChangePolicy.periodic(10 * DAY),
                    ChangePolicy.static(renumber_on_reboot=True),
                ),
                PolicyEpoch(
                    90 * DAY, ChangePolicy.periodic(2 * DAY), ChangePolicy.exponential(5 * DAY)
                ),
            ),
        ),
        v6=V6AddressingConfig(
            policy=ChangePolicy.exponential(30 * DAY, renumber_on_reboot=True),
            allocation_plen=32,
            pool_plen=40,
            num_pools=4,
            delegation_plen=56,
            sync_with_v4_prob=0.5,
            pool_switch_prob=0.1,
            cpe_mix=((scramble_cpe, 0.5), (constant_cpe, 0.5)),
        ),
    )
    outages = IspConfig(
        name="OutageNet",
        asn=64880,
        country="XX",
        rir=RIR.RIPE,
        dual_stack_fraction=1.0,
        infra_outage_mean_hours=30 * DAY,
        infra_outage_scope=0.5,
        v4=V4AddressingConfig(
            policy_nds=ChangePolicy.static(),
            policy_ds=ChangePolicy.static(),
            num_blocks=2,
            block_plen=18,
        ),
        v6=V6AddressingConfig(
            policy=ChangePolicy.static(),
            allocation_plen=32,
            pool_plen=40,
            num_pools=4,
            delegation_plen=56,
            cpe_mix=((CpeBehavior(lan_selection="zero", reboot_mean_hours=50 * DAY), 1.0),),
        ),
    )
    return [evolving, outages]


def _custom_build(workers: int = 1):
    return build_atlas_scenario(
        probes_per_as=8, years=0.5, seed=5, profiles=custom_profiles(),
        workers=workers, cache=False,
    )


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


@pytest.mark.parametrize("workers", [1, 2])
def test_benchmark_scale_digest_is_pinned(workers):
    scenario = build_atlas_scenario(
        probes_per_as=20, years=2.0, seed=3, workers=workers, cache=False
    )
    assert scenario_digest(scenario) == BENCHMARK_SCALE_GOLDEN


@pytest.mark.parametrize("workers", [1, 2])
def test_custom_profile_digest_is_pinned(workers):
    assert scenario_digest(_custom_build(workers)) == CUSTOM_PROFILE_GOLDEN
