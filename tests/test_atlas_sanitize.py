"""Tests for the Appendix A.1 sanitization pipeline."""

import pytest

from repro.atlas.echo import TEST_ADDRESS, EchoRun
from repro.atlas.platform import AtlasPlatform, ProbeData, ProbeSpec
from repro.atlas.probe import Probe
from repro.atlas.sanitize import sanitize
from repro.bgp.registry import Registry
from repro.bgp.table import RoutingTable
from repro.ip.addr import IPv4Address
from repro.obs import get_registry, telemetry
from tests.test_atlas_platform import DAY, build_network

_DROP_REASONS = ("bad_tag", "atypical_nat", "multihomed", "short")


def dropped_total(report):
    return sum(getattr(report, f"dropped_{reason}") for reason in _DROP_REASONS)


def unrouted_only_probe(probe_id, asn):
    """A probe whose v4 runs are the test address and an unrouted address."""
    unrouted = IPv4Address.parse("192.0.2.1")
    return ProbeData(
        probe=Probe(probe_id=probe_id, asn=asn),
        spec=ProbeSpec(probe_id=probe_id, asn=asn, subscriber_id=0),
        v4_runs=[
            EchoRun(probe_id, 4, TEST_ADDRESS, 0, 9, 10),
            EchoRun(probe_id, 4, unrouted, 10, 40 * 24, 40 * 24 - 9),
        ],
        v6_runs=[],
    )


@pytest.fixture(scope="module")
def environment():
    registry, table = Registry(), RoutingTable()
    isp_a, timelines_a, _ = build_network(asn=64500, registry=registry, table=table,
                                          num_subscribers=10, end_hour=180 * DAY)
    isp_b, timelines_b, _ = build_network(asn=64501, registry=registry, table=table,
                                          num_subscribers=10, end_hour=180 * DAY, seed=5)
    platform = AtlasPlatform(
        {isp_a.asn: (isp_a, timelines_a), isp_b.asn: (isp_b, timelines_b)},
        end_hour=180 * DAY,
        seed=11,
    )
    return platform, isp_a, isp_b, table


def data_for(platform, **kwargs):
    return platform.probe_data(ProbeSpec(**kwargs))


class TestSanitize:
    def test_clean_probe_survives(self, environment):
        platform, isp_a, _, table = environment
        data = data_for(platform, probe_id=1, asn=isp_a.asn, subscriber_id=0)
        kept, report = sanitize([data], table)
        assert len(kept) == 1
        assert kept[0].probe_id == "1"
        assert kept[0].asn == isp_a.asn
        assert kept[0].dual_stack
        assert report.kept_probes == 1

    def test_bad_tag_dropped(self, environment):
        platform, isp_a, _, table = environment
        data = data_for(platform, probe_id=2, asn=isp_a.asn, subscriber_id=0,
                        tags=("home", "datacentre"))
        kept, report = sanitize([data], table)
        assert kept == []
        assert report.dropped_bad_tag == 1

    def test_atypical_nat_dropped(self, environment):
        platform, isp_a, _, table = environment
        v4_public = data_for(platform, probe_id=3, asn=isp_a.asn, subscriber_id=1,
                             anomaly="public_v4_src")
        v6_mismatch = data_for(platform, probe_id=4, asn=isp_a.asn, subscriber_id=2,
                               anomaly="v6_src_mismatch")
        kept, report = sanitize([v4_public, v6_mismatch], table)
        assert kept == []
        assert report.dropped_atypical_nat == 2

    def test_multihomed_dropped(self, environment):
        platform, isp_a, isp_b, table = environment
        data = data_for(platform, probe_id=5, asn=isp_a.asn, subscriber_id=3,
                        anomaly="multihomed", secondary=(isp_b.asn, 3))
        kept, report = sanitize([data], table)
        assert kept == []
        assert report.dropped_multihomed == 1

    def test_as_move_split_into_virtual_probes(self, environment):
        platform, isp_a, isp_b, table = environment
        data = data_for(platform, probe_id=6, asn=isp_a.asn, subscriber_id=4,
                        anomaly="as_move", secondary=(isp_b.asn, 4))
        kept, report = sanitize([data], table)
        assert len(kept) == 2
        assert {probe.asn for probe in kept} == {isp_a.asn, isp_b.asn}
        assert {probe.probe_id for probe in kept} == {"6#0", "6#1"}
        assert report.virtual_probes_created == 2

    def test_test_address_runs_removed(self, environment):
        platform, isp_a, _, table = environment
        data = data_for(platform, probe_id=7, asn=isp_a.asn, subscriber_id=5,
                        anomaly="test_prefix")
        kept, report = sanitize([data], table)
        assert report.test_address_runs_removed >= 1
        assert len(kept) == 1
        assert all(str(run.value) != "193.0.0.78" for run in kept[0].v4_runs)

    def test_short_duration_dropped(self, environment):
        platform, isp_a, _, table = environment
        data = data_for(platform, probe_id=8, asn=isp_a.asn, subscriber_id=6,
                        join_hour=0, leave_hour=20 * DAY)
        kept, report = sanitize([data], table)
        assert kept == []
        assert report.dropped_short == 1

    def test_unrouted_runs_removed(self, environment):
        platform, isp_a, _, _ = environment
        data = data_for(platform, probe_id=9, asn=isp_a.asn, subscriber_id=7)
        empty_table = RoutingTable()
        kept, report = sanitize([data], empty_table)
        assert kept == []
        assert report.unrouted_runs_removed > 0

    def test_report_totals(self, environment):
        platform, isp_a, isp_b, table = environment
        batch = [
            data_for(platform, probe_id=20, asn=isp_a.asn, subscriber_id=0),
            data_for(platform, probe_id=21, asn=isp_a.asn, subscriber_id=1,
                     tags=("system-anchor",)),
            data_for(platform, probe_id=22, asn=isp_b.asn, subscriber_id=2),
        ]
        kept, report = sanitize(batch, table)
        assert report.input_probes == 3
        assert report.kept_probes == len(kept) == 2
        assert report.dropped_bad_tag == 1

    def test_probe_without_routed_runs_counted_short(self, environment):
        _, isp_a, _, table = environment
        data = unrouted_only_probe(40, isp_a.asn)
        assert table.origin_asn(data.v4_runs[1].value) is None
        with telemetry(True, reset=True):
            kept, report = sanitize([data], table)
            dropped_metric = get_registry().counter("sanitize.probes_dropped", reason="short")
        assert kept == []
        assert report.input_probes == 1 and report.kept_probes == 0
        assert report.dropped_short == 1
        assert dropped_metric == 1
        assert report.test_address_runs_removed == report.unrouted_runs_removed == 1

    def test_every_input_probe_is_kept_or_dropped(self, environment):
        platform, isp_a, isp_b, table = environment
        batch = [
            data_for(platform, probe_id=50, asn=isp_a.asn, subscriber_id=0),
            data_for(platform, probe_id=51, asn=isp_a.asn, subscriber_id=1,
                     tags=("core",)),
            data_for(platform, probe_id=52, asn=isp_a.asn, subscriber_id=2,
                     anomaly="public_v4_src"),
            data_for(platform, probe_id=53, asn=isp_a.asn, subscriber_id=3,
                     anomaly="multihomed", secondary=(isp_b.asn, 3)),
            data_for(platform, probe_id=54, asn=isp_b.asn, subscriber_id=6,
                     join_hour=0, leave_hour=20 * DAY),
            data_for(platform, probe_id=55, asn=isp_a.asn, subscriber_id=5,
                     anomaly="test_prefix"),
            unrouted_only_probe(56, isp_b.asn),
        ]
        for probes, routes in ((batch, table), (batch[:3], RoutingTable())):
            kept, report = sanitize(probes, routes)
            assert report.virtual_probes_created == 0
            assert report.input_probes == len(probes)
            assert report.input_probes == report.kept_probes + dropped_total(report)

    def test_non_dual_stack_classification(self):
        # A probe on a subscriber line without IPv6 is kept but not dual-stack.
        from repro.netsim.isp import Isp, IspConfig, V4AddressingConfig, V6AddressingConfig
        from repro.netsim.policy import ChangePolicy
        from repro.netsim.sim import IspSimulation
        from repro.bgp.registry import RIR

        registry, table = Registry(), RoutingTable()
        config = IspConfig(
            name="NdsNet",
            asn=64510,
            country="XX",
            rir=RIR.RIPE,
            dual_stack_fraction=0.0,
            v4=V4AddressingConfig(
                policy_nds=ChangePolicy.periodic(5 * DAY),
                policy_ds=ChangePolicy.periodic(5 * DAY),
                num_blocks=2,
                block_plen=18,
            ),
            v6=V6AddressingConfig(policy=ChangePolicy.exponential(40 * DAY)),
        )
        isp = Isp(config, registry, table)
        timelines = IspSimulation(isp, 3, 120 * DAY, seed=0).run()
        platform = AtlasPlatform({isp.asn: (isp, timelines)}, end_hour=120 * DAY, seed=1)
        data = data_for(platform, probe_id=30, asn=isp.asn, subscriber_id=0)
        kept, _ = sanitize([data], table)
        assert len(kept) == 1 and not kept[0].dual_stack
        assert kept[0].v6_runs == []
