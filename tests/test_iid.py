"""Tests for the platform's RFC 4941 privacy-IID probes.

A privacy probe rotates the interface identifier (the low 64 bits) of
its IPv6 address; the prefix-level analyses must not see the churn.
"""

import pytest

from repro.atlas.platform import AtlasPlatform, ProbeSpec
from repro.core.changes import changes_from_runs, v6_runs_to_prefix_runs
from tests.test_atlas_platform import DAY, build_network

LOW64 = (1 << 64) - 1


class TestPrivacyProbes:
    @pytest.fixture(scope="class")
    def platform(self):
        isp, timelines, _table = build_network(num_subscribers=4, end_hour=120 * DAY)
        return AtlasPlatform({isp.asn: (isp, timelines)}, end_hour=120 * DAY, seed=5), isp

    def test_privacy_iids_rotate(self, platform):
        plat, isp = platform
        spec = ProbeSpec(probe_id=50, asn=isp.asn, subscriber_id=0,
                         iid_mode="privacy", iid_rotation_hours=7 * 24)
        data = plat.probe_data(spec)
        iids = {int(run.value) & LOW64 for run in data.v6_runs}
        assert len(iids) > 3
        # Random-looking: neither EUI-64 (ff:fe in the middle) nor a
        # small manually assigned integer.
        assert all((iid >> 24) & 0xFFFF != 0xFFFE and iid >= 1 << 16 for iid in iids)

    def test_prefix_level_analysis_unaffected_by_rotation(self, platform):
        plat, isp = platform
        eui = ProbeSpec(probe_id=51, asn=isp.asn, subscriber_id=1)
        privacy = ProbeSpec(probe_id=52, asn=isp.asn, subscriber_id=1,
                            iid_mode="privacy", iid_rotation_hours=48)
        eui_prefix_changes = changes_from_runs(
            v6_runs_to_prefix_runs(plat.probe_data(eui).v6_runs)
        )
        privacy_prefix_changes = changes_from_runs(
            v6_runs_to_prefix_runs(plat.probe_data(privacy).v6_runs)
        )
        # The paper's key point: /64 tracking works regardless of IID churn.
        assert len(privacy_prefix_changes) == len(eui_prefix_changes)
        # But the raw address-level series has many more "changes".
        raw_changes = changes_from_runs(plat.probe_data(privacy).v6_runs)
        assert len(raw_changes) > len(privacy_prefix_changes)

    def test_hourly_and_run_paths_agree_for_privacy(self, platform):
        from repro.atlas.echo import runs_from_hourly

        plat, isp = platform
        spec = ProbeSpec(probe_id=53, asn=isp.asn, subscriber_id=2,
                         iid_mode="privacy", iid_rotation_hours=72)
        data = plat.probe_data(spec)
        records = [r for r in plat.hourly_records(spec) if r.family == 6]
        assert runs_from_hourly(records) == data.v6_runs

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProbeSpec(probe_id=1, asn=1, subscriber_id=0, iid_mode="nonsense")
        with pytest.raises(ValueError):
            ProbeSpec(probe_id=1, asn=1, subscriber_id=0, iid_rotation_hours=0)
