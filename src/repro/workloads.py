"""One-call scenario builders used by examples, tests and benchmarks.

Three entry points:

* :func:`build_atlas_scenario` — simulate the paper's featured ISPs,
  deploy RIPE Atlas probes on them (including a configurable share of
  anomalous deployments), run the sanitization pipeline, and return
  everything the Section 3/5 analyses need.
* :func:`build_cdn_scenario` — build a world-wide CDN population (fixed
  ISPs per registry, mobile operators, the featured ISPs) and collect a
  RUM association dataset for the Section 4/5.3 analyses.
* :func:`analyze_atlas_scenario` — run the full Section 3/5 analysis
  stack (Table 1/2, Figures 1/5) over a built Atlas scenario, through
  the fused single-pass engine or the pure-Python reference kernels
  (``engine="fused"|"py"``, see :mod:`repro.core.fused`).

Both are deterministic in their ``seed``, *independent of the*
``workers=`` *knob*: the per-ISP simulations and per-population CDN
collection fan out across a process pool (``repro.perf.parallel``)
with per-unit seed derivation, and a ``workers=N`` build is
bit-identical to the serial one.  With ``cache=True`` (or
``REPRO_CACHE=1``) finished scenarios are stored in a content-addressed
on-disk cache (``repro.perf.cache``) keyed by the build parameters and
a fingerprint of the package sources, so warm sessions skip generation
entirely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atlas.platform import AtlasPlatform, ProbeData, ProbeSpec
from repro.atlas.sanitize import SanitizationReport, SanitizedProbe, sanitize
from repro.bgp.registry import RIR, Registry
from repro.bgp.table import RoutingTable
from repro.cdn.clients import (
    FixedPopulation,
    MobileConfig,
    MobilePopulation,
    cdn_fixed_config,
)
from repro.cdn.collector import CdnDataset
from repro.netsim.cpe import CpeBehavior
from repro.netsim.isp import Isp, IspConfig, V4AddressingConfig, V6AddressingConfig
from repro.netsim.policy import ChangePolicy
from repro.netsim.profiles import (
    PAPER_DS_PROBE_COUNTS,
    default_profiles,
    mobile_profile,
)
from repro.netsim.sim import SubscriberTimeline
from repro.obs import get_logger, span
from repro.perf.cache import get_scenario_cache, resolve_cache_flag
from repro.perf.parallel import (
    collect_associations,
    resolve_workers,
    run_isp_simulations,
)

_log = get_logger("workloads")

DAY = 24.0
MONTH = 30 * DAY

ANOMALY_CYCLE = ("test_prefix", "public_v4_src", "v6_src_mismatch", "multihomed", "as_move")


@dataclass
class AtlasScenario:
    """A fully built Atlas measurement study."""

    registry: Registry
    table: RoutingTable
    isps: Dict[str, Isp]
    timelines: Dict[int, Dict[int, SubscriberTimeline]]  # asn -> sub -> timeline
    platform: AtlasPlatform
    raw_probes: List[ProbeData]
    probes: List[SanitizedProbe]
    report: SanitizationReport
    end_hour: int
    #: Memoized per-AS ``ProbeColumns`` packs (see :meth:`analysis_columns`).
    #: Session-local only: excluded from comparison and pickling so cached
    #: scenarios round-trip unchanged.
    _columns_state: Dict[tuple, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_columns_state"] = {}
        return state

    def probes_in(self, asn: int) -> List[SanitizedProbe]:
        """The sanitized probes attributed to ``asn``."""
        return [probe for probe in self.probes if probe.asn == asn]

    def asn_of(self, name: str) -> int:
        """ASN of the ISP named ``name``."""
        return self.isps[name].asn

    def analysis_columns(
        self, asn: Optional[int] = None, engine: Optional[str] = None
    ):
        """Memoized columnar pack of this scenario's sanitized probes.

        Returns the shared :class:`repro.core.analysis_np.ProbeColumns`
        for ``asn``'s probes (all probes when ``asn is None``) so every
        table/figure computed from this scenario reuses one CSR pack.
        The fused engine gets the pack; the pure-Python engine gets
        ``None``.  The cache key includes the identity/size of
        ``self.probes``, so flipping ``$REPRO_ANALYSIS_ENGINE``
        mid-session or re-sanitizing the probe list can never serve
        stale columns.
        """
        from repro.core.engine import resolve_engine

        if resolve_engine(engine) == "py":
            return None
        from repro.core.analysis_np import ProbeColumns

        key = (asn, id(self.probes), len(self.probes))
        cached = self._columns_state.get(key)
        # The cache entry pins the exact probe list it was packed from, so
        # a replaced ``self.probes`` can never alias a stale pack even if
        # the new list happens to reuse the old one's id.
        if cached is not None and cached[0] is self.probes:
            return cached[1]
        probes = self.probes if asn is None else self.probes_in(asn)
        columns = ProbeColumns(probes, plen=64)
        self._columns_state[key] = (self.probes, columns)
        return columns

    def invalidate_analysis_columns(self) -> None:
        """Drop every memoized column pack (e.g. after editing probes)."""
        self._columns_state.clear()


@dataclass
class AtlasAnalysis:
    """Every Section 3/5 artifact of one Atlas scenario, by AS name."""

    engine: str
    table1: "Dict[str, object]"  # name -> Table1Row
    table2: "Dict[str, object]"  # name -> CrossingRates
    figure1: "Dict[str, Dict[str, object]]"  # name -> curve key -> Figure1Series
    figure5: "Dict[str, Dict[int, Dict[int, int]]]"  # name -> CplHistogram


def analyze_atlas_scenario(
    scenario: AtlasScenario, engine: Optional[str] = None
) -> AtlasAnalysis:
    """Compute Table 1/2 and Figures 1/5 for every featured AS.

    ``engine`` picks the analysis kernels: ``"fused"`` is the
    single-pass engine of :mod:`repro.core.fused`, ``"py"`` the
    pure-Python reference (``None`` reads ``$REPRO_ANALYSIS_ENGINE``,
    defaulting to ``"fused"``).  Both engines yield bit-identical
    artifacts.  The fused engine runs one pass over the scenario's
    memoized global pack and assembles every AS's artifacts by mask
    (:func:`repro.core.fused.fused_analysis_artifacts`), in process: the
    Atlas population is a few thousand probes, too small for a worker
    pool to pay for itself.
    """
    from repro.core.engine import resolve_engine
    from repro.core.report import (
        figure1_for_as,
        figure5_for_as,
        table1_row,
        table2_row,
    )

    resolved = resolve_engine(engine)
    _log.info("analysis engine resolved", extra={"engine": resolved})
    if resolved == "fused":
        from repro.core.fused import fused_analysis_artifacts

        columns = scenario.analysis_columns(None, engine=resolved)
        groups = [(name, isp.asn, isp.config.country) for name, isp in scenario.isps.items()]
        with span("analysis/report", engine=resolved, networks=len(groups)):
            artifacts = fused_analysis_artifacts(columns, groups, scenario.table)
        return AtlasAnalysis(
            engine=resolved,
            table1=artifacts["table1"],
            table2=artifacts["table2"],
            figure1=artifacts["figure1"],
            figure5=artifacts["figure5"],
        )
    table1 = {}
    table2 = {}
    figure1 = {}
    figure5 = {}
    with span("analysis/report", engine=resolved, networks=len(scenario.isps)):
        for name, isp in scenario.isps.items():
            probes = scenario.probes_in(isp.asn)
            with span("analysis/table1", network=name):
                table1[name] = table1_row(
                    name, isp.asn, isp.config.country, probes, engine=resolved
                )
            with span("analysis/table2", network=name):
                table2[name] = table2_row(probes, scenario.table, engine=resolved)
            with span("analysis/figure1", network=name):
                figure1[name] = figure1_for_as(name, probes, engine=resolved)
            with span("analysis/figure5", network=name):
                figure5[name] = figure5_for_as(probes, engine=resolved)
    return AtlasAnalysis(
        engine=resolved, table1=table1, table2=table2, figure1=figure1, figure5=figure5
    )


def periodicity_for_scenario(
    scenario: AtlasScenario,
    min_probes: int = 3,
    tolerance: float = 1.0,
    engine: Optional[str] = None,
) -> "Tuple[Dict[str, float], Dict[str, float]]":
    """Consistent periodic renumbering per featured ISP (Section 3.2).

    Returns ``(v4_nds_periods, v6_periods)`` from
    :func:`repro.core.report.periodic_networks`, dispatched through the
    analysis-engine knob.  The fused engine detects every network's
    periods from one global pass
    (:func:`repro.core.fused.fused_network_periods`), reusing the
    scenario's memoized global pack and its cached fused stats.
    """
    from repro.core.engine import resolve_engine
    from repro.core.report import periodic_networks

    resolved = resolve_engine(engine)
    if resolved == "fused":
        from repro.core.fused import fused_network_periods

        columns = scenario.analysis_columns(None, engine=resolved)
        groups = [(name, isp.asn, isp.config.country) for name, isp in scenario.isps.items()]
        with span("analysis/periodicity", engine=resolved, networks=len(groups)):
            return fused_network_periods(
                columns, groups, tolerance=tolerance, min_probes=min_probes
            )
    probes_by_network = {
        name: scenario.probes_in(isp.asn) for name, isp in scenario.isps.items()
    }
    with span("analysis/periodicity", engine=resolved, networks=len(probes_by_network)):
        return periodic_networks(
            probes_by_network,
            tolerance=tolerance,
            min_probes=min_probes,
            engine=resolved,
        )


def build_atlas_scenario(
    probes_per_as: int = 20,
    years: float = 2.0,
    seed: int = 0,
    profiles: Optional[Sequence[IspConfig]] = None,
    anomaly_fraction: float = 0.15,
    bad_tag_fraction: float = 0.05,
    workers: Optional[int] = None,
    cache: Optional[bool] = None,
) -> AtlasScenario:
    """Simulate ISPs, deploy probes, sanitize — the Section 3/5 input.

    ``workers`` fans the per-ISP simulations out over a process pool
    (``None`` = ``$REPRO_WORKERS``, default serial) without changing the
    result.  ``cache`` consults the content-addressed scenario cache
    (``None`` = ``$REPRO_CACHE``, default off).
    """
    if probes_per_as < 1:
        raise ValueError("probes_per_as must be >= 1")
    if years <= 0:
        raise ValueError("years must be positive")
    profiles = list(profiles) if profiles is not None else default_profiles()
    worker_count = resolve_workers(workers)

    with span(
        "collection/atlas", probes_per_as=probes_per_as, seed=seed, workers=worker_count
    ) as build_span:
        scenario_cache = cache_key = None
        if resolve_cache_flag(cache):
            scenario_cache = get_scenario_cache()
            cache_key = scenario_cache.key(
                "atlas",
                {
                    "probes_per_as": probes_per_as,
                    "years": years,
                    "seed": seed,
                    "profiles": profiles,
                    "anomaly_fraction": anomaly_fraction,
                    "bad_tag_fraction": bad_tag_fraction,
                },
            )
            cached = scenario_cache.get("atlas", cache_key)
            if cached is not None:
                build_span.set(cache="hit")
                return cached

        end_hour = int(years * 365 * DAY)

        registry = Registry()
        table = RoutingTable()
        rng = random.Random(seed)

        # ISP construction mutates the shared registry/routing table and must
        # stay serial and ordered; the simulations are independent per ISP
        # (each only touches its own plans with a private (seed, asn) RNG)
        # and fan out across workers.
        isps: Dict[str, Isp] = {
            config.name: Isp(config, registry, table) for config in profiles
        }
        # Anomalous probes need a secondary network to flap to / move to.
        num_subscribers = probes_per_as + 2  # spares for secondary attachments
        with span("collection/isp_simulations", isps=len(profiles)):
            timeline_list = run_isp_simulations(
                [(isps[config.name], num_subscribers) for config in profiles],
                end_hour=end_hour,
                seed=seed,
                workers=worker_count,
            )
        timelines: Dict[int, Dict[int, SubscriberTimeline]] = {
            config.asn: result for config, result in zip(profiles, timeline_list)
        }

        platform = AtlasPlatform(
            {isp.asn: (isp, timelines[isp.asn]) for isp in isps.values()},
            end_hour=end_hour,
            seed=seed,
        )

        specs: List[ProbeSpec] = []
        probe_id = 0
        asns = [isp.asn for isp in isps.values()]
        for config in profiles:
            for subscriber_id in range(probes_per_as):
                roll = rng.random()
                anomaly = "none"
                tags: tuple = ()
                secondary = None
                if roll < anomaly_fraction:
                    anomaly = ANOMALY_CYCLE[probe_id % len(ANOMALY_CYCLE)]
                    if anomaly in ("multihomed", "as_move"):
                        other_asn = rng.choice(
                            [asn for asn in asns if asn != config.asn]
                        )
                        secondary = (other_asn, probes_per_as)  # a spare line
                elif roll < anomaly_fraction + bad_tag_fraction:
                    tags = ("datacentre",)
                specs.append(
                    ProbeSpec(
                        probe_id=probe_id,
                        asn=config.asn,
                        subscriber_id=subscriber_id,
                        tags=tags,
                        anomaly=anomaly,
                        secondary=secondary,
                    )
                )
                probe_id += 1

        with span("collection/probes", specs=len(specs)):
            raw_probes = [platform.probe_data(spec) for spec in specs]
        probes, report = sanitize(raw_probes, table)
        scenario = AtlasScenario(
            registry=registry,
            table=table,
            isps=isps,
            timelines=timelines,
            platform=platform,
            raw_probes=raw_probes,
            probes=probes,
            report=report,
            end_hour=end_hour,
        )
        if scenario_cache is not None and cache_key is not None:
            scenario_cache.put("atlas", cache_key, scenario)
        _log.info(
            "atlas scenario built",
            extra={"probes": len(probes), "raw": len(raw_probes), "seed": seed},
        )
        return scenario


# ---------------------------------------------------------------------------
# CDN scenario
# ---------------------------------------------------------------------------


@dataclass
class CdnScenario:
    """A fully built CDN association study."""

    registry: Registry
    table: RoutingTable
    dataset: CdnDataset
    featured_asns: Dict[str, int]
    days: int
    fixed_asns: List[int] = field(default_factory=list)
    mobile_asns: List[int] = field(default_factory=list)


def _registry_fixed_configs(rir: RIR, base_asn: int) -> List[IspConfig]:
    """Generic fixed-line ISPs per registry, calibrated to Figs 3 and 7.

    Per registry we deploy three ISPs: a ``/60-delegating``, a
    ``/56-delegating``, and a "non-inferable" one whose CPEs scramble.
    The weights (via subscriber share, chosen by the caller) land the
    per-registry inferable fractions near the paper's: ARIN 59 %,
    RIPE 79 %, APNIC 54 %, LACNIC 15 %, AFRINIC 83 %.
    """
    zero = CpeBehavior(lan_selection="zero", reboot_mean_hours=4 * MONTH)
    scramble = CpeBehavior(lan_selection="scramble", reboot_mean_hours=4 * MONTH)

    # Per-RIR IPv4 holding-time means (hours): ARIN fixed lines are very
    # stable (Fig. 3 median ~100 days), other registries more moderate.
    # Reboots do not renumber (sticky DHCP), so the mean is the only knob.
    v4_mean = {
        RIR.ARIN: 12 * MONTH,
        RIR.RIPE: 5 * MONTH,
        RIR.APNIC: 6 * MONTH,
        RIR.LACNIC: 4 * MONTH,
        RIR.AFRINIC: 6 * MONTH,
    }[rir]

    def config(offset: int, name_suffix: str, delegation_plen: int, cpe: CpeBehavior) -> IspConfig:
        return IspConfig(
            name=f"{rir.value}-{name_suffix}",
            asn=base_asn + offset,
            country=rir.value[:2],
            rir=rir,
            dual_stack_fraction=1.0,
            v4=V4AddressingConfig(
                policy_nds=ChangePolicy.exponential(v4_mean),
                policy_ds=ChangePolicy.exponential(v4_mean),
                num_blocks=2,
                block_plen=20,
                same_slash24_affinity=0.25,
                same_block_affinity=0.5,
            ),
            v6=V6AddressingConfig(
                policy=ChangePolicy.exponential(12 * MONTH),
                allocation_plen=32,
                pool_plen=40,
                num_pools=8,
                delegation_plen=delegation_plen,
                sync_with_v4_prob=0.3,
                pool_switch_prob=0.02,
                cpe_mix=((cpe, 1.0),),
            ),
        )

    return [
        config(0, "fixed60", 60, zero),
        config(1, "fixed56", 56, zero),
        config(2, "fixedopaque", 60, scramble),
    ]


#: Share of each registry's fixed subscribers on the /60, /56, and opaque
#: ISPs — the knob behind Figure 7's per-registry inferable fractions.
_FIXED_DELEGATION_SHARES: Dict[RIR, tuple] = {
    RIR.ARIN: (0.31, 0.28, 0.41),
    RIR.RIPE: (0.12, 0.67, 0.21),
    RIR.APNIC: (0.22, 0.33, 0.45),
    RIR.LACNIC: (0.05, 0.10, 0.85),
    RIR.AFRINIC: (0.08, 0.75, 0.17),
}


def build_cdn_scenario(
    days: int = 150,
    seed: int = 0,
    fixed_subscribers_per_registry: int = 600,
    mobile_devices_per_registry: int = 1500,
    include_featured_isps: bool = True,
    featured_subscribers: int = 400,
    cross_network_noise: float = 0.0,
    filter_asn_mismatch: bool = True,
    workers: Optional[int] = None,
    cache: Optional[bool] = None,
) -> CdnScenario:
    """Build the world-wide CDN association dataset (Section 4 input).

    ``workers`` fans the per-ISP simulations and the per-population
    collection out over a process pool (``None`` = ``$REPRO_WORKERS``,
    default serial) without changing the result.  ``cache`` consults the
    content-addressed scenario cache (``None`` = ``$REPRO_CACHE``).
    """
    if days <= 0:
        raise ValueError("days must be positive")
    worker_count = resolve_workers(workers)

    scenario_cache = cache_key = None
    if resolve_cache_flag(cache):
        scenario_cache = get_scenario_cache()
        cache_key = scenario_cache.key(
            "cdn",
            {
                "days": days,
                "seed": seed,
                "fixed_subscribers_per_registry": fixed_subscribers_per_registry,
                "mobile_devices_per_registry": mobile_devices_per_registry,
                "include_featured_isps": include_featured_isps,
                "featured_subscribers": featured_subscribers,
                "cross_network_noise": cross_network_noise,
                "filter_asn_mismatch": filter_asn_mismatch,
            },
        )
        cached = scenario_cache.get("cdn", cache_key)
        if cached is not None:
            return cached

    registry = Registry()
    table = RoutingTable()
    end_hour = days * DAY
    populations: List = []
    fixed_asns: List[int] = []
    mobile_asns: List[int] = []
    featured_asns: Dict[str, int] = {}

    # Pass 1: fixed-line ISPs (registry generics + featured ISPs).  As in
    # the Atlas builder, construction stays serial (shared registry/table,
    # ordered allocations) while the per-ISP simulations fan out.
    base_asn = 64600
    fixed_isps: List[Isp] = []
    fixed_counts: List[int] = []
    for rir_index, rir in enumerate(RIR):
        configs = _registry_fixed_configs(rir, base_asn + 10 * rir_index)
        shares = _FIXED_DELEGATION_SHARES[rir]
        for config, share in zip(configs, shares):
            count = max(8, int(fixed_subscribers_per_registry * share))
            scaled = cdn_fixed_config(config, count)
            isp = Isp(scaled, registry, table)
            fixed_asns.append(isp.asn)
            fixed_isps.append(isp)
            fixed_counts.append(count)

    if include_featured_isps:
        # Featured ISP populations are scaled relative to each other by the
        # paper's dual-stack probe counts (Table 1): DTAG is the largest.
        reference = max(PAPER_DS_PROBE_COUNTS.values())
        for config in default_profiles():
            weight = PAPER_DS_PROBE_COUNTS.get(config.name, reference // 4)
            count = max(64, featured_subscribers * weight // reference)
            # The CDN-visible dual-stack population skews toward lines on
            # modern provisioning: legacy periodic-renumbering DS shares are
            # scaled down relative to the Atlas probe population (this is
            # what reconciles Fig. 1's DS 1-day mode with Fig. 2's ~1-week
            # DTAG median; see EXPERIMENTS.md).
            config = replace(
                config,
                v4=replace(
                    config.v4, ds_legacy_fraction=config.v4.ds_legacy_fraction * 0.2
                ),
            )
            scaled = cdn_fixed_config(config, count)
            isp = Isp(scaled, registry, table)
            featured_asns[config.name] = isp.asn
            fixed_asns.append(isp.asn)
            fixed_isps.append(isp)
            fixed_counts.append(count)

    with span("collection/isp_simulations", isps=len(fixed_isps), scenario="cdn"):
        fixed_timelines = run_isp_simulations(
            list(zip(fixed_isps, fixed_counts)),
            end_hour=end_hour,
            seed=seed,
            workers=worker_count,
        )
    for isp, timelines in zip(fixed_isps, fixed_timelines):
        populations.append(FixedPopulation(isp, timelines, days, seed=seed))

    # Foreign v4 space for cellular/WiFi switchers: one block per fixed ISP.
    foreign_blocks = [
        population.isp.v4_plan.blocks[0]
        for population in populations
        if isinstance(population, FixedPopulation)
    ]

    # Pass 2: one generic mobile operator per registry; RIPE additionally
    # gets an EE-like operator with long-lived mobile associations.
    for rir_index, rir in enumerate(RIR):
        mobile = mobile_profile(
            f"{rir.value}-mobile", base_asn + 10 * rir_index + 5, rir.value[:2], rir
        )
        mobile_isp = Isp(mobile, registry, table)
        mobile_asns.append(mobile_isp.asn)
        generic_devices = (
            mobile_devices_per_registry // 2 if rir is RIR.RIPE else mobile_devices_per_registry
        )
        populations.append(
            MobilePopulation(
                mobile_isp,
                MobileConfig(
                    num_devices=generic_devices,
                    cross_network_noise=cross_network_noise,
                ),
                days,
                seed=seed,
                foreign_v4_blocks=foreign_blocks if cross_network_noise > 0 else None,
            )
        )
        if rir is RIR.RIPE:
            # EE-like operator: a *large* mobile network whose associations
            # reach 50 days — it single-handedly shifts RIPE's mobile tail
            # (the paper's "main outlier" discussion around Figure 3).
            ee = mobile_profile("EE", base_asn + 10 * rir_index + 6, "GB", rir)
            ee_isp = Isp(ee, registry, table)
            mobile_asns.append(ee_isp.asn)
            populations.append(
                MobilePopulation(
                    ee_isp,
                    MobileConfig(
                        num_devices=4 * mobile_devices_per_registry,
                        short_lifetime_fraction=0.25,
                        long_lifetime_mean_days=18.0,
                        lifetime_cap_days=50.0,
                    ),
                    days,
                    seed=seed,
                )
            )

    with span("collection/associations", populations=len(populations)):
        dataset = collect_associations(
            populations,
            table,
            registry,
            filter_asn_mismatch=filter_asn_mismatch,
            workers=worker_count,
        )
    scenario = CdnScenario(
        registry=registry,
        table=table,
        dataset=dataset,
        featured_asns=featured_asns,
        days=days,
        fixed_asns=fixed_asns,
        mobile_asns=mobile_asns,
    )
    if scenario_cache is not None and cache_key is not None:
        scenario_cache.put("cdn", cache_key, scenario)
    return scenario


def stream_analyze_atlas_scenario(
    scenario: AtlasScenario,
    chunk_hours: int = 720,
    checkpoint=None,
    resume: bool = False,
    checkpoint_every: int = 1,
    stop_after_chunks: Optional[int] = None,
    min_probes: int = 3,
    tolerance: float = 1.0,
    on_chunk=None,
):
    """Streaming (chunked, checkpointable) ``analyze_atlas_scenario``.

    Windows the scenario's sanitized runs into ``chunk_hours``-wide
    chunks and folds them through the incremental
    :class:`repro.stream.engine.AtlasStreamEngine`; the returned
    :class:`~repro.stream.engine.AtlasStreamResult` carries artifacts
    bit-identical to ``analyze_atlas_scenario(scenario)``
    plus the ``periodicity_for_scenario`` periods for the same
    ``min_probes``/``tolerance``.

    ``checkpoint`` enables on-disk state persistence: ``True`` uses the
    default checkpoint directory (under the scenario cache dir), a path
    uses that directory.  With ``resume=True`` a previously persisted
    state for the same stream/parameters/code is loaded and only the
    remaining chunks are folded.  ``stop_after_chunks`` aborts the pass
    after that many folds (persisting first, when enabled) and returns
    ``None`` — simulating a killed run.
    """
    from repro.stream import CheckpointStore, ScenarioRunSource, run_atlas_stream

    store = None
    if checkpoint:
        store = CheckpointStore(None if checkpoint is True else checkpoint)
    source = ScenarioRunSource.from_scenario(scenario)
    return run_atlas_stream(
        source,
        chunk_hours,
        table=scenario.table,
        store=store,
        resume=resume,
        checkpoint_every=checkpoint_every,
        stop_after_chunks=stop_after_chunks,
        min_probes=min_probes,
        tolerance=tolerance,
        on_chunk=on_chunk,
    )


def build_cdn_triple_store(
    scenario: CdnScenario,
    directory,
    shards: int = 16,
    spill_rows: int = 1 << 18,
    workers: Optional[int] = None,
):
    """Persist a CDN scenario's triples as a sharded memmap store.

    The dataset streams into the store lazily
    (:meth:`~repro.cdn.collector.CdnDataset.iter_triples`), so the only
    full-population copy that ever exists is the on-disk one.
    ``workers`` > 1 (on a multi-core host) fans the per-shard finalize
    out to a pool — byte-identical to the serial build (``None`` =
    ``$REPRO_WORKERS``).  Returns the opened
    :class:`repro.store.TripleStore`.
    """
    from repro.store import build_store_from_triples

    return build_store_from_triples(
        scenario.dataset.iter_triples(),
        directory,
        shards=shards,
        spill_rows=spill_rows,
        workers=workers,
        source={
            "kind": "cdn-scenario",
            "days": scenario.days,
            "asns": sorted(scenario.dataset.triples_by_asn),
        },
    )


def analyze_triple_store(store, workers: Optional[int] = None, block_rows=None):
    """Out-of-core Section-5 analysis of a triple store (or its path).

    Accepts an open :class:`repro.store.TripleStore` or a directory
    path; ``workers`` fans the per-shard pass out over the zero-copy
    pool (``None`` = ``$REPRO_WORKERS``).  Artifacts are bit-identical
    to the pure-Python :mod:`repro.core.associations` oracle (see
    :func:`repro.perf.verify.store_diffs`).
    """
    from repro.store import DEFAULT_BLOCK_ROWS, TripleStore, analyze_store

    if not isinstance(store, TripleStore):
        store = TripleStore.open(store)
    return analyze_store(
        store,
        workers=workers,
        block_rows=DEFAULT_BLOCK_ROWS if block_rows is None else block_rows,
    )


__all__ = [
    "AtlasAnalysis",
    "AtlasScenario",
    "CdnScenario",
    "analyze_atlas_scenario",
    "analyze_triple_store",
    "build_atlas_scenario",
    "build_cdn_scenario",
    "build_cdn_triple_store",
    "periodicity_for_scenario",
    "stream_analyze_atlas_scenario",
]
