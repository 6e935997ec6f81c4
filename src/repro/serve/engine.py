"""The batched query engine over registry-cached analysis artifacts.

One scenario's serving artifact is its global column pack plus the
fused per-probe stats (:class:`repro.core.fused.FusedProbeStats`) —
everything a query needs is a boolean-mask reduction over those arrays.
The engine keeps the artifact in an :class:`ArtifactRegistry` under the
scenario's content address, so warm queries never re-run analysis
(``serve.analysis.computes`` counts cold builds; tests pin it at one).

Batching: :meth:`QueryEngine.run_batch` coalesces all prefix-addressed
queries against the same artifact into **one mask pass per (family,
prefix-length) group** — runs and change events are keyed by their
top ``plen`` bits once, then matched against every queried prefix via
a single ``searchsorted``, instead of one full scan per query.  The
answers are assembled from the same integer populations either way, so
batched, sequential and direct results are bit-identical
(:func:`repro.perf.verify.serve_diffs`).

:func:`compute_direct` is the independent reference: a pure-Python walk
over the sanitized probes through :mod:`repro.core.report` /
:func:`repro.workloads.periodicity_for_scenario` with ``engine="py"``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.analysis_np import concat_run_columns
from repro.core.changes import v6_runs_to_prefix_runs
from repro.core.hitlist import plan_rescan
from repro.core.report import probe_v4_changes, probe_v6_changes
from repro.ip import IPPrefix, IPv4Prefix, IPv6Prefix
from repro.ip.addr import AddressError
from repro.obs import get_logger, metric_inc, metric_observe, span
from repro.serve.queries import (
    DualStackQuery,
    DualStackResult,
    HitlistQuery,
    HitlistResult,
    LifetimeQuery,
    LifetimeResult,
    Query,
    Result,
    StabilityQuery,
    StabilityResult,
    change_rate_per_probe_year,
    classify_stability,
    duration_summary,
    fraction,
    validate_query,
)
from repro.serve.registry import ArtifactRegistry, scenario_artifact_key

_log = get_logger("serve.engine")


@dataclass
class ScenarioArtifact:
    """Everything the engine serves one scenario from."""

    key: str
    scenario: Any
    columns: Any  # repro.core.analysis_np.ProbeColumns
    stats: Any  # repro.core.fused.FusedProbeStats
    name_by_asn: Dict[int, str]
    asn_by_name: Dict[str, int]
    nbytes: int
    #: per-AS ``(v4 NDS, v6)`` period memo shared across batches.
    period_cache: Dict[int, Tuple[Optional[float], Optional[float]]] = field(
        default_factory=dict, repr=False
    )

    def periods_for(self, asn: int) -> Tuple[Optional[float], Optional[float]]:
        """Memoized canonical-knob renumbering periods of ``asn``."""
        cached = self.period_cache.get(asn)
        if cached is None:
            from repro.core.fused import network_periods_from_stats

            sel = self.stats.asn == asn
            cached = self.period_cache[asn] = network_periods_from_stats(
                self.stats, sel
            )
        return cached


def _array_bytes(obj: Any) -> int:
    """Recursive ``nbytes`` total of a dataclass-of-arrays tree."""
    if obj is None:
        return 0
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            _array_bytes(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        )
    return 0


def build_scenario_artifact(scenario: Any, key: str) -> ScenarioArtifact:
    """Assemble the serving artifact of ``scenario`` (the cold path)."""
    from repro.core.fused import fused_probe_stats

    columns = scenario.analysis_columns(None, engine="fused")
    stats = fused_probe_stats(columns)
    nbytes = _array_bytes(stats)
    for cols in (columns.v4(), columns.v6(), columns.v6_prefix()):
        nbytes += _array_bytes(cols)
    return ScenarioArtifact(
        key=key,
        scenario=scenario,
        columns=columns,
        stats=stats,
        name_by_asn={isp.asn: name for name, isp in scenario.isps.items()},
        asn_by_name={name: isp.asn for name, isp in scenario.isps.items()},
        nbytes=max(1, nbytes),
    )


def _query_prefix_key(prefix: IPPrefix) -> int:
    """Top ``plen`` bits of the prefix, aligned with the run-key shift."""
    if prefix.family == 4:
        return int(prefix.network) >> (32 - prefix.plen)
    return int(prefix.network) >> (128 - prefix.plen)


class QueryEngine:
    """Answers typed queries for one scenario from cached artifacts."""

    def __init__(
        self,
        scenario: Any,
        registry: Optional[ArtifactRegistry] = None,
        key: Optional[str] = None,
    ) -> None:
        self.scenario = scenario
        self.registry = registry if registry is not None else ArtifactRegistry()
        self.key = key or scenario_artifact_key(scenario)

    def artifact(self) -> ScenarioArtifact:
        """The serving artifact — registry hit, or one cold build."""
        cached = self.registry.get(self.key)
        if cached is not None:
            return cached
        with span("serve/artifact", key=self.key[-12:]):
            artifact = build_scenario_artifact(self.scenario, self.key)
        metric_inc("serve.analysis.computes")
        self.registry.put(self.key, artifact, artifact.nbytes)
        return artifact

    def run(self, query: Query) -> Result:
        """Answer one query (a batch of one)."""
        return self.run_batch([query])[0]

    def run_batch(self, queries: Sequence[Query]) -> List[Result]:
        """Answer ``queries`` in order, coalescing same-artifact work."""
        queries = list(queries)
        for query in queries:
            validate_query(query)
        metric_inc("serve.batches")
        start = time.perf_counter()
        try:
            artifact = self.artifact()
            results: List[Optional[Result]] = [None] * len(queries)
            prefix_groups: Dict[Tuple[int, int], List[int]] = {}
            with span("serve/batch", queries=len(queries)):
                for i, query in enumerate(queries):
                    metric_inc("serve.queries", kind=type(query).__name__)
                    if isinstance(query, LifetimeQuery):
                        results[i] = self._lifetime(artifact, query)
                    else:
                        prefix = query.prefix
                        prefix_groups.setdefault(
                            (prefix.family, prefix.plen), []
                        ).append(i)
                for (family, plen), idxs in prefix_groups.items():
                    self._prefix_group(artifact, queries, results, family, plen, idxs)
            return results  # type: ignore[return-value]
        finally:
            metric_observe("serve.batch.seconds", time.perf_counter() - start)

    # -- per-family answer assembly ------------------------------------

    def _lifetime(self, artifact: ScenarioArtifact, query: LifetimeQuery) -> LifetimeResult:
        asn = artifact.asn_by_name.get(query.network)
        if asn is None:
            raise ValueError(f"unknown network {query.network!r}")
        stats = artifact.stats
        sel = stats.asn == asn
        hours = stats.v6_duration_hours[sel[stats.v6_durations.probe_index]].tolist()
        mean, median = duration_summary(hours)
        return LifetimeResult(
            network=query.network,
            asn=asn,
            probes=int(np.count_nonzero(sel)),
            durations=len(hours),
            mean_hours=mean,
            median_hours=median,
        )

    def _prefix_group(
        self,
        artifact: ScenarioArtifact,
        queries: Sequence[Query],
        results: List[Optional[Result]],
        family: int,
        plen: int,
        idxs: List[int],
    ) -> None:
        """One mask pass answering every /plen query of one family."""
        stats = artifact.stats
        columns = artifact.columns
        cols = columns.v4() if family == 4 else columns.v6_prefix()
        shift = np.uint64((32 if family == 4 else 64) - plen)
        run_keys = (cols.value_lo if family == 4 else cols.value_hi) >> shift
        qkeys = np.array(
            [_query_prefix_key(queries[i].prefix) for i in idxs], dtype=np.uint64
        )
        ukeys, inverse = np.unique(qkeys, return_inverse=True)
        last = len(ukeys) - 1

        pos = np.minimum(np.searchsorted(ukeys, run_keys), last)
        run_hit = ukeys[pos] == run_keys
        hit_idx = np.flatnonzero(run_hit)  # ascending flat run indices
        hit_group = pos[hit_idx]
        hit_probe = cols.probe_of_run()[hit_idx]

        changes = stats.v4_changes if family == 4 else stats.v6_changes
        old_keys = (changes.old_lo if family == 4 else changes.old_hi) >> shift
        new_keys = (changes.new_lo if family == 4 else changes.new_hi) >> shift
        opos = np.minimum(np.searchsorted(ukeys, old_keys), last)
        npos = np.minimum(np.searchsorted(ukeys, new_keys), last)
        old_group = np.where(ukeys[opos] == old_keys, opos, -1)
        new_group = np.where(ukeys[npos] == new_keys, npos, -1)
        # A change touches a prefix when either endpoint lies inside it,
        # counted once even when both do.
        change_counts = np.bincount(
            old_group[old_group >= 0], minlength=len(ukeys)
        ) + np.bincount(
            new_group[(new_group >= 0) & (new_group != old_group)],
            minlength=len(ukeys),
        )

        spans = cols.last[hit_idx] - cols.first[hit_idx] + 1
        for j, i in enumerate(idxs):
            group = inverse[j]
            in_group = hit_group == group
            member_probes = np.unique(hit_probe[in_group])
            query = queries[i]
            if isinstance(query, HitlistQuery):
                results[i] = self._hitlist(
                    artifact, cols, query, member_probes
                )
                continue
            probes_observed = len(member_probes)
            if isinstance(query, DualStackQuery):
                dual = int(np.count_nonzero(stats.dual[member_probes]))
                results[i] = DualStackResult(
                    prefix=query.prefix,
                    family=family,
                    probes_observed=probes_observed,
                    dual_stack_probes=dual,
                    dual_stack_fraction=fraction(dual, probes_observed),
                )
                continue
            n_changes = int(change_counts[group])
            observed_hours = int(spans[in_group].sum())
            asn = int(stats.asn[member_probes[0]]) if probes_observed else None
            period = None
            if asn is not None:
                v4_period, v6_period = artifact.periods_for(asn)
                period = v4_period if family == 4 else v6_period
            rate = change_rate_per_probe_year(n_changes, observed_hours)
            results[i] = StabilityResult(
                prefix=query.prefix,
                family=family,
                asn=asn,
                probes_observed=probes_observed,
                changes=n_changes,
                observed_hours=observed_hours,
                changes_per_probe_year=rate,
                period_hours=period,
                stability_class=classify_stability(
                    n_changes, probes_observed, rate, period
                ),
            )

    def _hitlist(
        self,
        artifact: ScenarioArtifact,
        cols: Any,
        query: HitlistQuery,
        member_probes: "np.ndarray",
    ) -> HitlistResult:
        """Rescan plan from the member probes' full /64 histories."""
        if len(member_probes) == 0:
            return HitlistResult(
                prefix=query.prefix,
                probes_contributing=0,
                pool=None,
                delegation_plen=None,
                budget=query.budget,
                candidates=(),
            )
        member_flags = np.zeros(artifact.stats.n_probes, dtype=bool)
        member_flags[member_probes] = True
        history_runs = np.flatnonzero(member_flags[cols.probe_of_run()])
        history = [
            IPv6Prefix(int(hi) << 64, 64) for hi in cols.value_hi[history_runs]
        ]
        plan = plan_rescan(history, query.budget, seed=query.seed)
        return HitlistResult(
            prefix=query.prefix,
            probes_contributing=int(len(member_probes)),
            pool=plan.pool,
            delegation_plen=plan.delegation_plen,
            budget=query.budget,
            candidates=tuple(plan.candidates),
        )


# ---------------------------------------------------------------------------
# Direct reference (the parity oracle)
# ---------------------------------------------------------------------------


def _member_runs(probe: Any, prefix: IPPrefix) -> List[Any]:
    """The probe's runs (v4 raw, v6 /64-rekeyed) lying inside ``prefix``."""
    if prefix.family == 4:
        return [run for run in probe.v4_runs if prefix.contains_address(run.value)]
    return [
        run
        for run in v6_runs_to_prefix_runs(probe.v6_runs, 64)
        if prefix.contains_prefix(run.value)
    ]


def _direct_periods(
    scenario: Any, name: Optional[str]
) -> Tuple[Optional[float], Optional[float]]:
    from repro.workloads import periodicity_for_scenario

    if name is None:
        return None, None
    v4_periods, v6_periods = periodicity_for_scenario(scenario, engine="py")
    return v4_periods.get(name), v6_periods.get(name)


def compute_direct(scenario: Any, query: Query) -> Result:
    """Answer ``query`` with the pure-Python per-probe reference walk.

    Independent of the batched mask engine — this is what
    :func:`repro.perf.verify.serve_diffs` compares served answers to.
    """
    validate_query(query)
    name_by_asn = {isp.asn: name for name, isp in scenario.isps.items()}
    if isinstance(query, LifetimeQuery):
        from repro.core.report import as_durations

        asn = scenario.isps[query.network].asn if query.network in scenario.isps else None
        if asn is None:
            raise ValueError(f"unknown network {query.network!r}")
        probes = scenario.probes_in(asn)
        hours = as_durations(probes, engine="py").v6
        mean, median = duration_summary(hours)
        return LifetimeResult(
            network=query.network,
            asn=asn,
            probes=len(probes),
            durations=len(hours),
            mean_hours=mean,
            median_hours=median,
        )

    prefix = query.prefix
    family = prefix.family
    members: List[int] = []
    observed_hours = 0
    n_changes = 0
    history: List[IPv6Prefix] = []
    for index, probe in enumerate(scenario.probes):
        inside = _member_runs(probe, prefix)
        if inside:
            members.append(index)
            observed_hours += sum(run.last - run.first + 1 for run in inside)
            if family == 6:
                history.extend(
                    run.value for run in v6_runs_to_prefix_runs(probe.v6_runs, 64)
                )
        if isinstance(query, StabilityQuery):
            events = (
                probe_v4_changes(probe)
                if family == 4
                else probe_v6_changes(probe, 64)
            )
            contains = (
                prefix.contains_address if family == 4 else prefix.contains_prefix
            )
            n_changes += sum(
                1
                for event in events
                if contains(event.old_value) or contains(event.new_value)
            )

    if isinstance(query, HitlistQuery):
        if not members:
            return HitlistResult(
                prefix=prefix,
                probes_contributing=0,
                pool=None,
                delegation_plen=None,
                budget=query.budget,
                candidates=(),
            )
        plan = plan_rescan(history, query.budget, seed=query.seed)
        return HitlistResult(
            prefix=prefix,
            probes_contributing=len(members),
            pool=plan.pool,
            delegation_plen=plan.delegation_plen,
            budget=query.budget,
            candidates=tuple(plan.candidates),
        )

    if isinstance(query, DualStackQuery):
        dual = sum(1 for index in members if scenario.probes[index].dual_stack)
        return DualStackResult(
            prefix=prefix,
            family=family,
            probes_observed=len(members),
            dual_stack_probes=dual,
            dual_stack_fraction=fraction(dual, len(members)),
        )

    asn = scenario.probes[members[0]].asn if members else None
    v4_period, v6_period = _direct_periods(
        scenario, name_by_asn.get(asn) if asn is not None else None
    )
    period = v4_period if family == 4 else v6_period
    rate = change_rate_per_probe_year(n_changes, observed_hours)
    return StabilityResult(
        prefix=prefix,
        family=family,
        asn=asn,
        probes_observed=len(members),
        changes=n_changes,
        observed_hours=observed_hours,
        changes_per_probe_year=rate,
        period_hours=period,
        stability_class=classify_stability(n_changes, len(members), rate, period),
    )


def observed_prefixes(
    scenario: Any,
    family: int,
    plen: int,
    limit: Optional[int] = None,
) -> List[IPPrefix]:
    """Distinct /``plen`` prefixes observed in the scenario's runs.

    First-seen order over the probe-major run walk — deterministic, so
    benchmarks and examples can harvest stable query targets.  Reads the
    probes' run columns (IPv6 runs count by their /64), so harvesting
    targets builds no run objects.
    """
    columns = concat_run_columns(
        [probe.v4 if family == 4 else probe.v6 for probe in scenario.probes]
    )
    # IPv4 keys are addresses; IPv6 keys are /64s (the high word).
    words, bits, prefix_class = (
        (columns.value_lo, 32, IPv4Prefix) if family == 4 else (columns.value_hi, 64, IPv6Prefix)
    )
    if not 0 <= plen <= bits:
        raise AddressError(f"/{plen} is not a /{bits} or shorter IPv{family} prefix")
    shift = bits - plen
    keys = words >> np.uint64(shift) if shift < 64 else np.zeros_like(words)
    _, first_seen = np.unique(keys, return_index=True)
    distinct = keys[np.sort(first_seen)][:limit].tolist()
    host_bits = shift + (0 if family == 4 else 64)
    return [prefix_class(key << host_bits, plen) for key in distinct]


__all__ = [
    "QueryEngine",
    "ScenarioArtifact",
    "build_scenario_artifact",
    "compute_direct",
    "observed_prefixes",
]
