"""The indexed, batched query engine over registry-cached artifacts.

One scenario's serving artifact is its global column pack, the fused
per-probe stats (:class:`repro.core.fused.FusedProbeStats`) and one
immutable :class:`PrefixIndex` per family.  The engine keeps the
artifact in an :class:`ArtifactRegistry` under the scenario's content
address, so warm queries never re-run analysis
(``serve.analysis.computes`` counts cold builds; tests pin it at one).

Indexing: a family's runs and change endpoints are sorted once by
their address word (a v4 address, or a v6 /64's top 64 bits).  Keying
a word by its top ``plen`` bits is monotone, so that one sort serves
every prefix length: a /``plen`` prefix is the closed word range
``[lo, lo | (2**(bits - plen) - 1)]``, found by two ``searchsorted``
calls.  A query costs O(log N + members), not a scan of every run and
change.

Batching: :meth:`QueryEngine.run_batch` finds every distinct prefix's
bounds with one vectorized ``searchsorted`` per family and sorted
array, then derives member probes, observation hours, change counts and
dual-stack counts with segment operations over the matched slices.
Hitlist plans read the members' /64 histories as uint64 words
(:func:`repro.core.hitlist.infer_structure_words`).  The answers are
assembled from the same integer populations either way, so batched,
sequential and direct results are bit-identical
(:func:`repro.perf.verify.serve_diffs`).

:func:`compute_direct` is the independent reference: a pure-Python walk
over the sanitized probes through :mod:`repro.core.report` /
:func:`repro.workloads.periodicity_for_scenario` with ``engine="py"``
and the object-based :func:`repro.core.hitlist.plan_rescan`.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.analysis_np import concat_run_columns
from repro.core.changes import v6_runs_to_prefix_runs
from repro.core.hitlist import infer_structure_words, plan_from_structure, plan_rescan
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


@dataclass(frozen=True)
class PrefixIndex:
    """One family's sorted run and change-endpoint index (read-only).

    Words are v4 addresses (``bits=32``) or v6 /64 high words
    (``bits=64``).  Built once per artifact and never written after.
    """

    bits: int
    run_words: np.ndarray  # uint64: run words, ascending
    run_probes: np.ndarray  # int64: probe of each run, in word order
    run_hours: np.ndarray  # int64 (runs + 1): prefix sums of run spans, in word order
    old_words: np.ndarray  # uint64: change old words, ascending
    old_news: np.ndarray  # uint64: each change's new word, in old-word order
    new_words: np.ndarray  # uint64: change new words, ascending


def build_prefix_index(cols: Any, changes: Any, family: int) -> PrefixIndex:
    """Sort one family's runs (``cols``) and changes into a :class:`PrefixIndex`."""
    words, old, new = (
        (cols.value_lo, changes.old_lo, changes.new_lo)
        if family == 4
        else (cols.value_hi, changes.old_hi, changes.new_hi)
    )
    # Ties stay unordered: every read covers whole runs of equal words.
    run_order = np.argsort(words)
    spans = (cols.last - cols.first + 1)[run_order]
    old_order = np.argsort(old)
    arrays = {
        "run_words": words[run_order],
        "run_probes": cols.probe_of_run()[run_order],
        "run_hours": np.concatenate(([0], np.cumsum(spans, dtype=np.int64))),
        "old_words": old[old_order],
        "old_news": new[old_order],
        "new_words": np.sort(new),
    }
    for array in arrays.values():
        array.flags.writeable = False
    return PrefixIndex(bits=32 if family == 4 else 64, **arrays)


@dataclass
class ScenarioArtifact:
    """Everything the engine serves one scenario from."""

    key: str
    scenario: Any
    columns: Any  # repro.core.analysis_np.ProbeColumns
    stats: Any  # repro.core.fused.FusedProbeStats
    v4_index: PrefixIndex
    v6_index: PrefixIndex
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
    v4_index = build_prefix_index(columns.v4(), stats.v4_changes, 4)
    v6_index = build_prefix_index(columns.v6_prefix(), stats.v6_changes, 6)
    nbytes = sum(
        _array_bytes(part)
        for part in (
            stats, columns.v4(), columns.v6(), columns.v6_prefix(), v4_index, v6_index
        )
    )
    return ScenarioArtifact(
        key=key,
        scenario=scenario,
        columns=columns,
        stats=stats,
        v4_index=v4_index,
        v6_index=v6_index,
        name_by_asn={isp.asn: name for name, isp in scenario.isps.items()},
        asn_by_name={name: isp.asn for name, isp in scenario.isps.items()},
        nbytes=max(1, nbytes),
    )


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` of every segment."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(
        starts - (ends - counts), counts
    )


@dataclass
class _PrefixMembers:
    """Per-prefix populations of one family's distinct queried prefixes."""

    member_bounds: List[int]  # members of prefix u: probes[bounds[u]:bounds[u+1]]
    probes: np.ndarray  # int64 member probes, ascending within each prefix
    hours: List[int]  # observed hours of the member runs
    changes: List[int]  # changes with an endpoint inside the prefix
    dual: List[int]  # dual-stack member probes


def _prefix_members(
    index: PrefixIndex, stats: Any, lo: np.ndarray, hi: np.ndarray
) -> _PrefixMembers:
    """Segment-op populations of the closed word ranges ``[lo, hi]``."""
    n = len(lo)
    run_lo = np.searchsorted(index.run_words, lo, "left")
    run_hi = np.searchsorted(index.run_words, hi, "right")
    counts = run_hi - run_lo
    owner = np.repeat(np.arange(n, dtype=np.int64), counts)
    pairs = np.unique(owner * stats.n_probes + index.run_probes[_segments(run_lo, counts)])
    member_owner, probes = np.divmod(pairs, stats.n_probes)
    member_bounds = np.searchsorted(member_owner, np.arange(n + 1))
    dual = np.concatenate(([0], np.cumsum(stats.dual[probes], dtype=np.int64)))

    # A change touches a prefix when either endpoint lies inside it,
    # counted once even when both do: |old in P| + |new in P| minus the
    # old-in-P changes whose new word is inside too.
    old_lo = np.searchsorted(index.old_words, lo, "left")
    old_counts = np.searchsorted(index.old_words, hi, "right") - old_lo
    new_counts = np.searchsorted(index.new_words, hi, "right") - np.searchsorted(
        index.new_words, lo, "left"
    )
    old_owner = np.repeat(np.arange(n, dtype=np.int64), old_counts)
    news = index.old_news[_segments(old_lo, old_counts)]
    both = np.bincount(
        old_owner[(news >= lo[old_owner]) & (news <= hi[old_owner])], minlength=n
    )
    return _PrefixMembers(
        member_bounds=member_bounds.tolist(),
        probes=probes,
        hours=(index.run_hours[run_hi] - index.run_hours[run_lo]).tolist(),
        changes=(old_counts + new_counts - both).tolist(),
        dual=(dual[member_bounds[1:]] - dual[member_bounds[:-1]]).tolist(),
    )


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
        """The serving artifact — registry hit, or one cold build.

        One counted registry lookup per call; concurrent cold calls
        build once (:meth:`ArtifactRegistry.get_or_build`).
        """
        return self.registry.get_or_build(self.key, self._build_artifact)

    def _build_artifact(self) -> Tuple[ScenarioArtifact, int]:
        with span("serve/artifact", key=self.key[-12:]):
            artifact = build_scenario_artifact(self.scenario, self.key)
        metric_inc("serve.analysis.computes")
        return artifact, artifact.nbytes

    def run(self, query: Query) -> Result:
        """Answer one query (a batch of one)."""
        return self.run_batch([query])[0]

    def run_batch(self, queries: Sequence[Query]) -> List[Result]:
        """Answer ``queries`` in order, coalescing same-artifact work."""
        queries = list(queries)
        for query in queries:
            validate_query(query)
        metric_inc("serve.batches")
        # One locked increment per kind, not per query.
        for kind, count in Counter(type(query).__name__ for query in queries).items():
            metric_inc("serve.queries", count, kind=kind)
        start = time.perf_counter()
        try:
            artifact = self.artifact()
            results: List[Optional[Result]] = [None] * len(queries)
            lifetimes: Dict[str, LifetimeResult] = {}
            # family -> {distinct prefix: slot}, and (query, slot) pairs
            slots: Dict[int, Dict[IPPrefix, int]] = {4: {}, 6: {}}
            pending: Dict[int, List[Tuple[int, int]]] = {4: [], 6: []}
            with span("serve/batch", queries=len(queries)):
                for i, query in enumerate(queries):
                    if isinstance(query, LifetimeQuery):
                        known = lifetimes.get(query.network)
                        if known is None:
                            known = lifetimes[query.network] = self._lifetime(
                                artifact, query
                            )
                        results[i] = dataclasses.replace(known)
                    else:
                        family_slots = slots[query.prefix.family]
                        slot = family_slots.setdefault(query.prefix, len(family_slots))
                        pending[query.prefix.family].append((i, slot))
                for family, family_slots in slots.items():
                    if family_slots:
                        self._prefix_family(
                            artifact, queries, results, family,
                            list(family_slots), pending[family],
                        )
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

    def _prefix_family(
        self,
        artifact: ScenarioArtifact,
        queries: Sequence[Query],
        results: List[Optional[Result]],
        family: int,
        prefixes: List[IPPrefix],
        pending: List[Tuple[int, int]],
    ) -> None:
        """Answer every query on the distinct ``prefixes`` of one family."""
        stats = artifact.stats
        index = artifact.v4_index if family == 4 else artifact.v6_index
        drop = prefixes[0].bits - index.bits  # v6 words are the top 64 bits
        lo = [int(prefix.network) >> drop for prefix in prefixes]
        hi = [
            word | ((1 << (index.bits - prefix.plen)) - 1)
            for word, prefix in zip(lo, prefixes)
        ]
        members = _prefix_members(
            index,
            stats,
            np.array(lo, dtype=np.uint64),
            np.array(hi, dtype=np.uint64),
        )
        bounds = members.member_bounds
        for i, slot in pending:
            query = queries[i]
            probes_observed = bounds[slot + 1] - bounds[slot]
            if isinstance(query, HitlistQuery):
                results[i] = self._hitlist(
                    artifact, query, members.probes[bounds[slot]:bounds[slot + 1]]
                )
                continue
            if isinstance(query, DualStackQuery):
                dual = members.dual[slot]
                results[i] = DualStackResult(
                    prefix=query.prefix,
                    family=family,
                    probes_observed=probes_observed,
                    dual_stack_probes=dual,
                    dual_stack_fraction=fraction(dual, probes_observed),
                )
                continue
            n_changes = members.changes[slot]
            observed_hours = members.hours[slot]
            asn = int(stats.asn[members.probes[bounds[slot]]]) if probes_observed else None
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
        query: HitlistQuery,
        member_probes: np.ndarray,
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
        cols = artifact.columns.v6_prefix()
        starts = cols.offsets[member_probes]
        history = cols.value_hi[_segments(starts, cols.offsets[member_probes + 1] - starts)]
        plan = plan_from_structure(
            *infer_structure_words(history), query.budget, seed=query.seed
        )
        return HitlistResult(
            prefix=query.prefix,
            probes_contributing=int(len(member_probes)),
            pool=plan.pool,
            delegation_plen=plan.delegation_plen,
            budget=query.budget,
            candidates=plan.candidates,
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

    Independent of the indexed batch engine — this is what
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
    "PrefixIndex",
    "QueryEngine",
    "ScenarioArtifact",
    "build_prefix_index",
    "build_scenario_artifact",
    "compute_direct",
    "observed_prefixes",
]
