"""Typed queries, responses and the shared scoring helpers.

Four query families cover the paper's serving surface:

* **stability** — how stable is this /24 (IPv4) or /64 (IPv6)?  Counts
  member probes, assignment changes touching the prefix, observation
  hours, a changes-per-probe-year rate and the owning AS's renumbering
  period, then buckets the prefix into a stability class.
* **lifetime** — expected /64 assignment lifetime for an AS, from the
  completed-duration CDF behind Figure 2.
* **dualstack** — dual-stack coverage of a prefix: what fraction of the
  probes observed inside it run both families?
* **hitlist** — a scan hitlist for a target prefix via
  :func:`repro.core.hitlist.plan_rescan` over the member probes'
  observation histories.

Every numeric in a response is produced by the helpers at the bottom of
this module from plain Python ints/lists — the indexed batch engine and
the direct per-probe reference feed them identical populations, which
is what makes served answers bit-identical to the direct computation
(enforced by :func:`repro.perf.verify.serve_diffs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.ip import IPPrefix, IPv6Prefix, parse_prefix
from repro.netsim.clock import HOURS_PER_YEAR
from repro.serve.wire import jsonable

#: changes/probe-year at or below which a changing prefix is "moderate"
#: (roughly one assignment change every two weeks).
MODERATE_RATE_THRESHOLD = 26.0

#: Largest hitlist ``budget`` a query may ask for (served callers use 4-64).
MAX_HITLIST_BUDGET = 1 << 14


@dataclass(frozen=True)
class StabilityQuery:
    """How stable is ``prefix`` (a v4 /1../32 or v6 /1../64)?"""

    prefix: IPPrefix


@dataclass(frozen=True)
class LifetimeQuery:
    """Expected /64 assignment lifetime for the AS named ``network``."""

    network: str


@dataclass(frozen=True)
class DualStackQuery:
    """Dual-stack coverage of the probes observed inside ``prefix``."""

    prefix: IPPrefix


@dataclass(frozen=True)
class HitlistQuery:
    """Scan hitlist of at most ``budget`` /64s for ``prefix`` (v6)."""

    prefix: IPPrefix
    budget: int = 64
    seed: int = 0


Query = Union[StabilityQuery, LifetimeQuery, DualStackQuery, HitlistQuery]


@dataclass
class StabilityResult:
    """Answer to a :class:`StabilityQuery`."""

    prefix: IPPrefix
    family: int
    asn: Optional[int]
    probes_observed: int
    changes: int
    observed_hours: int
    changes_per_probe_year: float
    period_hours: Optional[float]
    stability_class: str


@dataclass
class LifetimeResult:
    """Answer to a :class:`LifetimeQuery`."""

    network: str
    asn: int
    probes: int
    durations: int
    mean_hours: Optional[float]
    median_hours: Optional[float]


@dataclass
class DualStackResult:
    """Answer to a :class:`DualStackQuery`."""

    prefix: IPPrefix
    family: int
    probes_observed: int
    dual_stack_probes: int
    dual_stack_fraction: float


@dataclass
class HitlistResult:
    """Answer to a :class:`HitlistQuery`."""

    prefix: IPPrefix
    probes_contributing: int
    pool: Optional[IPPrefix]
    delegation_plen: Optional[int]
    budget: int
    candidates: Tuple[IPv6Prefix, ...]


Result = Union[StabilityResult, LifetimeResult, DualStackResult, HitlistResult]

QUERY_KINDS: Dict[str, Type] = {
    "stability": StabilityQuery,
    "lifetime": LifetimeQuery,
    "dualstack": DualStackQuery,
    "hitlist": HitlistQuery,
}

_KIND_OF_QUERY = {cls: kind for kind, cls in QUERY_KINDS.items()}
_KIND_OF_RESULT = {
    StabilityResult: "stability",
    LifetimeResult: "lifetime",
    DualStackResult: "dualstack",
    HitlistResult: "hitlist",
}


def validate_query(query: Query) -> None:
    """Raise ``ValueError`` for a structurally invalid query."""
    prefix = getattr(query, "prefix", None)
    if prefix is not None:
        if prefix.plen < 1:
            raise ValueError(f"prefix {prefix} too short to query")
        if prefix.family == 6 and prefix.plen > 64:
            raise ValueError(f"v6 queries address /64 networks, got {prefix}")
    if isinstance(query, HitlistQuery):
        if prefix is None or prefix.family != 6:
            raise ValueError("hitlist queries take an IPv6 prefix")
        if not 1 <= query.budget <= MAX_HITLIST_BUDGET:
            raise ValueError(
                f"hitlist budget must be in [1, {MAX_HITLIST_BUDGET}], got {query.budget}"
            )
    if isinstance(query, LifetimeQuery) and not query.network:
        raise ValueError("lifetime queries need a network name")


def _field(payload: Dict[str, Any], name: str) -> str:
    """A required field of a wire query, as text."""
    if name not in payload:
        raise ValueError(f"{payload['kind']} queries need a {name!r} field")
    return str(payload[name])


def _integer(payload: Dict[str, Any], name: str, default: int) -> int:
    """An optional integer field of a wire query."""
    value = payload.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def query_from_dict(payload: Dict[str, Any]) -> Query:
    """Build a query from its wire form (``{"kind": ..., ...}``).

    Every malformed payload raises ``ValueError``: an unknown kind, a
    missing field, a non-integer ``budget`` or ``seed``, or a query
    :func:`validate_query` refuses.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"query payload must be an object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r} (expected one of {sorted(QUERY_KINDS)})")
    if kind == "lifetime":
        query: Query = LifetimeQuery(network=_field(payload, "network"))
    else:
        prefix = parse_prefix(_field(payload, "prefix"))
        if kind == "stability":
            query = StabilityQuery(prefix=prefix)
        elif kind == "dualstack":
            query = DualStackQuery(prefix=prefix)
        else:
            query = HitlistQuery(
                prefix=prefix,
                budget=_integer(payload, "budget", 64),
                seed=_integer(payload, "seed", 0),
            )
    validate_query(query)
    return query


def query_to_dict(query: Query) -> Dict[str, Any]:
    """The wire form of ``query`` (inverse of :func:`query_from_dict`)."""
    kind = _KIND_OF_QUERY.get(type(query))
    if kind is None:
        raise ValueError(f"not a query: {query!r}")
    payload = jsonable(query)
    payload["kind"] = kind
    return payload


def result_to_dict(result: Result) -> Dict[str, Any]:
    """The wire form of a query result."""
    kind = _KIND_OF_RESULT.get(type(result))
    if kind is None:
        raise ValueError(f"not a result: {result!r}")
    payload = jsonable(result)
    payload["kind"] = kind
    return payload


def change_rate_per_probe_year(changes: int, observed_hours: int) -> float:
    """Assignment changes per probe-year of observation.

    Both the batched and the direct paths call this with the same
    integer pair, so the float result is bit-identical by construction.
    """
    if observed_hours <= 0:
        return 0.0
    return changes / (observed_hours / HOURS_PER_YEAR)


def classify_stability(
    changes: int,
    probes_observed: int,
    rate: float,
    period_hours: Optional[float],
) -> str:
    """Stability class of a prefix (the graph's ``stability-class`` nodes)."""
    if probes_observed == 0:
        return "unobserved"
    if changes == 0:
        return "stable"
    if period_hours is not None:
        return "periodic"
    if rate <= MODERATE_RATE_THRESHOLD:
        return "moderate"
    return "dynamic"


def duration_summary(
    hours: Sequence[float],
) -> Tuple[Optional[float], Optional[float]]:
    """``(mean, median)`` of a duration population, ``(None, None)`` if empty.

    Uses plain ``sum`` over the given order — callers must present the
    population in probe-major duration order for bit-identical results.
    """
    values: List[float] = [float(v) for v in hours]
    if not values:
        return None, None
    mean = sum(values) / len(values)
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        median = ordered[mid]
    else:
        median = (ordered[mid - 1] + ordered[mid]) / 2.0
    return mean, median


def fraction(numerator: int, denominator: int) -> float:
    """``numerator / denominator`` with an exact 0.0 for an empty base."""
    if denominator <= 0:
        return 0.0
    return numerator / denominator


__all__ = [
    "DualStackQuery",
    "DualStackResult",
    "HitlistQuery",
    "HitlistResult",
    "LifetimeQuery",
    "LifetimeResult",
    "MAX_HITLIST_BUDGET",
    "MODERATE_RATE_THRESHOLD",
    "QUERY_KINDS",
    "Query",
    "Result",
    "StabilityQuery",
    "StabilityResult",
    "change_rate_per_probe_year",
    "classify_stability",
    "duration_summary",
    "fraction",
    "query_from_dict",
    "query_to_dict",
    "result_to_dict",
    "validate_query",
]
