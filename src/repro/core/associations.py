"""CDN association analysis (Section 4).

The CDN dataset is a stream of ``(day, IPv4 /24, IPv6 /64)`` association
tuples.  For memory efficiency at millions of tuples, all functions here
operate on plain integer triples ``(day, v4_key, v6_key)`` where the
keys are the integer network addresses of the /24 and /64 (the
:mod:`repro.cdn.rum` schema converts to and from rich types).

Analyses:

* :func:`association_durations` — the period over which a /64 kept
  reporting the same /24 (Figures 2 and 3);
* :func:`box_stats` — the five-number summaries of Figure 3;
* :func:`v4_degree_distribution` — unique and hit-weighted /64-per-/24
  densities (Figure 4);
* :func:`v6_degree_counts` — the inverse connectivity, supporting the
  "87 % of mobile /64s have degree 1" observation.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Triple = Tuple[int, int, int]  # (day, v4_/24_key, v6_/64_key)

#: Host-bit mask of a /64 key: a key with any of these bits set is not a
#: /64 network address.
LOW64 = (1 << 64) - 1


def association_durations(records: Iterable[Triple]) -> List[int]:
    """Durations (days) of stable /64 -> /24 associations.

    For each /64, its reports are scanned in day order; a new
    association run starts whenever the reported /24 differs from the
    previous one.  A run's duration is ``last_day - first_day + 1`` —
    runs truncated by the observation window are included, exactly as in
    the paper (which notes the 5-month cap).
    """
    by_v6: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for day, v4_key, v6_key in records:
        by_v6[v6_key].append((day, v4_key))
    durations: List[int] = []
    for reports in by_v6.values():
        reports.sort()
        run_start = reports[0][0]
        run_v4 = reports[0][1]
        last_day = reports[0][0]
        for day, v4_key in reports[1:]:
            if v4_key != run_v4:
                durations.append(last_day - run_start + 1)
                run_start, run_v4 = day, v4_key
            last_day = day
        durations.append(last_day - run_start + 1)
    return durations


def duration_cdf(durations: Sequence[int]) -> Tuple[List[int], List[float]]:
    """Plain CDF over association durations (Figure 2 curves)."""
    if not durations:
        return [], []
    counts = Counter(durations)
    total = len(durations)
    xs: List[int] = []
    ys: List[float] = []
    cumulative = 0
    for value, count in sorted(counts.items()):
        cumulative += count
        xs.append(value)
        ys.append(cumulative / total)
    return xs, ys


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary used by the Figure 3 box plot."""

    p5: float
    q1: float
    median: float
    q3: float
    p95: float
    count: int

    def as_tuple(self) -> Tuple[float, float, float, float, float]:
        """(p5, q1, median, q3, p95) in order."""
        return (self.p5, self.q1, self.median, self.q3, self.p95)


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile on pre-sorted data."""
    if not ordered:
        raise ValueError("cannot take percentile of empty data")
    if len(ordered) == 1:
        return float(ordered[0])
    position = fraction * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high or ordered[low] == ordered[high]:
        return float(ordered[low])
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def box_stats(values: Sequence[float]) -> BoxStats:
    """5th/25th/50th/75th/95th percentiles of a sample."""
    ordered = sorted(values)
    return BoxStats(
        p5=_percentile(ordered, 0.05),
        q1=_percentile(ordered, 0.25),
        median=_percentile(ordered, 0.50),
        q3=_percentile(ordered, 0.75),
        p95=_percentile(ordered, 0.95),
        count=len(ordered),
    )


def association_box_stats(records: Iterable[Triple], engine: Optional[str] = None) -> BoxStats:
    """Five-number summary of the association durations of ``records``.

    The Figure 3 composition (:func:`association_durations` piped into
    :func:`box_stats`), dispatched through the analysis-engine knob: the
    ``"fused"`` fast path runs the columnar
    :func:`repro.core.associations_np.association_durations_np` +
    ``box_stats_np`` pair, bit-identical to the pure-Python reference.
    A /64 key with host bits set cannot be packed into the fast path's
    64-bit columns, so such input runs the reference on either engine.
    """
    from repro.core.engine import resolve_engine

    materialized = records if isinstance(records, Sequence) else list(records)
    if resolve_engine(engine) != "py" and not any(t[2] & LOW64 for t in materialized):
        from repro.core.associations_np import (
            association_durations_np,
            box_stats_np,
            columns_from_triples,
        )

        return box_stats_np(association_durations_np(*columns_from_triples(materialized)))
    return box_stats(association_durations(materialized))


def v4_degree_counts(records: Iterable[Triple]) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per-/24: number of distinct /64s and total hits.

    Returns ``(unique_by_v4, hits_by_v4)``.
    """
    seen: Dict[int, set] = defaultdict(set)
    hits: Counter = Counter()
    for _day, v4_key, v6_key in records:
        seen[v4_key].add(v6_key)
        hits[v4_key] += 1
    return {k: len(v) for k, v in seen.items()}, dict(hits)


def v6_degree_counts(records: Iterable[Triple]) -> Dict[int, int]:
    """Per-/64: number of distinct associated /24s (inverse connectivity)."""
    seen: Dict[int, set] = defaultdict(set)
    for _day, v4_key, v6_key in records:
        seen[v6_key].add(v4_key)
    return {k: len(v) for k, v in seen.items()}


def fraction_degree_one(degree_counts: Dict[int, int]) -> float:
    """Fraction of keys with connectivity exactly 1."""
    if not degree_counts:
        return 0.0
    return sum(1 for degree in degree_counts.values() if degree == 1) / len(degree_counts)


def log_density(
    values: Sequence[float],
    weights: Sequence[float] = (),
    bins_per_decade: int = 5,
) -> Tuple[List[float], List[float]]:
    """Histogram density over log10-spaced bins (the Figure 4 x-axis).

    Returns ``(bin_centers, densities)`` where densities sum to 1.
    Optional ``weights`` (same length) produce the hit-weighted variant.
    """
    if weights and len(weights) != len(values):
        raise ValueError("weights must match values in length")
    if not values:
        return [], []
    if any(value <= 0 for value in values):
        raise ValueError("log_density requires positive values")
    bucket_weights: Counter = Counter()
    for index, value in enumerate(values):
        bucket = math.floor(math.log10(value) * bins_per_decade)
        bucket_weights[bucket] += weights[index] if weights else 1.0
    total = sum(bucket_weights.values())
    centers: List[float] = []
    densities: List[float] = []
    for bucket in sorted(bucket_weights):
        centers.append(10 ** ((bucket + 0.5) / bins_per_decade))
        densities.append(bucket_weights[bucket] / total)
    return centers, densities


def weighted_peak(centers: Sequence[float], densities: Sequence[float]) -> float:
    """The bin center with maximum density (NaN for empty input)."""
    if not centers:
        return float("nan")
    best = max(range(len(centers)), key=lambda index: densities[index])
    return centers[best]


__all__ = [
    "LOW64",
    "BoxStats",
    "Triple",
    "association_box_stats",
    "association_durations",
    "box_stats",
    "duration_cdf",
    "fraction_degree_one",
    "log_density",
    "v4_degree_counts",
    "v6_degree_counts",
    "weighted_peak",
]
