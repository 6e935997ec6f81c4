"""Year-over-year evolution of assignment durations (Section 3.2).

The paper breaks durations down by calendar year and finds (a) the
overall orderings hold in every year — IPv6 longer than IPv4,
dual-stack IPv4 longer than non-dual-stack — and (b) durations in all
categories have drifted upward over the years, especially in ISPs that
used to renumber aggressively (DTAG, Orange).

A duration is attributed to the year containing its midpoint, the
convention that keeps multi-month assignments from being counted twice.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from repro.core.changes import Duration
from repro.netsim.clock import SIM_EPOCH, hours_to_datetime


def year_of_duration(duration: Duration) -> int:
    """Calendar year containing the duration's midpoint."""
    midpoint = (duration.start + duration.end) / 2.0
    return hours_to_datetime(midpoint).year


def durations_by_year(durations: Sequence[Duration]) -> Dict[int, List[float]]:
    """Group exact durations by calendar year of their midpoint."""
    by_year: Dict[int, List[float]] = defaultdict(list)
    for duration in durations:
        by_year[year_of_duration(duration)].append(float(duration.hours))
    return dict(sorted(by_year.items()))


def yearly_means(durations: Sequence[Duration]) -> Dict[int, float]:
    """Mean duration (hours) per year; the paper's upward-drift signal."""
    return {
        year: sum(values) / len(values)
        for year, values in durations_by_year(durations).items()
    }


def trend_slope(yearly: Dict[int, float]) -> float:
    """Least-squares slope of mean duration vs year (hours per year).

    Positive slope = durations lengthening over time, the paper's
    finding for DTAG and Orange.  Returns 0.0 with fewer than 2 years.
    """
    if len(yearly) < 2:
        return 0.0
    years = sorted(yearly)
    n = len(years)
    mean_x = sum(years) / n
    mean_y = sum(yearly[year] for year in years) / n
    numerator = sum((year - mean_x) * (yearly[year] - mean_y) for year in years)
    denominator = sum((year - mean_x) ** 2 for year in years)
    return numerator / denominator if denominator else 0.0


def simulation_years(end_hour: float) -> List[int]:
    """The calendar years covered by a simulation window."""
    first = SIM_EPOCH.year
    last = hours_to_datetime(max(0.0, end_hour - 1)).year
    return list(range(first, last + 1))


__all__ = [
    "durations_by_year",
    "simulation_years",
    "trend_slope",
    "year_of_duration",
    "yearly_means",
]
