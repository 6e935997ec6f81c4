"""Delegated-prefix inference (Section 5.3) — "finding the zero bits".

Two techniques:

* **RIPE Atlas (multi-assignment)** — for one subscriber, intersect the
  trailing-zero patterns of *all* /64s the probe ever reported: the
  number of bits immediately before the /64 boundary that are zero in
  every observation.  ``64 - zero_bits`` is the inferred delegated
  prefix length (Figures 6 and 9).
* **CDN (single-address, nibble-aligned)** — classify each /64 by its
  longest streak of zeros across consecutive nibble boundaries,
  yielding inferred delegation lengths of /60, /56, /52, /48
  (Figure 7).

Both can be fooled: scrambling CPEs hide the real delegation (DTAG's
/64 spike), and with very few observations trailing zeros can occur by
chance — the caveats the paper spells out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ip.prefix import IPv6Prefix


def inferred_subscriber_plen(observed: Sequence[IPv6Prefix]) -> Optional[int]:
    """Inferred prefix length identifying one subscriber (Atlas method).

    ``observed`` is the set of /64s a probe reported.  Returns ``None``
    for empty input.  The paper applies this to probes with at least one
    assignment change (two or more distinct /64s); the caller enforces
    that requirement.
    """
    zero_bits: Optional[int] = None
    for prefix in observed:
        if prefix.plen != 64:
            raise ValueError(f"expected /64 prefixes, got /{prefix.plen}")
        bits = prefix.trailing_zero_bits()
        zero_bits = bits if zero_bits is None else min(zero_bits, bits)
    if zero_bits is None:
        return None
    return 64 - zero_bits


def inferred_plen_distribution(
    per_probe_prefixes: Dict[str, Sequence[IPv6Prefix]],
    min_distinct: int = 2,
) -> Dict[int, float]:
    """Percentage of probes per inferred prefix length (Figures 6 and 9).

    Only probes with at least ``min_distinct`` distinct /64s (i.e. at
    least one assignment change) participate.
    """
    counter: Counter = Counter()
    eligible = 0
    for prefixes in per_probe_prefixes.values():
        distinct = set(prefixes)
        if len(distinct) < min_distinct:
            continue
        eligible += 1
        plen = inferred_subscriber_plen(sorted(distinct))
        counter[plen] += 1
    if not eligible:
        return {}
    return {
        plen: 100.0 * count / eligible for plen, count in sorted(counter.items())
    }


#: The nibble-aligned boundaries Figure 7 reports.
FIG7_BOUNDARIES: Tuple[int, ...] = (48, 52, 56, 60)


def nibble_aligned_inferred_plen(prefix: IPv6Prefix) -> int:
    """CDN method: inferred delegation length from nibble-aligned zeros.

    A /64 whose last 4 network bits are zero infers /60, the last 8 bits
    /56, and so on; fewer than 4 trailing zero bits infers /64 (nothing
    detectable).
    """
    if prefix.plen != 64:
        raise ValueError(f"expected a /64, got /{prefix.plen}")
    nibbles = prefix.trailing_zero_bits() // 4
    return 64 - 4 * nibbles


@dataclass(frozen=True)
class TrailingZeroProfile:
    """Figure 7 data for one registry/population of /64s."""

    total: int
    by_boundary: Dict[int, int]  # inferred plen -> count (48/52/56/60 only)

    @property
    def inferable(self) -> int:
        return sum(self.by_boundary.values())

    @property
    def inferable_pct(self) -> float:
        return 100.0 * self.inferable / self.total if self.total else 0.0

    def fraction_at(self, boundary: int) -> float:
        """Fraction of all /64s whose inferred delegation is ``boundary``."""
        return self.by_boundary.get(boundary, 0) / self.total if self.total else 0.0


def trailing_zero_profile(
    prefixes: Iterable[IPv6Prefix],
    boundaries: Sequence[int] = FIG7_BOUNDARIES,
) -> TrailingZeroProfile:
    """Classify a /64 population by longest nibble-aligned zero streak.

    Prefixes whose inferred length is shorter than the shortest boundary
    (an improbably long zero run) are folded into that shortest
    boundary, matching the paper's per-boundary grouping.
    """
    shortest = min(boundaries)
    counter: Counter = Counter()
    total = 0
    for prefix in prefixes:
        total += 1
        plen = nibble_aligned_inferred_plen(prefix)
        if plen >= 64:
            continue  # nothing inferable
        plen = max(plen, shortest)
        if plen in boundaries:
            counter[plen] += 1
    return TrailingZeroProfile(total=total, by_boundary=dict(sorted(counter.items())))


def trailing_zero_profile_np(
    v6_upper_keys, boundaries: Sequence[int] = FIG7_BOUNDARIES
) -> TrailingZeroProfile:
    """Vectorized :func:`trailing_zero_profile` over packed /64 keys.

    ``v6_upper_keys`` holds each /64's upper 64 network bits as uint64
    (the columnar packing the numpy kernels and the triple store use).
    A /64's trailing-zero bits equal the trailing zeros of its upper-64
    word (64 when zero), so the whole classification is one
    trailing-zero pass plus a ``bincount`` — bit-identical to the
    per-prefix reference loop.  Safe on empty populations.
    """
    import numpy as np

    from repro.core.analysis_np import _trailing_zeros_u64

    keys = np.asarray(v6_upper_keys, dtype=np.uint64)
    total = len(keys)
    if total == 0:
        return TrailingZeroProfile(total=0, by_boundary={})
    shortest = min(boundaries)
    nibbles = _trailing_zeros_u64(keys) // 4
    plens = 64 - 4 * nibbles
    plens = plens[plens < 64]  # nothing inferable at /64
    plens = np.maximum(plens, shortest)
    counts = np.bincount(plens, minlength=65)
    by_boundary = {
        int(boundary): int(counts[boundary])
        for boundary in sorted(boundaries)
        if boundary < len(counts) and counts[boundary]
    }
    return TrailingZeroProfile(total=total, by_boundary=by_boundary)


def per_probe_prefixes_from_runs(
    probes: Iterable, plen: int = 64
) -> Dict[str, List[IPv6Prefix]]:
    """Collect each sanitized probe's observed /64s (helper for Figs 6/9)."""
    from repro.core.changes import v6_runs_to_prefix_runs

    result: Dict[str, List[IPv6Prefix]] = {}
    for probe in probes:
        if not probe.v6_runs:
            continue
        runs = v6_runs_to_prefix_runs(probe.v6_runs, plen)
        result[probe.probe_id] = [run.value for run in runs]
    return result


def inferred_plen_distribution_for_probes(
    probes: Iterable,
    min_distinct: int = 2,
    plen: int = 64,
    engine: Optional[str] = None,
    columns=None,
) -> Dict[int, float]:
    """Figures 6/9 end to end: per-probe /``plen`` prefixes from the
    sanitized probes' v6 runs, then the inferred-delegation histogram.

    Dispatched through the analysis-engine knob: the ``"fused"`` fast
    path runs :func:`repro.core.analysis_np.inferred_plen_counts_np` over a
    shared :class:`~repro.core.analysis_np.ProbeColumns` pack
    (``columns``, when the caller already holds one for these probes),
    bit-identical to the pure-Python composition of
    :func:`per_probe_prefixes_from_runs` + :func:`inferred_plen_distribution`.
    Only ``plen == 64`` takes the fast path; any other length runs the
    reference, which rejects non-/64 prefixes, on either engine.
    """
    from repro.core.engine import resolve_engine

    materialized = probes if isinstance(probes, Sequence) else list(probes)
    if resolve_engine(engine) != "py" and plen == 64:
        from repro.core.analysis_np import ProbeColumns, inferred_plen_counts_np

        if columns is None or columns.plen != plen:
            columns = ProbeColumns(materialized, plen=plen)
        eligible, counts = inferred_plen_counts_np(
            columns.v6_prefix(), plen=plen, min_distinct=min_distinct
        )
        if not eligible:
            return {}
        return {length: 100.0 * count / eligible for length, count in sorted(counts.items())}
    return inferred_plen_distribution(
        per_probe_prefixes_from_runs(materialized, plen), min_distinct
    )


__all__ = [
    "FIG7_BOUNDARIES",
    "TrailingZeroProfile",
    "inferred_plen_distribution",
    "inferred_plen_distribution_for_probes",
    "inferred_subscriber_plen",
    "nibble_aligned_inferred_plen",
    "per_probe_prefixes_from_runs",
    "trailing_zero_profile",
    "trailing_zero_profile_np",
]
