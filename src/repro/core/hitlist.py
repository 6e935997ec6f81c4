"""IPv6 rescan planning: re-finding hosts after renumbering (Section 6).

Active IPv6 measurement keeps *hitlists* of responsive targets; when a
subscriber's delegated prefix is renumbered, the target vanishes and
the scanner must search for it.  The paper's spatial findings bound the
search space:

=====================  ==========================================
knowledge              candidate /64s to probe
=====================  ==========================================
BGP announcement only  2^(64 - announcement_plen)
+ pool boundary        2^(64 - pool_plen)
+ delegation length    2^(delegation_plen - pool_plen)   (zero-CPE)
=====================  ==========================================

:func:`plan_rescan` turns a probe's observation history into a concrete
candidate list under a probe budget, and :func:`evaluate_rescan_plan`
scores strategies against simulator ground truth.
:func:`infer_structure_words` is the columnar form of
:func:`infer_structure` over the history's /64 words, and
:func:`plan_from_structure` is the candidate sampling both share.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.analysis_np import _bit_length_u64, _trailing_zeros_u64
from repro.core.delegation import inferred_subscriber_plen
from repro.ip.prefix import IPv6Prefix, common_prefix_len


@dataclass(frozen=True)
class SearchSpace:
    """Candidate-set sizes under increasing knowledge."""

    bgp_only: int
    with_pool: int
    with_delegation: int

    @property
    def reduction_factor(self) -> float:
        return self.bgp_only / self.with_delegation if self.with_delegation else float("inf")


def search_space_sizes(
    announcement_plen: int,
    pool_plen: int,
    delegation_plen: int,
    cpe_zeroes: bool = True,
) -> SearchSpace:
    """How many /64s must be probed to re-find a device, per knowledge level."""
    if not 0 <= announcement_plen <= pool_plen <= delegation_plen <= 64:
        raise ValueError("need announcement <= pool <= delegation <= 64")
    bgp_only = 1 << (64 - announcement_plen)
    with_pool = 1 << (64 - pool_plen)
    if cpe_zeroes:
        # Only the zero /64 of each delegation is live.
        with_delegation = 1 << (delegation_plen - pool_plen)
    else:
        with_delegation = with_pool
    return SearchSpace(bgp_only=bgp_only, with_pool=with_pool, with_delegation=with_delegation)


@dataclass(frozen=True)
class RescanPlan:
    """A concrete ordered candidate list for one renumbered subscriber."""

    pool: Optional[IPv6Prefix]
    delegation_plen: int
    candidates: tuple

    def __len__(self) -> int:
        return len(self.candidates)

    def would_find(self, new_lan: IPv6Prefix) -> bool:
        """Whether probing this plan would hit ``new_lan``."""
        return new_lan in self.candidates


def infer_structure(
    history: Sequence[IPv6Prefix],
    recent: int = 8,
) -> tuple:
    """(pool prefix, delegated plen) inferred from one probe's /64 history.

    The pool is estimated as the common prefix of the most recent
    ``recent`` distinct observations — robust against the rare
    administrative pool switch, which would otherwise widen the common
    prefix to the whole allocation.  With uniform draws from the true
    pool the estimate converges from above within a handful of
    observations (expected overshoot well under 1 bit at ``recent=8``).
    """
    if not history:
        raise ValueError("history must not be empty")
    distinct = list(dict.fromkeys(history))
    window = distinct[-max(1, recent):]
    pool_plen = min(prefix.plen for prefix in window)
    for prefix in window[1:]:
        pool_plen = min(pool_plen, common_prefix_len(window[0], prefix))
    pool = window[-1].supernet(pool_plen)
    delegation_plen = max(pool_plen, inferred_subscriber_plen(distinct) or 64)
    return pool, delegation_plen


def infer_structure_words(
    words: np.ndarray,
    recent: int = 8,
) -> Tuple[IPv6Prefix, int]:
    """Columnar :func:`infer_structure` over a /64 history's high words.

    ``words`` holds each observed /64's top 64 bits (uint64) in history
    order; the result equals ``infer_structure`` over the matching
    ``IPv6Prefix`` objects.  The pool CPL comes from exact bit lengths of
    XORs against the window's first word, the delegation length from the
    minimum trailing-zero count over the distinct words.
    """
    if len(words) == 0:
        raise ValueError("history must not be empty")
    _, first_seen = np.unique(words, return_index=True)
    distinct = words[np.sort(first_seen)]
    window = distinct[-max(1, recent):]
    pool_plen = 64
    if len(window) > 1:
        pool_plen = int(64 - _bit_length_u64(window[1:] ^ window[0]).max())
    pool = IPv6Prefix(int(window[-1]) << 64, pool_plen)
    zero_bits = int(_trailing_zeros_u64(distinct).min())
    delegation_plen = max(pool_plen, (64 - zero_bits) or 64)
    return pool, delegation_plen


def plan_from_structure(
    pool: IPv6Prefix,
    delegation_plen: int,
    budget: int,
    seed: int = 0,
) -> RescanPlan:
    """The zero-/64s of ``budget`` delegations sampled from ``pool``.

    With a budget covering the whole delegation space every delegation
    is listed in order; otherwise ``random.Random(seed)`` samples them.
    ``sample`` needs the space's ``len``, which overflows from 2^63
    entries; such a space is drawn with ``randrange`` until ``budget``
    distinct indices are found.
    """
    total = pool.num_subprefixes(delegation_plen)
    rng = random.Random(seed)
    if budget >= total:
        indices = range(total)
    elif total <= sys.maxsize:
        indices = rng.sample(range(total), budget)
    else:
        drawn: Dict[int, None] = {}
        while len(drawn) < budget:
            drawn[rng.randrange(total)] = None
        indices = list(drawn)
    network = int(pool.network)
    host_bits = 128 - delegation_plen
    candidates = tuple(
        IPv6Prefix(network | (index << host_bits), 64) for index in indices
    )
    return RescanPlan(pool=pool, delegation_plen=delegation_plen, candidates=candidates)


def plan_rescan(
    history: Sequence[IPv6Prefix],
    budget: int,
    seed: int = 0,
) -> RescanPlan:
    """Build a candidate list of at most ``budget`` /64s.

    Candidates are the zero-/64s of delegations sampled uniformly from
    the inferred pool (the device keeps the zero /64 across
    renumberings when its CPE zero-fills — the structure Section 5.3
    detects).  With a budget covering the whole delegation space the
    plan is exhaustive and deterministic.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pool, delegation_plen = infer_structure(history)
    return plan_from_structure(pool, delegation_plen, budget, seed)


@dataclass
class RescanOutcome:
    """Aggregate result of evaluating rescans over many renumberings."""

    attempts: int = 0
    hits: int = 0
    probes_spent: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.attempts if self.attempts else 0.0


def evaluate_rescan_plan(
    histories: Dict[str, Sequence[IPv6Prefix]],
    budget: int,
    seed: int = 0,
) -> RescanOutcome:
    """For each probe, plan from all-but-last observations and test on the last.

    A probe participates when it has at least three observed /64s (two
    to infer structure from, one to re-find).
    """
    outcome = RescanOutcome()
    for index, (probe_id, history) in enumerate(sorted(histories.items())):
        distinct = list(dict.fromkeys(history))
        if len(distinct) < 3:
            continue
        training, target = distinct[:-1], distinct[-1]
        plan = plan_rescan(training, budget, seed=seed + index)
        outcome.attempts += 1
        outcome.probes_spent += len(plan)
        if plan.would_find(target):
            outcome.hits += 1
    return outcome


__all__ = [
    "RescanOutcome",
    "RescanPlan",
    "SearchSpace",
    "evaluate_rescan_plan",
    "infer_structure",
    "infer_structure_words",
    "plan_from_structure",
    "plan_rescan",
    "search_space_sizes",
]
