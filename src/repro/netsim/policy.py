"""Assignment-change policies.

A :class:`ChangePolicy` describes *when* a subscriber's assignment is
renumbered, abstracting over the mechanisms of Section 2.2:

* ``periodic`` — RADIUS SessionTimeout / aggressive DHCP reclaim: the
  assignment changes after a fixed period (24 h for DTAG, 1 week for
  Orange, ...), with optional uniform jitter;
* ``exponential`` — sticky DHCP with renewals: changes only on rare
  events (infrastructure outages, administrative renumbering), modelled
  as a Poisson process with a configurable mean holding time;
* ``static`` — no scheduled changes at all (changes can still be caused
  by reboots when ``renumber_on_reboot`` is set).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log
from typing import Callable, Optional, Tuple

VALID_KINDS = ("static", "periodic", "exponential")

#: Timer modes: the first item of a :meth:`ChangePolicy.timer` tuple.
TIMER_STATIC, TIMER_FIXED, TIMER_JITTERED, TIMER_EXPONENTIAL = range(4)

#: A policy's delay process as ``(mode, a, b, c)`` (see :meth:`ChangePolicy.timer`).
Timer = Tuple[int, float, float, float]


def timer_delay(timer: Timer, random_: Callable[[], float]) -> Optional[float]:
    """The next delay of ``timer``, drawing from ``random_`` (``rng.random``).

    The float formulas are those of ``random.uniform`` (``a + (b - a) *
    random()``) and ``random.expovariate`` (``-log(1.0 - random()) /
    lambd``), so a delay is bit-identical to drawing it through them.
    """
    mode, a, b, c = timer
    if mode == TIMER_EXPONENTIAL:
        return -log(1.0 - random_()) / a
    if mode == TIMER_JITTERED:
        return a + (b + c * random_())
    if mode == TIMER_FIXED:
        return a
    return None


@dataclass(frozen=True)
class ChangePolicy:
    """When assignments are renumbered.

    Parameters
    ----------
    kind:
        One of ``"static"``, ``"periodic"``, ``"exponential"``.
    period_hours:
        Holding period for ``periodic`` policies.
    jitter_hours:
        Half-width of the uniform jitter added to each period (periodic
        only); keeps subscriber phases from drifting into lock-step.
    mean_hours:
        Mean holding time for ``exponential`` policies.
    renumber_on_reboot:
        Whether a CPE reboot/outage triggers immediate renumbering —
        true of RADIUS deployments that keep no per-client state
        (Section 2.2 "Changes due to outages").
    """

    kind: str
    period_hours: float = 0.0
    jitter_hours: float = 0.0
    mean_hours: float = 0.0
    renumber_on_reboot: bool = False

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {VALID_KINDS}")
        if self.kind == "periodic" and self.period_hours <= 0:
            raise ValueError("periodic policy requires period_hours > 0")
        if self.kind == "exponential" and self.mean_hours <= 0:
            raise ValueError("exponential policy requires mean_hours > 0")
        if self.jitter_hours < 0:
            raise ValueError("jitter_hours must be non-negative")
        if self.jitter_hours >= self.period_hours and self.kind == "periodic" and self.jitter_hours:
            raise ValueError("jitter_hours must be smaller than period_hours")

    def timer(self) -> Timer:
        """This policy's delay process as four numbers, ``(mode, a, b, c)``.

        ``(TIMER_STATIC, 0, 0, 0)``; ``(TIMER_FIXED, period, 0, 0)``;
        ``(TIMER_JITTERED, period, -jitter, jitter - -jitter)``, the last
        two being ``uniform``'s ``a`` and ``b - a``; or
        ``(TIMER_EXPONENTIAL, 1.0 / mean, 0, 0)``, the ``expovariate``
        rate.  :func:`timer_delay` draws from it; the simulator
        precomputes one per policy and inlines the draw.
        """
        if self.kind == "static":
            return (TIMER_STATIC, 0.0, 0.0, 0.0)
        if self.kind == "periodic":
            if self.jitter_hours:
                low, high = -self.jitter_hours, self.jitter_hours
                return (TIMER_JITTERED, self.period_hours, low, high - low)
            return (TIMER_FIXED, self.period_hours, 0.0, 0.0)
        return (TIMER_EXPONENTIAL, 1.0 / self.mean_hours, 0.0, 0.0)

    def next_change_delay(self, rng: random.Random) -> Optional[float]:
        """Hours until the next scheduled renumbering, or ``None`` for static."""
        return timer_delay(self.timer(), rng.random)

    @classmethod
    def static(cls, renumber_on_reboot: bool = False) -> "ChangePolicy":
        return cls(kind="static", renumber_on_reboot=renumber_on_reboot)

    @classmethod
    def periodic(
        cls,
        period_hours: float,
        jitter_hours: float = 0.0,
        renumber_on_reboot: bool = True,
    ) -> "ChangePolicy":
        return cls(
            kind="periodic",
            period_hours=period_hours,
            jitter_hours=jitter_hours,
            renumber_on_reboot=renumber_on_reboot,
        )

    @classmethod
    def exponential(
        cls,
        mean_hours: float,
        renumber_on_reboot: bool = False,
    ) -> "ChangePolicy":
        return cls(
            kind="exponential",
            mean_hours=mean_hours,
            renumber_on_reboot=renumber_on_reboot,
        )


__all__ = [
    "ChangePolicy",
    "TIMER_EXPONENTIAL",
    "TIMER_FIXED",
    "TIMER_JITTERED",
    "TIMER_STATIC",
    "Timer",
    "VALID_KINDS",
    "timer_delay",
]
