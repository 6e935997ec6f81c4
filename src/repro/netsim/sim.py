"""The event-queue simulation that produces per-subscriber timelines.

:class:`IspSimulation` drives one ISP's subscriber population from hour
0 to ``end_hour`` through a single global event queue, so all pool
allocations and releases happen in global time order (no two
subscribers ever hold the same address simultaneously).

Event kinds (each an integer code in the queue, see :data:`EVENT_KINDS`):

``v4``
    Scheduled IPv4 renumbering (lease/session expiry per policy).  May
    synchronously renumber IPv6 with the configured probability.
``v6``
    Scheduled, independent IPv6 delegated-prefix renumbering.
``reboot``
    CPE reboot; triggers renumbering for policies with
    ``renumber_on_reboot`` (stateless RADIUS-style deployments).
``scramble``
    CPE-local re-draw of the LAN /64 within the current delegation
    (DTAG-style privacy scrambling) — no ISP involvement.
``policy``
    A scheduled :class:`~repro.netsim.isp.PolicyEpoch` switches one
    subscriber's IPv4 policy and re-arms its renumbering timer.
``infra``
    An ISP-wide infrastructure outage renumbers a random share of
    subscribers at once, in both families.

The loop is the simulator's hot path.  Queue entries are plain
integer-coded lists (:mod:`repro.netsim.events`) drained by one
generator; ``v4`` and ``v6`` events, over nine in ten, run inline in
:meth:`IspSimulation.run` with every lookup bound once per run; each
policy's delay process is precomputed as a
:meth:`~repro.netsim.policy.ChangePolicy.timer` tuple; and the address
draws run CPython's ``randrange`` rejection loop on ``getrandbits``
directly (:mod:`repro.netsim.pool`).  None of this changes a draw: a
build makes the same RNG calls in the same order as the one-method-
per-step form the rarer events still use, so its output is
bit-identical to it.

The output is a :class:`SubscriberTimeline` per subscriber: what it
held of the IPv4 address, the IPv6 LAN /64, and (as ground truth for
the delegated-prefix inference experiments) the IPv6 delegation.  The
simulation draws and tracks plain integers and stores each family as
:class:`IntervalColumns` (start hours, end hours, integer values);
the :class:`AssignmentInterval` lists ``timeline.v4``/``v6_lan``/
``v6_delegation`` are a view built from the columns on first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import log as log_
from typing import Dict, List, NamedTuple, Optional, Union

import numpy as np

from repro.ip.addr import IPv4Address
from repro.ip.prefix import IPv6Prefix
from repro.netsim.cpe import Cpe
from repro.netsim.events import EventQueue, Handle
from repro.netsim.isp import Isp, IspConfig
from repro.netsim.policy import (
    TIMER_EXPONENTIAL,
    TIMER_FIXED,
    TIMER_JITTERED,
    ChangePolicy,
    timer_delay,
)
from repro.netsim.pool import V4AddressPlan, V6PrefixPlan
from repro.obs import metric_inc, span

Value = Union[IPv4Address, IPv6Prefix]

#: The per-subscriber timeline families, in digest order.
TIMELINE_FAMILIES = ("v4", "v6_lan", "v6_delegation")

#: Event kinds by queue code (the ``kind`` label of ``netsim.events``).
EVENT_KINDS = ("v4", "v6", "reboot", "scramble", "policy", "infra")
_V4, _V6, _REBOOT, _SCRAMBLE, _POLICY, _INFRA = range(len(EVENT_KINDS))


@dataclass(frozen=True)
class AssignmentInterval:
    """One assignment held over ``[start, end)`` (hours)."""

    start: float
    end: float
    value: Value

    @property
    def duration(self) -> float:
        return self.end - self.start


class IntervalColumns(NamedTuple):
    """One timeline family as columns, in time order.

    ``start``/``end`` are float64 hours; ``value`` is uint64: the IPv4
    address, or the high 64 bits of the IPv6 network (the low 64 bits
    are zero, since delegations are never longer than /64).
    """

    start: np.ndarray
    end: np.ndarray
    value: np.ndarray

    def equals(self, other: "IntervalColumns") -> bool:
        """Value-by-value equality of all three columns."""
        return all(np.array_equal(a, b) for a, b in zip(self, other))


class _IntervalLog:
    """Append-only interval lists for one family while simulating."""

    __slots__ = ("start", "end", "value")

    def __init__(self) -> None:
        self.start: List[float] = []
        self.end: List[float] = []
        self.value: List[int] = []

    def add(self, start: float, end: float, value: int) -> None:
        self.start.append(start)
        self.end.append(end)
        self.value.append(value)


def _freeze_logs(logs: List[_IntervalLog]) -> List[IntervalColumns]:
    """One family's logs as columns, one :class:`IntervalColumns` per log.

    Each column of the family is one ``np.fromiter`` over every log
    (no ``np.array`` shape discovery, no per-log call), and each log
    gets views of its slice.
    """
    bounds = [0]
    for log in logs:
        bounds.append(bounds[-1] + len(log.start))
    columns = [
        np.fromiter(chain.from_iterable(getattr(log, name) for log in logs), dtype, bounds[-1])
        for name, dtype in (("start", np.float64), ("end", np.float64), ("value", np.uint64))
    ]
    return [
        IntervalColumns(*(column[lo:hi] for column in columns))
        for lo, hi in zip(bounds, bounds[1:])
    ]


class SubscriberTimeline:
    """Everything one subscriber held over the simulation.

    ``columns(family)`` is the stored form, one :class:`IntervalColumns`
    per family of :data:`TIMELINE_FAMILIES`; ``delegation_plen`` is the
    plan's delegation length (``None`` without IPv6).  ``v4``,
    ``v6_lan`` and ``v6_delegation`` are the same intervals as
    :class:`AssignmentInterval` lists, built on first read and cached;
    they never enter comparisons or pickles.  Equality compares columns.
    """

    def __init__(
        self,
        subscriber_id: int,
        dual_stack: bool,
        columns: Dict[str, IntervalColumns],
        delegation_plen: Optional[int] = None,
    ) -> None:
        self.subscriber_id = subscriber_id
        self.dual_stack = dual_stack
        self.delegation_plen = delegation_plen
        self._columns = columns

    def columns(self, family: str) -> IntervalColumns:
        """The stored columns of ``family`` (``"v4"``, ``"v6_lan"``, ``"v6_delegation"``)."""
        return self._columns[family]

    def _intervals(self, family: str) -> List[AssignmentInterval]:
        columns = self._columns[family]
        values = columns.value.tolist()
        if family == "v4":
            objects = [IPv4Address(value) for value in values]
        else:
            plen = 64 if family == "v6_lan" else self.delegation_plen
            objects = [IPv6Prefix(value << 64, plen) for value in values]
        return [
            AssignmentInterval(start, end, value)
            for start, end, value in zip(columns.start.tolist(), columns.end.tolist(), objects)
        ]

    @cached_property
    def v4(self) -> List[AssignmentInterval]:
        """The IPv4 address intervals."""
        return self._intervals("v4")

    @cached_property
    def v6_lan(self) -> List[AssignmentInterval]:
        """The IPv6 LAN /64 intervals."""
        return self._intervals("v6_lan")

    @cached_property
    def v6_delegation(self) -> List[AssignmentInterval]:
        """The IPv6 delegated-prefix intervals."""
        return self._intervals("v6_delegation")

    def first_difference(self, other: "SubscriberTimeline") -> Optional[str]:
        """The first attribute or family that differs from ``other`` (None if equal)."""
        for name in ("subscriber_id", "dual_stack", "delegation_plen"):
            if getattr(self, name) != getattr(other, name):
                return name
        for family in TIMELINE_FAMILIES:
            if not self._columns[family].equals(other._columns[family]):
                return family
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubscriberTimeline):
            return NotImplemented
        return self.first_difference(other) is None

    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        for family in TIMELINE_FAMILIES:
            state.pop(family, None)
        return state

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{family}={len(self._columns[family].start)}" for family in TIMELINE_FAMILIES
        )
        return (
            f"SubscriberTimeline(subscriber_id={self.subscriber_id}, "
            f"dual_stack={self.dual_stack}, {counts})"
        )


class _SubscriberState:
    __slots__ = (
        "sub_id",
        "dual_stack",
        "v4_policy",
        "v4_timer",
        "is_legacy",
        "cpe",
        "home_pool",
        "v4_addr",
        "v4_since",
        "v6_delegation",
        "v6_delegation_since",
        "v6_lan",
        "v6_lan_since",
        "v4_event",
        "v6_event",
        "v4_log",
        "v6_lan_log",
        "v6_delegation_log",
    )

    def __init__(self, sub_id: int, dual_stack: bool, v4_policy: ChangePolicy, cpe: Cpe) -> None:
        self.sub_id = sub_id
        self.dual_stack = dual_stack
        self.v4_policy = v4_policy
        self.v4_timer = v4_policy.timer()
        self.is_legacy = False
        self.cpe = cpe
        self.home_pool = 0
        # Held values as integers: the v4 address and the v6 networks.
        self.v4_addr: Optional[int] = None
        self.v4_since = 0.0
        self.v6_delegation: Optional[int] = None
        self.v6_delegation_since = 0.0
        self.v6_lan: Optional[int] = None
        self.v6_lan_since = 0.0
        self.v4_event: Optional[Handle] = None
        self.v6_event: Optional[Handle] = None
        # Closed intervals so far; v6 logs hold the networks' high 64 bits.
        self.v4_log = _IntervalLog()
        self.v6_lan_log = _IntervalLog()
        self.v6_delegation_log = _IntervalLog()

    def set_v4_policy(self, policy: ChangePolicy) -> None:
        self.v4_policy = policy
        self.v4_timer = policy.timer()


class IspSimulation:
    """Simulate ``num_subscribers`` lines of one ISP for ``end_hour`` hours."""

    def __init__(
        self,
        isp: Isp,
        num_subscribers: int,
        end_hour: float,
        seed: int = 0,
    ) -> None:
        if num_subscribers < 1:
            raise ValueError("num_subscribers must be >= 1")
        if end_hour <= 0:
            raise ValueError("end_hour must be positive")
        self.isp = isp
        self.end_hour = float(end_hour)
        self._rng = random.Random((seed << 16) ^ isp.asn)
        self._delegation_plen = isp.v6_plan.delegation_plen if isp.v6_plan is not None else None
        v6 = isp.config.v6
        self._v6_timer = v6.policy.timer() if v6 is not None else None
        self._sync_prob = v6.sync_with_v4_prob if v6 is not None else 0.0
        self._queue = EventQueue()
        self._subs: List[_SubscriberState] = []  # indexed by subscriber id
        self._build_population(num_subscribers)
        if isp.config.infra_outage_mean_hours:
            delay = self._rng.expovariate(1.0 / isp.config.infra_outage_mean_hours)
            self._queue.schedule(delay, _INFRA)

    # -- setup ---------------------------------------------------------------

    def _build_population(self, count: int) -> None:
        config = self.isp.config
        rng = self._rng
        for sub_id in range(count):
            dual_stack = config.v6 is not None and rng.random() < config.dual_stack_fraction
            is_legacy = rng.random() < config.v4.ds_legacy_fraction
            if dual_stack and not is_legacy:
                v4_policy = config.v4.policy_ds
            else:
                v4_policy = config.v4.policy_nds
            cpe = None
            if config.v6 is not None:
                behaviors = [behavior for behavior, _ in config.v6.cpe_mix]
                weights = [weight for _, weight in config.v6.cpe_mix]
                cpe = Cpe(rng.choices(behaviors, weights=weights, k=1)[0], rng)
            state = _SubscriberState(sub_id, dual_stack, v4_policy, cpe)
            state.is_legacy = is_legacy
            self._subs.append(state)
            for epoch_index, epoch in enumerate(config.v4.epochs):
                if epoch.start_hour < self.end_hour:
                    self._queue.schedule(float(epoch.start_hour), _POLICY, sub_id, epoch_index)

            state.v4_addr = self.isp.v4_plan.draw(rng)
            state.v4_since = 0.0
            self._schedule_v4(state, 0.0, first=True)

            if dual_stack:
                assert self.isp.v6_plan is not None and cpe is not None
                state.home_pool = self.isp.v6_plan.home_pool_index(rng)
                delegation, pool = self.isp.v6_plan.draw(rng, state.home_pool)
                state.home_pool = pool
                state.v6_delegation = delegation
                state.v6_lan = cpe.lan_network(delegation, self._delegation_plen, rng)
                self._schedule_v6(state, 0.0, first=True)
                scramble_delay = cpe.next_scramble_delay(rng)
                if scramble_delay is not None:
                    self._queue.schedule(scramble_delay * rng.random(), _SCRAMBLE, sub_id)
            if cpe is not None:
                reboot_delay = cpe.next_reboot_delay(rng)
                if reboot_delay is not None:
                    self._queue.schedule(reboot_delay, _REBOOT, sub_id)

    def _schedule_v4(self, state: _SubscriberState, now: float, first: bool = False) -> None:
        delay = timer_delay(state.v4_timer, self._rng.random)
        if delay is None:
            state.v4_event = None
            return
        if first:
            # Random phase so periodic populations do not change in lock-step.
            delay *= self._rng.random()
        state.v4_event = self._queue.schedule(now + delay, _V4, state.sub_id)

    def _schedule_v6(self, state: _SubscriberState, now: float, first: bool = False) -> None:
        assert self._v6_timer is not None
        delay = timer_delay(self._v6_timer, self._rng.random)
        if delay is None:
            state.v6_event = None
            return
        if first:
            delay *= self._rng.random()
        state.v6_event = self._queue.schedule(now + delay, _V6, state.sub_id)

    # -- state transitions ----------------------------------------------------

    def _renumber_v4(self, state: _SubscriberState, now: float) -> None:
        old = state.v4_addr
        assert old is not None
        state.v4_log.add(state.v4_since, now, old)
        self.isp.v4_plan.release(old)
        state.v4_addr = self.isp.v4_plan.draw(self._rng, previous=old)
        state.v4_since = now

    def _renumber_v6(self, state: _SubscriberState, now: float) -> None:
        plan = self.isp.v6_plan
        assert plan is not None and state.cpe is not None
        old = state.v6_delegation
        assert old is not None and state.v6_lan is not None
        state.v6_delegation_log.add(state.v6_delegation_since, now, old >> 64)
        state.v6_lan_log.add(state.v6_lan_since, now, state.v6_lan >> 64)
        plan.release(old)
        delegation, pool = plan.draw(self._rng, state.home_pool, previous=old)
        state.home_pool = pool
        state.v6_delegation = delegation
        state.v6_delegation_since = now
        state.v6_lan = state.cpe.lan_network(delegation, self._delegation_plen, self._rng)
        state.v6_lan_since = now

    def _rescramble(self, state: _SubscriberState, now: float) -> None:
        assert state.cpe is not None and state.v6_delegation is not None
        assert state.v6_lan is not None
        new_lan = state.cpe.lan_network(state.v6_delegation, self._delegation_plen, self._rng)
        if new_lan == state.v6_lan:
            return
        state.v6_lan_log.add(state.v6_lan_since, now, state.v6_lan >> 64)
        state.v6_lan = new_lan
        state.v6_lan_since = now

    def _maybe_sync_v6(self, state: _SubscriberState, now: float) -> None:
        """A v4 change drags the v6 delegation along with it (DTAG-style)."""
        # Without IPv6 no subscriber is dual-stack, so no roll is drawn.
        if not state.dual_stack or self._rng.random() >= self._sync_prob:
            return
        self._renumber_v6(state, now)
        if state.v6_event is not None:
            self._queue.cancel(state.v6_event)
        self._schedule_v6(state, now)

    # -- main loop --------------------------------------------------------------

    def run(self) -> Dict[int, SubscriberTimeline]:
        """Process all events up to ``end_hour``; returns the timelines.

        ``v4`` and ``v6`` events (over nine in ten) run inline, with
        every per-event lookup bound once here.  They make the same RNG
        calls, and schedule in the same order, as :meth:`_renumber_v4`,
        :meth:`_maybe_sync_v6`, :meth:`_renumber_v6` and the schedule
        methods that the rarer events call.  The ``netsim/isp`` span and
        the ``netsim.events{kind}`` counter are fed once per run from a
        local tally.
        """
        rng = self._rng
        random_ = rng.random
        queue = self._queue
        schedule = queue.schedule
        cancel = queue.cancel
        subs = self._subs
        v4_plan = self.isp.v4_plan
        v4_draw = v4_plan.draw
        # A plan's release() is a method call around one set discard;
        # the loop discards from the plan's in-use set directly.
        v4_release = v4_plan._in_use.discard
        v6_plan = self.isp.v6_plan
        if v6_plan is not None:
            v6_draw = v6_plan.draw
            v6_release = v6_plan._in_use.discard
            v6_mode, v6_a, v6_b, v6_c = self._v6_timer
        sync_prob = self._sync_prob
        delegation_plen = self._delegation_plen
        fired = [0] * len(EVENT_KINDS)
        with span("netsim/isp", asn=self.isp.asn) as isp_span:
            for now, _seq, code, sub_id, arg, _done in queue.pop_until(self.end_hour):
                fired[code] += 1
                if code > _V6:
                    self._rare_event(code, sub_id, now, arg)
                    continue
                state = subs[sub_id]
                if code == _V4:
                    old = state.v4_addr
                    intervals = state.v4_log
                    intervals.start.append(state.v4_since)
                    intervals.end.append(now)
                    intervals.value.append(old)
                    v4_release(old)
                    state.v4_addr = v4_draw(rng, old)
                    state.v4_since = now
                    # A v4 change drags the v6 delegation along (_maybe_sync_v6).
                    renumber_v6 = state.dual_stack and random_() < sync_prob
                    if renumber_v6 and state.v6_event is not None:
                        cancel(state.v6_event)
                else:
                    renumber_v6 = True
                if renumber_v6:
                    old = state.v6_delegation
                    intervals = state.v6_delegation_log
                    intervals.start.append(state.v6_delegation_since)
                    intervals.end.append(now)
                    intervals.value.append(old >> 64)
                    intervals = state.v6_lan_log
                    intervals.start.append(state.v6_lan_since)
                    intervals.end.append(now)
                    intervals.value.append(state.v6_lan >> 64)
                    v6_release(old)
                    delegation, state.home_pool = v6_draw(rng, state.home_pool, old)
                    state.v6_delegation = delegation
                    state.v6_delegation_since = now
                    state.v6_lan = state.cpe.lan_network(delegation, delegation_plen, rng)
                    state.v6_lan_since = now
                    # timer_delay(self._v6_timer, random_), inline
                    if v6_mode == TIMER_EXPONENTIAL:
                        state.v6_event = schedule(now + -log_(1.0 - random_()) / v6_a, _V6, sub_id)
                    elif v6_mode == TIMER_JITTERED:
                        state.v6_event = schedule(
                            now + (v6_a + (v6_b + v6_c * random_())), _V6, sub_id
                        )
                    elif v6_mode == TIMER_FIXED:
                        state.v6_event = schedule(now + v6_a, _V6, sub_id)
                    else:
                        state.v6_event = None
                if code == _V4:
                    # timer_delay(state.v4_timer, random_), inline
                    mode, a, b, c = state.v4_timer
                    if mode == TIMER_EXPONENTIAL:
                        state.v4_event = schedule(now + -log_(1.0 - random_()) / a, _V4, sub_id)
                    elif mode == TIMER_JITTERED:
                        state.v4_event = schedule(now + (a + (b + c * random_())), _V4, sub_id)
                    elif mode == TIMER_FIXED:
                        state.v4_event = schedule(now + a, _V4, sub_id)
                    else:
                        state.v4_event = None
            isp_span.set(events=sum(fired))
        for kind, count in zip(EVENT_KINDS, fired):
            if count:
                metric_inc("netsim.events", count, kind=kind)
        return self._close_timelines()

    def _rare_event(self, code: int, sub_id: int, now: float, arg: int) -> None:
        """Dispatch a ``reboot``, ``scramble``, ``policy`` or ``infra`` event."""
        if code == _INFRA:
            self._handle_infrastructure_outage(now)
            return
        state = self._subs[sub_id]
        if code == _REBOOT:
            self._handle_reboot(state, now)
        elif code == _SCRAMBLE:
            self._rescramble(state, now)
            delay = state.cpe.next_scramble_delay(self._rng)
            if delay is not None:
                self._queue.schedule(now + delay, _SCRAMBLE, sub_id)
        else:
            self._apply_policy_epoch(state, now, arg)

    def _handle_infrastructure_outage(self, now: float) -> None:
        """A BNG/assignment server loses state: mass simultaneous renumbering.

        A random ``infra_outage_scope`` share of subscribers is renumbered
        at the same instant in both families (Section 2.2, "outages that
        affect ISP's infrastructure devices").
        """
        config = self.isp.config
        scope = config.infra_outage_scope
        for state in self._subs:
            if self._rng.random() >= scope:
                continue
            self._renumber_v4(state, now)
            if state.v4_event is not None:
                self._queue.cancel(state.v4_event)
            self._schedule_v4(state, now)
            if state.dual_stack and state.v6_delegation is not None:
                self._renumber_v6(state, now)
                if state.v6_event is not None:
                    self._queue.cancel(state.v6_event)
                self._schedule_v6(state, now)
        delay = self._rng.expovariate(1.0 / config.infra_outage_mean_hours)
        self._queue.schedule(now + delay, _INFRA)

    def _apply_policy_epoch(self, state: _SubscriberState, now: float, epoch_index: int) -> None:
        """Switch the subscriber onto the epoch's policy (Section 3.2 drift).

        The pending renumbering timer is rescheduled under the new
        policy, measured from now — an administratively shortened lease
        takes effect at the next renewal, not retroactively.
        """
        epoch = self.isp.config.v4.epochs[epoch_index]
        if state.dual_stack and not state.is_legacy:
            state.set_v4_policy(epoch.policy_ds)
        else:
            state.set_v4_policy(epoch.policy_nds)
        if state.v4_event is not None:
            self._queue.cancel(state.v4_event)
        self._schedule_v4(state, now)

    def _handle_reboot(self, state: _SubscriberState, now: float) -> None:
        if state.v4_policy.renumber_on_reboot:
            self._renumber_v4(state, now)
            if state.v4_event is not None:
                self._queue.cancel(state.v4_event)
            self._schedule_v4(state, now)
            self._maybe_sync_v6(state, now)
        config = self.isp.config.v6
        if (
            config is not None
            and state.dual_stack
            and config.policy.renumber_on_reboot
        ):
            self._renumber_v6(state, now)
            if state.v6_event is not None:
                self._queue.cancel(state.v6_event)
            self._schedule_v6(state, now)
        assert state.cpe is not None
        delay = state.cpe.next_reboot_delay(self._rng)
        if delay is not None:
            self._queue.schedule(now + delay, _REBOOT, state.sub_id)

    def _close_timelines(self) -> Dict[int, SubscriberTimeline]:
        end = self.end_hour
        for state in self._subs:
            if state.v4_addr is not None:
                state.v4_log.add(state.v4_since, end, state.v4_addr)
            if state.v6_lan is not None:
                state.v6_lan_log.add(state.v6_lan_since, end, state.v6_lan >> 64)
            if state.v6_delegation is not None:
                state.v6_delegation_log.add(
                    state.v6_delegation_since, end, state.v6_delegation >> 64
                )
        v4 = _freeze_logs([state.v4_log for state in self._subs])
        v6_lan = _freeze_logs([state.v6_lan_log for state in self._subs])
        v6_delegation = _freeze_logs([state.v6_delegation_log for state in self._subs])
        return {
            sub_id: SubscriberTimeline(
                subscriber_id=sub_id,
                dual_stack=state.dual_stack,
                columns={
                    "v4": v4[sub_id],
                    "v6_lan": v6_lan[sub_id],
                    "v6_delegation": v6_delegation[sub_id],
                },
                delegation_plen=self._delegation_plen,
            )
            for sub_id, state in enumerate(self._subs)
        }


# ---------------------------------------------------------------------------
# Picklable work units
# ---------------------------------------------------------------------------
#
# An :class:`IspSimulation` only ever touches the ISP's config and its two
# address plans — never the shared registry or routing table.  A
# :class:`SimulationJob` captures exactly that state, so one ISP's
# simulation can be shipped to a worker process and its results (the
# timelines plus the mutated plans) grafted back onto the original
# :class:`~repro.netsim.isp.Isp`, leaving the parent bit-identical to a
# serial run.


class _PlanView:
    """Duck-typed stand-in for :class:`Isp` inside worker processes."""

    __slots__ = ("config", "v4_plan", "v6_plan")

    def __init__(
        self,
        config: IspConfig,
        v4_plan: V4AddressPlan,
        v6_plan: Optional[V6PrefixPlan],
    ) -> None:
        self.config = config
        self.v4_plan = v4_plan
        self.v6_plan = v6_plan

    @property
    def asn(self) -> int:
        return self.config.asn


@dataclass
class SimulationJob:
    """One ISP's simulation, detached from all shared build state."""

    config: IspConfig
    v4_plan: V4AddressPlan
    v6_plan: Optional[V6PrefixPlan]
    num_subscribers: int
    end_hour: float
    seed: int

    @classmethod
    def from_isp(
        cls, isp: Isp, num_subscribers: int, end_hour: float, seed: int
    ) -> "SimulationJob":
        return cls(
            config=isp.config,
            v4_plan=isp.v4_plan,
            v6_plan=isp.v6_plan,
            num_subscribers=num_subscribers,
            end_hour=end_hour,
            seed=seed,
        )


@dataclass
class SimulationResult:
    """Timelines plus the post-simulation plan state of one job."""

    asn: int
    timelines: Dict[int, SubscriberTimeline]
    v4_plan: V4AddressPlan
    v6_plan: Optional[V6PrefixPlan]

    def graft_onto(self, isp: Isp) -> None:
        """Install the post-run plan state on ``isp`` (parent process)."""
        if isp.asn != self.asn:
            raise ValueError(f"result for AS{self.asn} grafted onto AS{isp.asn}")
        isp.v4_plan = self.v4_plan
        isp.v6_plan = self.v6_plan


def run_simulation_job(job: SimulationJob) -> SimulationResult:
    """Execute one :class:`SimulationJob` (used as the worker entry point)."""
    view = _PlanView(job.config, job.v4_plan, job.v6_plan)
    timelines = IspSimulation(
        view, job.num_subscribers, job.end_hour, seed=job.seed
    ).run()
    return SimulationResult(
        asn=job.config.asn,
        timelines=timelines,
        v4_plan=view.v4_plan,
        v6_plan=view.v6_plan,
    )


__all__ = [
    "AssignmentInterval",
    "IntervalColumns",
    "IspSimulation",
    "SimulationJob",
    "SimulationResult",
    "SubscriberTimeline",
    "TIMELINE_FAMILIES",
    "run_simulation_job",
]
