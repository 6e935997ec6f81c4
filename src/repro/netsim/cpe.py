"""CPE (home router) behaviour model.

Given the delegated prefix from the ISP (e.g. a /56), the CPE picks the
/64 it advertises on the home LAN.  The paper identifies three
behaviours that matter for delegated-prefix inference (Section 5.3):

* **zero-fill** — announce the lowest-numbered /64: the delegated
  prefix's trailing bits before /64 are zero, which is what the
  inference technique detects;
* **scramble** — pick a random /64 within the delegation, and
  optionally re-scramble periodically (a privacy feature of many DTAG
  CPEs) — this defeats zero-bit inference and produces CPL >= 56
  "assignment changes" with no ISP involvement;
* **constant** — pick one non-zero subnet id at first delegation and
  keep it for subsequent delegations (e.g. an admin configured LAN 1).

The CPE also owns the reboot process: reboots can trigger renumbering in
ISPs whose assignment servers keep no state (Section 2.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.ip.prefix import IPv6Prefix

LAN_SELECTION_MODES = ("zero", "scramble", "constant")


@dataclass(frozen=True)
class CpeBehavior:
    """Configuration of a CPE population.

    Parameters
    ----------
    lan_selection:
        ``"zero"``, ``"scramble"``, or ``"constant"`` (see module docs).
    scramble_period_hours:
        For ``scramble`` CPEs, how often the LAN /64 is re-drawn within
        the *current* delegation without any ISP reassignment (0 means
        only on new delegations).
    reboot_mean_hours:
        Mean of the exponential inter-reboot time (0 disables reboots).
    """

    lan_selection: str = "zero"
    scramble_period_hours: float = 0.0
    reboot_mean_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.lan_selection not in LAN_SELECTION_MODES:
            raise ValueError(
                f"unknown lan_selection {self.lan_selection!r}; "
                f"expected one of {LAN_SELECTION_MODES}"
            )
        if self.scramble_period_hours < 0 or self.reboot_mean_hours < 0:
            raise ValueError("CPE intervals must be non-negative")
        if self.scramble_period_hours and self.lan_selection != "scramble":
            raise ValueError("scramble_period_hours requires lan_selection='scramble'")


class Cpe:
    """One CPE instance applying a :class:`CpeBehavior`."""

    def __init__(self, behavior: CpeBehavior, rng: random.Random) -> None:
        self.behavior = behavior
        self._zero = behavior.lan_selection == "zero"
        # The constant subnet id is drawn once per CPE (non-zero).
        self._constant_subnet: int | None = None
        if behavior.lan_selection == "constant":
            self._constant_subnet = rng.randrange(1, 1 << 16)

    def lan_network(self, delegation: int, delegation_plen: int, rng: random.Random) -> int:
        """The network integer of the LAN /64 out of the ``delegation`` network.

        A scramble draws the subnet with the same ``getrandbits`` calls
        as ``rng.randrange(1 << free_bits)``.
        """
        free_bits = 64 - delegation_plen
        if free_bits == 0 or self._zero:
            return delegation
        count = 1 << free_bits
        if self._constant_subnet is None:
            getrandbits = rng.getrandbits
            k = free_bits + 1  # count.bit_length()
            subnet = getrandbits(k)
            while subnet >= count:
                subnet = getrandbits(k)
        else:
            subnet = self._constant_subnet % count
        return delegation | (subnet << 64)

    def select_lan_prefix(self, delegation: IPv6Prefix, rng: random.Random) -> IPv6Prefix:
        """The /64 the CPE advertises on the LAN out of ``delegation``."""
        return IPv6Prefix(self.lan_network(int(delegation.network), delegation.plen, rng), 64)

    def next_reboot_delay(self, rng: random.Random) -> float | None:
        """Hours until the next reboot, or ``None`` when reboots are disabled."""
        if not self.behavior.reboot_mean_hours:
            return None
        return rng.expovariate(1.0 / self.behavior.reboot_mean_hours)

    def next_scramble_delay(self, rng: random.Random) -> float | None:
        """Hours until the next in-place LAN re-scramble, or ``None``."""
        if not self.behavior.scramble_period_hours:
            return None
        # Scrambles are scheduled with mild jitter so probe populations
        # do not re-scramble in lock-step.
        period = self.behavior.scramble_period_hours
        return period * rng.uniform(0.9, 1.1)


def eui64_iid(mac: int) -> int:
    """The modified EUI-64 interface identifier for a 48-bit MAC address.

    RIPE Atlas probes use stable EUI-64 IIDs (Section 6); the platform
    substrate uses this to build full probe addresses.
    """
    if not 0 <= mac < (1 << 48):
        raise ValueError(f"MAC must be 48-bit, got {mac:#x}")
    upper = (mac >> 24) & 0xFFFFFF
    lower = mac & 0xFFFFFF
    iid = (upper << 40) | (0xFFFE << 24) | lower
    return iid ^ (1 << 57)  # flip the universal/local bit


__all__ = ["Cpe", "CpeBehavior", "LAN_SELECTION_MODES", "eui64_iid"]
