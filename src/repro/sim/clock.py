"""Clock domains.

The platform mixes several clocks: the DMI link (8 GHz when ConTutto is
plugged, up to 9.6 GHz with Centaur), the POWER8 memory-bus "nest" (2 GHz),
the FPGA fabric (250 MHz), and the DDR3 interface.  :class:`ClockDomain`
gives each a name and exact integer period, plus a helper to convert a
cycle count to picoseconds.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..units import GHZ, MHZ, period_ps


class ClockDomain:
    """A named clock with an exact integer picosecond period."""

    def __init__(self, name: str, freq_hz: float):
        if freq_hz <= 0:
            raise ConfigurationError(f"clock {name!r}: frequency must be positive")
        self.name = name
        self.freq_hz = freq_hz
        self.period_ps = period_ps(freq_hz)

    def cycles_to_ps(self, cycles: int) -> int:
        """Duration of ``cycles`` whole cycles in picoseconds."""
        return cycles * self.period_ps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClockDomain {self.name} {self.freq_hz / 1e6:.6g} MHz>"


# Canonical platform clocks (Section 3.3 of the paper).
def dmi_link_clock(gbps: float = 8.0) -> ClockDomain:
    """The DMI link clock. ConTutto runs the links at 8 GHz; Centaur up to 9.6."""
    return ClockDomain("dmi_link", gbps * GHZ)


def fabric_clock() -> ClockDomain:
    """ConTutto's FPGA fabric clock: 250 MHz target frequency."""
    return ClockDomain("fpga_fabric", 250 * MHZ)


def nest_clock() -> ClockDomain:
    """POWER8 memory-bus (nest) clock: the paper runs it at 2 GHz."""
    return ClockDomain("p8_nest", 2 * GHZ)


def centaur_core_clock() -> ClockDomain:
    """Centaur's internal logic clock (4:1 mux from a 9.6 GHz link ~ 2.4 GHz)."""
    return ClockDomain("centaur_core", 2.4 * GHZ)
