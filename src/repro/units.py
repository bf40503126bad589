"""Unit helpers for simulated time, frequency, and bandwidth.

All simulated time in this library is kept as **integer picoseconds** so that
event ordering is exact and runs are reproducible across platforms.  These
helpers convert between human-friendly units and the internal representation.

Conventions
-----------
* ``*_to_ps`` functions return ``int`` picoseconds (rounded).
* ``ps_to_*`` functions return ``float`` in the requested unit.
* Frequencies are given in hertz; ``period_ps`` converts a frequency to the
  integer picosecond period of one cycle.
"""

from __future__ import annotations

# -- time ------------------------------------------------------------------

PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
S = 1_000_000_000_000


def ns_to_ps(ns: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return int(round(ns * NS))


def us_to_ps(us: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return int(round(us * US))


def ms_to_ps(ms: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return int(round(ms * MS))


# -- frequency -------------------------------------------------------------

KHZ = 1_000
MHZ = 1_000_000
GHZ = 1_000_000_000


def period_ps(freq_hz: float) -> int:
    """Integer picosecond period of one cycle at ``freq_hz``.

    >>> period_ps(250 * MHZ)
    4000
    >>> period_ps(8 * GHZ)
    125
    """
    if freq_hz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    return int(round(S / freq_hz))


def cycles_to_ps(cycles: int, freq_hz: float) -> int:
    """Duration of ``cycles`` clock cycles at ``freq_hz``, in picoseconds."""
    return cycles * period_ps(freq_hz)


# -- data sizes ------------------------------------------------------------

KIB = 1 << 10
MIB = 1 << 20
GIB = 1 << 30
TIB = 1 << 40

CACHE_LINE_BYTES = 128  # POWER8 cache line / DMI operation granularity


def transfer_ps(num_bytes: int, bandwidth_gb_s: float) -> int:
    """Time to move ``num_bytes`` at ``bandwidth_gb_s`` decimal GB/s."""
    if bandwidth_gb_s <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_gb_s}")
    return int(round(num_bytes / (bandwidth_gb_s * 1e9) * S))
