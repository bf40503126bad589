"""Endurance models for non-volatile memory technologies.

Figure 8 of the paper compares write endurance across non-volatile memory
technologies (sourced from NVMW'16 / FMS'16 talks): NAND flash endures
thousands-to-tens-of-thousands of program/erase cycles per cell, while
STT-MRAM endures effectively unbounded writes (>= 1e12, often quoted 1e15) —
which is why MRAM is credible on a high-bandwidth memory bus and flash is
not.

:class:`WearTracker` counts writes per wear unit (a flash block or an MRAM
line) so long simulations can enforce — or just report — cell wear-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import EnduranceExceededError


@dataclass(frozen=True)
class EnduranceSpec:
    """Rated write endurance of a technology (cycles per cell)."""

    technology: str
    cycles: float
    note: str = ""


# The Figure 8 population: endurance in program/erase (or write) cycles.
ENDURANCE_TLC_NAND = EnduranceSpec("nand_tlc", 3e3, "3D TLC NAND")
ENDURANCE_MLC_NAND = EnduranceSpec("nand_mlc", 1e4, "MLC NAND")
ENDURANCE_SLC_NAND = EnduranceSpec("nand_slc", 1e5, "SLC NAND")
ENDURANCE_3DXP = EnduranceSpec("3dxpoint", 1e7, "phase-change class")
ENDURANCE_RERAM = EnduranceSpec("reram", 1e9, "resistive filament")
ENDURANCE_STT_MRAM = EnduranceSpec("stt_mram", 1e15, "magnetic tunnel junction")
ENDURANCE_DRAM = EnduranceSpec("dram", 1e16, "effectively unlimited (volatile)")

FIGURE8_TECHNOLOGIES: List[EnduranceSpec] = [
    ENDURANCE_TLC_NAND,
    ENDURANCE_MLC_NAND,
    ENDURANCE_SLC_NAND,
    ENDURANCE_3DXP,
    ENDURANCE_RERAM,
    ENDURANCE_STT_MRAM,
]


def memory_bus_lifetime_s(
    spec: EnduranceSpec,
    capacity_bytes: int,
    write_bandwidth_bytes_s: float,
    wear_leveling_efficiency: float = 1.0,
) -> float:
    """Seconds until a device wears out under sustained bus-rate writes.

    This is the quantitative argument behind Figure 8's qualitative message:
    at memory-bus write bandwidth, a flash device dies in hours while
    STT-MRAM outlives the machine.  Assumes ideal wear leveling scaled by
    ``wear_leveling_efficiency``.
    """
    if capacity_bytes <= 0 or write_bandwidth_bytes_s <= 0:
        raise ValueError("capacity and bandwidth must be positive")
    if not 0 < wear_leveling_efficiency <= 1:
        raise ValueError("wear_leveling_efficiency must be in (0, 1]")
    total_writable = spec.cycles * capacity_bytes * wear_leveling_efficiency
    return total_writable / write_bandwidth_bytes_s


class WearTracker:
    """Per-unit write counters with an endurance limit.

    ``unit_bytes`` is the wear granularity: an erase block for flash, a
    cache line for MRAM.  ``enforce`` decides whether exceeding the rating
    raises (device failure) or merely counts (reporting mode).
    """

    def __init__(self, spec: EnduranceSpec, unit_bytes: int, enforce: bool = True):
        if unit_bytes <= 0:
            raise ValueError("unit_bytes must be positive")
        self.spec = spec
        self.unit_bytes = unit_bytes
        self.enforce = enforce
        self._wear: Dict[int, int] = {}
        self.worn_out_units = 0

    def record_write(self, addr: int, nbytes: int) -> None:
        """Count one write cycle on every wear unit the range touches."""
        first = addr // self.unit_bytes
        last = (addr + max(nbytes, 1) - 1) // self.unit_bytes
        for unit in range(first, last + 1):
            count = self._wear.get(unit, 0) + 1
            self._wear[unit] = count
            if count == int(self.spec.cycles) + 1:
                self.worn_out_units += 1
                if self.enforce:
                    raise EnduranceExceededError(
                        f"{self.spec.technology}: unit {unit} exceeded "
                        f"{self.spec.cycles:.0e} write cycles"
                    )

    def wear_of(self, addr: int) -> int:
        """Write cycles consumed by the unit containing ``addr``."""
        return self._wear.get(addr // self.unit_bytes, 0)
