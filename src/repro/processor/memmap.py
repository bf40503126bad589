"""System memory-map construction (Section 3.4, second challenge).

Firmware must place every buffer's memory into the real-address map under
these rules:

* DRAM regions are sorted to form one contiguous block starting at
  address 0 (Linux requires DRAM at the start of the map);
* non-volatile regions (MRAM, NVDIMM) are placed at the *top* of the map,
  tagged with their type and a contents-preserved flag so Linux can bind
  them to a persistent-memory driver (``storage.pmem``) instead of the
  page allocator;
* MRAM capacities are megabytes, but the smallest size POWER8 supports
  behind a DMI link is 4 GB — firmware "lies" to the processor, reserving a
  4 GB hardware window while reporting only the true size to Linux.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ConfigurationError, FirmwareError
from ..units import GIB

#: smallest memory size POWER8 accepts behind a DMI link
MIN_DMI_REGION_BYTES = 4 * GIB

#: where the non-volatile window is anchored (top of a 2 TB real-address map)
TOP_OF_MAP = 2 << 40

#: module types placed in the OS-RAM block from address 0.  A tiered
#: hybrid card (DRAM + NVM with migration) is ordinary volatile RAM to
#: the OS — its hot set lives in DRAM and dies with power.
VOLATILE_TYPES = ("dram", "tiered")


@dataclass(frozen=True)
class MemoryRegion:
    """One entry in the real-address map."""

    base: int                 # real address as seen by the processor
    hw_size: int              # hardware window (the 4 GB "lie" for MRAM)
    os_size: int              # size reported to Linux (true capacity)
    memory_type: str          # "dram" | "tiered" | "mram" | "nvdimm"
    channel: int              # DMI channel that owns the region
    contents_preserved: bool = False

    @property
    def is_volatile(self) -> bool:
        return self.memory_type in VOLATILE_TYPES

    @property
    def end(self) -> int:
        return self.base + self.hw_size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.os_size


class MemoryMap:
    """The assembled real-address map."""

    def __init__(self) -> None:
        self.regions: List[MemoryRegion] = []

    # -- construction (used by firmware.boot) --------------------------------

    def build(self, entries: List[dict]) -> None:
        """Place regions from ``entries``: dicts with keys
        ``memory_type``, ``capacity_bytes``, ``channel``, ``contents_preserved``.
        """
        if self.regions:
            raise FirmwareError("memory map already built")
        dram = [e for e in entries if e["memory_type"] in VOLATILE_TYPES]
        nvm = [e for e in entries if e["memory_type"] not in VOLATILE_TYPES]

        # volatile RAM (DRAM, tiered): one contiguous block from address 0
        base = 0
        for entry in sorted(dram, key=lambda e: e["channel"]):
            self.regions.append(
                MemoryRegion(
                    base=base,
                    hw_size=entry["capacity_bytes"],
                    os_size=entry["capacity_bytes"],
                    memory_type=entry["memory_type"],
                    channel=entry["channel"],
                )
            )
            base += entry["capacity_bytes"]

        # non-volatile: at the top of the map, growing downward
        top = TOP_OF_MAP
        for entry in sorted(nvm, key=lambda e: e["channel"]):
            hw_size = max(entry["capacity_bytes"], MIN_DMI_REGION_BYTES)
            top -= hw_size
            if top < base:
                raise ConfigurationError("memory map overflow: NVM collides with DRAM")
            self.regions.append(
                MemoryRegion(
                    base=top,
                    hw_size=hw_size,
                    os_size=entry["capacity_bytes"],
                    memory_type=entry["memory_type"],
                    channel=entry["channel"],
                    contents_preserved=entry.get("contents_preserved", False),
                )
            )

    # -- queries ------------------------------------------------------------------

    def region_at(self, addr: int) -> MemoryRegion:
        for region in self.regions:
            if region.base <= addr < region.end:
                return region
        raise FirmwareError(f"address {addr:#x} not mapped")

    def dram_regions(self) -> List[MemoryRegion]:
        return [r for r in self.regions if r.is_volatile]

    def nvm_regions(self) -> List[MemoryRegion]:
        return [r for r in self.regions if not r.is_volatile]

    @property
    def dram_bytes(self) -> int:
        return sum(r.os_size for r in self.dram_regions())

    @property
    def dram_is_contiguous_from_zero(self) -> bool:
        """The Linux boot requirement the placement rules guarantee."""
        regions = sorted(self.dram_regions(), key=lambda r: r.base)
        expected = 0
        for region in regions:
            if region.base != expected:
                return False
            expected = region.end
        return bool(regions)

    def validate(self) -> None:
        """Check the invariants firmware promises the OS."""
        if not self.dram_is_contiguous_from_zero:
            raise FirmwareError("DRAM is not contiguous from address 0")
        spans = sorted((r.base, r.end) for r in self.regions)
        for (b1, e1), (b2, _) in zip(spans, spans[1:]):
            if b2 < e1:
                raise FirmwareError("memory map regions overlap")
        for region in self.nvm_regions():
            if region.hw_size < MIN_DMI_REGION_BYTES:
                raise FirmwareError(
                    f"NVM region on channel {region.channel} smaller than the "
                    f"4 GB DMI minimum"
                )
