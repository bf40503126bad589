"""Serial Presence Detect (SPD) data for DIMMs.

Every DIMM carries an SPD EEPROM describing the module: type, capacity,
timings.  ConTutto's external FSI slave reads the SPD of the DIMMs plugged
into the card directly — "critical for detecting and controlling the
NVDIMMs" (Section 3.4).  Firmware uses the module type to decide memory-map
placement and driver flags.

The encoding here is a compact, checksummed byte layout in the *spirit* of
JEDEC SPD (we do not replicate the full 256-byte JEDEC table; firmware only
consumes the fields below).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FirmwareError

SPD_MAGIC = 0x5D
SPD_BYTES = 16

_MODULE_TYPES = {
    "dram": 1,
    "mram": 2,
    "nvdimm": 3,
    "nand": 4,
    "tiered": 5,
}
_TYPE_NAMES = {v: k for k, v in _MODULE_TYPES.items()}


@dataclass(frozen=True)
class SpdData:
    """Decoded SPD contents of one DIMM."""

    module_type: str          # "dram" | "mram" | "nvdimm" | "nand"
    capacity_bytes: int
    speed_mt_s: int = 1333    # data rate in MT/s
    vendor: str = "GEN"       # 3-character vendor tag
    contents_preserved: bool = False  # NVM with valid saved image

    def encode(self) -> bytes:
        """Pack into the 16-byte on-EEPROM layout (with checksum)."""
        if self.module_type not in _MODULE_TYPES:
            raise FirmwareError(f"unknown module type {self.module_type!r}")
        if len(self.vendor) != 3 or not self.vendor.isascii():
            raise FirmwareError("vendor tag must be 3 ASCII characters")
        if self.capacity_bytes <= 0 or self.capacity_bytes >= 1 << 48:
            raise FirmwareError(f"capacity {self.capacity_bytes} out of range")
        body = bytearray()
        body.append(SPD_MAGIC)
        body.append(_MODULE_TYPES[self.module_type])
        body += self.capacity_bytes.to_bytes(6, "big")
        body += self.speed_mt_s.to_bytes(2, "big")
        body += self.vendor.encode("ascii")
        body.append(1 if self.contents_preserved else 0)
        body += bytes(SPD_BYTES - 1 - len(body))
        checksum = sum(body) & 0xFF
        body.append(checksum)
        return bytes(body)

    @classmethod
    def decode(cls, raw: bytes) -> "SpdData":
        """Parse and checksum-verify an SPD image."""
        if len(raw) != SPD_BYTES:
            raise FirmwareError(f"SPD image must be {SPD_BYTES} bytes, got {len(raw)}")
        if sum(raw[:-1]) & 0xFF != raw[-1]:
            raise FirmwareError("SPD checksum mismatch")
        if raw[0] != SPD_MAGIC:
            raise FirmwareError("SPD magic byte missing")
        type_code = raw[1]
        if type_code not in _TYPE_NAMES:
            raise FirmwareError(f"unknown SPD module type code {type_code}")
        return cls(
            module_type=_TYPE_NAMES[type_code],
            capacity_bytes=int.from_bytes(raw[2:8], "big"),
            speed_mt_s=int.from_bytes(raw[8:10], "big"),
            vendor=raw[10:13].decode("ascii"),
            contents_preserved=bool(raw[13]),
        )


def spd_for_device(device) -> SpdData:
    """Build the SPD a given :class:`~repro.memory.device.MemoryDevice` reports."""
    preserved = False
    if device.technology == "nvdimm":
        preserved = getattr(device, "contents_preserved", False)
    elif device.non_volatile:
        preserved = True
    return SpdData(
        module_type=device.technology,
        capacity_bytes=device.capacity_bytes,
        contents_preserved=preserved,
    )
