"""CRC for DMI frame protection.

The paper states both upstream and downstream frames are protected with a
"strong cyclic redundancy check".  The POWER8 memory-buffer manual does not
publish the exact polynomial, so we use CRC-16/CCITT-FALSE (polynomial
0x1021, init 0xFFFF) — a standard 16-bit CRC of the same strength class.
What the experiments exercise is the *behaviour*: any corrupted frame fails
its check and triggers replay, and an intact frame never does.

The implementation is table-driven because frames are checked on every
transfer in protocol-level simulations; the bit-serial reference it is
checked against lives in ``tests/dmi/test_crc_scrambler.py``.
"""

from __future__ import annotations

from typing import List

CRC16_POLY = 0x1021
CRC16_INIT = 0xFFFF


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ CRC16_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_TABLE = _build_table()


def _advance16(crc: int) -> int:
    """Advance the CRC register by 16 zero bits (two byte-table steps)."""
    table = _TABLE
    crc = ((crc << 8) & 0xFFFF) ^ table[crc >> 8]
    return ((crc << 8) & 0xFFFF) ^ table[crc >> 8]


# Pair tables: one byte-table step is ``step(crc, b) == advance8(crc ^ (b << 8))``
# (the incoming byte XORs into the top of the register before it shifts out),
# so two steps collapse to ``advance16(crc ^ (b0 << 8) ^ b1)`` and advance16
# splits per register byte because it is GF(2)-linear.  Frames are checked on
# every wire transfer, so crc16 consumes two message bytes per loop iteration.
_PAIR_HI = tuple(_advance16(v << 8) for v in range(256))
_PAIR_LO = tuple(_advance16(v) for v in range(256))


def crc16(data: bytes, init: int = CRC16_INIT) -> int:
    """CRC-16/CCITT-FALSE over ``data``."""
    crc = init
    hi, lo = _PAIR_HI, _PAIR_LO  # local bindings: this runs twice per frame
    for i in range(0, len(data) - 1, 2):
        x = crc ^ (data[i] << 8) ^ data[i + 1]
        crc = hi[x >> 8] ^ lo[x & 0xFF]
    if len(data) & 1:
        crc = ((crc << 8) & 0xFFFF) ^ _TABLE[((crc >> 8) ^ data[-1]) & 0xFF]
    return crc


def append_crc(data: bytes) -> bytes:
    """Return ``data`` with its big-endian CRC-16 appended."""
    crc = crc16(data)
    return data + bytes([(crc >> 8) & 0xFF, crc & 0xFF])


def check_crc(framed: bytes) -> bool:
    """Verify a buffer produced by :func:`append_crc`.

    Checking a CRC-appended message yields a fixed residue; comparing against
    a recomputed CRC keeps the code obvious.
    """
    if len(framed) < 2:
        return False
    expect = crc16(framed[:-2])
    return framed[-2] == (expect >> 8) & 0xFF and framed[-1] == expect & 0xFF
