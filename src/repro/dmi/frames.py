"""DMI frame formats and (de)serialization.

Frames are the unit of transfer and of error recovery on the DMI channel.
Per Section 2.2 the downstream link has 14 data/command lanes and the
upstream link 21, operations are on 128-byte cache lines, and four packets
constitute one frame.  We model a frame as 16 unit intervals on every lane:

* downstream frame: 14 lanes x 16 UI = 224 bits = 28 bytes on the wire,
* upstream frame:   21 lanes x 16 UI = 336 bits = 42 bytes on the wire.

Each frame carries a 6-bit sequence ID, an optional ACK for a previously
received frame, a CRC-16, and a payload:

* downstream: at most one command header plus one 16-byte write-data chunk
  (so a full 128B write occupies 8 frames, command riding in the first);
* upstream: at most two *done* notifications plus one 32-byte read-data
  chunk (a 128B read response spans 4 data frames, then a done).

The logical packed encoding used for CRC/scrambling/error-injection is a few
bytes larger than the physical frame (we keep field encodings byte-aligned
for auditability); the *timing* model always uses the physical wire size.

Frames are immutable once built.  On a link with no error model armed the
receiver gets the very object the sender holds in its replay buffer (see
``docs/kernel.md``), so nothing may change a frame after construction: a
retransmission with a refreshed ACK is a copy (:meth:`Frame.with_ack`).
Everything ``pack()`` would reject is rejected at construction instead,
so a frame that never gets packed is still a valid one.  The classes use
``__slots__``; on the byte path they pack through a single ``b"".join``
and unpack by index instead of peeling slices.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..errors import ProtocolError
from .commands import Opcode
from .crc import append_crc, check_crc, crc16

SEQ_MOD = 64               # 6-bit frame sequence ID space
NO_ACK = 0xFF              # ack byte value meaning "no ACK in this frame"

DOWN_LANES = 14
UP_LANES = 21
FRAME_UI = 16              # unit intervals per frame, per lane

DOWN_WIRE_BYTES = DOWN_LANES * FRAME_UI // 8   # 28
UP_WIRE_BYTES = UP_LANES * FRAME_UI // 8       # 42

DOWN_DATA_CHUNK = 16       # write-data bytes per downstream frame
UP_DATA_CHUNK = 32         # read-data bytes per upstream frame

_OPCODE_CODES = {op: i for i, op in enumerate(Opcode)}
_CODE_OPCODES = {i: op for op, i in _OPCODE_CODES.items()}

#: constructors set fields through this; ``__setattr__`` refuses afterwards
_set = object.__setattr__


class _Immutable:
    """Base of the frame classes: fields are set in ``__init__`` only."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class CommandHeader(_Immutable):
    """Command portion of a downstream frame."""

    __slots__ = ("opcode", "tag", "address")

    def __init__(self, opcode: Opcode, tag: int, address: int):
        if not 0 <= address < (1 << 48):
            raise ProtocolError(f"address {address:#x} exceeds 48-bit space")
        _set(self, "opcode", opcode)
        _set(self, "tag", tag)
        _set(self, "address", address)

    def pack(self) -> bytes:
        return bytes([_OPCODE_CODES[self.opcode], self.tag]) + self.address.to_bytes(6, "big")

    @classmethod
    def unpack(cls, raw: bytes) -> "CommandHeader":
        if len(raw) != 8:
            raise ProtocolError(f"command header must be 8 bytes, got {len(raw)}")
        code = raw[0]
        if code not in _CODE_OPCODES:
            raise ProtocolError(f"unknown opcode code {code}")
        return cls(_CODE_OPCODES[code], raw[1], int.from_bytes(raw[2:8], "big"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommandHeader):
            return NotImplemented
        return (
            self.opcode is other.opcode
            and self.tag == other.tag
            and self.address == other.address
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommandHeader(opcode={self.opcode!r}, tag={self.tag!r}, "
            f"address={self.address!r})"
        )


class DataChunk(_Immutable):
    """A slice of cache-line data in flight, identified by (tag, offset)."""

    __slots__ = ("tag", "offset", "data")

    def __init__(self, tag: int, offset: int, data: bytes):
        if len(data) > 255:
            raise ProtocolError("data chunk too large to encode")
        _set(self, "tag", tag)
        _set(self, "offset", offset)  # byte offset within the 128B line
        _set(self, "data", data)

    def pack(self) -> bytes:
        return bytes([self.tag, self.offset, len(self.data)]) + self.data

    @classmethod
    def _parse(cls, buf: bytes, pos: int) -> Tuple["DataChunk", int]:
        """Decode one chunk at ``buf[pos:]``; returns (chunk, next position)."""
        if len(buf) < pos + 3:
            raise ProtocolError("truncated data chunk")
        length = buf[pos + 2]
        end = pos + 3 + length
        if len(buf) < end:
            raise ProtocolError("truncated data chunk payload")
        return cls(buf[pos], buf[pos + 1], buf[pos + 3 : end]), end

    @classmethod
    def unpack(cls, raw: bytes) -> Tuple["DataChunk", bytes]:
        chunk, end = cls._parse(raw, 0)
        return chunk, raw[end:]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataChunk):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.offset == other.offset
            and self.data == other.data
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataChunk(tag={self.tag!r}, offset={self.offset!r}, data={self.data!r})"


class DoneNotice(_Immutable):
    """Command-completion notification carried upstream."""

    __slots__ = ("tag",)

    def __init__(self, tag: int):
        _set(self, "tag", tag)

    def pack(self) -> bytes:
        return bytes([self.tag])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DoneNotice):
            return NotImplemented
        return self.tag == other.tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DoneNotice(tag={self.tag!r})"


class Frame(_Immutable):
    """Common behaviour of downstream and upstream frames."""

    __slots__ = ("seq_id", "ack_seq")

    wire_bytes: int = 0
    direction: str = ""

    def __init__(self, seq_id: int, ack_seq: Optional[int] = None):
        if not 0 <= seq_id < SEQ_MOD:
            raise ProtocolError(f"sequence ID {seq_id} outside 6-bit space")
        if ack_seq is not None and not 0 <= ack_seq < SEQ_MOD:
            raise ProtocolError(f"ACK sequence {ack_seq} outside 6-bit space")
        _set(self, "seq_id", seq_id)
        _set(self, "ack_seq", ack_seq)

    def pack(self) -> bytes:
        raise NotImplementedError

    def packed_len(self) -> int:
        """``len(self.pack())``, computed from the fields without packing."""
        raise NotImplementedError

    def with_ack(self, ack_seq: Optional[int]) -> "Frame":
        """A copy of this frame carrying ``ack_seq`` as its piggybacked ACK."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ack = f" ack={self.ack_seq}" if self.ack_seq is not None else ""
        return f"<{type(self).__name__} seq={self.seq_id}{ack}>"


def _check_framed(framed: bytes, kind: int, what: str) -> bytes:
    """CRC-check a packed frame in one pass; returns the body (CRC stripped)."""
    raw = framed[:-2]
    if len(framed) < 2:
        raise ProtocolError(f"{what} failed CRC")
    expect = crc16(raw)
    if framed[-2] != expect >> 8 or framed[-1] != expect & 0xFF:
        raise ProtocolError(f"{what} failed CRC")
    if len(raw) < 4 or raw[0] != kind:
        raise ProtocolError(f"not a {what}")
    return raw


class DownstreamFrame(Frame):
    """Processor -> buffer frame: optional command + optional write-data chunk."""

    __slots__ = ("command", "chunk")

    KIND = 0xD0
    wire_bytes = DOWN_WIRE_BYTES
    direction = "downstream"

    def __init__(
        self,
        seq_id: int,
        ack_seq: Optional[int] = None,
        command: Optional[CommandHeader] = None,
        chunk: Optional[DataChunk] = None,
    ):
        super().__init__(seq_id, ack_seq)
        if chunk is not None and len(chunk.data) > DOWN_DATA_CHUNK:
            raise ProtocolError(
                f"downstream chunk of {len(chunk.data)}B exceeds {DOWN_DATA_CHUNK}B"
            )
        _set(self, "command", command)
        _set(self, "chunk", chunk)

    @property
    def is_idle(self) -> bool:
        return self.command is None and self.chunk is None

    def packed_len(self) -> int:
        # kind/seq/ack/flags + [command] + [chunk header + data] + CRC
        n = 6 if self.command is None else 14
        chunk = self.chunk
        return n if chunk is None else n + 3 + len(chunk.data)

    def with_ack(self, ack_seq: Optional[int]) -> "DownstreamFrame":
        return DownstreamFrame(self.seq_id, ack_seq, self.command, self.chunk)

    def pack(self) -> bytes:
        command, chunk = self.command, self.chunk
        ack = NO_ACK if self.ack_seq is None else self.ack_seq
        flags = (1 if command else 0) | (2 if chunk else 0)
        parts = [bytes((self.KIND, self.seq_id, ack, flags))]
        if command:
            parts.append(command.pack())
        if chunk:
            parts.append(chunk.pack())
        return append_crc(b"".join(parts))

    @classmethod
    def unpack(cls, framed: bytes) -> "DownstreamFrame":
        raw = _check_framed(framed, cls.KIND, "downstream frame")
        flags = raw[3]
        ack_byte = raw[2]
        pos = 4
        command = None
        if flags & 1:
            command = CommandHeader.unpack(raw[4:12])
            pos = 12
        chunk = None
        if flags & 2:
            chunk, pos = DataChunk._parse(raw, pos)
        if pos != len(raw):
            raise ProtocolError("trailing bytes in downstream frame")
        return cls(raw[1], None if ack_byte == NO_ACK else ack_byte, command, chunk)


class UpstreamFrame(Frame):
    """Buffer -> processor frame: up to two dones + optional read-data chunk."""

    __slots__ = ("dones", "chunk")

    KIND = 0xD1
    wire_bytes = UP_WIRE_BYTES
    direction = "upstream"

    def __init__(
        self,
        seq_id: int,
        ack_seq: Optional[int] = None,
        dones: Optional[Sequence[DoneNotice]] = None,
        chunk: Optional[DataChunk] = None,
    ):
        super().__init__(seq_id, ack_seq)
        dones = tuple(dones) if dones else ()
        if len(dones) > 2:
            raise ProtocolError("an upstream frame carries at most two dones")
        if chunk is not None and len(chunk.data) > UP_DATA_CHUNK:
            raise ProtocolError(
                f"upstream chunk of {len(chunk.data)}B exceeds {UP_DATA_CHUNK}B"
            )
        _set(self, "dones", dones)
        _set(self, "chunk", chunk)

    @property
    def is_idle(self) -> bool:
        return not self.dones and self.chunk is None

    def packed_len(self) -> int:
        # kind/seq/ack/n_dones + dones + has_chunk + [chunk header + data] + CRC
        n = 7 + len(self.dones)
        chunk = self.chunk
        return n if chunk is None else n + 3 + len(chunk.data)

    def with_ack(self, ack_seq: Optional[int]) -> "UpstreamFrame":
        return UpstreamFrame(self.seq_id, ack_seq, self.dones, self.chunk)

    def pack(self) -> bytes:
        dones, chunk = self.dones, self.chunk
        ack = NO_ACK if self.ack_seq is None else self.ack_seq
        head = bytearray((self.KIND, self.seq_id, ack, len(dones)))
        for done in dones:
            head.append(done.tag)
        head.append(1 if chunk else 0)
        body = bytes(head) + chunk.pack() if chunk else bytes(head)
        return append_crc(body)

    @classmethod
    def unpack(cls, framed: bytes) -> "UpstreamFrame":
        raw = _check_framed(framed, cls.KIND, "upstream frame")
        ack_byte = raw[2]
        n_dones = raw[3]
        if len(raw) < 4 + n_dones + 1:
            raise ProtocolError("truncated upstream frame")
        dones = tuple(DoneNotice(raw[4 + i]) for i in range(n_dones))
        pos = 4 + n_dones
        has_chunk = raw[pos]
        pos += 1
        chunk = None
        if has_chunk:
            chunk, pos = DataChunk._parse(raw, pos)
        if pos != len(raw):
            raise ProtocolError("trailing bytes in upstream frame")
        return cls(raw[1], None if ack_byte == NO_ACK else ack_byte, dones, chunk)


class TrainingFrame(Frame):
    """Signature frame used during link training to measure FRTL.

    The processor and the buffer each transmit frames with specific
    signatures and compute the latency between two such frames
    (Section 2.3).  Training frames sit outside the sequence/ACK machinery:
    they carry a signature ID instead of participating in replay.
    """

    __slots__ = ("signature", "echoed")

    KIND = 0xD2
    wire_bytes = DOWN_WIRE_BYTES  # same 16 UI cadence in either direction
    direction = "training"

    def __init__(self, signature: int, echoed: bool = False):
        super().__init__(seq_id=0, ack_seq=None)
        if not 0 <= signature < (1 << 16):
            raise ProtocolError(f"training signature {signature} exceeds 16 bits")
        _set(self, "signature", signature)
        _set(self, "echoed", echoed)

    def packed_len(self) -> int:
        return 8  # kind/seq/ack/echoed + 16-bit signature + CRC

    def pack(self) -> bytes:
        body = bytes([self.KIND, 0, NO_ACK, 1 if self.echoed else 0])
        body += self.signature.to_bytes(2, "big")
        return append_crc(body)

    @classmethod
    def unpack(cls, framed: bytes) -> "TrainingFrame":
        if not check_crc(framed):
            raise ProtocolError("training frame failed CRC")
        raw = framed[:-2]
        if len(raw) != 6 or raw[0] != cls.KIND:
            raise ProtocolError("not a training frame")
        return cls(int.from_bytes(raw[4:6], "big"), echoed=bool(raw[3]))


def next_seq(seq: int) -> int:
    """The sequence ID following ``seq`` (wraps at :data:`SEQ_MOD`)."""
    return (seq + 1) % SEQ_MOD


def seq_distance(older: int, newer: int) -> int:
    """Frames from ``older`` (exclusive) to ``newer`` (inclusive), mod wrap."""
    return (newer - older) % SEQ_MOD
