"""Lane scrambling for the DMI high-speed serial channel.

High-speed SerDes links scramble transmitted bits to guarantee transition
density for clock recovery and to spread spectral energy.  This matters to
ConTutto specifically: the FPGA's receivers recover the sampling clock from
the data (CDR), unlike Centaur's forwarded-clock capture, so the data stream
must keep transitioning (Section 3.2).

We implement the PCIe-style additive LFSR scrambler, polynomial
x^23 + x^21 + x^16 + x^8 + x^5 + x^2 + 1, seeded per lane so each lane's
keystream differs.  Scrambling is an involution when transmitter and
receiver streams are synchronized: ``descramble(scramble(x)) == x``, and a
bit error in transit stays a single-bit error (additive scramblers do not
multiply errors — important for the CRC/replay behaviour to be realistic).

Performance
-----------
Scrambling runs twice per frame on every wire transfer, which made the
bit-serial LFSR the single hottest code in the whole simulator (~48
interpreted operations per wire byte; see ``benchmarks/BENCH_kernel.json``).
The hot path is therefore table-driven: the 8-step state transition and the
output byte are both GF(2)-linear in the 23-bit state, so three 256-entry
tables (one per state byte) advance the LFSR a whole byte per lookup, lane
keystreams are generated in cached blocks, and frames are XORed against the
keystream with single big-int operations.  The tables are built on first
use, not at import: clean links never generate keystream.  The historical
bit-serial ``next_bit`` / ``next_byte`` steps survive only as the golden
reference in ``tests/dmi/test_scrambler_golden.py``, which proves both
paths emit identical keystreams, byte for byte.
"""

from __future__ import annotations

from functools import lru_cache

LFSR_WIDTH = 23
LFSR_TAPS = (23, 21, 16, 8, 5, 2)  # feedback taps, x^0 implied
LFSR_SEED_BASE = 0x3C_5A71  # arbitrary nonzero base; lane index is mixed in

_LFSR_MASK = (1 << LFSR_WIDTH) - 1


def _step_bits(state: int, nbits: int) -> tuple:
    """Bit-serial LFSR walk: advance ``state`` by ``nbits``; return (state, out).

    Output bits are packed LSB-first (the first output bit is bit 0).  Only
    the table builder below calls it; the hot path never steps bits.
    """
    out = 0
    for i in range(nbits):
        bit = 0
        for tap in LFSR_TAPS:
            bit ^= (state >> (tap - 1)) & 1
        state = ((state << 1) | bit) & _LFSR_MASK
        out |= bit << i
    return state, out


@lru_cache(maxsize=None)
def _byte_tables(nbits: int) -> tuple:
    """Per-state-byte tables advancing the LFSR ``nbits`` bits per lookup.

    The ``nbits``-step map ``state -> (state', output_bits)`` is
    GF(2)-linear, so the images of the three state bytes XOR together to the
    full-state image.  Each entry packs ``(state' << nbits) | output_bits``
    — XOR distributes over the packed fields, so one XOR chain combines
    both at once.

    Built once, on first use: ``nbits=8`` for a block's odd trailing byte,
    ``nbits=16`` for the two-bytes-per-lookup loop.  Clean links never
    generate keystream (their lanes advance by a lazy skip tally), so a
    run without an armed error model never builds them.
    """
    tables = []
    for byte_index in range(3):
        table = []
        for value in range(256):
            state, out = _step_bits((value << (8 * byte_index)) & _LFSR_MASK, nbits)
            table.append((state << nbits) | out)
        tables.append(tuple(table))
    return tuple(tables)


class LfsrStream:
    """A deterministic keystream generator for one lane."""

    def __init__(self, lane: int, seed_base: int = LFSR_SEED_BASE):
        seed = (seed_base ^ (lane * 0x9E37)) & _LFSR_MASK
        if seed == 0:
            seed = 1  # an all-zero LFSR state is a fixed point; avoid it
        self.state = seed

    def skip_bytes(self, nbytes: int) -> None:
        """Advance the state past ``nbytes`` output bytes, discarding them.

        Same table walk as :meth:`next_block` minus the output stores — the
        lazy-skip path uses it when keystream bytes were never observed.
        """
        state = self.state
        tab0, tab1, tab2 = _byte_tables(16)
        for _ in range(nbytes >> 1):
            state = (
                tab0[state & 0xFF] ^ tab1[(state >> 8) & 0xFF] ^ tab2[state >> 16]
            ) >> 16
        if nbytes & 1:
            tab0, tab1, tab2 = _byte_tables(8)
            state = (
                tab0[state & 0xFF] ^ tab1[(state >> 8) & 0xFF] ^ tab2[state >> 16]
            ) >> 8
        self.state = state

    def next_block(self, nbytes: int) -> bytes:
        """Table-driven fast path: ``nbytes`` keystream bytes in one call.

        Advances ``self.state`` and emits exactly what ``8 * nbytes``
        bit-serial LFSR steps would — one packed table lookup per byte
        instead of 48 interpreted bit operations.
        """
        state = self.state
        out = bytearray(nbytes)
        tab0, tab1, tab2 = _byte_tables(16)
        for i in range(0, nbytes - 1, 2):
            packed = tab0[state & 0xFF] ^ tab1[(state >> 8) & 0xFF] ^ tab2[state >> 16]
            state = packed >> 16
            out[i] = packed & 0xFF
            out[i + 1] = (packed >> 8) & 0xFF
        if nbytes & 1:
            tab0, tab1, tab2 = _byte_tables(8)
            packed = tab0[state & 0xFF] ^ tab1[(state >> 8) & 0xFF] ^ tab2[state >> 16]
            state = packed >> 8
            out[nbytes - 1] = packed & 0xFF
        self.state = state
        return bytes(out)


class LaneScrambler:
    """Scrambles/descrambles the byte stream crossing one serial lane.

    Transmitter and receiver each hold one of these with the same lane index;
    as long as they stay frame-synchronized (which link training establishes)
    their keystreams match.  Keystream is generated in cached blocks so the
    per-frame cost is a buffer slice, not an LFSR step per byte.
    """

    #: keystream bytes generated per buffer refill
    BLOCK_BYTES = 1024

    def __init__(self, lane: int, seed_base: int = LFSR_SEED_BASE):
        self.lane = lane
        self.seed_base = seed_base
        self._stream = LfsrStream(lane, seed_base)
        self._buffer = b""
        self._pos = 0

    def keystream(self, nbytes: int) -> bytes:
        """Consume the next ``nbytes`` of this lane's keystream."""
        buffer, pos = self._buffer, self._pos
        end = pos + nbytes
        if end <= len(buffer):
            self._pos = end
            return buffer[pos:end]
        tail = buffer[pos:]
        need = nbytes - len(tail)
        block = self._stream.next_block(max(need, self.BLOCK_BYTES))
        self._buffer = block
        self._pos = need
        return tail + block[:need] if tail else block[:need]

    def skip(self, nbytes: int) -> None:
        """Advance past ``nbytes`` of keystream without materializing it."""
        pos = self._pos + nbytes
        if pos <= len(self._buffer):
            self._pos = pos
        else:
            self._stream.skip_bytes(pos - len(self._buffer))
            self._buffer = b""
            self._pos = 0

    def process(self, data: bytes) -> bytes:
        """XOR ``data`` with the lane keystream (same op scrambles and descrambles)."""
        n = len(data)
        if n == 0:
            return b""
        key = int.from_bytes(self.keystream(n), "little")
        return (int.from_bytes(data, "little") ^ key).to_bytes(n, "little")

    def resync(self) -> None:
        """Reset the keystream to the start-of-training state."""
        self._stream = LfsrStream(self.lane, self.seed_base)
        self._buffer = b""
        self._pos = 0


class BundleScrambler:
    """Scrambler state for a whole lane bundle, byte-striped across lanes.

    Frames are serialized to bytes and striped round-robin across the lanes of
    the bundle, mirroring how 16 UI of each physical lane make up one frame.
    """

    def __init__(self, num_lanes: int, seed_base: int = LFSR_SEED_BASE):
        if num_lanes <= 0:
            raise ValueError(f"lane bundle needs at least one lane, got {num_lanes}")
        self.num_lanes = num_lanes
        self._lanes = [LaneScrambler(i, seed_base) for i in range(num_lanes)]
        #: frames skipped lazily, tallied as {frame_length: count}
        self._pending_skips: dict = {}

    def keystream_frame(self, n: int) -> bytes:
        """The next ``n`` striped keystream bytes (advances every lane used).

        Byte ``i`` meets lane ``i % num_lanes``; each lane consumes exactly
        the keystream bytes its stripe positions demand, so per-lane stream
        state stays identical to the historical byte-at-a-time loop.
        """
        if n == 0:
            return b""
        if self._pending_skips:
            self._reify_skips()
        num = self.num_lanes
        lanes = self._lanes
        if num == 1:
            key = self._lanes[0].keystream(n)
        elif n <= num:
            # Short frame: one keystream byte from each of the first n lanes.
            # Integer indexing beats building n one-byte slices.
            striped = bytearray(n)
            for lane_index in range(n):
                lane = lanes[lane_index]
                pos = lane._pos
                buffer = lane._buffer
                if pos < len(buffer):
                    lane._pos = pos + 1
                    striped[lane_index] = buffer[pos]
                else:
                    striped[lane_index] = lane.keystream(1)[0]
            key = striped
        else:
            striped = bytearray(n)
            base, rem = divmod(n, num)
            for lane_index, lane in enumerate(lanes):
                count = base + 1 if lane_index < rem else base
                # Inlined LaneScrambler.keystream buffer hit: with 14-21
                # lanes per bundle this runs per lane per frame, and the
                # method call + refill bookkeeping dominate otherwise.
                pos = lane._pos
                end = pos + count
                buffer = lane._buffer
                if end <= len(buffer):
                    lane._pos = end
                    striped[lane_index::num] = buffer[pos:end]
                else:
                    striped[lane_index::num] = lane.keystream(count)
            key = striped
        return bytes(key)

    def skip_frame(self, n: int) -> None:
        """Advance every lane past one ``n``-byte frame without building the
        striped keystream.

        The link uses this on clean frames, where additive scrambling
        provably cancels end to end and the keystream bytes are never
        observed.  Skips are lazy: a lane's state after skipping depends
        only on its *total* skipped byte count, not the frame interleave,
        so this just tallies ``{frame_length: frames}`` — O(1) per frame —
        and :meth:`_reify_skips` settles the totals into lane state in the
        rare case the keystream is needed again (fault injection arming an
        error model mid-run).
        """
        if n:
            pending = self._pending_skips
            pending[n] = pending.get(n, 0) + 1

    def _reify_skips(self) -> None:
        """Fold pending skipped frames into per-lane stream state, leaving
        every lane byte-identical to having generated the keystream."""
        num = self.num_lanes
        lanes = self._lanes
        for n, times in self._pending_skips.items():
            base, rem = divmod(n, num)
            for lane_index, lane in enumerate(lanes):
                count = (base + 1 if lane_index < rem else base) * times
                if count == 0:
                    break  # stripe counts only step down once, at lane rem
                lane.skip(count)
        self._pending_skips.clear()

    def process(self, data: bytes) -> bytes:
        """Scramble (or descramble) a serialized frame, striped across lanes."""
        n = len(data)
        if n == 0:
            return b""
        return (
            int.from_bytes(data, "little") ^ int.from_bytes(self.keystream_frame(n), "little")
        ).to_bytes(n, "little")

    def resync(self) -> None:
        self._pending_skips.clear()
        for lane in self._lanes:
            lane.resync()
