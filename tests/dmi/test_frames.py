"""Tests for DMI frame formats and serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dmi import Opcode
from repro.errors import ProtocolError
from repro.dmi.frames import (
    DOWN_DATA_CHUNK,
    DOWN_WIRE_BYTES,
    SEQ_MOD,
    UP_DATA_CHUNK,
    UP_WIRE_BYTES,
    CommandHeader,
    DataChunk,
    DoneNotice,
    DownstreamFrame,
    TrainingFrame,
    UpstreamFrame,
    next_seq,
    seq_distance,
)


class TestWireGeometry:
    def test_downstream_wire_size(self):
        # 14 lanes x 16 UI = 224 bits = 28 bytes (Section 2.2)
        assert DOWN_WIRE_BYTES == 28

    def test_upstream_wire_size(self):
        # 21 lanes x 16 UI = 336 bits = 42 bytes
        assert UP_WIRE_BYTES == 42

    def test_cache_line_fits_in_eight_down_chunks(self):
        assert 128 // DOWN_DATA_CHUNK == 8

    def test_cache_line_fits_in_four_up_chunks(self):
        assert 128 // UP_DATA_CHUNK == 4


class TestSequenceArithmetic:
    def test_next_seq_wraps(self):
        assert next_seq(SEQ_MOD - 1) == 0
        assert next_seq(0) == 1

    def test_seq_distance(self):
        assert seq_distance(0, 5) == 5
        assert seq_distance(60, 2) == 6
        assert seq_distance(5, 5) == 0

    @given(st.integers(0, SEQ_MOD - 1), st.integers(0, SEQ_MOD - 1))
    def test_distance_inverse_of_advance(self, start, hops):
        seq = start
        for _ in range(hops):
            seq = next_seq(seq)
        assert seq_distance(start, seq) == hops


class TestCommandHeader:
    def test_roundtrip(self):
        header = CommandHeader(Opcode.READ, 17, 0x1234_5680)
        assert CommandHeader.unpack(header.pack()) == header

    @given(
        st.sampled_from(list(Opcode)),
        st.integers(0, 31),
        st.integers(0, 2**48 - 1),
    )
    def test_roundtrip_property(self, op, tag, addr):
        header = CommandHeader(op, tag, addr)
        assert CommandHeader.unpack(header.pack()) == header

    def test_oversized_address_rejected(self):
        with pytest.raises(ProtocolError):
            CommandHeader(Opcode.READ, 0, 1 << 48).pack()

    def test_bad_opcode_code_rejected(self):
        raw = bytearray(CommandHeader(Opcode.READ, 0, 0).pack())
        raw[0] = 0xEE
        with pytest.raises(ProtocolError):
            CommandHeader.unpack(bytes(raw))


class TestDownstreamFrame:
    def test_idle_roundtrip(self):
        frame = DownstreamFrame(seq_id=3, ack_seq=7)
        out = DownstreamFrame.unpack(frame.pack())
        assert out.seq_id == 3
        assert out.ack_seq == 7
        assert out.is_idle

    def test_no_ack_roundtrip(self):
        out = DownstreamFrame.unpack(DownstreamFrame(seq_id=0).pack())
        assert out.ack_seq is None

    def test_command_and_chunk_roundtrip(self):
        frame = DownstreamFrame(
            seq_id=9,
            ack_seq=None,
            command=CommandHeader(Opcode.WRITE, 4, 0x8000),
            chunk=DataChunk(4, 0, bytes(range(16))),
        )
        out = DownstreamFrame.unpack(frame.pack())
        assert out.command == CommandHeader(Opcode.WRITE, 4, 0x8000)
        assert out.chunk.data == bytes(range(16))
        assert out.chunk.offset == 0

    def test_oversized_chunk_rejected(self):
        with pytest.raises(ProtocolError):
            DownstreamFrame(0, chunk=DataChunk(0, 0, bytes(DOWN_DATA_CHUNK + 1)))

    def test_corruption_detected(self):
        packed = bytearray(DownstreamFrame(1, 2).pack())
        packed[1] ^= 0x04
        with pytest.raises(ProtocolError):
            DownstreamFrame.unpack(bytes(packed))

    def test_bad_seq_rejected(self):
        with pytest.raises(ProtocolError):
            DownstreamFrame(seq_id=SEQ_MOD)

    @given(
        st.integers(0, SEQ_MOD - 1),
        st.one_of(st.none(), st.integers(0, SEQ_MOD - 1)),
        st.integers(0, 31),
        st.integers(0, 7),
        st.binary(min_size=16, max_size=16),
    )
    def test_chunk_roundtrip_property(self, seq, ack, tag, chunk_no, data):
        frame = DownstreamFrame(seq, ack, chunk=DataChunk(tag, chunk_no * 16, data))
        out = DownstreamFrame.unpack(frame.pack())
        assert (out.seq_id, out.ack_seq) == (seq, ack)
        assert (out.chunk.tag, out.chunk.offset, out.chunk.data) == (tag, chunk_no * 16, data)


class TestUpstreamFrame:
    def test_data_and_done_roundtrip(self):
        frame = UpstreamFrame(
            seq_id=11,
            ack_seq=5,
            dones=[DoneNotice(7)],
            chunk=DataChunk(7, 96, bytes(range(32))),
        )
        out = UpstreamFrame.unpack(frame.pack())
        assert [d.tag for d in out.dones] == [7]
        assert out.chunk.data == bytes(range(32))

    def test_two_dones(self):
        frame = UpstreamFrame(0, dones=[DoneNotice(1), DoneNotice(2)])
        out = UpstreamFrame.unpack(frame.pack())
        assert [d.tag for d in out.dones] == [1, 2]

    def test_three_dones_rejected(self):
        with pytest.raises(ProtocolError):
            UpstreamFrame(0, dones=[DoneNotice(i) for i in range(3)])

    def test_oversized_chunk_rejected(self):
        with pytest.raises(ProtocolError):
            UpstreamFrame(0, chunk=DataChunk(0, 0, bytes(UP_DATA_CHUNK + 1)))

    def test_downstream_frame_not_accepted(self):
        packed = DownstreamFrame(0).pack()
        with pytest.raises(ProtocolError):
            UpstreamFrame.unpack(packed)


class TestTrainingFrame:
    def test_roundtrip(self):
        out = TrainingFrame.unpack(TrainingFrame(0xA503).pack())
        assert out.signature == 0xA503
        assert not out.echoed

    def test_echo_flag(self):
        out = TrainingFrame.unpack(TrainingFrame(7, echoed=True).pack())
        assert out.echoed


_HEADER = CommandHeader(Opcode.WRITE, 4, 0x8000)
_DOWN_CHUNK = DataChunk(4, 16, bytes(range(DOWN_DATA_CHUNK)))
_UP_CHUNK = DataChunk(4, 96, bytes(range(UP_DATA_CHUNK)))


class TestPackedLen:
    """The clean-link object path advances the lane LFSRs by
    ``packed_len()``; it must equal the length ``pack()`` produces."""

    @pytest.mark.parametrize(
        "frame",
        [
            DownstreamFrame(0),
            DownstreamFrame(1, 2),
            DownstreamFrame(3, command=_HEADER),
            DownstreamFrame(4, command=CommandHeader(Opcode.READ, 0, 0)),
            DownstreamFrame(5, 6, chunk=_DOWN_CHUNK),
            DownstreamFrame(7, command=_HEADER, chunk=_DOWN_CHUNK),
            DownstreamFrame(8, chunk=DataChunk(0, 0, b"")),
            UpstreamFrame(0),
            UpstreamFrame(1, 2),
            UpstreamFrame(3, dones=[DoneNotice(1)]),
            UpstreamFrame(4, dones=[DoneNotice(1), DoneNotice(2)]),
            UpstreamFrame(5, chunk=_UP_CHUNK),
            UpstreamFrame(6, 7, dones=[DoneNotice(4)], chunk=_UP_CHUNK),
            UpstreamFrame(8, dones=[DoneNotice(1), DoneNotice(2)], chunk=_UP_CHUNK),
            TrainingFrame(0xA503),
            TrainingFrame(7, echoed=True),
        ],
    )
    def test_every_frame_shape(self, frame):
        assert frame.packed_len() == len(frame.pack())

    def test_with_ack_copy_keeps_payload(self):
        frame = UpstreamFrame(9, 1, dones=[DoneNotice(4)], chunk=_UP_CHUNK)
        out = frame.with_ack(33)
        assert out is not frame and frame.ack_seq == 1
        assert (out.seq_id, out.ack_seq) == (9, 33)
        assert out.pack() == UpstreamFrame(9, 33, [DoneNotice(4)], _UP_CHUNK).pack()

    def test_checks_run_without_packing(self):
        # the object path never packs, so construction enforces the limits
        with pytest.raises(ProtocolError):
            CommandHeader(Opcode.READ, 0, 1 << 48)
        with pytest.raises(ProtocolError):
            DataChunk(0, 0, bytes(256))
