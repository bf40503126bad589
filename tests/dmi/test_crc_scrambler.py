"""Tests for CRC-16 and lane scrambling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dmi.crc import CRC16_INIT, CRC16_POLY, append_crc, check_crc, crc16
from repro.dmi.scrambler import BundleScrambler, LaneScrambler, LfsrStream


def crc16_bitwise(data: bytes, init: int = CRC16_INIT) -> int:
    """Bit-serial reference implementation (used to cross-check the table)."""
    crc = init
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ CRC16_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


class TestCrc16:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1
        assert crc16(b"123456789") == 0x29B1

    def test_empty_input(self):
        assert crc16(b"") == 0xFFFF

    @given(st.binary(min_size=0, max_size=200))
    def test_table_matches_bitwise(self, data):
        assert crc16(data) == crc16_bitwise(data)

    @given(st.binary(min_size=1, max_size=100))
    def test_append_check_roundtrip(self, data):
        assert check_crc(append_crc(data))

    @given(st.binary(min_size=1, max_size=100), st.integers(min_value=0))
    def test_single_bit_flip_always_detected(self, data, bit_seed):
        framed = bytearray(append_crc(data))
        bit = bit_seed % (len(framed) * 8)
        framed[bit // 8] ^= 1 << (bit % 8)
        assert not check_crc(bytes(framed))

    def test_too_short_rejected(self):
        assert not check_crc(b"")
        assert not check_crc(b"\x01")


class TestLfsr:
    def test_stream_is_deterministic(self):
        assert LfsrStream(3).next_block(32) == LfsrStream(3).next_block(32)

    def test_lanes_have_different_streams(self):
        assert LfsrStream(0).next_block(16) != LfsrStream(1).next_block(16)

    def test_stream_has_transitions(self):
        # the point of scrambling: the keystream is never stuck at 0 or 255
        produced = set(LfsrStream(0).next_block(256))
        assert len(produced) > 32


class TestLaneScrambler:
    @given(st.binary(min_size=0, max_size=300))
    def test_scramble_descramble_roundtrip(self, data):
        tx, rx = LaneScrambler(2), LaneScrambler(2)
        assert rx.process(tx.process(data)) == data

    def test_multiple_frames_stay_synchronized(self):
        tx, rx = LaneScrambler(0), LaneScrambler(0)
        for i in range(20):
            frame = bytes([i] * (10 + i))
            assert rx.process(tx.process(frame)) == frame

    def test_resync_restores_alignment(self):
        tx, rx = LaneScrambler(0), LaneScrambler(0)
        tx.process(b"desync me")  # tx advances, rx does not
        tx.resync()
        rx.resync()
        assert rx.process(tx.process(b"hello")) == b"hello"

    def test_scrambled_differs_from_plaintext(self):
        tx = LaneScrambler(0)
        data = bytes(64)
        assert tx.process(data) != data


class TestBundleScrambler:
    @given(st.binary(min_size=0, max_size=200))
    def test_bundle_roundtrip(self, data):
        tx, rx = BundleScrambler(14), BundleScrambler(14)
        assert rx.process(tx.process(data)) == data

    def test_bit_error_stays_single_bit(self):
        # additive scrambling must not multiply errors
        tx, rx = BundleScrambler(14), BundleScrambler(14)
        data = bytes(range(56))
        wire = bytearray(tx.process(data))
        wire[10] ^= 0x01
        received = rx.process(bytes(wire))
        diff = [i for i in range(len(data)) if received[i] != data[i]]
        assert diff == [10]
        assert received[10] ^ data[10] == 0x01

    def test_zero_lanes_rejected(self):
        with pytest.raises(ValueError):
            BundleScrambler(0)
