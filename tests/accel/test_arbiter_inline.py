"""Tests for the in-line accelerator lane-packing helpers."""

import pytest

from repro.accel import pack_lanes, unpack_lanes
from repro.errors import AccelError


class TestLanePacking:
    def test_roundtrip(self):
        values = list(range(-16, 16))
        assert unpack_lanes(pack_lanes(values)) == values

    def test_wrong_count_rejected(self):
        with pytest.raises(AccelError):
            pack_lanes([1, 2, 3])

    def test_line_is_128_bytes(self):
        assert len(pack_lanes([0] * 32)) == 128
