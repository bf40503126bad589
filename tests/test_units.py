"""Tests for unit conversions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.units import (
    CACHE_LINE_BYTES,
    GHZ,
    GIB,
    KIB,
    MHZ,
    MIB,
    cycles_to_ps,
    ms_to_ps,
    ns_to_ps,
    period_ps,
    transfer_ps,
    us_to_ps,
)


class TestTimeConversions:
    def test_scales_chain(self):
        assert us_to_ps(1) == 1_000 * ns_to_ps(1)
        assert ms_to_ps(1) == 1_000 * us_to_ps(1)

    @given(st.floats(min_value=0, max_value=1e9))
    def test_ns_to_ps_integer(self, ns):
        assert isinstance(ns_to_ps(ns), int)


class TestFrequency:
    def test_known_periods(self):
        assert period_ps(250 * MHZ) == 4_000
        assert period_ps(8 * GHZ) == 125
        assert period_ps(2 * GHZ) == 500

    def test_cycles(self):
        assert cycles_to_ps(6, 250 * MHZ) == 24_000

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            period_ps(0)


class TestBandwidth:
    def test_transfer_ps(self):
        # 3.2 GB/s moving 3.2e9 bytes takes 1 s
        assert transfer_ps(3_200_000_000, 3.2) == 10**12

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            transfer_ps(1, 0)


class TestSizes:
    def test_binary_scales(self):
        assert KIB == 1024
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB

    def test_cache_line_is_128(self):
        assert CACHE_LINE_BYTES == 128  # POWER8 / DMI operation granularity
