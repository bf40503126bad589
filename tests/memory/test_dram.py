"""Tests for the DDR3 DRAM timing model."""

import pytest

from repro.errors import AlignmentError
from repro.memory import DDR3_1066, DDR3_1333, DDR3_1600, DdrDram
from repro.units import MIB


def fresh_dram(timing=DDR3_1333, refresh=False):
    return DdrDram(64 * MIB, timing, refresh_enabled=refresh)


class TestRowBuffer:
    def test_first_access_is_row_miss(self):
        dram = fresh_dram()
        dram.read(0, 128, 0)
        assert dram.row_misses == 1
        assert dram.row_hits == 0

    def test_same_row_access_is_hit(self):
        dram = fresh_dram()
        _, t1 = dram.read(0, 128, 0)
        dram.read(128, 128, t1)
        assert dram.row_hits == 1

    def test_conflict_requires_precharge(self):
        dram = fresh_dram()
        row_span = DdrDram.ROW_BYTES * DdrDram.NUM_BANKS  # same bank, next row
        _, t1 = dram.read(0, 128, 0)
        dram.read(row_span, 128, t1)
        assert dram.row_conflicts == 1

    def test_hit_is_faster_than_miss_is_faster_than_conflict(self):
        t = DDR3_1333
        row_span = DdrDram.ROW_BYTES * DdrDram.NUM_BANKS

        dram = fresh_dram()
        _, warm = dram.read(0, 128, 0)

        start = warm + t.tras_ps  # past any tRAS constraint
        _, hit_end = dram.read(128, 128, start)
        hit = hit_end - start

        dram2 = fresh_dram()
        _, miss_end = dram2.read(0, 128, 0)
        miss = miss_end - 0

        dram3 = fresh_dram()
        _, w = dram3.read(0, 128, 0)
        conflict_start = w + t.tras_ps
        _, conf_end = dram3.read(row_span, 128, conflict_start)
        conflict = conf_end - conflict_start

        assert hit < miss < conflict

    def test_hit_latency_is_cas_plus_burst(self):
        t = DDR3_1333
        dram = fresh_dram()
        _, warm = dram.read(0, 128, 0)
        start = warm + t.tras_ps
        _, end = dram.read(128, 128, start)
        assert end - start == t.cas_ps + t.burst_ps(128)

    def test_bank_parallelism(self):
        # accesses to two different banks overlap except for data-bus sharing
        dram = fresh_dram()
        _, t_a = dram.read(0, 128, 0)
        _, t_b = dram.read(DdrDram.ROW_BYTES, 128, 0)  # next bank
        serial_estimate = 2 * t_a
        assert t_b < serial_estimate


class TestTimingGrades:
    def test_faster_grade_lower_latency(self):
        def cold_read(timing):
            dram = DdrDram(64 * MIB, timing, refresh_enabled=False)
            _, end = dram.read(0, 128, 0)
            return end

        assert cold_read(DDR3_1600) < cold_read(DDR3_1333) < cold_read(DDR3_1066)

    def test_burst_time_128b(self):
        # 128 bytes = 16 beats = 8 clocks
        assert DDR3_1333.burst_ps(128) == 8 * DDR3_1333.tck_ps


class TestRefresh:
    def test_refresh_window_stalls_access(self):
        timing = DDR3_1333
        dram = DdrDram(64 * MIB, timing, refresh_enabled=True)
        inside_window = timing.trefi_ps - timing.trfc_ps + 1_000
        _, end = dram.read(0, 128, inside_window)
        assert end >= timing.trefi_ps
        assert dram.refresh_stalls == 1

    def test_no_stall_outside_window(self):
        dram = DdrDram(64 * MIB, DDR3_1333, refresh_enabled=True)
        dram.read(0, 128, 1_000)
        assert dram.refresh_stalls == 0

    def test_refresh_disabled(self):
        timing = DDR3_1333
        dram = DdrDram(64 * MIB, timing, refresh_enabled=False)
        inside_window = timing.trefi_ps - timing.trfc_ps + 1_000
        dram.read(0, 128, inside_window)
        assert dram.refresh_stalls == 0


class TestFunctional:
    def test_write_then_read(self):
        dram = fresh_dram()
        payload = bytes(range(128))
        t = dram.write(0x4000, payload, 0)
        data, _ = dram.read(0x4000, 128, t)
        assert data == payload

    def test_write_recovery_delays_next_access(self):
        t = DDR3_1333
        dram = fresh_dram()
        end_w = dram.write(0, bytes(128), 0)
        _, end_r = dram.read(128, 128, end_w)  # same bank, same row
        assert end_r - end_w >= t.twr_ps

    def test_oversized_access_rejected(self):
        dram = fresh_dram()
        with pytest.raises(AlignmentError):
            dram.read(0, DdrDram.ROW_BYTES + 1, 0)

    def test_data_bus_serializes_banks(self):
        dram = fresh_dram()
        _, t_a = dram.read(0, 128, 0)
        _, t_b = dram.read(DdrDram.ROW_BYTES, 128, 0)
        # second finishes at least one burst after the first
        assert t_b >= t_a + DDR3_1333.burst_ps(128)
