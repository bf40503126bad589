"""Tests for STT-MRAM, NAND flash, NVDIMM-N, endurance, and SPD."""

import pytest

from repro.errors import EnduranceExceededError, FirmwareError, MemoryError_
from repro.memory import (
    ENDURANCE_MLC_NAND,
    ENDURANCE_STT_MRAM,
    FIGURE8_TECHNOLOGIES,
    IMTJ_TIMING,
    PMTJ_TIMING,
    DdrDram,
    EnduranceSpec,
    NandFlash,
    NvdimmN,
    NvdimmState,
    SpdData,
    SttMram,
    SupercapSpec,
    WearTracker,
    memory_bus_lifetime_s,
    spd_for_device,
)
from repro.units import MIB


class TestSttMram:
    def test_functional_roundtrip(self):
        mram = SttMram(256 * MIB)
        t = mram.write(0x100 * 128, bytes([7] * 128), 0)
        data, _ = mram.read(0x100 * 128, 128, t)
        assert data == bytes([7] * 128)

    def test_writes_slower_than_reads(self):
        mram = SttMram(256 * MIB)
        _, r_end = mram.read(0, 128, 0)
        w_start = r_end
        w_end = mram.write(0, bytes(128), w_start)
        assert (w_end - w_start) > r_end

    def test_pmtj_faster_than_imtj(self):
        pmtj = SttMram(256 * MIB, PMTJ_TIMING)
        imtj = SttMram(256 * MIB, IMTJ_TIMING)
        assert pmtj.write(0, bytes(128), 0) < imtj.write(0, bytes(128), 0)

    def test_nonvolatile_across_power_cycle(self):
        mram = SttMram(256 * MIB)
        mram.write(0, b"persist" + bytes(121), 0)
        mram.power_off()
        mram.power_on()
        data, _ = mram.read(0, 7, 10**9)
        assert data == b"persist"

    def test_wear_tracked(self):
        mram = SttMram(256 * MIB)
        mram.write(0, bytes(128), 0)
        mram.write(0, bytes(128), 10**9)
        assert mram.wear.wear_of(0) == 2


class TestNandFlash:
    def test_functional_roundtrip(self):
        flash = NandFlash(64 * MIB)
        t = flash.write(0, b"flash data", 0)
        data, _ = flash.read(0, 10, t)
        assert data == b"flash data"

    def test_program_much_slower_than_dram(self):
        flash = NandFlash(64 * MIB)
        dram = DdrDram(64 * MIB, refresh_enabled=False)
        f_end = flash.write(0, bytes(4096), 0)
        d_end = dram.write(0, bytes(4096), 0)
        assert f_end > 100 * d_end

    def test_multi_page_write_scales(self):
        flash = NandFlash(64 * MIB)
        one = flash.write(0, bytes(16 << 10), 0)
        flash2 = NandFlash(64 * MIB)
        four = flash2.write(0, bytes(64 << 10), 0)
        assert four > 3 * one

    def test_endurance_enforced(self):
        spec = EnduranceSpec("nand_test", 3)
        flash = NandFlash(
            64 * MIB, spec=spec, enforce_endurance=True
        )
        t = 0
        for _ in range(3):
            t = flash.write(0, b"x", t)
        with pytest.raises(EnduranceExceededError):
            flash.write(0, b"x", t)


class TestNvdimm:
    def test_operates_at_dram_speed(self):
        nvdimm = NvdimmN(64 * MIB)
        dram = DdrDram(64 * MIB)
        _, n_end = nvdimm.read(0, 128, 0)
        _, d_end = dram.read(0, 128, 0)
        assert n_end == d_end

    def test_save_restore_preserves_contents(self):
        nvdimm = NvdimmN(64 * MIB)
        t = nvdimm.write(0x1000, b"must survive", 0)
        t = nvdimm.power_loss(t)
        assert nvdimm.state is NvdimmState.SAVED
        t = nvdimm.power_restore(t)
        assert nvdimm.state is NvdimmState.NORMAL
        data, _ = nvdimm.read(0x1000, 12, t)
        assert data == b"must survive"
        assert nvdimm.contents_preserved

    def test_undersized_supercap_loses_contents(self):
        weak = SupercapSpec(hold_up_ms=1.0, save_bandwidth_mb_s=400.0)
        nvdimm = NvdimmN(64 * MIB, supercap=weak)
        t = nvdimm.write(0, b"doomed", 0)
        t = nvdimm.power_loss(t)
        assert nvdimm.state is NvdimmState.LOST
        assert not nvdimm.contents_preserved
        t = nvdimm.power_restore(t)
        data, _ = nvdimm.read(0, 6, t)
        assert data == bytes(6)

    def test_access_during_saved_state_raises(self):
        nvdimm = NvdimmN(64 * MIB)
        t = nvdimm.power_loss(0)
        with pytest.raises(MemoryError_):
            nvdimm.read(0, 128, t)

    def test_restore_from_normal_raises(self):
        nvdimm = NvdimmN(64 * MIB)
        with pytest.raises(MemoryError_):
            nvdimm.power_restore(0)

    def test_save_time_scales_with_capacity(self):
        cap = SupercapSpec()
        assert cap.save_time_ms(2 * 64 * MIB) == pytest.approx(
            2 * cap.save_time_ms(64 * MIB)
        )


class TestEndurance:
    def test_figure8_ordering(self):
        # the Figure 8 story: NAND grades << MRAM
        cycles = [spec.cycles for spec in FIGURE8_TECHNOLOGIES]
        assert cycles == sorted(cycles)
        assert ENDURANCE_STT_MRAM.cycles / ENDURANCE_MLC_NAND.cycles >= 1e10

    def test_bus_lifetime_flash_vs_mram(self):
        # at 10 GB/s sustained writes into 256 MB:
        flash_life = memory_bus_lifetime_s(ENDURANCE_MLC_NAND, 256 * MIB, 10e9)
        mram_life = memory_bus_lifetime_s(ENDURANCE_STT_MRAM, 256 * MIB, 10e9)
        assert flash_life < 3_600          # flash dies within an hour
        assert mram_life > 3.15e7          # MRAM outlives a year

    def test_wear_tracker_counts_per_unit(self):
        tracker = WearTracker(EnduranceSpec("t", 100), unit_bytes=128, enforce=False)
        tracker.record_write(0, 128)
        tracker.record_write(0, 1)
        tracker.record_write(128, 128)
        assert tracker.wear_of(0) == 2
        assert tracker.wear_of(128) == 1

    def test_wear_spanning_units(self):
        tracker = WearTracker(EnduranceSpec("t", 100), unit_bytes=128, enforce=False)
        tracker.record_write(100, 100)  # touches units 0 and 1
        assert tracker.wear_of(0) == 1
        assert tracker.wear_of(128) == 1



class TestSpd:
    def test_roundtrip(self):
        spd = SpdData("mram", 256 * MIB, speed_mt_s=1066, vendor="EVR")
        assert SpdData.decode(spd.encode()) == spd

    def test_checksum_detects_corruption(self):
        raw = bytearray(SpdData("dram", 64 * MIB).encode())
        raw[3] ^= 0xFF
        with pytest.raises(FirmwareError):
            SpdData.decode(bytes(raw))

    def test_wrong_length_rejected(self):
        with pytest.raises(FirmwareError):
            SpdData.decode(b"short")

    def test_spd_for_device(self):
        mram = SttMram(256 * MIB)
        spd = spd_for_device(mram)
        assert spd.module_type == "mram"
        assert spd.capacity_bytes == 256 * MIB
        assert spd.contents_preserved

    def test_spd_for_nvdimm_tracks_state(self):
        nvdimm = NvdimmN(64 * MIB)
        assert spd_for_device(nvdimm).contents_preserved  # NORMAL is preserved
        weak = NvdimmN(64 * MIB, supercap=SupercapSpec(hold_up_ms=0.001))
        weak.power_loss(0)
        assert not spd_for_device(weak).contents_preserved


class TestNvdimmFailurePaths:
    """Accounting around failed saves and restore-after-loss (the paths
    the nvdimm.power_loss fault injector drives)."""

    def undersized(self):
        return SupercapSpec(hold_up_ms=1.0, save_bandwidth_mb_s=400.0)

    def test_failed_save_is_counted(self):
        nvdimm = NvdimmN(64 * MIB, supercap=self.undersized())
        nvdimm.power_loss(0)
        assert nvdimm.failed_saves == 1
        assert nvdimm.saves == 0

    def test_successful_save_is_counted(self):
        nvdimm = NvdimmN(64 * MIB)
        nvdimm.power_loss(0)
        assert nvdimm.saves == 1
        assert nvdimm.failed_saves == 0

    def test_restore_after_loss_returns_to_normal_but_empty(self):
        nvdimm = NvdimmN(64 * MIB, supercap=self.undersized())
        t = nvdimm.write(0x200, b"gone", 0)
        t = nvdimm.power_loss(t)
        assert nvdimm.state is NvdimmState.LOST
        t = nvdimm.power_restore(t)
        assert nvdimm.state is NvdimmState.NORMAL
        data, _ = nvdimm.read(0x200, 4, t)
        assert data == bytes(4)
        # back in service: the next cycle with a healthy supercap saves
        nvdimm.supercap = SupercapSpec()
        t = nvdimm.write(0x200, b"kept", t)
        t = nvdimm.power_loss(t)
        t = nvdimm.power_restore(t)
        data, _ = nvdimm.read(0x200, 4, t)
        assert data == b"kept"
        assert nvdimm.saves == 1 and nvdimm.failed_saves == 1

    def test_repeated_failures_accumulate(self):
        nvdimm = NvdimmN(64 * MIB, supercap=self.undersized())
        t = 0
        for _ in range(3):
            t = nvdimm.power_loss(t)
            t = nvdimm.power_restore(t)
        assert nvdimm.failed_saves == 3
        assert nvdimm.saves == 0

    def test_contents_preserved_flag_tracks_loss(self):
        nvdimm = NvdimmN(64 * MIB, supercap=self.undersized())
        assert nvdimm.contents_preserved
        t = nvdimm.power_loss(0)
        assert not nvdimm.contents_preserved
        nvdimm.power_restore(t)
        assert nvdimm.contents_preserved  # flag covers the current cycle
