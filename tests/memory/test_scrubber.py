"""Tests for the patrol scrubber and SUE poisoning."""

import pytest

from repro.errors import ConfigurationError
from repro.memory import (
    DdrDram,
    MemoryController,
    PatrolScrubber,
    ScrubConfig,
)
from repro.sim import Simulator
from repro.units import CACHE_LINE_BYTES, MIB


def ecc_dram(capacity=64 * 1024):
    return DdrDram(capacity, refresh_enabled=False, ecc_enabled=True)


class TestPatrolScrubber:
    def test_requires_ecc(self):
        sim = Simulator()
        plain = DdrDram(64 * 1024, refresh_enabled=False)
        with pytest.raises(ConfigurationError):
            PatrolScrubber(sim, plain)

    def test_sweep_covers_every_line(self):
        sim = Simulator()
        dram = ecc_dram(capacity=64 * CACHE_LINE_BYTES)
        for line in range(64):
            dram.write(line * CACHE_LINE_BYTES, bytes(CACHE_LINE_BYTES), 0)
        scrubber = PatrolScrubber(sim, dram, ScrubConfig(interval_ps=1_000))
        scrubber.start()
        sim.run(until_ps=scrubber.sweep_time_ps() + 10_000)
        scrubber.stop_requested = True
        sim.run()
        assert scrubber.sweeps_completed >= 1
        assert scrubber.lines_scrubbed >= 64

    def test_heals_latent_single_bit_errors(self):
        sim = Simulator()
        dram = ecc_dram(capacity=32 * CACHE_LINE_BYTES)
        for line in range(32):
            dram.write(line * CACHE_LINE_BYTES, bytes([0x77] * CACHE_LINE_BYTES), 0)
        # seed latent errors in several lines
        for line in (1, 7, 19):
            dram.inject_bit_error(line * CACHE_LINE_BYTES, bit=9)
        scrubber = PatrolScrubber(sim, dram, ScrubConfig(interval_ps=1_000))
        scrubber.start()
        sim.run(until_ps=scrubber.sweep_time_ps() + 10_000)
        scrubber.stop_requested = True
        sim.run()
        assert scrubber.corrections == 3
        # cells are clean again in the raw array
        for line in (1, 7, 19):
            raw = dram.backing.read(line * CACHE_LINE_BYTES, CACHE_LINE_BYTES)
            assert raw == bytes([0x77] * CACHE_LINE_BYTES)

    def test_scrubbing_prevents_error_accumulation(self):
        # without scrubbing, two hits on one word over time are fatal;
        # with a patrol between them, both are corrected independently
        dram = ecc_dram(capacity=4 * CACHE_LINE_BYTES)
        dram.write(0, bytes(CACHE_LINE_BYTES), 0)

        dram.inject_bit_error(0, bit=3)
        # patrol visits the line, fixing the first hit
        dram.read(0, CACHE_LINE_BYTES, 1_000)
        dram.inject_bit_error(0, bit=11)  # second hit, same word
        data, _ = dram.read(0, CACHE_LINE_BYTES, 2_000)  # still correctable
        assert data == bytes(CACHE_LINE_BYTES)
        assert dram.ecc_corrections == 2
        assert dram.ecc_uncorrectable == 0

    def test_double_start_rejected(self):
        sim = Simulator()
        scrubber = PatrolScrubber(sim, ecc_dram())
        scrubber.start()
        with pytest.raises(ConfigurationError):
            scrubber.start()


class TestSuePoisoning:
    def test_uncorrectable_read_returns_poison(self):
        sim = Simulator()
        dram = ecc_dram(capacity=1 * MIB)
        mc = MemoryController(sim, dram)
        sim.run_until_signal(mc.submit_write(0, bytes(128)))
        dram.inject_bit_error(0, bit=2)
        dram.inject_bit_error(0, bit=33)  # double hit: uncorrectable
        data = sim.run_until_signal(mc.submit_read(0, 128))
        assert data == bytes([MemoryController.POISON_BYTE]) * 128
        assert mc.uncorrectable_errors == 1
        assert dram.ecc_uncorrectable == 1

    def test_machine_keeps_running_after_sue(self):
        sim = Simulator()
        dram = ecc_dram(capacity=1 * MIB)
        mc = MemoryController(sim, dram)
        sim.run_until_signal(mc.submit_write(0, bytes(128)))
        dram.inject_bit_error(0, bit=2)
        dram.inject_bit_error(0, bit=33)
        sim.run_until_signal(mc.submit_read(0, 128))  # poisoned
        # a clean line elsewhere still reads fine afterwards
        sim.run_until_signal(mc.submit_write(4096, bytes([1] * 128)))
        data = sim.run_until_signal(mc.submit_read(4096, 128))
        assert data == bytes([1] * 128)
