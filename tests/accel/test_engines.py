"""Tests for the block accelerators and software baselines (Table 5)."""

import numpy as np
import pytest

from repro.accel import (
    AccessProcessor,
    ControlBlock,
    FftEngineFarm,
    KERNEL_FFT,
    KERNEL_MEMCOPY,
    KERNEL_MINMAX,
    MemcopyEngine,
    MinMaxEngine,
    STATUS_DONE,
    STATUS_RUNNING,
    SoftwareBaselines,
    radix2_fft,
)
from repro.errors import AccelError
from repro.memory import DdrDram, MemoryController
from repro.sim import Simulator
from repro.units import MIB, S

CHUNK = 8 << 10


def fresh(capacity=256 * MIB):
    sim = Simulator()
    dimms = [DdrDram(capacity, refresh_enabled=False) for _ in range(2)]
    ports = [MemoryController(sim, d) for d in dimms]
    return sim, dimms, AccessProcessor(sim, ports)


def seed(dimms, raw, base=0):
    for pos in range(0, len(raw), CHUNK):
        chunk_no = (base + pos) // CHUNK
        dimms[chunk_no % 2].backing.write((chunk_no // 2) * CHUNK, raw[pos : pos + CHUNK])


def read_flat(dimms, base, length):
    out = bytearray()
    pos = 0
    while pos < length:
        chunk_no = (base + pos) // CHUNK
        take = min(CHUNK, length - pos)
        out += dimms[chunk_no % 2].backing.read((chunk_no // 2) * CHUNK, take)
        pos += take
    return bytes(out)


class TestMinMax:
    def test_finds_extremes(self):
        sim, dimms, ap = fresh()
        values = np.arange(-500, 1548, dtype=np.int32)  # 2048 ints = 8 KiB
        seed(dimms, values.tobytes())
        engine = MinMaxEngine(sim, ap)
        cb = engine.run_to_completion(
            ControlBlock(opcode=KERNEL_MINMAX, src=0, length=len(values) * 4)
        )
        assert cb.status == STATUS_DONE
        assert cb.result0 == -500
        assert cb.result1 == 1547

    def test_large_scan_matches_numpy(self):
        sim, dimms, ap = fresh()
        rng = np.random.default_rng(7)
        values = rng.integers(-(2**31), 2**31 - 1, size=1 * MIB // 4, dtype=np.int32)
        seed(dimms, values.tobytes())
        engine = MinMaxEngine(sim, ap)
        cb = engine.run_to_completion(
            ControlBlock(opcode=KERNEL_MINMAX, src=0, length=len(values) * 4)
        )
        assert cb.result0 == int(values.min())
        assert cb.result1 == int(values.max())

    def test_throughput_near_paper(self):
        sim, dimms, ap = fresh()
        raw = bytes(8 * MIB)
        seed(dimms, raw)
        engine = MinMaxEngine(sim, ap)
        t0 = sim.now_ps
        engine.run_to_completion(ControlBlock(opcode=KERNEL_MINMAX, src=0, length=len(raw)))
        gbps = len(raw) / ((sim.now_ps - t0) / S) / 1e9
        assert 8.0 <= gbps <= 13.0  # paper: 10.5 GB/s

    def test_misaligned_length_rejected(self):
        sim, _, ap = fresh()
        engine = MinMaxEngine(sim, ap)
        with pytest.raises(AccelError):
            engine.run_to_completion(ControlBlock(opcode=KERNEL_MINMAX, src=0, length=6))


class TestMemcopy:
    def test_copy_is_functional(self):
        sim, dimms, ap = fresh()
        payload = bytes(range(256)) * 256  # 64 KiB
        seed(dimms, payload)
        engine = MemcopyEngine(sim, ap)
        cb = engine.run_to_completion(
            ControlBlock(opcode=KERNEL_MEMCOPY, src=0, dst=8 * MIB, length=len(payload))
        )
        assert cb.status == STATUS_DONE
        assert cb.result0 == len(payload)
        assert read_flat(dimms, 8 * MIB, len(payload)) == payload

    def test_throughput_near_paper(self):
        sim, dimms, ap = fresh()
        raw = bytes(8 * MIB)
        seed(dimms, raw)
        engine = MemcopyEngine(sim, ap)
        t0 = sim.now_ps
        engine.run_to_completion(
            ControlBlock(opcode=KERNEL_MEMCOPY, src=0, dst=64 * MIB, length=len(raw))
        )
        gbps = len(raw) / ((sim.now_ps - t0) / S) / 1e9
        assert 4.5 <= gbps <= 7.5  # paper: 6 GB/s

    def test_copy_slower_than_scan(self):
        # copy moves every byte twice through the same ports
        def run(engine_cls, opcode, dst):
            sim, dimms, ap = fresh()
            raw = bytes(4 * MIB)
            seed(dimms, raw)
            engine = engine_cls(sim, ap)
            t0 = sim.now_ps
            engine.run_to_completion(
                ControlBlock(opcode=opcode, src=0, dst=dst, length=len(raw))
            )
            return len(raw) / ((sim.now_ps - t0) / S)

        scan = run(MinMaxEngine, KERNEL_MINMAX, 0)
        copy = run(MemcopyEngine, KERNEL_MEMCOPY, 64 * MIB)
        assert copy < scan


class TestFft:
    def test_radix2_matches_numpy(self):
        rng = np.random.default_rng(3)
        for size in (8, 64, 1024):
            x = (rng.standard_normal(size) + 1j * rng.standard_normal(size)).astype(
                np.complex64
            )
            assert np.allclose(radix2_fft(x), np.fft.fft(x), rtol=1e-3, atol=1e-3)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(AccelError):
            radix2_fft(np.zeros(100, dtype=np.complex64))

    def test_farm_writes_real_spectra(self):
        sim, dimms, ap = fresh()
        rng = np.random.default_rng(5)
        samples = (rng.standard_normal(2048) + 1j * rng.standard_normal(2048)).astype(
            np.complex64
        )
        seed(dimms, samples.tobytes())
        farm = FftEngineFarm(sim, ap, num_engines=2)
        cb = farm.run_to_completion(
            ControlBlock(opcode=KERNEL_FFT, src=0, dst=8 * MIB, length=len(samples) * 8)
        )
        assert cb.status == STATUS_DONE
        assert cb.result0 == 2  # two 1024-point blocks
        out = np.frombuffer(read_flat(dimms, 8 * MIB, len(samples) * 8), dtype=np.complex64)
        for b in range(2):
            block = samples[b * 1024 : (b + 1) * 1024]
            assert np.allclose(
                out[b * 1024 : (b + 1) * 1024], np.fft.fft(block), rtol=1e-2, atol=1e-2
            )

    def test_sample_throughput_near_paper(self):
        sim, dimms, ap = fresh()
        n = 256 * 1024  # samples
        seed(dimms, bytes(n * 8))
        farm = FftEngineFarm(sim, ap, num_engines=8)
        t0 = sim.now_ps
        farm.run_to_completion(
            ControlBlock(opcode=KERNEL_FFT, src=0, dst=64 * MIB, length=n * 8)
        )
        moved_gs = 2 * n / ((sim.now_ps - t0) / S) / 1e9
        assert 0.9 <= moved_gs <= 1.7  # paper: 1.3 Gsamples/s

    def test_few_engines_become_compute_bound(self):
        def run(engines):
            sim, dimms, ap = fresh()
            n = 64 * 1024
            seed(dimms, bytes(n * 8))
            farm = FftEngineFarm(sim, ap, num_engines=engines)
            t0 = sim.now_ps
            farm.run_to_completion(
                ControlBlock(opcode=KERNEL_FFT, src=0, dst=64 * MIB, length=n * 8)
            )
            return sim.now_ps - t0

        assert run(1) > run(8)


class TestControlBlockProtocol:
    def test_status_transitions(self):
        sim, dimms, ap = fresh()
        seed(dimms, bytes(8192))
        engine = MinMaxEngine(sim, ap)
        engine.submit_write(
            0, ControlBlock(opcode=KERNEL_MINMAX, src=0, length=8192).pack()
        )
        assert engine._cb.status == STATUS_RUNNING
        sim.run()
        assert engine._cb.status == STATUS_DONE

    def test_poll_returns_packed_block(self):
        sim, dimms, ap = fresh()
        seed(dimms, bytes(8192))
        engine = MinMaxEngine(sim, ap)
        engine.run_to_completion(ControlBlock(opcode=KERNEL_MINMAX, src=0, length=8192))
        raw = sim.run_until_signal(engine.submit_read(0, 128))
        polled = ControlBlock.unpack(raw)
        assert polled.status == STATUS_DONE

    @pytest.mark.parametrize("engine_cls", [MemcopyEngine, MinMaxEngine, FftEngineFarm])
    def test_wrong_opcode_raises_accel_error(self, engine_cls):
        sim, _, ap = fresh()
        engine = engine_cls(sim, ap)
        with pytest.raises(AccelError, match="unexpected opcode 0x7f"):
            engine.run_to_completion(ControlBlock(opcode=0x7F, length=8192))

    def test_partial_line_store_rejected(self):
        sim, _, ap = fresh()
        engine = MinMaxEngine(sim, ap)
        with pytest.raises(AccelError):
            engine.submit_write(0, b"short")

    def test_cycles_reported(self):
        sim, dimms, ap = fresh()
        seed(dimms, bytes(8192))
        engine = MinMaxEngine(sim, ap)
        cb = engine.run_to_completion(ControlBlock(opcode=KERNEL_MINMAX, src=0, length=8192))
        assert cb.cycles > 0


class TestSoftwareBaselines:
    def test_published_numbers(self):
        sw = SoftwareBaselines()
        assert sw.memcopy_gb_s() == pytest.approx(3.2, rel=0.05)
        assert sw.minmax_gb_s() == pytest.approx(0.5, rel=0.05)
        assert sw.fft_gsamples_s() == pytest.approx(0.68, rel=0.05)

    def test_table5_speedups(self):
        # accelerated / software = 2x-20x across the kernels (Table 5)
        sw = SoftwareBaselines()
        assert 6.0 / sw.memcopy_gb_s() == pytest.approx(1.9, abs=0.3)
        assert 10.5 / sw.minmax_gb_s() == pytest.approx(21, abs=3)
        assert 1.3 / sw.fft_gsamples_s() == pytest.approx(1.9, abs=0.3)
