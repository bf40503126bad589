"""Tests for the FIO runner, GPFS writer, and trace generators."""

import pytest

from repro.errors import ConfigurationError, StorageError
from repro.sim import Rng, Simulator
from repro.storage import MRAM_PCIE, NVRAM_PCIE, PcieAttachedStore, SolidStateDrive
from repro.units import CACHE_LINE_BYTES, GIB
from repro.workloads import (
    FioJob,
    FioRunner,
    GpfsJob,
    GpfsWriter,
    TraceSpec,
    pointer_chase,
    random_lines,
    sequential,
    strided,
)


class TestFio:
    def test_latency_matches_device(self):
        sim = Simulator()
        store = PcieAttachedStore(sim, 1 * GIB, NVRAM_PCIE)
        result = FioRunner(sim).run(store, FioJob(rw="randread", total_ios=8))
        assert 17 <= result.mean_latency_us <= 25  # NVRAM read ~21 us

    def test_iops_inverse_of_latency_at_qd1(self):
        sim = Simulator()
        store = PcieAttachedStore(sim, 1 * GIB, MRAM_PCIE)
        result = FioRunner(sim).run(store, FioJob(rw="randread", total_ios=16))
        assert result.iops == pytest.approx(1e6 / result.mean_latency_us, rel=0.05)

    def test_queue_depth_raises_iops(self):
        def iops(depth):
            sim = Simulator()
            store = PcieAttachedStore(sim, 1 * GIB, MRAM_PCIE)
            return FioRunner(sim).run(
                store, FioJob(rw="randread", iodepth=depth, total_ios=32)
            ).iops

        assert iops(4) > 1.5 * iops(1)

    def test_write_job_uses_write_path(self):
        sim = Simulator()
        store = PcieAttachedStore(sim, 1 * GIB, NVRAM_PCIE)
        result = FioRunner(sim).run(store, FioJob(rw="randwrite", total_ios=8))
        assert store.writes == 8
        assert store.reads == 0
        assert 20 <= result.mean_latency_us <= 30  # NVRAM write ~25 us

    def test_p99_at_least_mean(self):
        sim = Simulator()
        store = SolidStateDrive(sim, 1 * GIB)
        result = FioRunner(sim).run(store, FioJob(total_ios=32, iodepth=4))
        assert result.p99_latency_us >= result.mean_latency_us * 0.99

    def test_invalid_mode_rejected(self):
        with pytest.raises(StorageError):
            FioJob(rw="randrw")

    def test_deterministic_given_seed(self):
        def run():
            sim = Simulator()
            store = SolidStateDrive(sim, 1 * GIB)
            return FioRunner(sim).run(store, FioJob(total_ios=16, seed=5)).iops

        assert run() == run()


class TestGpfs:
    def test_iops_includes_software_overhead(self):
        class InstantStore:
            def write(self, offset, nbytes):
                from repro.sim import Signal
                sig = Signal("w")
                sig.trigger(None)
                return sig

        sim = Simulator()
        job = GpfsJob(total_writes=10, software_overhead_us=5.5)
        result = GpfsWriter(sim).run(InstantStore(), job)
        # even a zero-latency store is bounded by the software path
        assert result.iops <= 1e6 / 5.5 * 1.01

    def test_writes_counted(self):
        sim = Simulator()
        ssd = SolidStateDrive(sim, 1 * GIB)

        class Store:
            def write(self, offset, nbytes):
                return ssd.submit_write(offset, nbytes)

        result = GpfsWriter(sim).run(Store(), GpfsJob(total_writes=12))
        assert result.total_writes == 12
        assert ssd.writes == 12


class TestTraces:
    def spec(self, lines=64, accesses=32):
        return TraceSpec(base=0, size_bytes=lines * CACHE_LINE_BYTES, num_accesses=accesses)

    def test_sequential_wraps(self):
        addrs = list(sequential(TraceSpec(0, 4 * CACHE_LINE_BYTES, 6)))
        assert addrs == [0, 128, 256, 384, 0, 128]

    def test_strided(self):
        addrs = list(strided(self.spec(lines=8, accesses=4), stride_lines=2))
        assert addrs == [0, 256, 512, 768]

    def test_random_lines_in_range(self):
        spec = self.spec()
        addrs = list(random_lines(spec, Rng(3)))
        assert all(0 <= a < spec.size_bytes for a in addrs)
        assert all(a % CACHE_LINE_BYTES == 0 for a in addrs)

    def test_pointer_chase_is_permutation(self):
        spec = self.spec(lines=32, accesses=32)
        chain = pointer_chase(spec, Rng(4))
        assert sorted(chain) == [i * CACHE_LINE_BYTES for i in range(32)]

    def test_pointer_chase_deterministic(self):
        spec = self.spec()
        assert pointer_chase(spec, Rng(9)) == pointer_chase(spec, Rng(9))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceSpec(0, 64, 10)  # smaller than one line
        with pytest.raises(ConfigurationError):
            TraceSpec(0, 1024, 0)

    def test_zero_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            list(strided(self.spec(), 0))
