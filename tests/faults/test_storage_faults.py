"""Storage fault injection: the IoFaultModel, the three storage
injectors, fault-window publication, and the time-bucketed view."""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, StorageError
from repro.faults import (
    FaultController,
    FaultPlan,
    FaultSpec,
    render_time_buckets,
    time_buckets,
)
from repro.faults.injectors import make_injector
from repro.sim import Rng, Simulator
from repro.storage import (
    HardDiskDrive,
    IoFaultModel,
    NvWriteCache,
    SolidStateDrive,
    WriteCacheConfig,
)
from repro.telemetry import TraceSession
from repro.units import GIB, MIB, us_to_ps


def bound(spec, sim, system):
    injector = make_injector(spec, sim, Rng(1, "t"))
    injector.bind(system)
    return injector


class TestIoFaultModel:
    def test_rejects_bad_rate_and_retries(self):
        with pytest.raises(StorageError):
            IoFaultModel(rate=1.5)
        with pytest.raises(StorageError):
            IoFaultModel(max_retries=-1)

    def test_forced_failures_consumed_first(self):
        model = IoFaultModel(force_failures=2)
        assert model.should_fail() and model.should_fail()
        assert not model.should_fail()


class TestDeviceFaultPaths:
    def test_retry_within_bound_succeeds(self):
        sim = Simulator()
        ssd = SolidStateDrive(sim, 1 * GIB)
        ssd.io_fault = IoFaultModel(force_failures=1, max_retries=2)
        value = sim.run_until_signal(ssd.submit_read(0, 4096))
        assert value is None
        assert ssd.counts.io_retries == 1 and ssd.counts.io_failures == 0
        assert ssd.counts.reads == 1

    def test_exhausted_retries_surface_storage_error(self):
        sim = Simulator()
        ssd = SolidStateDrive(sim, 1 * GIB)
        ssd.io_fault = IoFaultModel(force_failures=3, max_retries=2)
        value = sim.run_until_signal(ssd.submit_read(0, 4096))
        assert isinstance(value, StorageError)
        assert ssd.counts.io_failures == 1 and ssd.counts.io_retries == 2
        assert ssd.counts.reads == 0  # a failed IO is not a completed read

    def test_slow_disk_penalty_applies_once_per_io(self):
        sim = Simulator()
        ssd = SolidStateDrive(sim, 1 * GIB)
        t0 = sim.now_ps
        sim.run_until_signal(ssd.submit_read(0, 4096))
        healthy = sim.now_ps - t0
        ssd.slow_extra_ps = us_to_ps(500)
        t0 = sim.now_ps
        sim.run_until_signal(ssd.submit_read(0, 4096))
        slowed = sim.now_ps - t0
        assert slowed >= healthy + us_to_ps(500)
        assert ssd.counts.slowed_ios == 1


class TestStorageInjectors:
    def _system(self):
        sim = Simulator()
        ssd = SolidStateDrive(sim, 1 * GIB)
        hdd = HardDiskDrive(sim, 1 * GIB)
        system = SimpleNamespace(sim=sim, storage_devices={"ssd": ssd, "hdd": hdd})
        return sim, ssd, hdd, system

    def test_io_errors_install_and_recover(self):
        sim, ssd, hdd, system = self._system()
        spec = FaultSpec("storage.io_errors", target="ssd",
                         params=(("force_failures", 1),), label="io")
        injector = bound(spec, sim, system)
        assert injector.inject(0) == "injected"
        assert ssd.io_fault is not None and hdd.io_fault is None
        assert injector.recover(0) == "recovered"
        assert ssd.io_fault is None

    def test_slow_disk_saves_and_restores(self):
        sim, ssd, hdd, system = self._system()
        spec = FaultSpec("storage.slow_disk", target="",
                         params=(("extra_us", 100.0),), label="slow")
        injector = bound(spec, sim, system)
        injector.inject(0)
        assert ssd.slow_extra_ps == us_to_ps(100)
        assert hdd.slow_extra_ps == us_to_ps(100)
        assert injector.recover(0) == "recovered"
        assert ssd.slow_extra_ps == 0 and hdd.slow_extra_ps == 0

    def test_destage_stall_freezes_cache_only(self):
        sim, ssd, hdd, system = self._system()

        class FastLog:
            capacity_bytes = 256 * MIB

            def __init__(self, sim):
                self.sim = sim

            def submit_write(self, offset, nbytes):
                from repro.sim import Signal
                done = Signal("log.w")
                self.sim.call_after(us_to_ps(2), done.trigger)
                return done

        cache = NvWriteCache(sim, FastLog(sim), hdd, WriteCacheConfig())
        system.storage_devices["wcache"] = cache
        spec = FaultSpec("storage.destage_stall", target="", label="stall")
        injector = bound(spec, sim, system)
        assert injector.inject(0) == "injected"
        assert cache._frozen and cache.counts.freezes == 1
        assert injector.recover(0) == "recovered"
        assert not cache._frozen

    def test_skips_on_system_without_storage_devices(self):
        sim = Simulator()
        system = SimpleNamespace(sim=sim)
        spec = FaultSpec("storage.io_errors", target="", label="io")
        injector = bound(spec, sim, system)
        assert injector.inject(0) == "skipped"

    def test_unknown_target_rejected_at_bind(self):
        sim, _, _, system = self._system()
        spec = FaultSpec("storage.io_errors", target="nope", label="io")
        with pytest.raises(ConfigurationError):
            bound(spec, sim, system)


class TestFaultWindowPublication:
    def test_controller_stop_publishes_windows_to_session(self):
        with TraceSession("t", max_events=0) as session:
            sim = Simulator()
            ssd = SolidStateDrive(sim, 1 * GIB)
            system = SimpleNamespace(sim=sim, storage_devices={"ssd": ssd})
            plan = FaultPlan(name="p", specs=(FaultSpec(
                "storage.slow_disk", target="ssd", schedule="once", at_ps=0,
                duration_ps=us_to_ps(100), params=(("extra_us", 10.0),),
                label="slow",
            ),))
            controller = FaultController(sim, plan, seed=0)
            controller.install(system).start()
            sim.run()
            controller.stop()
            windows = list(session.fault_windows)
        assert len(windows) == 1
        window = windows[0]
        assert window["label"] == "slow"
        assert window["injector"] == "storage.slow_disk"
        assert window["end_ps"] - window["start_ps"] == us_to_ps(100)


class TestTimeBuckets:
    def test_buckets_partition_time_and_split_clean_vs_fault(self):
        windows = [{"label": "w", "injector": "storage.slow_disk",
                    "target": "", "start_ps": 100, "end_ps": 300}]
        journeys = [
            {"start_ps": 0, "end_ps": 50, "faults": ()},
            {"start_ps": 120, "end_ps": 220, "faults": ("w",)},
            {"start_ps": 800, "end_ps": 1000, "faults": ()},
        ]
        rows = time_buckets(windows, journeys, buckets=5)
        assert len(rows) == 5
        assert rows[0]["start_ps"] == 0 and rows[-1]["end_ps"] >= 1000
        assert sum(r["journeys"] for r in rows) == 3
        assert sum(r["fault_journeys"] for r in rows) == 1
        assert sum(r["injections"] for r in rows) == 1
        hit = next(r for r in rows if r["fault_journeys"])
        assert hit["fault_mean_ps"] == 100
        # the window overlaps exactly the first two buckets of 200 ps
        assert [r["open_windows"] for r in rows] == [1, 1, 0, 0, 0]
        text = render_time_buckets(rows)
        assert "injections vs latency" in text

    def test_empty_inputs_yield_no_rows(self):
        assert time_buckets([], [], buckets=4) == []
        assert render_time_buckets([]) == ""
