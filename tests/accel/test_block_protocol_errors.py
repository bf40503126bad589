"""Error paths of the block-accelerator control-block protocol and its
guarded kernel drive."""

from functools import partial

import pytest

from repro.accel import (
    BLOCK_BYTES,
    KERNEL_FFT,
    AccessProcessor,
    BlockAccelerator,
    ControlBlock,
    FftEngineFarm,
    STATUS_DONE,
    STATUS_ERROR,
    STATUS_RUNNING,
)
from repro.errors import AccelError, SimulationError
from repro.memory import DdrDram, MemoryController
from repro.sim import Signal, Simulator, profile
from repro.units import MIB


class MisbehavingEngine(BlockAccelerator):
    """Kernel that returns the wrong shape (models an accelerator fault)."""

    def _kernel(self, cb):
        yield 1_000
        return "not-a-result-tuple"


class WellBehavedEngine(BlockAccelerator):
    def _kernel(self, cb):
        yield 1_000
        return (cb.param * 2, 0)


class RunawayEngine(BlockAccelerator):
    """Kernel that reschedules itself ``param`` times (a stuck state machine)."""

    def _kernel(self, cb):
        for _ in range(cb.param):
            yield 1_000
        return (0, 0)


class StuckEngine(BlockAccelerator):
    """Kernel that waits on a signal nothing will ever fire."""

    def _kernel(self, cb):
        yield Signal("never")
        return (0, 0)


def make_access(sim):
    dimms = [DdrDram(16 * MIB, refresh_enabled=False) for _ in range(2)]
    return AccessProcessor(sim, [MemoryController(sim, d) for d in dimms])


class TestControlBlockErrorPaths:
    def test_bad_kernel_result_sets_error_status(self):
        sim = Simulator()
        engine = MisbehavingEngine(sim, make_access(sim))
        engine.submit_write(0, ControlBlock(opcode=1).pack())
        sim.run()
        assert engine._cb.status == STATUS_ERROR
        assert engine.tasks_failed == 1
        assert engine.tasks_completed == 0

    def test_double_submit_while_running_rejected(self):
        sim = Simulator()
        engine = WellBehavedEngine(sim, make_access(sim))
        engine.submit_write(0, ControlBlock(opcode=1, param=5).pack())
        assert engine._cb.status == STATUS_RUNNING
        with pytest.raises(AccelError):
            engine.submit_write(0, ControlBlock(opcode=1).pack())

    def test_resubmit_after_completion_allowed(self):
        sim = Simulator()
        engine = WellBehavedEngine(sim, make_access(sim))
        cb = engine.run_to_completion(ControlBlock(opcode=1, param=5))
        assert cb.status == STATUS_DONE
        assert cb.result0 == 10
        cb = engine.run_to_completion(ControlBlock(opcode=1, param=7))
        assert cb.result0 == 14
        assert engine.tasks_completed == 2

    def test_truncated_control_block_rejected(self):
        from repro.accel.block import ControlBlock as CB

        with pytest.raises(AccelError):
            CB.unpack(b"tiny")

    def test_control_block_roundtrip(self):
        cb = ControlBlock(opcode=7, status=2, src=0x1000, dst=0x2000,
                          length=4096, param=-5, result0=42, result1=-1, cycles=99)
        assert ControlBlock.unpack(cb.pack()) == cb

    def test_poll_reads_partial_fields(self):
        sim = Simulator()
        engine = WellBehavedEngine(sim, make_access(sim))
        engine.run_to_completion(ControlBlock(opcode=1, param=3))
        # poll just the status word (offset 4, 4 bytes)
        raw = sim.run_until_signal(engine.submit_read(4, 4))
        assert int.from_bytes(raw, "little") == STATUS_DONE


class TestRunToCompletionIsGuarded:
    """run_to_completion drives the kernel through run_until_signal."""

    def test_profiler_sees_fft_farm_events(self):
        sim = Simulator()
        farm = FftEngineFarm(sim, make_access(sim))
        with profile.profiled() as prof:
            farm.run_to_completion(
                ControlBlock(opcode=KERNEL_FFT, src=0, dst=8 * MIB, length=4 * BLOCK_BYTES)
            )
        assert prof.runs == 1
        assert prof.events > 0

    def test_runaway_kernel_hits_max_events(self, monkeypatch):
        sim = Simulator()
        engine = RunawayEngine(sim, make_access(sim))
        monkeypatch.setattr(
            sim, "run_until_signal", partial(sim.run_until_signal, max_events=1_000)
        )
        with pytest.raises(SimulationError, match="max_events=1000"):
            engine.run_to_completion(ControlBlock(opcode=1, param=5_000))

    def test_drained_queue_raises_simulation_error(self):
        sim = Simulator()
        engine = StuckEngine(sim, make_access(sim))
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run_to_completion(ControlBlock(opcode=1))
