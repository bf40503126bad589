"""Edge cases and failure paths across module boundaries."""

import pytest

from repro import CardSpec, ContuttoSystem
from repro.buffer import Centaur
from repro.errors import FirmwareError, SimulationError
from repro.firmware import (
    CardDescriptor,
    ConTuttoFsiSlave,
    CsrBlock,
    IplFlow,
    PowerSequencer,
)
from repro.errors import PlugRuleError
from repro.memory import DdrDram
from repro.processor import Power8Socket
from repro.sim import Process, Simulator, Signal
from repro.units import GIB, MIB


class TestProcessEdgeCases:
    def test_joining_finished_process_resumes_immediately(self):
        sim = Simulator()

        def fast():
            yield 10
            return "done-first"

        child = Process(sim, fast())
        sim.run()  # child finishes before the parent even starts

        def parent():
            result = yield child
            return result

        proc = Process(sim, parent())
        sim.run()
        assert proc.result == "done-first"

    def test_zero_delay_yields_run_in_order(self):
        sim = Simulator()
        order = []

        def worker(tag):
            yield 0
            order.append(tag)

        Process(sim, worker("a"))
        Process(sim, worker("b"))
        sim.run()
        assert order == ["a", "b"]


class TestBootFailurePaths:
    def test_presence_mismatch_detected(self):
        sim = Simulator()
        socket = Power8Socket(sim)
        flow = IplFlow(sim, socket)
        # a Centaur buffer behind a ConTutto FSI identity
        buffer = Centaur(sim, [DdrDram(1 * GIB)])
        card = CardDescriptor(
            slot=0, buffer=buffer,
            fsi_slave=ConTuttoFsiSlave(sim, CsrBlock()),
        )
        with pytest.raises(FirmwareError, match="presence detect"):
            flow.boot([card])

    def test_plug_rule_violation_aborts_boot(self):
        sim = Simulator()
        socket = Power8Socket(sim)
        flow = IplFlow(sim, socket)
        cards = [
            CardDescriptor(
                slot=1,  # odd slot: illegal for ConTutto-sized cards
                buffer=_contutto(sim),
                fsi_slave=ConTuttoFsiSlave(sim, CsrBlock()),
                sequencer=PowerSequencer(sim),
            )
        ]
        with pytest.raises(PlugRuleError):
            flow.boot(cards)

    def test_boot_report_duration_accumulates_power_and_training(self):
        system = ContuttoSystem.build(
            [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB)]
        )
        # power sequencing (ms) + FPGA config (120 ms) + training (us)
        assert system.boot_report.duration_ps > 120 * 10**9


def _contutto(sim):
    from repro.fpga import ConTuttoBuffer

    return ConTuttoBuffer(sim, [DdrDram(64 * MIB, refresh_enabled=False)])


class TestDeterminism:
    def test_full_system_experiment_is_bit_deterministic(self):
        def run():
            system = ContuttoSystem.build(
                [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB)],
                seed=99,
            )
            latency = system.measure_latency_ns("contutto", samples=8)
            return latency, system.sim.now_ps

        assert run() == run()

    def test_different_seeds_differ_somewhere(self):
        def training_duration(seed):
            system = ContuttoSystem.build(
                [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB)],
                seed=seed,
            )
            return system.boot_report.duration_ps

        durations = {training_duration(s) for s in range(6)}
        assert len(durations) > 1  # alignment retries vary with the seed


class TestMiscGuards:
    def test_signal_value_none_before_trigger(self):
        sig = Signal("x")
        assert sig.value is None
        assert not sig.triggered

    def test_simulator_run_is_not_reentrant(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.call_after(10, reenter)
        sim.run()

    def test_centaur_rejects_empty_device_list(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Centaur(Simulator(), [])
