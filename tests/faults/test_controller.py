"""FaultController: scheduling, windows, journey tagging, heal, teardown."""

from repro.core.system import CardSpec, ContuttoSystem
from repro.faults import FaultController, FaultPlan, FaultSpec, FaultWindow
from repro.sim import Simulator
from repro.telemetry import TraceSession
from repro.units import MIB

TIMEOUT_PS = 10**10


def build(seed=0):
    return ContuttoSystem.build(
        [CardSpec(slot=0, kind="contutto", capacity_per_dimm=64 * MIB)],
        seed=seed,
    )


def read(system, addr=0):
    return system.sim.run_until_signal(
        system.socket.read_line(system.region_for_slot(0).base + addr),
        timeout_ps=TIMEOUT_PS,
    )


class TestFaultTags:
    def plain_controller(self):
        return FaultController(Simulator(), FaultPlan(specs=()))

    def test_overlap_semantics(self):
        c = self.plain_controller()
        c.windows.append(FaultWindow("a", 0, start_ps=100, end_ps=200))
        c.windows.append(FaultWindow("b", 1, start_ps=150, end_ps=None))
        assert c.fault_tags(0, 50) == ()          # before both
        assert c.fault_tags(0, 100) == ("a",)     # touches a's start
        assert c.fault_tags(120, 180) == ("a", "b")
        assert c.fault_tags(250, 300) == ("b",)   # open window never ends
        assert c.fault_tags(201, 210) == ("b",)   # a is over

    def test_tags_sorted_and_deduped(self):
        c = self.plain_controller()
        c.windows.append(FaultWindow("z", 0, 0, 10))
        c.windows.append(FaultWindow("a", 1, 0, 10))
        c.windows.append(FaultWindow("a", 1, 5, 10))
        assert c.fault_tags(0, 10) == ("a", "z")


class TestExecution:
    def test_events_offset_from_start_time(self):
        system = build()
        boot_ps = system.sim.now_ps
        assert boot_ps > 0  # boot consumed simulated time
        plan = FaultPlan(specs=(FaultSpec(
            "dmi.frame_drop", target="0", at_ps=1_000, label="drop"),))
        controller = FaultController(system.sim, plan).install(system).start()
        system.sim.run(until_ps=system.sim.now_ps + 2_000)
        (window,) = controller.windows
        assert window.start_ps == boot_ps + 1_000

    def test_window_closes_after_duration(self):
        system = build()
        model = system.socket.slots[0].channel.down_link.error_model
        plan = FaultPlan(specs=(FaultSpec(
            "dmi.bit_errors", target="0", at_ps=0, duration_ps=5_000,
            params=(("rate", 0.5),), label="burst"),))
        controller = FaultController(system.sim, plan).install(system).start()
        system.sim.run(until_ps=system.sim.now_ps + 10_000)
        assert model.frame_error_rate == 0.0  # recovered at window end
        (window,) = controller.windows
        assert window.end_ps == window.start_ps + 5_000
        report = controller.stop()
        assert report.tallies["burst"].injected == 1
        assert report.tallies["burst"].recovered == 1

    def test_point_fault_window_is_instant(self):
        system = build()
        plan = FaultPlan(specs=(FaultSpec(
            "dmi.frame_drop", target="0", at_ps=0, label="p"),))
        controller = FaultController(system.sim, plan).install(system).start()
        system.sim.run(until_ps=system.sim.now_ps + 1_000)
        (window,) = controller.windows
        assert window.end_ps == window.start_ps

    def test_needs_heal_defers_to_between_runs(self):
        system = build()
        channel = system.socket.slots[0].channel
        plan = FaultPlan(specs=(FaultSpec(
            "dmi.degrade", target="0", at_ps=0, label="deg"),))
        controller = FaultController(system.sim, plan).install(system).start()
        system.sim.run(until_ps=system.sim.now_ps + 1_000)
        assert not channel.operational  # injected, not yet healed
        assert controller.heal() == [("deg", "recovered")]
        assert channel.operational
        report = controller.stop()
        assert report.tallies["deg"].recovered == 1

    def test_stop_recovers_open_windows_and_is_idempotent(self):
        system = build()
        model = system.socket.slots[0].channel.down_link.error_model
        plan = FaultPlan(specs=(FaultSpec(
            "dmi.bit_errors", target="0", at_ps=0, duration_ps=10**12,
            params=(("rate", 0.5),), label="long"),))
        controller = FaultController(system.sim, plan).install(system).start()
        system.sim.run(until_ps=system.sim.now_ps + 1_000)
        assert model.frame_error_rate == 0.5
        report = controller.stop()
        assert model.frame_error_rate == 0.0
        assert report.tallies["long"].recovered == 1
        assert controller.stop() is report  # second stop is a no-op
        assert report.tallies["long"].recovered == 1

    def test_events_after_stop_are_noops(self):
        system = build()
        plan = FaultPlan(specs=(FaultSpec(
            "dmi.frame_drop", target="0", at_ps=5_000, label="late"),))
        controller = FaultController(system.sim, plan).install(system).start()
        controller.stop()
        system.sim.run(until_ps=system.sim.now_ps + 10_000)
        assert controller.windows == []
        assert controller.report.total("injected") == 0


class TestTelemetry:
    def test_journeys_tagged_inside_window_only(self):
        with TraceSession() as session:
            system = build()
            read(system)  # clean journey, pre-fault
            plan = FaultPlan(specs=(FaultSpec(
                "dmi.bit_errors", target="0", at_ps=0, duration_ps=10**12,
                params=(("rate", 0.0),), label="w"),))
            controller = FaultController(system.sim, plan).install(system).start()
            read(system, 128)  # journey inside the open window
            controller.stop()
            read(system, 256)  # probe detached: clean again
        faults = [j.faults for j in session.journeys.completed]
        assert faults[0] == ()
        assert "w" in faults[1]
        assert faults[-1] == ()

    def test_counters_reach_registry(self):
        with TraceSession() as session:
            system = build()
            plan = FaultPlan(specs=(
                FaultSpec("dmi.frame_drop", target="0", at_ps=0,
                          duration_ps=1_000, label="a"),
                FaultSpec("nvdimm.power_loss", target="0", at_ps=0,
                          label="b"),  # DRAM slot: skipped
            ))
            controller = FaultController(system.sim, plan).install(system).start()
            system.sim.run(until_ps=system.sim.now_ps + 5_000)
            controller.stop()
        snapshot = session.registry.snapshot()
        assert snapshot["faults.injected"] == 1
        assert snapshot["faults.skipped"] == 1
        assert snapshot["faults.dmi.frame_drop"] == 1
        assert snapshot["faults.recovered"] == 1

    def test_stop_detaches_fault_probe(self):
        with TraceSession() as session:
            system = build()
            plan = FaultPlan(specs=(FaultSpec(
                "dmi.frame_drop", target="0", at_ps=0, label="x"),))
            controller = FaultController(system.sim, plan).install(system).start()
            assert session.journeys.fault_probe is not None
            controller.stop()
            assert session.journeys.fault_probe is None
