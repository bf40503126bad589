"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Signal, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now_ps == 0

    def test_call_after_advances_time(self):
        sim = Simulator()
        seen = []
        sim.call_after(1_000, lambda: seen.append(sim.now_ps))
        sim.run()
        assert seen == [1_000]

    def test_call_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.call_at(5_000, lambda: seen.append(sim.now_ps))
        sim.run()
        assert seen == [5_000]

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_after(300, lambda: order.append("c"))
        sim.call_after(100, lambda: order.append("a"))
        sim.call_after(200, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.call_after(100, lambda l=label: order.append(l))
        sim.run()
        assert order == list("abcde")

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.call_after(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(50, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().call_after(-1, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []
        sim.call_after(10, lambda: sim.call_after(10, lambda: seen.append(sim.now_ps)))
        sim.run()
        assert seen == [20]

    def test_run_returns_event_count(self):
        sim = Simulator()
        for _ in range(5):
            sim.call_after(10, lambda: None)
        assert sim.run() == 5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.call_after(100, lambda: seen.append("early"))
        sim.call_after(10_000, lambda: seen.append("late"))
        sim.run(until_ps=1_000)
        assert seen == ["early"]
        assert sim.now_ps == 1_000

    def test_run_until_then_resume(self):
        sim = Simulator()
        seen = []
        sim.call_after(10_000, lambda: seen.append("late"))
        sim.run(until_ps=1_000)
        sim.run()
        assert seen == ["late"]

    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule():
            sim.call_after(1, reschedule)

        sim.call_after(1, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_pending_events_is_the_queue_length(self):
        sim = Simulator()
        assert sim.call_after(10, lambda: None) is None
        sim.call_after(20, lambda: None)
        assert sim.pending_events == 2
        sim.run(until_ps=15)
        assert sim.pending_events == 1


class TestSignals:
    def test_trigger_wakes_waiter(self):
        sig = Signal("s")
        seen = []
        sig.add_waiter(seen.append)
        sig.trigger(42)
        assert seen == [42]

    def test_waiter_after_trigger_fires_immediately(self):
        sig = Signal("s")
        sig.trigger("v")
        seen = []
        sig.add_waiter(seen.append)
        assert seen == ["v"]

    def test_double_trigger_raises(self):
        sig = Signal("s")
        sig.trigger()
        with pytest.raises(RuntimeError):
            sig.trigger()

    def test_run_until_signal_returns_value(self):
        sim = Simulator()
        sig = Signal("s")
        sim.trigger_after(500, sig, "done")
        assert sim.run_until_signal(sig) == "done"
        assert sim.now_ps == 500

    def test_run_until_signal_deadlock_detected(self):
        sim = Simulator()
        sig = Signal("never")
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_signal(sig)

    def test_run_until_signal_timeout(self):
        sim = Simulator()
        sig = Signal("slow")
        sim.trigger_after(10_000, sig)
        with pytest.raises(SimulationError, match="timeout"):
            sim.run_until_signal(sig, timeout_ps=1_000)
