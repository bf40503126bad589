"""Regression tests for the kernel's timeout/guard edge cases.

Every event runs through one dispatch loop.  What varies is the per-event
hook it is given (none, a kernel-event instant, a profiler timing, or
both) and the drive that starts it (``run(until_ps)`` or
``run_until_signal(timeout_ps)``), so the guards are checked over that
whole matrix:

* exactly ``max_events`` events execute before the runaway error raises,
  never one more;
* no event past the limit runs, the profiler counts one run per drive,
  and ``kernel.events`` counts exactly the events run.

Drives do not nest: a drive started from an event callback raises, and a
drive that raised leaves the kernel ready for the next one.
"""

from contextlib import ExitStack, contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Signal, Simulator
from repro.sim.kernel import DEFAULT_MAX_EVENTS
from repro.sim.profile import profiled
from repro.telemetry import TraceSession

#: per-event hook modes: (kernel-event instants, profiler)
HOOK_MODES = {
    "plain": (False, False),
    "trace": (True, False),
    "profile": (False, True),
    "trace+profile": (True, True),
}

DRIVES = ["run", "signal"]


@contextmanager
def hooks(mode):
    """Run the block with the kernel hook in ``mode``; yields (session, prof).

    Every mode runs under a session so ``kernel.events`` can be read; in
    ``plain`` it has kernel events off, which leaves the loop hook-free.
    """
    kernel_events, profile_on = HOOK_MODES[mode]
    with ExitStack() as stack:
        session = stack.enter_context(TraceSession(kernel_events=kernel_events))
        prof = stack.enter_context(profiled()) if profile_on else None
        yield session, prof


def drive(sim, kind, signal, limit_ps, max_events=DEFAULT_MAX_EVENTS):
    """Start one ``kind`` drive bounded by ``limit_ps`` of simulated time."""
    if kind == "run":
        return sim.run(until_ps=limit_ps, max_events=max_events)
    return sim.run_until_signal(signal, timeout_ps=limit_ps, max_events=max_events)


def instants(session):
    return sum(1 for e in session.events if e.category == "kernel" and e.ph == "i")


@pytest.mark.parametrize("mode", list(HOOK_MODES))
@pytest.mark.parametrize("kind", DRIVES)
class TestHookMatrix:
    def test_exactly_max_events_execute(self, kind, mode):
        sim = Simulator()
        executed = []

        def reschedule():
            executed.append(sim.now_ps)
            sim.call_after(1, reschedule)

        sim.call_after(1, reschedule)
        with hooks(mode) as (session, prof):
            with pytest.raises(SimulationError, match="max_events"):
                drive(sim, kind, Signal("never"), 10**9, max_events=50)
        assert len(executed) == 50
        assert instants(session) == (50 if HOOK_MODES[mode][0] else 0)
        if prof is not None:
            assert prof.events == 50
            assert prof.runs == 1

    def test_only_live_events_run_and_count(self, kind, mode):
        sim = Simulator()
        sig = Signal("done")
        seen = []
        sim.call_after(200, seen.append, "live")
        sim.trigger_after(400, sig)
        sim.call_after(5_000, seen.append, "late")  # past the limit
        with hooks(mode) as (session, prof):
            drive(sim, kind, sig, 1_000)
        assert seen == ["live"]
        assert sig.triggered
        assert sim.now_ps == (1_000 if kind == "run" else 400)
        assert sim.pending_events == 1
        assert session.registry.counter("kernel.events").count == 2
        assert instants(session) == (2 if HOOK_MODES[mode][0] else 0)
        if prof is not None:
            assert prof.counts_by_key() == {"Signal.trigger": 1, "list.append": 1}
            assert prof.runs == 1


def replay(schedule, until_ps, signal_at, timeout_ps, mode):
    """Three drives over one random schedule; returns everything observable.

    Each ``(delay, respawns)`` entry schedules a callback that logs itself
    and reschedules itself ``respawns`` more times, so the queue always
    drains.
    """
    sim = Simulator()
    order = []

    def fire(label, respawns):
        order.append((label, sim.now_ps))
        if respawns:
            sim.call_after(3 * respawns, fire, label, respawns - 1)

    for label, (delay, respawns) in enumerate(schedule):
        sim.call_after(delay, fire, label, respawns)
    sig = Signal("mid")
    sim.trigger_after(signal_at, sig)
    observed = []
    with hooks(mode) as (session, prof):
        observed.append((sim.run(until_ps=until_ps), sim.now_ps, sim.pending_events))
        try:
            sim.run_until_signal(sig, timeout_ps=timeout_ps)
            observed.append(("fired", sim.now_ps, sim.pending_events))
        except SimulationError as exc:
            observed.append((str(exc), sim.now_ps, sim.pending_events))
        observed.append((sim.run(), sim.now_ps, sim.pending_events))
    if prof is not None:
        assert prof.runs == 3
        assert prof.events == len(order) + 1  # the signal trigger too
    if HOOK_MODES[mode][0]:
        assert instants(session) == len(order) + 1
    return order, observed


@settings(deadline=None)
@given(
    schedule=st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 3)),
        min_size=1, max_size=25,
    ),
    until_ps=st.integers(0, 80),
    signal_at=st.integers(0, 120),
    timeout_ps=st.integers(0, 80),
)
def test_hook_modes_dispatch_identically(schedule, until_ps, signal_at, timeout_ps):
    reference = replay(schedule, until_ps, signal_at, timeout_ps, "plain")
    for mode in ("trace", "profile", "trace+profile"):
        assert replay(schedule, until_ps, signal_at, timeout_ps, mode) == reference


class TestSignalDeadline:
    def test_live_event_inside_deadline_still_runs(self):
        sim = Simulator()
        sig = Signal("ok")
        sim.call_after(500, lambda: None)
        sim.trigger_after(800, sig, "v")
        assert sim.run_until_signal(sig, timeout_ps=1_000) == "v"
        assert sim.now_ps == 800

    def test_signal_max_events_guard(self):
        sim = Simulator()
        sig = Signal("never")
        executed = []

        def reschedule():
            executed.append(sim.now_ps)
            sim.call_after(1, reschedule)

        sim.call_after(1, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until_signal(sig, max_events=50)
        assert len(executed) == 50


class TestExactMaxEvents:
    def test_run_executes_exactly_max_events(self):
        sim = Simulator()
        executed = []

        def reschedule():
            executed.append(sim.now_ps)
            sim.call_after(1, reschedule)

        sim.call_after(1, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)
        assert len(executed) == 100

    def test_run_at_the_limit_does_not_raise(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.call_after(10 * (i + 1), lambda i=i: seen.append(i))
        assert sim.run(max_events=5) == 5
        assert seen == [0, 1, 2, 3, 4]


NESTED_DRIVES = {
    "run": lambda sim: sim.run(),
    "signal": lambda sim: sim.run_until_signal(Signal("inner"), timeout_ps=10**6),
}


class TestDrivesDoNotNest:
    @pytest.mark.parametrize("inner", list(NESTED_DRIVES))
    @pytest.mark.parametrize("outer", list(NESTED_DRIVES))
    def test_nested_drive_is_refused(self, outer, inner):
        sim = Simulator()
        done = Signal("outer")
        refused = []
        seen = []

        def reenter():
            try:
                NESTED_DRIVES[inner](sim)
            except SimulationError as exc:
                refused.append(str(exc))
            done.trigger()

        sim.call_after(10, reenter)
        sim.call_after(20, seen.append, "after")
        with profiled() as prof:
            if outer == "run":
                assert sim.run() == 2
            else:
                sim.run_until_signal(done)
                sim.run()
        assert len(refused) == 1 and "already running" in refused[0]
        assert seen == ["after"]  # dispatched by the outer drive, not the nested one
        assert prof.runs == (1 if outer == "run" else 2)

    @pytest.mark.parametrize("error", ["timeout", "deadlock", "max_events"])
    def test_failed_drive_releases_the_kernel(self, error):
        sim = Simulator()
        kwargs = {}
        if error == "timeout":
            sim.call_after(100, lambda: None)
            kwargs["timeout_ps"] = 10
        elif error == "max_events":
            def reschedule():
                sim.call_after(1, reschedule)

            sim.call_after(1, reschedule)
            kwargs["max_events"] = 5
        with pytest.raises(SimulationError, match=error):
            sim.run_until_signal(Signal("never"), **kwargs)
        after = Signal("after")
        sim.trigger_after(0, after, "ok")
        assert sim.run_until_signal(after) == "ok"
