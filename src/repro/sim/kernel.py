"""The discrete-event simulation kernel.

:class:`Simulator` owns the clock (integer picoseconds) and the event queue.
Everything else in the library — DMI links, memory controllers, accelerators —
is driven by callbacks and generator processes scheduled here.

Design notes
------------
* Events with equal timestamps run in the order they were scheduled
  (``(time_ps, seq)`` ordering), making runs bit-reproducible.
* The kernel never consults wall-clock time or global randomness; anything
  stochastic takes an explicit :class:`repro.sim.rng.Rng`.
* Processes are plain generators (see :mod:`repro.sim.process`); the kernel
  only knows about scheduled callbacks, keeping the core small and auditable.
* Heap entries are plain ``(time_ps, seq, fn, args)`` tuples: ``heapq``
  sifts compare C integers, and ``seq`` is unique so ``fn`` is never
  compared.  Scheduling returns nothing and an event cannot be cancelled,
  so every queued entry runs and :attr:`pending_events` is the queue length.
* :attr:`Simulator.now_ps` is a plain attribute; only the kernel writes it.
* Every event runs through one dispatch loop, :meth:`Simulator._drive`;
  :meth:`~Simulator.run` and :meth:`~Simulator.run_until_signal` only give
  it a stop signal and a time limit.  Kernel-event tracing and the profiler
  share one per-event hook chosen once per drive, so a drive with both off
  pays one ``is None`` test per event.

See ``docs/kernel.md`` for the hot-path design rules.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..telemetry import probe
from . import profile as _profile
from .event import Signal

#: default runaway-loop guard: exactly this many events may execute before
#: a drive raises :class:`SimulationError`
DEFAULT_MAX_EVENTS = 50_000_000

#: the stop signal :meth:`Simulator.run` drives against: it never fires, so
#: only the queue draining or ``until_ps`` ends a run
_NEVER = Signal("never")


def _event_hook(trace, prof) -> Optional[Callable[[int, Callable, tuple], None]]:
    """The per-event hook of one drive, chosen once before it starts.

    ``None`` (the loop calls each event directly) unless kernel-event
    tracing or the profiler is on; otherwise one closure that emits the
    event's instant, times its call into ``prof``, or both.
    """
    trace_events = trace is not None and trace.kernel_events
    if prof is None and not trace_events:
        return None

    def hook(time_ps: int, fn: Callable, args: tuple) -> None:
        if trace_events:
            trace.instant("kernel", getattr(fn, "__qualname__", "event"), time_ps)
        if prof is None:
            fn(*args)
        else:
            t0 = perf_counter()
            fn(*args)
            prof.record(_profile.event_key(fn), perf_counter() - t0)

    return hook


class Simulator:
    """A deterministic discrete-event simulator with picosecond resolution."""

    def __init__(self) -> None:
        #: current simulated time in picoseconds (written only by the kernel)
        self.now_ps = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, Callable[..., Any], tuple]] = []
        self._running = False

    # -- scheduling ------------------------------------------------------

    def call_at(self, time_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time ``time_ps``."""
        if time_ps < self.now_ps:
            raise SimulationError(
                f"cannot schedule in the past: {time_ps} < now {self.now_ps}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time_ps, seq, fn, args))

    def call_after(self, delay_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay_ps`` picoseconds from now."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        # Inlined call_at (minus the cannot-happen past check): this is the
        # kernel's most-called scheduling entry point.
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now_ps + delay_ps, seq, fn, args))

    def trigger_after(self, delay_ps: int, signal: Signal, value: Any = None) -> None:
        """Trigger ``signal`` with ``value`` after ``delay_ps``."""
        self.call_after(delay_ps, signal.trigger, value)

    # -- execution -------------------------------------------------------

    def run(self, until_ps: Optional[int] = None, max_events: int = DEFAULT_MAX_EVENTS) -> int:
        """Run events until the queue drains or simulated time passes ``until_ps``.

        Returns the number of events executed.  ``max_events`` guards against
        runaway self-rescheduling loops in model bugs: exactly ``max_events``
        events may execute; the error raises when one more is due.  Drives
        do not nest: calling this from an event callback raises.
        """
        trace = probe.session
        start_ps = self.now_ps
        limit = math.inf if until_ps is None else until_ps
        executed = self._drive(_NEVER, limit, max_events, trace)
        if until_ps is not None and self.now_ps < until_ps:
            self.now_ps = until_ps
        if trace is not None:
            trace.complete(
                "kernel", "run", start_ps, self.now_ps, {"events": executed}
            )
            trace.count("kernel.runs")
            trace.count("kernel.events", executed)
        return executed

    def run_until_signal(
        self,
        signal: Signal,
        timeout_ps: Optional[int] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> Any:
        """Run until ``signal`` triggers; returns its value.

        Raises :class:`SimulationError` if the event queue drains (deadlock),
        the optional timeout elapses before the signal fires, or more than
        ``max_events`` events execute (a self-rescheduling loop that never
        fires the signal would otherwise spin forever with no timeout).
        Like :meth:`run`, it raises when called from an event callback.
        """
        trace = probe.session
        start_ps = self.now_ps
        limit = math.inf if timeout_ps is None else start_ps + timeout_ps
        executed = self._drive(signal, limit, max_events, trace)
        if not signal.triggered:
            if self._queue:
                raise SimulationError(
                    f"timeout waiting for signal {signal.name!r} after {timeout_ps}ps"
                )
            raise SimulationError(
                f"deadlock: event queue empty, signal {signal.name!r} never fired"
            )
        if trace is not None:
            trace.complete(
                "kernel", "run_until_signal", start_ps, self.now_ps,
                {"signal": signal.name, "events": executed},
            )
            trace.count("kernel.signal_waits")
            trace.count("kernel.events", executed)
        return signal.value

    def _drive(self, stop: Signal, limit: float, max_events: int, trace) -> int:
        """The one dispatch loop behind :meth:`run` and :meth:`run_until_signal`.

        Executes events in ``(time_ps, seq)`` order until ``stop`` fires,
        the queue drains, or the next event lies past ``limit``, and
        returns how many ran.  The loop owns the running flag, so no drive
        can start inside another, and the flag clears however the drive
        ends.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        prof = _profile.active
        if prof is not None:
            prof.runs += 1
        hook = _event_hook(trace, prof)
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while not stop._triggered and queue:
                if queue[0][0] > limit:
                    break
                if executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a scheduling loop"
                    )
                time_ps, _, fn, args = heappop(queue)
                self.now_ps = time_ps
                if hook is None:
                    fn(*args)
                else:
                    hook(time_ps, fn, args)
                executed += 1
        finally:
            self._running = False
        return executed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
