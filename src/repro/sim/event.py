"""The kernel's wake-up primitive.

:class:`Signal` is a wake-up point processes can wait on.  A signal can be
triggered at most once with an optional value; waiting on an already
triggered signal resumes immediately.  This matches the "event" concept in
simpy but with a deliberately smaller surface.  Scheduled callbacks are
not objects at all: the kernel queues them as plain ``(time_ps, seq, fn,
args)`` tuples (see :mod:`repro.sim.kernel`).
"""

from __future__ import annotations

from typing import Any, Callable, List


class Signal:
    """A one-shot wake-up point carrying an optional value.

    Processes wait on a signal by yielding it; :meth:`trigger` resumes all
    waiters at the current simulated time.  Triggering twice raises, because
    a silently re-armed signal is a classic source of lost wake-ups.
    """

    __slots__ = ("name", "_triggered", "_value", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self._triggered = False
        self._value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether :meth:`trigger` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value passed to :meth:`trigger` (``None`` before triggering)."""
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the signal, waking every waiter with ``value``."""
        if self._triggered:
            raise RuntimeError(f"signal {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; called immediately if already fired."""
        if self._triggered:
            callback(self._value)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"triggered={self._value!r}" if self._triggered else "pending"
        return f"<Signal {self.name!r} {state}>"
