"""The 32-entry command tag window.

The POWER8 host maintains thirty-two tags identifying commands in flight on
one DMI channel (Section 2.3).  A command occupies its tag from issue until
the buffer's *done* arrives.  When all tags are outstanding the host cannot
issue — this is exactly the coupling the paper highlights: a slow buffer does
not just add latency, it throttles throughput once the tag window fills.

:class:`TagPool` tracks the window and records how long issue stalls waiting
for a free tag, so experiments can report both effects.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ProtocolError
from ..sim import Signal, Simulator

NUM_TAGS = 32


class TagPool:
    """Allocator for the per-channel 32-tag command window."""

    def __init__(self, sim: Simulator, num_tags: int = NUM_TAGS):
        if num_tags <= 0:
            raise ProtocolError(f"tag pool needs at least one tag, got {num_tags}")
        self.sim = sim
        self.num_tags = num_tags
        self._free: List[int] = list(range(num_tags))
        self._in_flight: Dict[int, int] = {}  # tag -> issue time (ps)
        self._waiters: List[Signal] = []
        # Stats
        self.total_acquired = 0
        self.stall_events = 0
        self.stall_ps = 0

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def try_acquire(self) -> Optional[int]:
        """Take a free tag, or ``None`` if the window is full."""
        if not self._free:
            return None
        tag = self._free.pop(0)
        self._in_flight[tag] = self.sim.now_ps
        self.total_acquired += 1
        return tag

    def acquire(self):
        """Process-style acquire: generator yielding until a tag frees up.

        Usage inside a process: ``tag = yield from pool.acquire()``.
        """
        tag = self.try_acquire()
        if tag is not None:
            return tag
        self.stall_events += 1
        stall_start = self.sim.now_ps
        while tag is None:
            gate = Signal("tag-wait")
            self._waiters.append(gate)
            yield gate
            tag = self.try_acquire()
        self.stall_ps += self.sim.now_ps - stall_start
        return tag

    def release(self, tag: int) -> int:
        """Return ``tag`` to the pool; returns how long it was held (ps)."""
        if tag not in self._in_flight:
            raise ProtocolError(f"releasing tag {tag} that is not in flight")
        issued_at = self._in_flight.pop(tag)
        self._free.append(tag)
        if self._waiters:
            # Wake exactly one waiter per freed tag to avoid thundering herds.
            self._waiters.pop(0).trigger()
        return self.sim.now_ps - issued_at
