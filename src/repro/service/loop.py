"""The open-loop service core: bounded queue, c servers, shed or wait.

The loop replays an arrival stream against ``c`` parallel service
channels with a bounded admission queue — the G/G/c recurrence that
turns a *latency* model into a *service* model.  Every request's service
demand is drawn deterministically before the loop runs
(:func:`~repro.service.profile.draw_demand`), so the loop itself is pure
integer arithmetic over two heaps, run once per repetition over the
whole, time-ordered stream: the bounded queue couples every request to
every other.

Overload is measured, not hidden: when arrivals outpace the drain rate
the queue delay grows until the bound trips, and every arrival past the
bound is *shed* with zero service — both effects land in the run table
(``queue_delay_mean_ms`` climbing, ``shed_rate`` > 0, ``achieved_rps``
pinned below ``offered_rps``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from .schedule import PS_PER_MS, Arrival

#: terminal states a request can reach
OUTCOME_STATUSES = ("ok", "failed", "shed")


@dataclass(frozen=True)
class RequestOutcome:
    """One request's fate after the service loop."""

    index: int
    t_ps: int                 # arrival time
    tenant: str
    klass: str
    status: str               # "ok" | "failed" | "shed"
    queue_delay_ps: int       # admission → service start (0 when shed)
    service_ps: int           # service demand actually consumed (0 when shed)
    done_ps: int              # completion (shed: equals arrival time)

    @property
    def admitted(self) -> bool:
        return self.status != "shed"

    @property
    def latency_ps(self) -> int:
        """End-to-end sojourn time; 0 for shed requests."""
        return self.done_ps - self.t_ps if self.admitted else 0


class ServiceLoop:
    """Deterministic bounded-queue G/G/c replay of a demand stream."""

    def __init__(
        self,
        servers: int,
        queue_limit: int,
        max_queue_delay_ps: Optional[int] = None,
    ):
        if servers < 1:
            raise ConfigurationError("servers must be >= 1")
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        self.servers = servers
        self.queue_limit = queue_limit
        self.max_queue_delay_ps = max_queue_delay_ps

    def run(
        self, demands: Iterable[Tuple[Arrival, int, bool]]
    ) -> List[RequestOutcome]:
        """Replay ``(arrival, service_ps, ok)`` triples in arrival order.

        The stream must be sorted by arrival time (the generator's
        global order).  A failed operation still occupies its server for
        the drawn service time — failure is an outcome, not an early
        exit, matching how the sim's storage retries burn real time.
        """
        # server free times; popping the min yields the next idle channel
        free_at: List[int] = [0] * self.servers
        heapq.heapify(free_at)
        # service-start times of admitted-but-not-started requests; the
        # queue length at time t is the count of entries still > t
        pending_starts: List[int] = []
        outcomes: List[RequestOutcome] = []
        last_t = None

        for arrival, service_ps, op_ok in demands:
            t = arrival.t_ps
            if last_t is not None and t < last_t:
                raise ConfigurationError(
                    "service loop needs arrivals in time order"
                )
            last_t = t
            # drain queue entries whose service already started
            while pending_starts and pending_starts[0] <= t:
                heapq.heappop(pending_starts)

            next_free = free_at[0]
            start = max(t, next_free)
            wait = start - t
            shed = len(pending_starts) >= self.queue_limit or (
                self.max_queue_delay_ps is not None
                and wait > self.max_queue_delay_ps
            )
            if shed:
                outcomes.append(
                    RequestOutcome(
                        arrival.index, t, arrival.tenant, arrival.klass,
                        "shed", 0, 0, t,
                    )
                )
                continue

            heapq.heapreplace(free_at, start + service_ps)
            if wait > 0:
                heapq.heappush(pending_starts, start)
            outcomes.append(
                RequestOutcome(
                    arrival.index, t, arrival.tenant, arrival.klass,
                    "ok" if op_ok else "failed",
                    wait, service_ps, start + service_ps,
                )
            )
        return outcomes


def run_service(
    schedule, demands: Iterable[Tuple[Arrival, int, bool]]
) -> List[RequestOutcome]:
    """Convenience: a :class:`ServiceLoop` configured from a schedule."""
    bound = (
        None
        if schedule.max_queue_delay_ms is None
        else int(schedule.max_queue_delay_ms * PS_PER_MS)
    )
    return ServiceLoop(schedule.servers, schedule.queue_limit, bound).run(demands)
