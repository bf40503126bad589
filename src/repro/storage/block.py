"""Block-device interface for the storage experiments.

The FIO (Figures 9, 10) and GPFS (Table 4) experiments compare *persistent
stores* across technologies and attach points.  Everything in this package
presents the same interface: submit a read or write of ``nbytes`` at
``offset``, get a completion signal.  Latency composition differs per
device and per attach point, which is exactly what those figures measure.

Two cross-cutting concerns live at this layer:

**Attribution.**  Every IO stages into a journey: the queueing delay in
front of the device (``storage.queue``) and the device service time
(``storage.service``) partition the IO's latency.  When an upper layer
(FIO, GPFS, the write cache) already opened a journey it pushes the id
onto the tracker's context stack and the device stages into it; a bare
``submit_*`` call opens — and finishes — its own journey.

**Fault injection.**  A device carries an optional :class:`IoFaultModel`
(installed by the ``storage.io_errors`` injector) and a
``slow_extra_ps`` penalty (``storage.slow_disk``).  A failed attempt is
retried up to the model's bound; exhausted retries surface a typed
:class:`~repro.errors.StorageError` as the completion signal's *value* —
callers that ignore values keep working, callers that care (FIO, GPFS,
the destager) check ``isinstance(value, StorageError)``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import StorageError
from ..sim import Rng, Signal, Simulator
from ..telemetry import probe

SECTOR_BYTES = 512
DEFAULT_IO_BYTES = 4096


class IoFaultModel:
    """Injected IO-failure state for one block device.

    ``force_failures`` fails the next N attempts deterministically;
    ``rate`` fails each attempt with that probability using the
    injector's forked RNG (deterministic per plan/seed).  ``max_retries``
    bounds how often the device retries before surfacing the error.
    """

    def __init__(
        self,
        rate: float = 0.0,
        force_failures: int = 0,
        max_retries: int = 2,
        rng: Optional[Rng] = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise StorageError(f"IO error rate {rate} outside [0, 1]")
        if max_retries < 0:
            raise StorageError("max_retries must be >= 0")
        self.rate = float(rate)
        self.force_failures = int(force_failures)
        self.max_retries = int(max_retries)
        self.rng = rng

    def should_fail(self) -> bool:
        """Consume one attempt: True when this attempt is injected-failed."""
        if self.force_failures > 0:
            self.force_failures -= 1
            return True
        return bool(
            self.rate and self.rng is not None and self.rng.chance(self.rate)
        )


class IoCounts(probe.Counts):
    """Completed IOs of one block device, and its injected-fault outcomes."""

    METRICS = {
        "reads": "storage.reads",
        "writes": "storage.writes",
        "bytes_read": "storage.bytes_read",
        "bytes_written": "storage.bytes_written",
        "io_errors": "storage.io_errors",
        "io_retries": "storage.io_retries",
        "io_failures": "storage.io_failed",
        "slowed_ios": "storage.slowed_ios",
    }


class BlockDevice:
    """Abstract block store with timed reads and writes."""

    def __init__(self, sim: Simulator, capacity_bytes: int, name: str):
        if capacity_bytes <= 0:
            raise StorageError(f"{name}: capacity must be positive")
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.name = name
        self.counts = IoCounts()
        #: injected fault state (None = healthy); see IoFaultModel
        self.io_fault: Optional[IoFaultModel] = None
        #: injected extra latency per IO (storage.slow_disk window)
        self.slow_extra_ps = 0

    # -- interface ----------------------------------------------------------

    def submit_read(
        self, offset: int, nbytes: int, stage: Optional[str] = None
    ) -> Signal:
        """Read; the signal fires when the IO completes.  The value is
        None on success (block data is not modeled functionally at this
        layer) or a :class:`StorageError` when injected failures exhaust
        the retry bound.  ``stage`` renames the journey's service stage
        (the write cache attributes ``wcache.read_hit`` /
        ``wcache.read_miss`` instead of ``storage.service``)."""
        return self._submit("read", offset, nbytes, stage=stage)

    def submit_write(
        self, offset: int, nbytes: int, stage: Optional[str] = None
    ) -> Signal:
        return self._submit("write", offset, nbytes, stage=stage)

    def _submit(
        self, op: str, offset: int, nbytes: int, stage: Optional[str] = None
    ) -> Signal:
        self._check(offset, nbytes)
        short = "r" if op == "read" else "w"
        done = Signal(f"{self.name}.{short}@{offset:#x}")
        t0 = self.sim.now_ps
        schedule = self._schedule_read if op == "read" else self._schedule_write
        service_stage = stage or "storage.service"
        jid = None
        owned = False
        journeys = probe.tracker()
        if journeys is not None:
            jid = journeys.current()
            if jid is None:
                jid = journeys.begin(f"storage.{op}", offset, self.name, t0)
                owned = jid is not None
        state = {"attempt": 0, "queue_end": t0, "slowed": False}

        def stage_to(end_ps: int) -> None:
            if journeys is not None and jid is not None:
                journeys.stage_to(jid, "storage.queue", state["queue_end"],
                                  kind="queue")
                journeys.stage_to(jid, service_stage, end_ps)

        def finish(error: Optional[StorageError]) -> None:
            now = self.sim.now_ps
            counts = self.counts
            trace = probe.session
            if error is None:
                if op == "read":
                    counts.reads += 1
                    counts.bytes_read += nbytes
                else:
                    counts.writes += 1
                    counts.bytes_written += nbytes
                if trace is not None and trace.spans:
                    span = "rd" if op == "read" else "wr"
                    trace.complete(
                        "storage", f"{span}:{self.name}", t0, now,
                        {"bytes": nbytes},
                    )
            else:
                counts.io_failures += 1
                if trace is not None and trace.spans:
                    trace.instant("storage", f"io_error:{self.name}", now,
                                  {"op": op, "offset": offset})
            stage_to(now)
            if owned:
                journeys.finish(jid, now)
            done.trigger(error)

        def complete() -> None:
            now = self.sim.now_ps
            if self.slow_extra_ps and not state["slowed"]:
                # a slow-disk window delays every IO once, after service
                state["slowed"] = True
                self.counts.slowed_ios += 1
                self.sim.call_after(self.slow_extra_ps, complete)
                return
            fault = self.io_fault
            if fault is not None and fault.should_fail():
                self.counts.io_errors += 1
                if state["attempt"] < fault.max_retries:
                    state["attempt"] += 1
                    self.counts.io_retries += 1
                    # account the failed attempt before re-queueing
                    stage_to(now)
                    state["queue_end"] = now
                    queue_end = schedule(offset, nbytes, complete)
                    if queue_end is not None:
                        state["queue_end"] = queue_end
                    return
                finish(StorageError(
                    f"{self.name}: injected IO error on {op} at {offset:#x} "
                    f"({fault.max_retries} retries exhausted)"
                ))
                return
            finish(None)

        queue_end = schedule(offset, nbytes, complete)
        if queue_end is not None:
            state["queue_end"] = queue_end
        return done

    # -- hooks for subclasses --------------------------------------------------

    def _schedule_read(self, offset: int, nbytes: int, complete) -> Optional[int]:
        """Schedule the IO; returns the sim time queueing ends (service
        starts), or None when the device does not distinguish the two."""
        raise NotImplementedError

    def _schedule_write(self, offset: int, nbytes: int, complete) -> Optional[int]:
        raise NotImplementedError

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes <= 0 or offset + nbytes > self.capacity_bytes:
            raise StorageError(
                f"{self.name}: IO [{offset:#x}, +{nbytes}) outside device"
            )
        if offset % SECTOR_BYTES or nbytes % SECTOR_BYTES:
            raise StorageError(f"{self.name}: IO not sector-aligned")
