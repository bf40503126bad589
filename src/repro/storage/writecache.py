"""GPFS-style non-volatile write cache (the Table 4 experiment).

GPFS used the ConTutto-attached STT-MRAM "as a write cache in front of a
hard disk drive to aggregate small random writes into larger sequential
writes to the disk, thereby avoiding the latency hit of repositioning the
drive head for each of the original small writes" (Section 4.2).

:class:`NvWriteCache` implements that recovery-log pattern:

* an application write is staged into the NVM log (a bounded circular
  region) and acknowledged as soon as it is persistent there;
* a background destager drains full log segments as one large sequential
  write to the backing disk;
* if the log fills faster than the disk drains, application writes stall —
  the sustained-rate bound of any write-back cache.

Backpressure is strict: admission requires a free segment beyond the ones
already full, and stalled writers wait in FIFO order.  A destage
completion wakes only the *head* of the stall queue; each woken writer
re-runs the admission check, and once its space is accounted it
chain-wakes the next stalled writer only if admission space remains (a
freed segment can admit more than one small write).  A burst of stalled
writes can therefore never over-fill the log past ``segment_bytes *
segments``.  Writes that straddle the circular-log boundary are split
into two log IOs and acknowledged when both are persistent.

Reads are real too: the cache tracks which application extents are
currently staged in the log (FIFO residency, retired as the destager
drains segments).  A read fully covered by one resident extent is served
from the NVM log at NVM latency and attributed ``wcache.read_hit``; any
other read — destaged, never written, or straddling staged writes — goes
to the backing disk as ``wcache.read_miss``.  Both stages replace the
inner IO's ``storage.service`` in the journey, so a latency breakdown
separates log-served reads from disk-served ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import StorageError
from ..sim import Signal, Simulator
from ..telemetry import probe


@dataclass(frozen=True)
class WriteCacheConfig:
    """Log geometry and destage policy."""

    #: log segment size: one destage IO to the disk
    segment_bytes: int = 8 << 20
    #: number of segments in the NVM log
    segments: int = 16
    #: start destaging when this many segments are full
    destage_threshold: int = 2

    def __post_init__(self) -> None:
        if self.segment_bytes <= 0:
            raise StorageError(
                f"write cache segment_bytes must be positive (got "
                f"{self.segment_bytes})"
            )
        if self.segments < 2:
            raise StorageError(
                f"write cache needs >= 2 segments (got {self.segments}): "
                "admission requires one free segment while another destages"
            )
        if self.destage_threshold <= 0:
            raise StorageError(
                f"destage threshold must be >= 1 (got "
                f"{self.destage_threshold}): 0 would destage empty segments"
            )


class WriteCacheCounts(probe.Counts):
    """What one write cache served, staged, destaged and stalled."""

    METRICS = {
        "read_hits": "storage.wcache.read_hits",
        "read_misses": "storage.wcache.read_misses",
        "writes_staged": "storage.wcache.staged",
        "destages": "storage.wcache.destages",
        "stalls": "storage.wcache.stalls",
        "wrap_splits": "storage.wcache.wrap_splits",
        "stage_errors": "storage.wcache.stage_errors",
        "destage_errors": "storage.wcache.destage_errors",
        "freezes": "storage.wcache.freezes",
    }


class NvWriteCache:
    """Write-back cache: NVM log in front of a slow sequential-friendly disk."""

    def __init__(
        self,
        sim: Simulator,
        log_device,       # block-style device for the NVM log (e.g. PmemBlockDevice)
        backing_device,   # the disk being protected
        config: WriteCacheConfig = WriteCacheConfig(),
        name: str = "wcache",
    ):
        if config.segment_bytes * config.segments > log_device.capacity_bytes:
            raise StorageError(f"{name}: log larger than the NVM device")
        if config.destage_threshold > config.segments - 1:
            raise StorageError(
                f"{name}: destage threshold must leave one admission segment"
            )
        self.sim = sim
        self.log_device = log_device
        self.backing = backing_device
        self.config = config
        self.name = name
        self._log_cursor = 0
        self._full_segments = 0
        self._segment_fill = 0
        self._destage_active = False
        self._frozen = False
        #: FIFO of stalled writers' wake gates — one is woken per freed
        #: segment, and each re-runs admission before staging
        self._stalled: List[Signal] = []
        self._next_disk_offset = 0
        #: staged-but-not-destaged extents, oldest first:
        #: ``[app_offset, nbytes, log_offset]`` — the read path's index
        self._resident: List[List[int]] = []
        self.counts = WriteCacheCounts()
        #: high-water mark of staged-but-not-destaged log bytes; bounded
        #: by ``segment_bytes * segments`` now that admission is strict
        self.max_occupancy_bytes = 0

    # -- application-facing read ---------------------------------------------

    def read(self, offset: int, nbytes: int) -> Signal:
        """Serve a read from the NVM log while the data is staged there.

        A hit requires full containment in one resident extent; anything
        else — destaged, never written, or spanning staged writes — is a
        miss against the backing disk.  The signal's value is None on
        success or the surfaced :class:`StorageError`.
        """
        done = Signal(f"{self.name}.r")
        jid = None
        owned = False
        journeys = probe.tracker()
        if journeys is not None:
            jid = journeys.current()
            if jid is None:
                jid = journeys.begin(
                    "storage.read", offset, self.name, self.sim.now_ps
                )
                owned = jid is not None

        def finished(error) -> None:
            if owned and journeys is not None and jid is not None:
                journeys.finish(jid, self.sim.now_ps)
            done.trigger(error)

        extent = self._find_resident(offset, nbytes)
        if extent is None:
            self.counts.read_misses += 1
            if journeys is not None:
                journeys.push(jid)
            inner = self.backing.submit_read(
                offset, nbytes, stage="wcache.read_miss"
            )
            if journeys is not None:
                journeys.pop()
            inner.add_waiter(finished)
            return done

        self.counts.read_hits += 1
        # the staged copy may straddle the circular-log end even when the
        # original write did not retire there — split like the write path
        log_size = self.config.segment_bytes * self.config.segments
        log_offset = (extent[2] + (offset - extent[0])) % log_size
        first_part = min(nbytes, log_size - log_offset)
        parts = [(log_offset, first_part)]
        if first_part < nbytes:
            parts.append((0, nbytes - first_part))
        pending = {"count": len(parts), "error": None}

        def part_done(value) -> None:
            if isinstance(value, StorageError):
                pending["error"] = value
            pending["count"] -= 1
            if pending["count"] == 0:
                finished(pending["error"])

        for part_offset, part_bytes in parts:
            if journeys is not None:
                journeys.push(jid)
            inner = self.log_device.submit_read(
                part_offset, part_bytes, stage="wcache.read_hit"
            )
            if journeys is not None:
                journeys.pop()
            inner.add_waiter(part_done)
        return done

    def _find_resident(self, offset: int, nbytes: int) -> Optional[List[int]]:
        """Newest resident extent fully covering ``[offset, +nbytes)``.

        Newest-first so a rewrite of the same record hits its latest
        staged copy, not a stale one awaiting destage.
        """
        for extent in reversed(self._resident):
            if extent[0] <= offset and offset + nbytes <= extent[0] + extent[1]:
                return extent
        return None

    def _retire(self, nbytes: int) -> None:
        """Drop residency for the oldest ``nbytes`` of staged data — the
        log drains FIFO, so a destaged segment retires the oldest extents
        (the head extent shrinks when the segment boundary splits it)."""
        log_size = self.config.segment_bytes * self.config.segments
        remaining = nbytes
        while remaining > 0 and self._resident:
            head = self._resident[0]
            if head[1] <= remaining:
                remaining -= head[1]
                self._resident.pop(0)
            else:
                head[0] += remaining
                head[2] = (head[2] + remaining) % log_size
                head[1] -= remaining
                remaining = 0

    # -- application-facing write --------------------------------------------

    def write(self, offset: int, nbytes: int) -> Signal:
        """Stage a small write; acknowledged when persistent in the log.

        The signal's value is None on success or the :class:`StorageError`
        surfaced by the log device (injected IO failure past its retry
        bound)."""
        done = Signal(f"{self.name}.w")
        jid = None
        owned = False
        journeys = probe.tracker()
        if journeys is not None:
            jid = journeys.current()
            if jid is None:
                jid = journeys.begin(
                    "storage.write", offset, self.name, self.sim.now_ps
                )
                owned = jid is not None
        self._admit(offset, nbytes, done, jid, owned, first=True)
        return done

    def _admit(
        self, offset: int, nbytes: int, done: Signal,
        jid: Optional[int], owned: bool, first: bool = False,
    ) -> None:
        """Run the admission check; stall (FIFO) while the log is full.

        A woken writer lands back here and re-checks — admission is never
        granted on the wake alone.  A re-checked writer that loses (the
        freed segment was consumed meanwhile) goes back to the *head* of
        the stall queue, preserving FIFO order; a new writer arriving
        while others are stalled queues behind them even if space just
        freed, so nobody jumps the queue.
        """
        if (self._full_segments >= self.config.segments - 1
                or (first and self._stalled)):
            if first:
                self.counts.stalls += 1
                trace = probe.session
                if trace is not None and trace.spans:
                    trace.instant(
                        "storage", f"stall:{self.name}", self.sim.now_ps,
                        {"full_segments": self._full_segments},
                    )
            gate = Signal(f"{self.name}.stall")
            if first:
                self._stalled.append(gate)
            else:
                self._stalled.insert(0, gate)
            gate.add_waiter(
                lambda _: self._admit(offset, nbytes, done, jid, owned)
            )
            return
        if jid is not None:
            journeys = probe.tracker()
            if journeys is not None:
                # zero-length when admission did not stall
                journeys.stage_to(jid, "wcache.admit", self.sim.now_ps,
                                  kind="queue")
        self._stage(offset, nbytes, done, jid, owned)

    def _stage(
        self, offset: int, nbytes: int, done: Signal,
        jid: Optional[int], owned: bool,
    ) -> None:
        log_size = self.config.segment_bytes * self.config.segments
        log_offset = self._log_cursor
        self._log_cursor = (log_offset + nbytes) % log_size
        self._resident.append([offset, nbytes, log_offset])
        self._segment_fill += nbytes
        while self._segment_fill >= self.config.segment_bytes:
            self._segment_fill -= self.config.segment_bytes
            self._full_segments += 1
        occupancy = (
            self._full_segments * self.config.segment_bytes + self._segment_fill
        )
        if occupancy > self.max_occupancy_bytes:
            self.max_occupancy_bytes = occupancy

        # a write straddling the circular-log end becomes two log IOs;
        # the ack waits for both
        first_part = min(nbytes, log_size - log_offset)
        parts = [(log_offset, first_part)]
        if first_part < nbytes:
            parts.append((0, nbytes - first_part))
            self.counts.wrap_splits += 1
        pending = {"count": len(parts), "error": None}
        journeys = probe.tracker()

        def staged(value) -> None:
            if isinstance(value, StorageError):
                pending["error"] = value
            pending["count"] -= 1
            if pending["count"]:
                return
            error = pending["error"]
            if error is None:
                self.counts.writes_staged += 1
            else:
                self.counts.stage_errors += 1
            if owned and journeys is not None and jid is not None:
                journeys.finish(jid, self.sim.now_ps)
            done.trigger(error)
            self._maybe_destage()

        for part_offset, part_bytes in parts:
            if journeys is not None:
                journeys.push(jid)
            inner = self.log_device.submit_write(part_offset, part_bytes)
            if journeys is not None:
                journeys.pop()
            inner.add_waiter(staged)

        # a freed segment can admit more than one small write: with this
        # writer's space accounted and its log IOs issued, chain-wake the
        # next stalled writer while admission space remains (the wake
        # re-runs the check).  After the IO issue, so acks stay FIFO.
        if self._stalled and self._full_segments < self.config.segments - 1:
            self._stalled.pop(0).trigger()

    # -- background destage ----------------------------------------------------

    def freeze_destage(self) -> None:
        """Suspend the destager (the ``storage.destage_stall`` injector);
        staged writes keep accumulating until the log fills and stalls."""
        self._frozen = True
        self.counts.freezes += 1

    def unfreeze_destage(self) -> None:
        """Resume the destager and drain any backlog."""
        self._frozen = False
        self._maybe_destage()

    def _maybe_destage(self) -> None:
        if self._destage_active or self._frozen:
            return
        if self._full_segments < self.config.destage_threshold:
            return
        self._destage_active = True
        destage_start = self.sim.now_ps
        disk_offset = self._next_disk_offset
        self._next_disk_offset = (
            disk_offset + self.config.segment_bytes
        ) % self.backing.capacity_bytes
        journeys = probe.tracker()
        jid = None
        if journeys is not None:
            jid = journeys.begin(
                "storage.destage", disk_offset, self.name, destage_start,
                lane="destage",
            )
            journeys.push(jid)
        io = self.backing.submit_write(disk_offset, self.config.segment_bytes)
        if journeys is not None:
            journeys.pop()

        def destaged(value) -> None:
            if journeys is not None and jid is not None:
                journeys.finish(jid, self.sim.now_ps)
            if isinstance(value, StorageError):
                # the segment stays full; back off and retry on the next
                # trigger (the retry IO lands at the same disk offset)
                self.counts.destage_errors += 1
                self._next_disk_offset = disk_offset
                self._destage_active = False
                self._maybe_destage()
                return
            self.counts.destages += 1
            self._full_segments -= 1
            self._retire(self.config.segment_bytes)
            self._destage_active = False
            trace = probe.session
            if trace is not None and trace.spans:
                trace.complete(
                    "storage", f"destage:{self.name}",
                    destage_start, self.sim.now_ps,
                    {"bytes": self.config.segment_bytes},
                )
            # one segment freed -> wake the head of the stall queue; it
            # re-runs admission and chain-wakes further writers only
            # while space remains
            if self._stalled:
                self._stalled.pop(0).trigger()
            self._maybe_destage()

        io.add_waiter(destaged)


class DirectStore:
    """No-cache comparison path: every IO goes straight to the device.

    Offsets wrap at the device's capacity, so a GPFS file larger than
    the device maps onto it.
    """

    def __init__(self, device, name: str = "direct"):
        self.device = device
        self.name = name

    def write(self, offset: int, nbytes: int) -> Signal:
        return self.device.submit_write(offset % self.device.capacity_bytes, nbytes)

    def read(self, offset: int, nbytes: int) -> Signal:
        return self.device.submit_read(offset % self.device.capacity_bytes, nbytes)
