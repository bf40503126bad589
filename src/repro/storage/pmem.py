"""pmem.io-style persistent-memory driver over a DMI memory region.

The paper's STT-MRAM/NVDIMM experiments run "the full standard Linux stack
utilizing either the pmem.io driver stack or raw slram driver"
(Section 4).  This module is the pmem analogue: byte-addressable access to
a non-volatile region of the processor's real-address space, with
persistence guaranteed by the ConTutto ``flush`` command the paper added
to MBS for exactly this purpose (Section 4.2).

Access timing is *real*: a 4K transfer decomposes into 128-byte cache-line
commands issued through the socket's DMI machinery with bounded
memory-level parallelism; nothing here is a canned latency number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import StorageError
from ..processor.power8 import Power8Socket
from ..sim import Process, Signal, Simulator
from ..telemetry import probe
from ..units import CACHE_LINE_BYTES, ns_to_ps
from .block import IoFaultModel


@dataclass(frozen=True)
class PmemConfig:
    """Driver-path parameters."""

    #: concurrent outstanding line reads (load MLP of the copy loop)
    read_window: int = 6
    #: concurrent outstanding line writes (stores are posted deeper)
    write_window: int = 16
    #: software entry/exit overhead per driver call
    driver_overhead_ps: int = ns_to_ps(500)


class PmemRegion:
    """Byte-addressable persistent region behind a DMI channel."""

    def __init__(
        self,
        sim: Simulator,
        socket: Power8Socket,
        base: int,
        size: int,
        config: PmemConfig = PmemConfig(),
        name: str = "pmem0",
    ):
        region = socket.memory_map.region_at(base)
        if region.is_volatile:
            raise StorageError(f"{name}: region at {base:#x} is volatile DRAM")
        if base + size > region.base + region.os_size:
            raise StorageError(f"{name}: window exceeds the region's OS size")
        self.sim = sim
        self.socket = socket
        self.base = base
        self.size = size
        self.config = config
        self.name = name
        self.channel = region.channel
        # Stats
        self.persists = 0

    # -- helpers -------------------------------------------------------------

    def _lines(self, offset: int, nbytes: int) -> List[int]:
        if offset < 0 or nbytes <= 0 or offset + nbytes > self.size:
            raise StorageError(f"{self.name}: access outside the region")
        first = (self.base + offset) // CACHE_LINE_BYTES
        last = (self.base + offset + nbytes - 1) // CACHE_LINE_BYTES
        return [line * CACHE_LINE_BYTES for line in range(first, last + 1)]

    # -- operations -----------------------------------------------------------

    def read(self, offset: int, nbytes: int) -> Process:
        """Read bytes; process result is the data.

        Stages ``storage.driver`` and ``storage.lines`` into the calling
        layer's journey (the tracker's ``current()`` at call time); each
        line command also opens its own child DMI journey via the
        context stack.
        """
        lines = self._lines(offset, nbytes)
        journeys = probe.tracker()
        jid = journeys.current() if journeys is not None else None

        def run():
            yield self.config.driver_overhead_ps
            if journeys is not None and jid is not None:
                journeys.stage_to(jid, "storage.driver", self.sim.now_ps)
            issued: List[Signal] = []
            window: List[Signal] = []
            for addr in lines:
                if len(window) >= self.config.read_window:
                    oldest = window.pop(0)
                    if not oldest.triggered:
                        yield oldest
                if journeys is not None:
                    journeys.push(jid)
                sig = self.socket.read_line(addr)
                if journeys is not None:
                    journeys.pop()
                issued.append(sig)
                window.append(sig)
            for sig in window:
                if not sig.triggered:
                    yield sig
            if journeys is not None and jid is not None:
                journeys.stage_to(jid, "storage.lines", self.sim.now_ps)
            blob = b"".join(sig.value for sig in issued)
            start_cut = (self.base + offset) % CACHE_LINE_BYTES
            return blob[start_cut : start_cut + nbytes]

        return Process(self.sim, run(), name=f"{self.name}.read")

    def write(self, offset: int, data: bytes) -> Process:
        """Write bytes (line-aligned fast path; RMW at the edges)."""
        lines = self._lines(offset, len(data))
        journeys = probe.tracker()
        jid = journeys.current() if journeys is not None else None

        def run():
            yield self.config.driver_overhead_ps
            if journeys is not None and jid is not None:
                journeys.stage_to(jid, "storage.driver", self.sim.now_ps)
            sigs: List[Signal] = []
            cursor = 0
            for addr in lines:
                line_off = max(self.base + offset, addr) - addr
                take = min(CACHE_LINE_BYTES - line_off, len(data) - cursor)
                chunk = data[cursor : cursor + take]
                cursor += take
                if len(sigs) >= self.config.write_window:
                    oldest = sigs.pop(0)
                    if not oldest.triggered:
                        yield oldest
                if journeys is not None:
                    journeys.push(jid)
                if take == CACHE_LINE_BYTES:
                    sigs.append(self.socket.write_line(addr, chunk))
                else:
                    line_data = bytearray(CACHE_LINE_BYTES)
                    line_data[line_off : line_off + take] = chunk
                    mask = bytearray(CACHE_LINE_BYTES)
                    for i in range(line_off, line_off + take):
                        mask[i] = 1
                    slot, local = self.socket._route(addr)
                    sigs.append(
                        slot.host_mc.partial_write(local, bytes(line_data), bytes(mask))
                    )
                if journeys is not None:
                    journeys.pop()
            for sig in sigs:
                if not sig.triggered:
                    yield sig
            if journeys is not None and jid is not None:
                journeys.stage_to(jid, "storage.lines", self.sim.now_ps)
            return len(data)

        return Process(self.sim, run(), name=f"{self.name}.write")

    def persist(self) -> Signal:
        """Flush + sync: drain the buffer's write pipeline (ConTutto flush)."""
        self.persists += 1
        return self.socket.flush_channel(self.channel)


class PmemIoCounts(probe.Counts):
    """A pmem adapter's injected-fault outcomes, published like a block
    device's; its completed reads and writes are not published as
    ``storage.*`` (the line traffic under them counts at DMI and memory)."""

    METRICS = {
        "io_errors": "storage.io_errors",
        "io_retries": "storage.io_retries",
        "io_failures": "storage.io_failed",
        "slowed_ios": "storage.slowed_ios",
    }

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0
        self.writes = 0


class PmemBlockDevice:
    """Adapts a :class:`PmemRegion` to the block-device interface.

    Writes are persisted (flush) before completing — the sync-write
    semantics GPFS and FIO measure.  Like :class:`BlockDevice`, the
    adapter carries injectable fault state (``io_fault``,
    ``slow_extra_ps``) and stages its IOs into the enclosing journey —
    or opens its own when called bare.
    """

    def __init__(self, region: PmemRegion, persist_writes: bool = True):
        self.region = region
        self.sim = region.sim
        self.capacity_bytes = region.size
        self.name = f"{region.name}.blk"
        self.persist_writes = persist_writes
        self.counts = PmemIoCounts()
        #: injected fault state (None = healthy); see IoFaultModel
        self.io_fault: Optional[IoFaultModel] = None
        #: injected extra latency per IO (storage.slow_disk window)
        self.slow_extra_ps = 0

    # -- shared plumbing -----------------------------------------------------

    def _open_journey(self, op: str, offset: int):
        """(tracker, jid, owned): the enclosing journey, or a fresh one."""
        journeys = probe.tracker()
        if journeys is None:
            return None, None, False
        jid = journeys.current()
        if jid is not None:
            return journeys, jid, False
        jid = journeys.begin(f"storage.{op}", offset, self.name, self.sim.now_ps)
        return journeys, jid, jid is not None

    def _fault_check(self, op: str, offset: int, state: dict):
        """None (healthy attempt), "retry", or the surfaced StorageError."""
        fault = self.io_fault
        if fault is None or not fault.should_fail():
            return None
        self.counts.io_errors += 1
        if state["attempt"] < fault.max_retries:
            state["attempt"] += 1
            self.counts.io_retries += 1
            return "retry"
        self.counts.io_failures += 1
        trace = probe.session
        if trace is not None and trace.spans:
            trace.instant("storage", f"io_error:{self.name}", self.sim.now_ps,
                          {"op": op, "offset": offset})
        return StorageError(
            f"{self.name}: injected IO error on {op} at {offset:#x} "
            f"({fault.max_retries} retries exhausted)"
        )

    def _finish(self, done: Signal, journeys, jid, owned: bool,
                error, state: dict) -> None:
        if self.slow_extra_ps and not state.get("slowed"):
            state["slowed"] = True
            self.counts.slowed_ios += 1
            self.sim.call_after(
                self.slow_extra_ps,
                self._finish, done, journeys, jid, owned, error, state,
            )
            return
        if journeys is not None and jid is not None:
            # trailing service: retry gaps and the slow-disk penalty
            journeys.stage_to(
                jid, state.get("stage") or "storage.service", self.sim.now_ps
            )
            if owned:
                journeys.finish(jid, self.sim.now_ps)
        done.trigger(error)

    # -- interface -----------------------------------------------------------

    def submit_read(
        self, offset: int, nbytes: int, stage: Optional[str] = None
    ) -> Signal:
        done = Signal(f"{self.name}.r")
        journeys, jid, owned = self._open_journey("read", offset)
        state = {"attempt": 0, "stage": stage}

        def attempt() -> None:
            if journeys is not None:
                journeys.push(jid)
            proc = self.region.read(offset, nbytes)
            if journeys is not None:
                journeys.pop()
            proc.done.add_waiter(after_read)

        def after_read(_) -> None:
            verdict = self._fault_check("read", offset, state)
            if verdict == "retry":
                attempt()
                return
            if verdict is None:
                self.counts.reads += 1
            self._finish(done, journeys, jid, owned, verdict, state)

        attempt()
        return done

    def submit_write(
        self, offset: int, nbytes: int, stage: Optional[str] = None
    ) -> Signal:
        done = Signal(f"{self.name}.w")
        journeys, jid, owned = self._open_journey("write", offset)
        state = {"attempt": 0, "stage": stage}

        def attempt() -> None:
            if journeys is not None:
                journeys.push(jid)
            proc = self.region.write(offset, bytes(nbytes))
            if journeys is not None:
                journeys.pop()
            proc.done.add_waiter(after_write)

        def after_write(_) -> None:
            verdict = self._fault_check("write", offset, state)
            if verdict == "retry":
                attempt()
                return
            if verdict is not None:
                self._finish(done, journeys, jid, owned, verdict, state)
                return
            self.counts.writes += 1
            if not self.persist_writes:
                self._finish(done, journeys, jid, owned, None, state)
                return
            if journeys is not None:
                journeys.push(jid)
            flushed = self.region.persist()
            if journeys is not None:
                journeys.pop()

            def after_persist(__) -> None:
                if journeys is not None and jid is not None:
                    journeys.stage_to(jid, "storage.persist", self.sim.now_ps)
                self._finish(done, journeys, jid, owned, None, state)

            flushed.add_waiter(after_persist)

        attempt()
        return done
