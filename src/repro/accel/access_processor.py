"""The Access processor: programmable DIMM-port scheduler (Section 4.3).

Runs assembled programs (see :mod:`repro.accel.isa`) at the 250 MHz fabric
clock, one instruction per cycle plus memory wait time.  Features modeled
from the paper's description:

* **multithreading** — hardware thread contexts; a thread yields the
  pipeline on ``YIELD`` and while waiting on memory, so transfers on one
  thread overlap with compute/control on another;
* **programmable address mapping** — a pluggable function rewrites
  addresses before they hit the DIMM ports, "changing the way data
  structures are mapped on the physical storage locations";
* **access generation on behalf of accelerators** — the ``DMARD``/``DMAWR``
  block ops stream whole buffers through a DIMM port in row-sized bursts;
* **performance monitoring** — counters for instructions, loads, stores,
  bytes moved, and stall time.

Programs are loaded from the DIMMs into internal instruction memory
("triggered by the reception of a special control block ... performed
dynamically without interrupting the base operation") via :meth:`load_program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import AccelError
from ..sim import ClockDomain, Process, Signal, Simulator, fabric_clock
from ..telemetry import probe
from ..telemetry.attribution import QUEUE
from .isa import NUM_REGISTERS, Instruction, Op

#: burst size for DMA block transfers: one DRAM row
DMA_CHUNK_BYTES = 8 << 10


@dataclass
class ThreadContext:
    """Architectural state of one hardware thread."""

    thread_id: int
    regs: List[int] = field(default_factory=lambda: [0] * NUM_REGISTERS)
    pc: int = 0
    halted: bool = False


class PerfCounters(probe.Counts):
    """The Access processor's performance monitoring block; its DMA byte
    counts are published (instructions are pushed once per program)."""

    METRICS = {
        "dma_bytes_read": "accel.dma_bytes_read",
        "dma_bytes_written": "accel.dma_bytes_written",
    }

    def __init__(self) -> None:
        super().__init__()
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.mem_wait_ps = 0


class AccessProcessor:
    """Executes microprograms against the card's DIMM ports."""

    def __init__(
        self,
        sim: Simulator,
        ports: List[object],       # MemoryController-compatible ports
        clock: Optional[ClockDomain] = None,
        address_map: Optional[Callable[[int], int]] = None,
        name: str = "accessproc",
    ):
        if not ports:
            raise AccelError(f"{name}: needs at least one DIMM port")
        self.sim = sim
        self.ports = ports
        self.clock = clock or fabric_clock()
        self.address_map = address_map or (lambda addr: addr)
        self.name = name
        self.program: List[Instruction] = []
        self.perf = PerfCounters()
        #: DMA stream buffers per thread (functional contents)
        self._stream_buffers: Dict[int, bytes] = {}
        #: sustained per-port streaming bandwidth through the Access
        #: processor's scheduler (decimal GB/s).  The paper observed
        #: 10-12 GB/s combined over two ports; burst issue is paced to match.
        self.port_gb_s = 5.4
        self._port_next_issue_ps = [0] * len(ports)

    # -- program loading ------------------------------------------------------

    def load_program(self, program: List[Instruction]) -> None:
        """Load executable code into the internal instruction memory."""
        if not program:
            raise AccelError(f"{self.name}: empty program")
        self.program = list(program)

    def load_program_from_memory(self, addr: int, num_instructions: int) -> Process:
        """Fetch an executable image from the DIMMs and install it.

        The dynamic-reprogramming path of Section 4.3: code is "retrieved
        from the DDR3 DIMMs into an internal instruction memory ...
        performed dynamically without interrupting the base operation".
        The fetch streams through the DMA machinery, so it pays real memory
        time; installation happens at fetch completion.  The returned
        process's result is the instruction count installed.
        """
        from .isa import decode_program, image_size_bytes

        nbytes = image_size_bytes(num_instructions)

        def run():
            image = yield from self._dma_read(addr, nbytes)
            program = decode_program(image)
            self.load_program(program)
            return len(program)

        return Process(self.sim, run(), name=f"{self.name}.loadprog")

    # -- port helpers ----------------------------------------------------------

    def _port_for(self, addr: int) -> object:
        """Interleave row-sized blocks across the DIMM ports."""
        return self.ports[(addr // DMA_CHUNK_BYTES) % len(self.ports)]

    def stream_buffer(self, thread_id: int) -> bytes:
        """Contents of a thread's DMA stream buffer (for accelerators)."""
        return self._stream_buffers.get(thread_id, b"")

    # -- execution ----------------------------------------------------------------

    def run(self, threads: int = 1, initial_regs: Optional[Dict[int, Dict[int, int]]] = None) -> Process:
        """Run the loaded program on ``threads`` hardware threads.

        ``initial_regs[t]`` maps register index -> value for thread ``t``.
        The returned process's result is the list of final
        :class:`ThreadContext` objects.
        """
        if not self.program:
            raise AccelError(f"{self.name}: no program loaded")
        if threads < 1:
            raise AccelError(f"{self.name}: need at least one thread")
        contexts = [ThreadContext(t) for t in range(threads)]
        for t, values in (initial_regs or {}).items():
            for reg, value in values.items():
                contexts[t].regs[reg] = value
        return Process(self.sim, self._interpret(contexts), name=self.name)

    def _interpret(self, contexts: List[ThreadContext]):
        """Round-robin interpreter: switch threads on YIELD and memory ops."""
        start_ps = self.sim.now_ps
        instructions_at_start = self.perf.instructions
        current = 0
        while any(not ctx.halted for ctx in contexts):
            ctx = contexts[current % len(contexts)]
            current += 1
            if ctx.halted:
                continue
            # run this thread until it yields, halts, or touches memory
            while not ctx.halted:
                if ctx.pc >= len(self.program):
                    ctx.halted = True
                    break
                instr = self.program[ctx.pc]
                ctx.pc += 1
                self.perf.instructions += 1
                yield self.clock.period_ps  # one issue slot per instruction
                if instr.op is Op.YIELD:
                    break
                if instr.is_memory:
                    yield from self._memory_op(ctx, instr)
                    break  # memory ops hand the pipeline to the next thread
                self._alu_op(ctx, instr)
        trace = probe.session  # re-fetch: program runs span many sim events
        if trace is not None:
            executed = self.perf.instructions - instructions_at_start
            if trace.spans:
                trace.complete(
                    "accel", f"program:{self.name}", start_ps, self.sim.now_ps,
                    {"threads": len(contexts), "instructions": executed},
                )
            trace.count("accel.programs")
            trace.count("accel.instructions", executed)
        return contexts

    # -- ALU / control ---------------------------------------------------------------

    def _alu_op(self, ctx: ThreadContext, instr: Instruction) -> None:
        regs = ctx.regs
        op = instr.op
        if op is Op.LDI:
            regs[instr.rd] = instr.imm
        elif op is Op.MOV:
            regs[instr.rd] = regs[instr.ra]
        elif op is Op.ADD:
            regs[instr.rd] = regs[instr.ra] + regs[instr.rb]
        elif op is Op.SUB:
            regs[instr.rd] = regs[instr.ra] - regs[instr.rb]
        elif op is Op.ADDI:
            regs[instr.rd] = regs[instr.ra] + instr.imm
        elif op is Op.MIN:
            regs[instr.rd] = min(regs[instr.ra], regs[instr.rb])
        elif op is Op.MAX:
            regs[instr.rd] = max(regs[instr.ra], regs[instr.rb])
        elif op is Op.JMP:
            ctx.pc = instr.target
        elif op is Op.BEQ:
            if regs[instr.ra] == regs[instr.rb]:
                ctx.pc = instr.target
        elif op is Op.BNE:
            if regs[instr.ra] != regs[instr.rb]:
                ctx.pc = instr.target
        elif op is Op.BLT:
            if regs[instr.ra] < regs[instr.rb]:
                ctx.pc = instr.target
        elif op is Op.HALT:
            ctx.halted = True
        else:  # pragma: no cover - decode guarantees coverage
            raise AccelError(f"unexecutable op {op}")

    # -- memory ops --------------------------------------------------------------------

    def _wait(self, signal: Signal):
        t0 = self.sim.now_ps
        value = yield signal
        self.perf.mem_wait_ps += self.sim.now_ps - t0
        return value

    def _memory_op(self, ctx: ThreadContext, instr: Instruction):
        regs = ctx.regs
        if instr.op is Op.LD:
            addr = self.address_map(regs[instr.ra])
            port = self._port_for(addr)
            data = yield from self._wait(port.submit_read(self._local(addr), 8))
            regs[instr.rd] = int.from_bytes(data, "little")
            self.perf.loads += 1
        elif instr.op is Op.ST:
            addr = self.address_map(regs[instr.ra])
            port = self._port_for(addr)
            value = regs[instr.rb] & ((1 << 64) - 1)  # wrap to the 64-bit register width
            yield from self._wait(
                port.submit_write(self._local(addr), value.to_bytes(8, "little"))
            )
            self.perf.stores += 1
        elif instr.op is Op.DMARD:
            addr, length = self.address_map(regs[instr.ra]), regs[instr.rb]
            data = yield from self._dma_read(addr, length)
            self._stream_buffers[ctx.thread_id] = data
            regs[instr.rd] = len(data)
            self.perf.dma_bytes_read += len(data)
        elif instr.op is Op.DMAWR:
            addr, length = self.address_map(regs[instr.ra]), regs[instr.rb]
            data = self._stream_buffers.get(ctx.thread_id, b"")[:length]
            data = data + bytes(length - len(data))
            yield from self._dma_write(addr, data)
            regs[instr.rd] = length
            self.perf.dma_bytes_written += length

    def _local(self, addr: int) -> int:
        """Translate a flat accelerator address to a port-local address."""
        chunk = addr // DMA_CHUNK_BYTES
        offset = addr % DMA_CHUNK_BYTES
        local_chunk = chunk // len(self.ports)
        return local_chunk * DMA_CHUNK_BYTES + offset

    # -- DMA streaming (used by DMARD/DMAWR and by block accelerators) -----------------

    def _pace_port(self, addr: int, nbytes: int) -> int:
        """Reserve the port's next burst-issue slot; returns wait time (ps).

        Sustained streaming through the scheduler is bounded by
        ``port_gb_s`` per port (bank management, turnaround, arbitration —
        the reasons two DDR3-1333 ports observe 10-12 GB/s combined, not
        their 21.3 GB/s pin rate).
        """
        port_no = (addr // DMA_CHUNK_BYTES) % len(self.ports)
        interval = int(nbytes / (self.port_gb_s * 1e9) * 1e12)
        start = max(self.sim.now_ps, self._port_next_issue_ps[port_no])
        self._port_next_issue_ps[port_no] = start + interval
        return start - self.sim.now_ps

    def _begin_dma_journey(self, op: str, addr: int):
        """Open an ``accel.<op>`` journey for one DMA stream (or no-op).

        The stream's time partitions exactly into ``accel.pace`` (waiting
        for a port's next burst-issue slot — queueing) and ``accel.dma``
        (bursts in flight — service): the generator stamps ``accel.dma``
        up to each pacing gap and ``accel.pace`` across it, so the stage
        sums reproduce the end-to-end DMA latency with zero residual.
        """
        journeys = probe.tracker()
        if journeys is None:
            return None, None
        jid = journeys.begin(f"accel.{op}", addr, self.name, self.sim.now_ps)
        return journeys, jid

    def _dma_read(self, addr: int, length: int):
        """Row-burst streaming read across both ports with overlap."""
        journeys, jid = self._begin_dma_journey("dmard", addr)
        chunks: List[Signal] = []
        results: List[Signal] = []
        pos = 0
        while pos < length:
            take = min(DMA_CHUNK_BYTES - (addr + pos) % DMA_CHUNK_BYTES, length - pos)
            gap = self._pace_port(addr + pos, take)
            if gap > 0:
                if jid is not None:
                    journeys.stage_to(jid, "accel.dma", self.sim.now_ps)
                yield gap
                if jid is not None:
                    journeys.stage_to(jid, "accel.pace", self.sim.now_ps, QUEUE)
            port = self._port_for(addr + pos)
            # no nested controller spans: concurrent in-flight bursts
            # overlap, so per-chunk memory visits cannot be carved out of
            # the stream exclusively — the top-level pace/dma partition
            # is the meaningful accounting here
            sig = port.submit_read(self._local(addr + pos), take)
            results.append(sig)
            chunks.append(sig)
            pos += take
            if len(chunks) >= 2 * len(self.ports):
                oldest = chunks.pop(0)
                if not oldest.triggered:
                    yield from self._wait(oldest)
        for sig in chunks:
            if not sig.triggered:
                yield from self._wait(sig)
        if jid is not None:
            journeys.stage_to(jid, "accel.dma", self.sim.now_ps)
            journeys.finish(jid, self.sim.now_ps)
        return b"".join(sig.value for sig in results)

    def _dma_write(self, addr: int, data: bytes):
        journeys, jid = self._begin_dma_journey("dmawr", addr)
        chunks: List[Signal] = []
        pos = 0
        while pos < len(data):
            take = min(DMA_CHUNK_BYTES - (addr + pos) % DMA_CHUNK_BYTES, len(data) - pos)
            gap = self._pace_port(addr + pos, take)
            if gap > 0:
                if jid is not None:
                    journeys.stage_to(jid, "accel.dma", self.sim.now_ps)
                yield gap
                if jid is not None:
                    journeys.stage_to(jid, "accel.pace", self.sim.now_ps, QUEUE)
            port = self._port_for(addr + pos)
            sig = port.submit_write(self._local(addr + pos), data[pos : pos + take])
            chunks.append(sig)
            pos += take
            if len(chunks) >= 2 * len(self.ports):
                oldest = chunks.pop(0)
                if not oldest.triggered:
                    yield from self._wait(oldest)
        for sig in chunks:
            if not sig.triggered:
                yield from self._wait(sig)
        if jid is not None:
            journeys.stage_to(jid, "accel.dma", self.sim.now_ps)
            journeys.finish(jid, self.sim.now_ps)

    # -- public DMA services for block accelerators ----------------------------------------

    def dma_read(self, addr: int, length: int) -> Process:
        """Stream ``length`` bytes starting at ``addr``; result is the data."""
        def run():
            t0 = self.sim.now_ps
            data = yield from self._dma_read(addr, length)
            self.perf.dma_bytes_read += len(data)
            trace = probe.session  # re-fetch: stream spans many sim events
            if trace is not None and trace.spans:
                trace.complete(
                    "accel", f"dmard:{self.name}", t0, self.sim.now_ps,
                    {"bytes": len(data)},
                )
            return data

        return Process(self.sim, run(), name=f"{self.name}.dmard")

    def dma_write(self, addr: int, data: bytes) -> Process:
        def run():
            t0 = self.sim.now_ps
            yield from self._dma_write(addr, data)
            self.perf.dma_bytes_written += len(data)
            trace = probe.session  # re-fetch: stream spans many sim events
            if trace is not None and trace.spans:
                trace.complete(
                    "accel", f"dmawr:{self.name}", t0, self.sim.now_ps,
                    {"bytes": len(data)},
                )
            return len(data)

        return Process(self.sim, run(), name=f"{self.name}.dmawr")
