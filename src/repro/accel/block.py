"""Block acceleration framework (Figure 12).

A block accelerator "appears as a special memory-mapped region on the
Avalon bus": the processor sends a *control block* describing the task
(kernel, address range, destination) with store instructions targeting the
accelerator's buffer region, the accelerator runs the kernel against the
DIMMs through the Access processor, then "writes processing status and
completion information into specific fields in the control block", which
the processor retrieves with loads (polling).

The control block is one 128-byte cache line:

========  ======  ====================================================
offset    bytes   field
========  ======  ====================================================
0         4       kernel opcode (accelerator-defined)
4         4       status: 0 idle, 1 running, 2 done, 3 error
8         8       src address (accelerator/DIMM flat space)
16        8       dst address
24        8       length in bytes
32        8       param (kernel-specific)
40        8       result0 (kernel-defined, e.g. min)
48        8       result1 (e.g. max)
56        8       cycles consumed (performance reporting)
========  ======  ====================================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import AccelError
from ..sim import Process, Signal, Simulator
from ..units import CACHE_LINE_BYTES
from .access_processor import AccessProcessor

CONTROL_BLOCK_BYTES = CACHE_LINE_BYTES

STATUS_IDLE = 0
STATUS_RUNNING = 1
STATUS_DONE = 2
STATUS_ERROR = 3

_CB_STRUCT = struct.Struct("<IIqqqqqqq")  # 60 bytes used, rest reserved


@dataclass
class ControlBlock:
    """Decoded control block."""

    opcode: int = 0
    status: int = STATUS_IDLE
    src: int = 0
    dst: int = 0
    length: int = 0
    param: int = 0
    result0: int = 0
    result1: int = 0
    cycles: int = 0

    def pack(self) -> bytes:
        body = _CB_STRUCT.pack(
            self.opcode, self.status, self.src, self.dst, self.length,
            self.param, self.result0, self.result1, self.cycles,
        )
        return body + bytes(CONTROL_BLOCK_BYTES - len(body))

    @classmethod
    def unpack(cls, raw: bytes) -> "ControlBlock":
        if len(raw) < _CB_STRUCT.size:
            raise AccelError("control block too short")
        fields = _CB_STRUCT.unpack(raw[: _CB_STRUCT.size])
        return cls(*fields)


class BlockAccelerator:
    """Base class: an Avalon slave driven by control blocks.

    Subclasses implement :meth:`_kernel`, a generator process that performs
    the work through the Access processor and returns
    ``(result0, result1)``.
    """

    #: resource-cost catalog entry for this engine (see fpga.resources)
    resource_block = "memcopy_engine"

    def __init__(self, sim: Simulator, access: AccessProcessor, name: str = ""):
        self.sim = sim
        self.access = access
        self.name = name or type(self).__name__.lower()
        self._cb = ControlBlock()
        self.tasks_completed = 0
        self.tasks_failed = 0

    # -- Avalon slave interface (control-block window) -------------------------

    @property
    def capacity_bytes(self) -> int:
        return CONTROL_BLOCK_BYTES

    def submit_read(self, addr: int, nbytes: int) -> Signal:
        """Host polls the control block (status / results)."""
        done = Signal(f"{self.name}.poll")
        raw = self._cb.pack()
        self.sim.call_after(0, done.trigger, raw[addr : addr + nbytes])
        return done

    def submit_write(self, addr: int, data: bytes) -> Signal:
        """Host stores a control block; a full-line store starts the task."""
        done = Signal(f"{self.name}.cbwr")
        if addr != 0 or len(data) != CONTROL_BLOCK_BYTES:
            raise AccelError(
                f"{self.name}: control block must be one full 128B line store"
            )
        cb = ControlBlock.unpack(data)
        if self._cb.status == STATUS_RUNNING:
            raise AccelError(f"{self.name}: task already running")
        self._cb = cb
        self._cb.status = STATUS_RUNNING
        self._start()
        self.sim.call_after(0, done.trigger, None)
        return done

    # -- task execution -----------------------------------------------------------

    def _start(self) -> None:
        start_ps = self.sim.now_ps
        proc = Process(self.sim, self._kernel(self._cb), name=f"{self.name}.task")

        def finish(result) -> None:
            self._cb.cycles = (self.sim.now_ps - start_ps) // self.access.clock.period_ps
            if isinstance(result, tuple) and len(result) == 2:
                self._cb.result0, self._cb.result1 = result
                self._cb.status = STATUS_DONE
                self.tasks_completed += 1
            else:
                self._cb.status = STATUS_ERROR
                self.tasks_failed += 1

        proc.done.add_waiter(finish)
        self._task_done = proc.done

    def _kernel(self, cb: ControlBlock):
        raise NotImplementedError

    # -- host-side convenience (issue + poll through any store path) -----------------

    def run_to_completion(self, cb: ControlBlock) -> ControlBlock:
        """Drive a task directly (bypassing the DMI path) and run the sim.

        Runs through the guarded :meth:`Simulator.run_until_signal`, so a
        task that can never finish raises :class:`SimulationError`.
        """
        self.submit_write(0, cb.pack())
        self.sim.run_until_signal(self._task_done)
        return self._cb
