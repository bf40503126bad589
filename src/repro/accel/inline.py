"""In-line acceleration (Figure 11): augmented command engines.

In-line accelerators sit *in* the regular ConTutto pipeline: special
load/store opcodes are executed by command engines augmented with the
required fine-grained operation, and "since the accelerator is in-line
with the main ConTutto pipeline, it has access to the upstream DMI channel
and can send direct response to the processor without the need for the
processor to poll".

The operations themselves (min-store, max-store, conditional swap, flush)
are implemented in the MBS pipeline (:mod:`repro.fpga.mbs` via
:mod:`repro.fpga.alu`).  This module provides the host-side helper that
drives them and measures the benefit over the software equivalent
(read - modify - write: two full DMI round trips instead of one).
"""

from __future__ import annotations

import struct
from typing import List

from ..errors import AccelError
from ..processor.host_mc import HostMemoryController
from ..sim import Signal, Simulator
from ..units import CACHE_LINE_BYTES

_LANES = CACHE_LINE_BYTES // 4
_PACK = struct.Struct(f"<{_LANES}i")


def pack_lanes(values: List[int]) -> bytes:
    """Pack 32 int32 lane values into one cache line."""
    if len(values) != _LANES:
        raise AccelError(f"a line holds {_LANES} int32 lanes, got {len(values)}")
    return _PACK.pack(*values)


def unpack_lanes(line: bytes) -> List[int]:
    return list(_PACK.unpack(line))


class InlineAccelClient:
    """Host-side driver for the in-line acceleration opcodes."""

    def __init__(self, sim: Simulator, host_mc: HostMemoryController):
        self.sim = sim
        self.host_mc = host_mc

    # -- one-round-trip accelerated ops ------------------------------------

    def min_store(self, addr: int, values: List[int]) -> Signal:
        """memory[addr] = elementwise_min(memory[addr], values); one command."""
        return self.host_mc.min_store(addr, pack_lanes(values))

    def max_store(self, addr: int, values: List[int]) -> Signal:
        return self.host_mc.max_store(addr, pack_lanes(values))

    def cswap(self, addr: int, expected: int, values: List[int]) -> Signal:
        """Compare lane 0 to ``expected``; on match replace the line.

        Fires with ``(swapped, old_values)`` — no polling: the response
        rides the upstream channel of the same command.
        """
        new_line = list(values)
        new_line[0] = expected
        result = Signal("cswap")
        inner = self.host_mc.cswap(addr, pack_lanes(new_line))

        def complete(resp) -> None:
            old = unpack_lanes(resp.data)
            result.trigger((old[0] == expected, old))

        inner.add_waiter(complete)
        return result

    # -- the software equivalent (for the comparison) --------------------------

    def software_min_store(self, addr: int, values: List[int]) -> Signal:
        """The same operation without the extension: load, merge, store —
        two dependent DMI round trips through the processor."""
        result = Signal("sw_min_store")

        def after_read(old_line: bytes) -> None:
            merged = [
                min(a, b) for a, b in zip(unpack_lanes(old_line), values)
            ]
            self.host_mc.write_line(addr, pack_lanes(merged)).add_waiter(
                result.trigger
            )

        self.host_mc.read_line(addr).add_waiter(after_read)
        return result
