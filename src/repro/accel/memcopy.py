"""Near-memory memory-copy accelerator (Table 5, row 1).

Copies a block from one DIMM location to another entirely on the card —
the data never crosses the DMI link.  Throughput is bound by the two DIMM
ports' combined bandwidth: every byte is read once and written once, so a
copy at aggregate bandwidth B moves B/2 bytes per second of payload.  The
paper measures 6 GB/s against 3.2 GB/s for the software copy through the
processor (which pays the DMI round trip both ways).
"""

from __future__ import annotations

from ..errors import AccelError
from .access_processor import DMA_CHUNK_BYTES
from .block import BlockAccelerator, ControlBlock

KERNEL_MEMCOPY = 0x10


class MemcopyEngine(BlockAccelerator):
    """Streaming copy: read chunks from src, write to dst, pipelined."""

    resource_block = "memcopy_engine"

    def _kernel(self, cb: ControlBlock):
        if cb.opcode != KERNEL_MEMCOPY:
            raise AccelError(f"{self.name}: unexpected opcode {cb.opcode:#x}")
        copied = 0
        pending_write = None
        # large segments keep several row bursts outstanding per port; the
        # previous segment's write drains while the next segment reads
        segment = 64 * DMA_CHUNK_BYTES
        pos = 0
        while pos < cb.length:
            take = min(segment, cb.length - pos)
            read_proc = self.access.dma_read(cb.src + pos, take)
            yield read_proc.done
            data = read_proc.result
            if pending_write is not None and not pending_write.finished:
                yield pending_write.done
            pending_write = self.access.dma_write(cb.dst + pos, data)
            copied += take
            pos += take
        if pending_write is not None and not pending_write.finished:
            yield pending_write.done
        return (copied, 0)
