"""Card-to-card PCIe transfers (Section 3.2, future-expansion block).

"The PCIe interface could be potentially used for direct memory-to-memory
transfers between ConTutto cards without burdening the POWER8 memory bus."

:class:`CardToCardLink` connects two ConTutto buffers' DIMM spaces over a
modeled PCIe pipe: a transfer streams row-sized bursts out of the source
card's memory controllers, across the link at PCIe bandwidth, into the
destination card's controllers — no DMI frames, no host tags, no memory-bus
occupancy.  The alternative path (read lines over DMI to the host, write
them back over the other channel) exists for comparison via the socket.
"""

from __future__ import annotations


from ..errors import AccelError, ConfigurationError
from ..sim import Process, Signal, Simulator
from ..units import transfer_ps
from .contutto import ConTuttoBuffer

#: burst size across the link (matches the DMA row bursts on the cards)
LINK_CHUNK_BYTES = 8 << 10


class CardToCardLink:
    """A PCIe pipe between two ConTutto cards' local memory spaces."""

    def __init__(
        self,
        sim: Simulator,
        card_a: ConTuttoBuffer,
        card_b: ConTuttoBuffer,
        link_gb_s: float = 3.2,       # x4 Gen3 effective
        per_chunk_overhead_ps: int = 400_000,  # TLP/DLLP + DMA engine setup
        name: str = "c2c",
    ):
        if card_a is card_b:
            raise ConfigurationError(f"{name}: need two distinct cards")
        if link_gb_s <= 0:
            raise ConfigurationError(f"{name}: bandwidth must be positive")
        self.sim = sim
        self.cards = (card_a, card_b)
        self.link_gb_s = link_gb_s
        self.per_chunk_overhead_ps = per_chunk_overhead_ps
        self.name = name
        self._link_free_ps = 0
        # Stats
        self.bytes_transferred = 0
        self.transfers = 0

    def _card_index(self, card: ConTuttoBuffer) -> int:
        try:
            return self.cards.index(card)
        except ValueError:
            raise AccelError(f"{self.name}: card {card.name} not on this link")

    def _read_local(self, card: ConTuttoBuffer, addr: int, nbytes: int) -> Signal:
        """Read from a card's DIMM space via its own memory controllers."""
        local = card._route(addr)
        port = card.avalon._route(local)[0]
        return port.submit_read(card.avalon._route(local)[1], nbytes)

    def _write_local(self, card: ConTuttoBuffer, addr: int, data: bytes) -> Signal:
        local = card._route(addr)
        slave, slave_local = card.avalon._route(local)
        return slave.submit_write(slave_local, data)

    def transfer(
        self, src: ConTuttoBuffer, src_addr: int, dst: ConTuttoBuffer,
        dst_addr: int, nbytes: int,
    ) -> Process:
        """Move ``nbytes`` from one card's memory to the other's.

        The returned process's result is the byte count moved.  Pipelined:
        while chunk N crosses the link, chunk N+1 reads from the source.
        """
        self._card_index(src)
        self._card_index(dst)
        if nbytes <= 0:
            raise AccelError(f"{self.name}: transfer size must be positive")

        def run():
            moved = 0
            pending_write = None
            pos = 0
            while pos < nbytes:
                take = min(LINK_CHUNK_BYTES, nbytes - pos)
                read_sig = self._read_local(src, src_addr + pos, take)
                data = yield read_sig
                # the link serializes chunks at PCIe bandwidth + protocol cost
                start = max(self.sim.now_ps, self._link_free_ps)
                done_at = (
                    start + self.per_chunk_overhead_ps
                    + transfer_ps(take, self.link_gb_s)
                )
                self._link_free_ps = done_at
                yield done_at - self.sim.now_ps
                if pending_write is not None and not pending_write.triggered:
                    yield pending_write
                pending_write = self._write_local(dst, dst_addr + pos, data)
                moved += take
                pos += take
            if pending_write is not None and not pending_write.triggered:
                yield pending_write
            self.bytes_transferred += moved
            self.transfers += 1
            return moved

        return Process(self.sim, run(), name=f"{self.name}.xfer")
