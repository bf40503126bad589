"""The Centaur memory-buffer ASIC model.

Centaur terminates one DMI channel and drives four DDR ports, with a 16 MB
eDRAM cache in front of them (Section 2.1).  It is the baseline every
ConTutto measurement is compared against: low, knob-tunable latency, high
internal clock (4:1 link mux ratio), hardware replay with no freeze tricks.

Cache-line addresses interleave across the four DDR ports so streaming
workloads use all ports' bandwidth.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..dmi.commands import Command, Opcode, Response
from ..errors import ConfigurationError
from ..memory import MemoryController, MemoryControllerConfig
from ..memory.device import MemoryDevice
from ..sim import Simulator
from ..units import CACHE_LINE_BYTES
from .base import MemoryBuffer, RespondFn
from .cache import BufferCache
from .config import DEFAULT, CentaurConfig

NUM_DDR_PORTS = 4


class Centaur(MemoryBuffer):
    """Production POWER8 memory buffer (ASIC)."""

    kind = "centaur"

    #: endpoint (MBI-equivalent) overheads: the ASIC runs a 4:1 mux at
    #: 2.4 GHz, so frame handling costs ~1 ns each way and replay switches
    #: within the host's window without any workaround.
    TX_OVERHEAD_PS = 1_000
    RX_OVERHEAD_PS = 1_000
    REPLAY_PREP_PS = 2_000

    def __init__(
        self,
        sim: Simulator,
        devices: List[MemoryDevice],
        config: CentaurConfig = DEFAULT,
        name: str = "centaur0",
    ):
        super().__init__(sim, name)
        if not 1 <= len(devices) <= NUM_DDR_PORTS:
            raise ConfigurationError(
                f"{name}: Centaur drives 1..{NUM_DDR_PORTS} DDR ports, "
                f"got {len(devices)}"
            )
        self.config = config
        # Centaur's memory controllers are full-custom ASIC pipelines — far
        # shallower than the FPGA's soft controller.
        mc_config = MemoryControllerConfig(
            command_overhead_ps=5_000, response_overhead_ps=4_000
        )
        self.ports = [
            MemoryController(sim, dev, mc_config, name=f"{name}.mc{i}")
            for i, dev in enumerate(devices)
        ]
        self.cache: Optional[BufferCache] = None
        if config.cache_enabled:
            self.cache = BufferCache(prefetch_next_line=config.prefetch_enabled)

    # -- geometry ----------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return sum(port.device.capacity_bytes for port in self.ports)

    def _route(self, addr: int) -> Tuple[int, int]:
        """Interleave cache lines across DDR ports; returns (port, local addr)."""
        line = addr // CACHE_LINE_BYTES
        port = line % len(self.ports)
        local_line = line // len(self.ports)
        return port, local_line * CACHE_LINE_BYTES

    # -- command execution ----------------------------------------------------

    def _execute(self, command: Command, respond: RespondFn) -> None:
        self._reject_unsupported(command)
        delay = self.config.pipeline_ps + self.config.extra_delay_ps
        self.sim.call_after(delay, self._after_pipeline, command, respond)

    def _after_pipeline(self, command: Command, respond: RespondFn) -> None:
        if command.opcode is Opcode.READ:
            self._do_read(command, respond)
        elif command.opcode is Opcode.WRITE:
            self._do_write(command, respond)
        elif command.opcode is Opcode.PARTIAL_WRITE:
            self._do_partial_write(command, respond)
        else:  # pragma: no cover - _reject_unsupported guards this
            raise AssertionError(command.opcode)

    # READ ---------------------------------------------------------------------

    def _do_read(self, command: Command, respond: RespondFn) -> None:
        if self.cache is not None:
            cached = self.cache.lookup(command.address)
            if cached is not None:
                self.sim.call_after(
                    self.config.cache_hit_ps + self.config.response_ps,
                    respond,
                    Response(command.tag, Opcode.READ, cached),
                )
                return
        port_no, local = self._route(command.address)
        done = self.ports[port_no].submit_read(
            local, CACHE_LINE_BYTES, journey=command.journey
        )
        done.add_waiter(
            lambda data: self._finish_read(command, data, respond)
        )

    def _finish_read(self, command: Command, data: bytes, respond: RespondFn) -> None:
        if self.cache is not None:
            self._install(command.address, data, dirty=False)
            prefetch_addr = self.cache.next_line_candidate(command.address)
            if prefetch_addr is not None and prefetch_addr < self.capacity_bytes:
                self._issue_prefetch(prefetch_addr)
        self.sim.call_after(
            self.config.response_ps,
            respond,
            Response(command.tag, Opcode.READ, data),
        )

    def _issue_prefetch(self, addr: int) -> None:
        # prefetches (like victim writebacks in _install) stay journey-free:
        # they serve the cache, not the command on the wire
        port_no, local = self._route(addr)
        done = self.ports[port_no].submit_read(local, CACHE_LINE_BYTES)

        def fill(data: bytes, _addr=addr) -> None:
            self._install(_addr, data, dirty=False)
            assert self.cache is not None
            self.cache.note_prefetch(_addr)

        done.add_waiter(fill)

    # WRITE --------------------------------------------------------------------

    def _do_write(self, command: Command, respond: RespondFn) -> None:
        assert command.data is not None
        if self.cache is not None and self.cache.update(command.address, command.data):
            # write hit: absorbed by the eDRAM cache
            self.sim.call_after(
                self.config.cache_hit_ps + self.config.response_ps,
                respond,
                Response(command.tag, Opcode.WRITE),
            )
            return
        port_no, local = self._route(command.address)
        done = self.ports[port_no].submit_write(
            local, command.data, journey=command.journey
        )
        done.add_waiter(
            lambda _: self.sim.call_after(
                self.config.response_ps, respond, Response(command.tag, Opcode.WRITE)
            )
        )

    def _do_partial_write(self, command: Command, respond: RespondFn) -> None:
        assert command.data is not None and command.byte_enable is not None
        port_no, local = self._route(command.address)

        def merge_and_write(old: bytes) -> None:
            merged = bytearray(old)
            for i, enabled in enumerate(command.byte_enable):
                if enabled:
                    merged[i] = command.data[i]
            if self.cache is not None:
                self.cache.update(command.address, bytes(merged))
            done = self.ports[port_no].submit_write(
                local, bytes(merged), journey=command.journey
            )
            done.add_waiter(
                lambda _: self.sim.call_after(
                    self.config.response_ps,
                    respond,
                    Response(command.tag, Opcode.PARTIAL_WRITE),
                )
            )

        if self.cache is not None:
            cached = self.cache.lookup(command.address)
            if cached is not None:
                merge_and_write(cached)
                return
        self.ports[port_no].submit_read(
            local, CACHE_LINE_BYTES, journey=command.journey
        ).add_waiter(merge_and_write)

    # -- cache install with victim writeback --------------------------------------

    def _install(self, addr: int, data: bytes, dirty: bool) -> None:
        assert self.cache is not None
        victim = self.cache.fill(addr, data, dirty)
        if victim is not None:
            victim_addr, victim_data = victim
            port_no, local = self._route(victim_addr)
            self.ports[port_no].submit_write(local, victim_data)

    # -- endpoint characteristics -----------------------------------------------

    def endpoint_overheads(self):
        return (self.TX_OVERHEAD_PS, self.RX_OVERHEAD_PS, self.REPLAY_PREP_PS, False)
