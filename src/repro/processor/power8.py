"""The POWER8 socket: DMI channels, routing, and latency measurement.

A fully configured socket has eight DMI channels (Figure 1), each
terminated by a memory buffer — Centaur or ConTutto.  The socket:

* builds the physical links (14 lanes down / 21 up) per populated channel,
  running at 9.6 Gb/s against Centaur and 8 Gb/s against ConTutto, with CDR
  capture on the FPGA's receive side (Section 3.2);
* owns one :class:`HostMemoryController` (32-tag window) per channel;
* routes real addresses to channels through the firmware-built
  :class:`~repro.processor.memmap.MemoryMap`;
* measures latency-to-memory the way the paper does: the average round trip
  of single commands issued from the processor, including the host-side
  path (core, caches, nest) modeled as ``host_path_ps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..buffer.base import MemoryBuffer
from ..dmi import (
    DmiChannel,
    EndpointConfig,
    LinkErrorModel,
    LinkTrainer,
    SerialLink,
    TrainingConfig,
)
from ..dmi.link import configure_link_errors
from ..errors import ConfigurationError, FirmwareError
from ..sim import Rng, Signal, Simulator, dmi_link_clock
from ..units import CACHE_LINE_BYTES, ns_to_ps
from .host_mc import HostMemoryController
from .memmap import MemoryMap

NUM_DMI_CHANNELS = 8


@dataclass(frozen=True)
class SocketConfig:
    """Host-side parameters of the socket."""

    #: one-way-pair constant for core + cache-miss handling + nest traversal,
    #: included in any software-measured latency to memory.  Calibrated so a
    #: latency-optimized Centaur measures ~97 ns end to end (Table 3).
    host_path_ps: int = ns_to_ps(16)
    #: the host silicon's limit on how late a buffer may start a replay
    max_replay_start_ps: int = ns_to_ps(24)
    #: frame corruption probability per link (0 for clean-channel studies)
    frame_error_rate: float = 0.0
    #: link rate against each buffer kind, in Gb/s
    centaur_link_gbps: float = 9.6
    contutto_link_gbps: float = 8.0
    #: per-channel command-tag window (None = the hardware 32); smaller
    #: windows throttle memory-level parallelism, a tunable axis
    num_tags: Optional[int] = None
    #: replay-buffer depth on both channel endpoints (None = the default);
    #: bounds how many unacknowledged frames may be in flight
    replay_depth: Optional[int] = None


@dataclass
class ChannelSlot:
    """Everything living behind one populated DMI channel."""

    index: int
    buffer: MemoryBuffer
    channel: DmiChannel
    host_mc: HostMemoryController
    trained: bool = False
    frtl_ps: int = 0


class Power8Socket:
    """One POWER8 processor socket with its DMI memory channels."""

    def __init__(
        self,
        sim: Simulator,
        config: SocketConfig = SocketConfig(),
        rng: Optional[Rng] = None,
        name: str = "p8",
    ):
        self.sim = sim
        self.config = config
        self.rng = rng or Rng(0, name)
        self.name = name
        self.slots: Dict[int, ChannelSlot] = {}
        self.memory_map = MemoryMap()

    # -- channel population ---------------------------------------------------

    def attach_buffer(self, channel_no: int, buffer: MemoryBuffer) -> ChannelSlot:
        """Wire ``buffer`` behind DMI channel ``channel_no``."""
        if not 0 <= channel_no < NUM_DMI_CHANNELS:
            raise ConfigurationError(
                f"channel {channel_no} outside 0..{NUM_DMI_CHANNELS - 1}"
            )
        if channel_no in self.slots:
            raise ConfigurationError(f"channel {channel_no} already populated")

        is_fpga = buffer.kind == "contutto"
        gbps = (
            self.config.contutto_link_gbps if is_fpga else self.config.centaur_link_gbps
        )
        clock = dmi_link_clock(gbps)
        # each link owns its error model so fault injectors can save and
        # restore per-link settings without aliasing
        down = SerialLink(
            self.sim, f"{self.name}.ch{channel_no}.down", 14, clock,
            cdr_capture=is_fpga, error_model=LinkErrorModel(),
            rng=self.rng.fork(f"ch{channel_no}.down"),
        )
        up = SerialLink(
            self.sim, f"{self.name}.ch{channel_no}.up", 21, clock,
            cdr_capture=False, error_model=LinkErrorModel(),
            rng=self.rng.fork(f"ch{channel_no}.up"),
        )
        # one source of truth for link-error configuration: the same helper
        # the dmi.bit_errors fault injector uses (validates the rate too)
        configure_link_errors([down, up], self.config.frame_error_rate)
        tx, rx, prep, freeze = buffer.endpoint_overheads()
        depth_kwargs = (
            {} if self.config.replay_depth is None
            else {"replay_depth": self.config.replay_depth}
        )
        buffer_config = EndpointConfig(
            tx_overhead_ps=tx,
            rx_overhead_ps=rx,
            replay_prep_ps=prep,
            freeze_workaround=freeze,
            max_replay_start_ps=self.config.max_replay_start_ps,
            **depth_kwargs,
        )
        channel = DmiChannel(
            self.sim, down, up, EndpointConfig(**depth_kwargs), buffer_config,
            buffer.handle_command, name=f"{self.name}.dmi{channel_no}",
        )
        host_mc = HostMemoryController(
            self.sim, channel, num_tags=self.config.num_tags
        )
        slot = ChannelSlot(channel_no, buffer, channel, host_mc)
        self.slots[channel_no] = slot
        return slot

    # -- link training ------------------------------------------------------------

    def train_channel(
        self, channel_no: int, training: TrainingConfig = None
    ) -> "Signal":
        """Train one channel; returns the training process's done signal."""
        slot = self._slot(channel_no)
        trainer = LinkTrainer(
            self.sim, training or TrainingConfig(), self.rng.fork(f"train{channel_no}")
        )
        proc = trainer.train(slot.channel)

        def record(_):
            slot.trained = True
            slot.frtl_ps = proc.result.frtl_ps

        proc.done.add_waiter(record)
        return proc.done

    def train_all(self, training: TrainingConfig = None) -> None:
        """Train every populated channel to completion (runs the simulator)."""
        for channel_no in sorted(self.slots):
            done = self.train_channel(channel_no, training)
            self.sim.run_until_signal(done, timeout_ps=10**12)

    # -- address routing ----------------------------------------------------------

    def _slot(self, channel_no: int) -> ChannelSlot:
        slot = self.slots.get(channel_no)
        if slot is None:
            raise ConfigurationError(f"channel {channel_no} is not populated")
        return slot

    def _route(self, real_addr: int):
        region = self.memory_map.region_at(real_addr)
        slot = self._slot(region.channel)
        if not slot.trained:
            raise FirmwareError(
                f"channel {region.channel} accessed before link training"
            )
        return slot, real_addr - region.base

    def read_line(self, real_addr: int) -> Signal:
        """Read the 128B line at a real address; fires with the data after
        the full path including the host-side constant."""
        slot, local = self._route(real_addr)
        result = Signal(f"{self.name}.rd@{real_addr:#x}")
        inner = slot.host_mc.read_line(local)
        inner.add_waiter(
            lambda data: self.sim.call_after(
                self.config.host_path_ps, result.trigger, data
            )
        )
        return result

    def write_line(self, real_addr: int, data: bytes) -> Signal:
        slot, local = self._route(real_addr)
        result = Signal(f"{self.name}.wr@{real_addr:#x}")
        inner = slot.host_mc.write_line(local, data)
        inner.add_waiter(
            lambda resp: self.sim.call_after(
                self.config.host_path_ps, result.trigger, resp
            )
        )
        return result

    def flush_channel(self, channel_no: int) -> Signal:
        """Issue the ConTutto flush extension on a channel."""
        return self._slot(channel_no).host_mc.flush()

    # -- runtime channel recovery -------------------------------------------------

    def recover_channel(self, channel_no: int, training: TrainingConfig = None) -> bool:
        """Recover a failed channel without a system reboot.

        Resets both channel endpoints, releases the host tag window, waits
        for in-flight frames to drain (so the resynchronized scramblers
        start clean), then retrains.  Returns whether the channel came back.
        Outstanding commands are lost; callers re-drive them.
        """
        slot = self._slot(channel_no)
        slot.trained = False
        # drain the wire FIRST, while both endpoints are still in the failed
        # state and silently discard arrivals: a stale frame landing after
        # the reset would be accepted as new and desynchronize the sequence
        # space (and the scramblers) from the very first post-reset frame
        slot.channel.host_endpoint.failed = True
        slot.channel.buffer_endpoint.failed = True
        drain_until = max(
            slot.channel.down_link.next_free_ps, slot.channel.up_link.next_free_ps
        ) + slot.channel.down_link.latency_ps + ns_to_ps(100)
        self.sim.run(until_ps=drain_until)
        slot.channel.reset()
        for tag in list(slot.host_mc.tags._in_flight):
            slot.host_mc.tags.release(tag)
        done = self.train_channel(channel_no, training)
        try:
            self.sim.run_until_signal(done, timeout_ps=10**12)
        except Exception:
            return False
        return slot.trained

    # -- the paper's latency measurement ---------------------------------------------

    def measure_memory_latency_ns(
        self,
        region_base: int,
        region_bytes: int,
        samples: int = 64,
        rng: Optional[Rng] = None,
    ) -> float:
        """Measured latency to memory, averaged over single commands.

        Issues ``samples`` dependent (serialized) cache-line reads at random
        line addresses — the same methodology as Tables 2 and 3: total
        round-trip latency through software, processor, caches, nest, DMI
        link and the buffer.
        """
        rng = rng or self.rng.fork("latmeas")
        lines = region_bytes // CACHE_LINE_BYTES
        total_ps = 0
        for _ in range(samples):
            addr = region_base + rng.randint(0, lines - 1) * CACHE_LINE_BYTES
            t0 = self.sim.now_ps
            self.sim.run_until_signal(self.read_line(addr), timeout_ps=10**12)
            total_ps += self.sim.now_ps - t0
        return total_ps / samples / 1_000
