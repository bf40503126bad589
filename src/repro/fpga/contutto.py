"""The ConTutto FPGA memory buffer: the paper's primary artifact.

Composes the FPGA logic of Figure 4 into a drop-in
:class:`~repro.buffer.base.MemoryBuffer`:

* DMI PHY + MBI characteristics come from the timing-closure model
  (:mod:`repro.fpga.timing`) — the endpoint overheads, the replay
  preparation time, and the freeze workaround;
* MBS with 32 command engines, two RMW ALUs and the latency knob;
* an Avalon bus with one DDR3 memory controller per populated DIMM slot
  (two slots on the card), lines interleaved across slots;
* optional in-line acceleration (augmented command engines implementing
  min-store / max-store / conditional-swap);
* resource accounting that reproduces Table 1 for the base design.

The FPGA intentionally omits Centaur's 16 MB cache and auxiliary functions
— "the FPGA and its performance is not representative of that of the
Centaur chip" — so there is no cache here by design.
"""

from __future__ import annotations

from typing import List, Tuple

from ..buffer.base import MemoryBuffer, RespondFn
from ..dmi.commands import Command, Opcode
from ..errors import ConfigurationError
from ..memory import MemoryController, MemoryControllerConfig
from ..memory.device import MemoryDevice
from ..sim import Simulator, fabric_clock
from ..units import CACHE_LINE_BYTES
from .avalon import AvalonBus
from .latency_knob import LatencyKnob
from .mbs import MbsLogic
from .resources import DesignResources, base_design_resources
from .timing import SHIPPING_TIMING, FpgaTimingConfig, TimingClosure

NUM_DIMM_SLOTS = 2


class ConTuttoBuffer(MemoryBuffer):
    """FPGA-based memory buffer, pin-compatible replacement for a CDIMM."""

    kind = "contutto"

    def __init__(
        self,
        sim: Simulator,
        devices: List[MemoryDevice],
        timing: FpgaTimingConfig = SHIPPING_TIMING,
        knob_position: int = 0,
        inline_accel: bool = False,
        mc_config: MemoryControllerConfig = None,
        freeze_workaround: bool = True,
        name: str = "contutto0",
    ):
        super().__init__(sim, name)
        self.freeze_workaround = freeze_workaround
        if not 1 <= len(devices) <= NUM_DIMM_SLOTS:
            raise ConfigurationError(
                f"{name}: ConTutto has {NUM_DIMM_SLOTS} DIMM slots, "
                f"got {len(devices)} devices"
            )
        if len({dev.capacity_bytes for dev in devices}) > 1:
            raise ConfigurationError(f"{name}: DIMMs must be identical capacity")

        self.clock = fabric_clock()
        self.timing = TimingClosure(timing, self.clock)
        self.timing.check()  # the design must close timing at 250 MHz

        # The FPGA's soft memory controller (Altera DDR3 MegaCore analogue)
        # is far slower than Centaur's: deep fabric pipelines on the command
        # path, a half-rate PHY, and wide clock-domain crossings.  These
        # defaults are calibrated so the full-system measured latency
        # reproduces Table 3 (see repro.core.calibration).
        mc_config = mc_config or MemoryControllerConfig(
            command_overhead_ps=self.clock.cycles_to_ps(33),
            response_overhead_ps=self.clock.cycles_to_ps(24),
        )
        self.avalon = AvalonBus(sim, name=f"{name}.avalon")
        self.ports = []
        base = 0
        for i, dev in enumerate(devices):
            mc = MemoryController(sim, dev, mc_config, name=f"{name}.mc{i}")
            self.avalon.add_slave(base, dev.capacity_bytes, mc, name=f"mc{i}")
            self.ports.append(mc)
            base += dev.capacity_bytes

        self.knob = LatencyKnob(self.clock)
        self.knob.set_position(knob_position)
        self.inline_accel = inline_accel
        self.mbs = MbsLogic(
            sim,
            self.avalon,
            knob=self.knob,
            clock=self.clock,
            route=self._route,
            inline_accel=inline_accel,
            name=f"{name}.mbs",
        )

    # -- address interleave -----------------------------------------------------

    def _route(self, addr: int) -> int:
        """Interleave 128B lines across the populated DIMM slots."""
        if len(self.ports) == 1:
            return addr
        line = addr // CACHE_LINE_BYTES
        slot = line % len(self.ports)
        local_line = line // len(self.ports)
        slot_base = slot * self.ports[0].device.capacity_bytes
        return slot_base + local_line * CACHE_LINE_BYTES

    @property
    def capacity_bytes(self) -> int:
        return sum(port.device.capacity_bytes for port in self.ports)

    # -- command execution --------------------------------------------------------

    def supports(self, opcode: Opcode) -> bool:
        if opcode is Opcode.FLUSH:
            return True  # added for the persistent-memory stack
        if opcode in (Opcode.MIN_STORE, Opcode.MAX_STORE, Opcode.CSWAP):
            return self.inline_accel
        return True

    def _execute(self, command: Command, respond: RespondFn) -> None:
        self._reject_unsupported(command)
        self.mbs.handle(command, respond)

    # -- endpoint characteristics ---------------------------------------------------

    def endpoint_overheads(self) -> Tuple[int, int, int, bool]:
        return (
            self.timing.tx_overhead_ps(),
            self.timing.rx_overhead_ps(),
            self.timing.replay_prep_ps(),
            # part of the shipping design; disable to study the bare
            # replay-start path (Section 3.3)
            self.freeze_workaround,
        )

    # -- resources (Table 1) --------------------------------------------------------

    def resources(self) -> DesignResources:
        design = base_design_resources()
        if self.inline_accel:
            design.add("inline_accel_ext")
        return design
