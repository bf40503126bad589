"""The top-level system builder: the library's primary public API.

:class:`ContuttoSystem` assembles a complete simulated POWER8 server —
socket, buffers (Centaur and/or ConTutto), memory devices, firmware — and
boots it through the real IPL flow.  Example::

    from repro import ContuttoSystem, CardSpec

    system = ContuttoSystem.build([
        CardSpec(slot=2, kind="centaur", memory="dram", capacity_per_dimm=GIB),
        CardSpec(slot=0, kind="contutto", memory="mram",
                 capacity_per_dimm=256 * MIB),
    ])
    latency = system.measure_latency_ns("contutto", samples=32)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..buffer import Centaur, CentaurConfig, DEFAULT
from ..buffer.base import MemoryBuffer
from ..dmi import TrainingConfig
from ..errors import ConfigurationError
from ..firmware import (
    BootReport,
    CardDescriptor,
    CentaurFsiSlave,
    ConTuttoFsiSlave,
    IplFlow,
    PowerSequencer,
    ServiceProcessor,
    build_contutto_csrs,
    set_latency_knob,
)
from ..fpga import ConTuttoBuffer, FpgaTimingConfig, SHIPPING_TIMING
from ..hybrid import TieringSpec, build_tiered
from ..memory import (
    Ddr3Timing,
    DdrDram,
    MemoryDevice,
    NvdimmN,
    SttMram,
    spd_for_device,
)
from ..processor import Power8Socket, SocketConfig
from ..sim import Rng, Simulator
from ..storage import PmemConfig, PmemRegion
from ..telemetry import occupancy_sources, probe
from ..units import GIB

_MEMORY_FACTORIES = {
    "dram": lambda cap, name, ecc, timing: DdrDram(
        cap, name=name, ecc_enabled=ecc,
        **({} if timing is None else {"timing": timing}),
    ),
    "mram": lambda cap, name, ecc, timing: SttMram(cap, name=name),
    "nvdimm": lambda cap, name, ecc, timing: NvdimmN(cap, name=name),
}


@dataclass
class CardSpec:
    """Declarative description of one card in the system."""

    slot: int
    kind: str = "centaur"            # "centaur" | "contutto"
    memory: str = "dram"             # "dram" | "mram" | "nvdimm" | "tiered"
    capacity_per_dimm: int = 1 * GIB
    #: Centaur-only: which latency configuration
    centaur_config: CentaurConfig = DEFAULT
    #: ConTutto-only knobs
    knob_position: int = 0
    inline_accel: bool = False
    timing: FpgaTimingConfig = SHIPPING_TIMING
    #: SEC-DED ECC on the DRAM DIMMs (DRAM only)
    ecc: bool = False
    #: DRAM-only: override the DIMM timing grade (None = DDR3-1333 CL9)
    ddr_timing: Optional["Ddr3Timing"] = None
    #: ConTutto-only: the Section 3.3 freeze workaround (retransmit while
    #: preparing replay); disabling it makes slow replays fail the channel
    freeze: bool = True
    #: tiered-memory cards only: how the capacity splits into fast/slow
    #: tiers and which migration policy runs (docs/hybrid.md)
    tiering: Optional[TieringSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in ("centaur", "contutto"):
            raise ConfigurationError(f"unknown card kind {self.kind!r}")
        if self.memory not in _MEMORY_FACTORIES and self.memory != "tiered":
            raise ConfigurationError(f"unknown memory type {self.memory!r}")
        if self.kind == "centaur" and self.memory != "dram":
            raise ConfigurationError(
                "Centaur only drives DRAM; non-DRAM needs a ConTutto card "
                "(the point of the paper)"
            )
        if self.ddr_timing is not None and self.memory != "dram":
            raise ConfigurationError(
                f"ddr_timing only applies to DRAM DIMMs, not {self.memory!r}"
            )
        if self.tiering is not None and self.memory != "tiered":
            raise ConfigurationError(
                "a tiering spec needs memory='tiered'"
            )


class ContuttoSystem:
    """A booted POWER8 system with a mix of CDIMMs and ConTutto cards."""

    def __init__(
        self,
        sim: Simulator,
        socket: Power8Socket,
        cards: Dict[int, CardDescriptor],
        boot_report: BootReport,
        fsp: ServiceProcessor,
    ):
        self.sim = sim
        self.socket = socket
        self.cards = cards
        self.boot_report = boot_report
        self.fsp = fsp

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        specs: List[CardSpec],
        seed: int = 0,
        socket_config: SocketConfig = SocketConfig(),
        training: Optional[TrainingConfig] = None,
    ) -> "ContuttoSystem":
        """Create, wire, and boot a system from card specifications."""
        if not specs:
            raise ConfigurationError("a system needs at least one card")
        sim = Simulator()
        rng = Rng(seed, "system")
        socket = Power8Socket(sim, socket_config, rng=rng.fork("socket"))
        fsp = ServiceProcessor(sim)
        descriptors: Dict[int, CardDescriptor] = {}
        for spec in specs:
            descriptors[spec.slot] = cls._make_card(sim, spec)
        flow = IplFlow(sim, socket, fsp=fsp, training=training)
        report = flow.boot(list(descriptors.values()))
        trace = probe.session
        if trace is not None and trace.occupancy is not None:
            # point the active session's queue-depth sampler at this
            # system's queues (replacing any previous build's sources)
            trace.occupancy.set_sources(occupancy_sources(socket))
        return cls(sim, socket, descriptors, report, fsp)

    @staticmethod
    def _make_device(spec: CardSpec, name: str) -> MemoryDevice:
        if spec.memory == "tiered":
            return build_tiered(
                spec.capacity_per_dimm, name, spec.tiering or TieringSpec()
            )
        return _MEMORY_FACTORIES[spec.memory](
            spec.capacity_per_dimm, name, spec.ecc, spec.ddr_timing
        )

    @staticmethod
    def _make_card(sim: Simulator, spec: CardSpec) -> CardDescriptor:
        if spec.kind == "centaur":
            devices = [
                ContuttoSystem._make_device(spec, f"s{spec.slot}.d{i}")
                for i in range(4)
            ]
            buffer: MemoryBuffer = Centaur(
                sim, devices, spec.centaur_config, name=f"centaur{spec.slot}"
            )
            return CardDescriptor(
                slot=spec.slot, buffer=buffer,
                fsi_slave=CentaurFsiSlave(sim, f"fsi{spec.slot}"),
            )
        devices = [
            ContuttoSystem._make_device(spec, f"s{spec.slot}.d{i}")
            for i in range(2)
        ]
        buffer = ConTuttoBuffer(
            sim, devices, timing=spec.timing, knob_position=spec.knob_position,
            inline_accel=spec.inline_accel, freeze_workaround=spec.freeze,
            name=f"contutto{spec.slot}",
        )
        spd_images = [spd_for_device(d).encode() for d in devices]
        return CardDescriptor(
            slot=spec.slot,
            buffer=buffer,
            fsi_slave=ConTuttoFsiSlave(
                sim, build_contutto_csrs(buffer), spd_images
            ),
            sequencer=PowerSequencer(sim, name=f"pwr{spec.slot}"),
        )

    # -- lookups -----------------------------------------------------------------

    def buffer_in_slot(self, slot: int) -> MemoryBuffer:
        return self.cards[slot].buffer

    def slots_of_kind(self, kind: str) -> List[int]:
        return [s for s, c in self.cards.items() if c.buffer.kind == kind]

    def region_for_slot(self, slot: int):
        """The memory-map region owned by a slot's channel."""
        for region in self.socket.memory_map.regions:
            if region.channel == slot:
                return region
        raise ConfigurationError(f"slot {slot} has no mapped region (boot failed?)")

    # -- measurement helpers ---------------------------------------------------------

    def measure_latency_ns(self, kind_or_slot, samples: int = 32) -> float:
        """Latency-to-memory of a card's region (Tables 2 and 3 methodology)."""
        if isinstance(kind_or_slot, str):
            slots = self.slots_of_kind(kind_or_slot)
            if not slots:
                raise ConfigurationError(f"no {kind_or_slot!r} card in the system")
            slot = slots[0]
        else:
            slot = kind_or_slot
        region = self.region_for_slot(slot)
        return self.socket.measure_memory_latency_ns(
            region.base, region.os_size, samples=samples
        )

    def pmem_region(
        self, slot: Optional[int] = None, config: PmemConfig = PmemConfig()
    ) -> PmemRegion:
        """A pmem driver over the system's (first) non-volatile region."""
        nvm = self.socket.memory_map.nvm_regions()
        if slot is not None:
            nvm = [r for r in nvm if r.channel == slot]
        if not nvm:
            raise ConfigurationError("system has no non-volatile region")
        region = nvm[0]
        return PmemRegion(
            self.sim, self.socket, region.base, region.os_size, config,
            name=f"pmem.ch{region.channel}",
        )

    def set_latency_knob(self, slot: int, position: int) -> None:
        """Set a ConTutto card's latency knob *through the software path*.

        Goes over FSI -> I2C -> FPGA CSR exactly as the firmware does, and
        runs the simulator until the register write lands (Section 4.1:
        "each knob position, controllable from software").
        """
        card = self.cards[slot]
        if not isinstance(card.fsi_slave, ConTuttoFsiSlave):
            raise ConfigurationError(f"slot {slot} is not a ConTutto card")
        done = set_latency_knob(card.fsi_slave, position)
        self.sim.run_until_signal(done, timeout_ps=10**12)

    @property
    def total_memory_bytes(self) -> int:
        return sum(r.os_size for r in self.socket.memory_map.regions)
