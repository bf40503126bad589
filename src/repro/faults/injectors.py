"""The injector registry: binding fault specs to the existing primitives.

An *injector* is the glue between one :class:`~repro.faults.plan.FaultSpec`
and the simulation object it perturbs.  Injectors never reimplement fault
behaviour — they drive the error paths the model already has:

==================== =====================================================
``dmi.bit_errors``    raise a link's :class:`LinkErrorModel` frame error
                      rate for the window (CRC drops -> replay machinery)
``dmi.frame_drop``    force the next N frames to corrupt (guaranteed CRC
                      drop, independent of the stochastic rate)
``dmi.degrade``       hard-fail the channel; recovery retrains it through
                      :meth:`Power8Socket.recover_channel` (out of kernel)
``memory.bit_flips``  flip stored bits on ECC DIMMs (cosmic-ray model,
                      healed by SEC-DED on the next read or by patrol)
``memory.scrub_storm`` run an aggressive patrol scrubber for the window
``memory.bank_fault`` mark one DRAM bank slow or failed
``nvdimm.power_loss`` drop host power on NVDIMM-N modules (save to flash
                      or LOST on an undersized supercap); window end
                      restores power
``accel.engine_stall`` seize MBS command engines for the window
``fpga.clock_jitter`` thermal/clock instability on the FPGA fabric: every
                      MBS memory operation picks up a uniform extra delay
                      in ``[0, jitter_ps]`` for the window
``storage.io_errors`` install an :class:`IoFaultModel` on block devices:
                      IO attempts fail (by rate or forced count) and are
                      retried up to a bound before surfacing a
                      ``StorageError``
``storage.destage_stall`` freeze a write cache's destager for the window
                      (the log fills and admission stalls)
``storage.slow_disk`` add fixed extra latency to every IO of a device
==================== =====================================================

Storage injectors resolve their targets through the system's
``storage_devices`` attribute (a ``{name: device}`` dict the storage
experiments attach); on a system without one they skip, so mixed plans
run against both DMI-only and storage experiments.

Each injector reports an *outcome string*: ``inject`` returns
``"injected"`` or ``"skipped"`` (no eligible target), ``recover`` returns
``"recovered"``, ``"failed"``, ``"lost"``, or ``"noop"``.  Injectors whose
recovery cannot run inside a kernel event (channel retraining calls
``sim.run``) set ``needs_heal`` and do the real work in ``heal()``, which
the :class:`~repro.faults.controller.FaultController` invokes between
simulator runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..dmi.link import LinkErrorModel, SerialLink, configure_link_errors
from ..errors import ConfigurationError, ReplayError
from ..memory.dram import DdrDram
from ..memory.nvdimm import NvdimmN, NvdimmState
from ..memory.scrubber import PatrolScrubber, ScrubConfig
from ..sim import Rng, Simulator
from ..storage.block import IoFaultModel
from ..units import us_to_ps
from .plan import FaultSpec

#: registered injector constructors, keyed by plan-entry name
INJECTORS: Dict[str, type] = {}


def register_injector(name: str) -> Callable[[type], type]:
    """Class decorator adding an injector to the registry."""

    def wrap(cls: type) -> type:
        cls.name = name
        INJECTORS[name] = cls
        return cls

    return wrap


def injector_names() -> List[str]:
    return sorted(INJECTORS)


def make_injector(spec: FaultSpec, sim: Simulator, rng: Rng) -> "Injector":
    cls = INJECTORS.get(spec.injector)
    if cls is None:
        raise ConfigurationError(
            f"unknown injector {spec.injector!r} (known: {', '.join(injector_names())})"
        )
    return cls(sim, spec, rng)


# ---------------------------------------------------------------------------
# Target resolution
# ---------------------------------------------------------------------------


def _socket_of(system):
    """Accept a ContuttoSystem or a bare Power8Socket."""
    return getattr(system, "socket", system)


def _target_slots(system, target: str) -> List[Tuple[int, object]]:
    """(channel_no, ChannelSlot) pairs the target selector names.

    An empty target means every populated channel; otherwise the target is
    a channel number.
    """
    socket = _socket_of(system)
    if target == "":
        return [(no, socket.slots[no]) for no in sorted(socket.slots)]
    try:
        channel_no = int(target)
    except ValueError as exc:
        raise ConfigurationError(f"bad fault target {target!r}") from exc
    if channel_no not in socket.slots:
        raise ConfigurationError(f"fault target channel {channel_no} not populated")
    return [(channel_no, socket.slots[channel_no])]


def _dram_devices(slot) -> List[DdrDram]:
    """DRAM ranks behind a slot's buffer (an NVDIMM exposes its DRAM side)."""
    devices: List[DdrDram] = []
    for port in getattr(slot.buffer, "ports", []):
        device = port.device
        if isinstance(device, NvdimmN):
            devices.append(device.dram)
        elif isinstance(device, DdrDram):
            devices.append(device)
    return devices


def _nvdimm_devices(slot) -> List[NvdimmN]:
    return [
        port.device
        for port in getattr(slot.buffer, "ports", [])
        if isinstance(port.device, NvdimmN)
    ]


def _storage_devices(system, target: str) -> List[Tuple[str, object]]:
    """(name, device) pairs from the system's ``storage_devices`` dict.

    Storage experiments attach their stack as ``system.storage_devices =
    {"hdd": hdd, "ssd": ssd, ...}``.  A system without the attribute has
    no storage targets — the injector *skips* instead of erroring, so one
    plan can span DMI-only and storage experiments.  An empty target
    selects every device (sorted by name for determinism); a non-empty
    target must name one.
    """
    devices = getattr(system, "storage_devices", None)
    if not devices:
        return []
    if target == "":
        return sorted(devices.items())
    if target not in devices:
        raise ConfigurationError(
            f"fault target {target!r} not a storage device "
            f"(known: {', '.join(sorted(devices))})"
        )
    return [(target, devices[target])]


# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------


class Injector:
    """One bound fault: knows its targets and how to perturb/restore them."""

    name = "base"
    #: recovery must run outside kernel events (controller.heal())
    needs_heal = False

    def __init__(self, sim: Simulator, spec: FaultSpec, rng: Rng):
        self.sim = sim
        self.spec = spec
        self.rng = rng

    def bind(self, system) -> None:
        raise NotImplementedError

    def inject(self, now_ps: int) -> str:
        raise NotImplementedError

    def recover(self, now_ps: int) -> str:
        return "noop"

    def heal(self, now_ps: int) -> str:
        return "noop"


# ---------------------------------------------------------------------------
# DMI injectors
# ---------------------------------------------------------------------------


@register_injector("dmi.bit_errors")
class DmiBitErrors(Injector):
    """Raise the frame error rate on a channel's links for the window."""

    def bind(self, system) -> None:
        self.links: List[SerialLink] = []
        for _, slot in _target_slots(system, self.spec.target):
            self.links += [slot.channel.down_link, slot.channel.up_link]
        self._saved: Optional[List[Tuple[float, int]]] = None

    def inject(self, now_ps: int) -> str:
        if not self.links:
            return "skipped"
        if self._saved is None:  # overlapping windows keep the first save
            self._saved = configure_link_errors(
                self.links,
                float(self.spec.param("rate", 0.05)),
                int(self.spec.param("max_flips", 1)),
            )
        return "injected"

    def recover(self, now_ps: int) -> str:
        if self._saved is None:
            return "noop"
        for link, (rate, flips) in zip(self.links, self._saved):
            link.error_model.frame_error_rate = rate
            link.error_model.max_flips = flips
        self._saved = None
        return "recovered"


@register_injector("dmi.frame_drop")
class DmiFrameDrop(Injector):
    """Force the next N frames on a link direction to fail CRC."""

    def bind(self, system) -> None:
        direction = str(self.spec.param("direction", "down"))
        if direction not in ("down", "up", "both"):
            raise ConfigurationError(
                f"{self.spec.label}: direction must be down/up/both"
            )
        self.models: List[LinkErrorModel] = []
        for _, slot in _target_slots(system, self.spec.target):
            if direction in ("down", "both"):
                self.models.append(slot.channel.down_link.error_model)
            if direction in ("up", "both"):
                self.models.append(slot.channel.up_link.error_model)

    def inject(self, now_ps: int) -> str:
        if not self.models:
            return "skipped"
        count = int(self.spec.param("count", 1))
        for model in self.models:
            model.force_drops += count
        return "injected"

    def recover(self, now_ps: int) -> str:
        # drops not yet consumed by traffic are cancelled at window end
        for model in self.models:
            model.force_drops = 0
        return "recovered"


@register_injector("dmi.degrade")
class DmiDegrade(Injector):
    """Hard link degrade: the channel fails and must be retrained.

    Injection marks the channel failed exactly as replay exhaustion does;
    recovery goes through the socket's firmware-style
    :meth:`recover_channel` flow, which runs the simulator itself and
    therefore happens in :meth:`heal` (between kernel runs), not at the
    in-kernel window close.
    """

    needs_heal = True

    def bind(self, system) -> None:
        self.socket = _socket_of(system)
        self.targets = _target_slots(system, self.spec.target)

    def inject(self, now_ps: int) -> str:
        hit = False
        for channel_no, slot in self.targets:
            if slot.channel.operational:
                slot.channel._on_fail(ReplayError(
                    f"injected link degrade ({self.spec.label}) on channel "
                    f"{channel_no}"
                ))
                hit = True
        return "injected" if hit else "skipped"

    def heal(self, now_ps: int) -> str:
        ok = True
        for channel_no, slot in self.targets:
            if not slot.channel.operational or not slot.trained:
                ok = self.socket.recover_channel(channel_no) and ok
        return "recovered" if ok else "failed"


# ---------------------------------------------------------------------------
# Memory injectors
# ---------------------------------------------------------------------------


@register_injector("memory.bit_flips")
class MemoryBitFlips(Injector):
    """Flip stored bits on ECC-enabled DRAM (SEC-DED heals them on read)."""

    def bind(self, system) -> None:
        self.devices: List[DdrDram] = []
        for _, slot in _target_slots(system, self.spec.target):
            self.devices += [d for d in _dram_devices(slot) if d.ecc_enabled]

    def inject(self, now_ps: int) -> str:
        if not self.devices:
            return "skipped"
        flips = int(self.spec.param("flips", 1))
        for device in self.devices:
            words = device.capacity_bytes // 8
            for _ in range(flips):
                addr = self.rng.randint(0, words - 1) * 8
                device.inject_bit_error(addr, self.rng.randint(0, 63))
        return "injected"


@register_injector("memory.scrub_storm")
class ScrubStorm(Injector):
    """Run an aggressive patrol scrub for the window (bandwidth thief)."""

    def bind(self, system) -> None:
        self.devices: List[DdrDram] = []
        for _, slot in _target_slots(system, self.spec.target):
            self.devices += [d for d in _dram_devices(slot) if d.ecc_enabled]
        self.scrubbers: List[PatrolScrubber] = []

    def inject(self, now_ps: int) -> str:
        if not self.devices:
            return "skipped"
        config = ScrubConfig(
            interval_ps=int(self.spec.param("interval_ps", us_to_ps(1))),
            lines_per_step=int(self.spec.param("lines_per_step", 32)),
        )
        for i, device in enumerate(self.devices):
            scrubber = PatrolScrubber(
                self.sim, device, config, name=f"{self.spec.label}.scrub{i}"
            )
            scrubber.start()
            self.scrubbers.append(scrubber)
        return "injected"

    def recover(self, now_ps: int) -> str:
        for scrubber in self.scrubbers:
            scrubber.stop_requested = True
        self.scrubbers.clear()
        return "recovered"


@register_injector("memory.bank_fault")
class BankFault(Injector):
    """Mark one DRAM bank slow (extra access latency) or failed (UEs)."""

    def bind(self, system) -> None:
        self.devices: List[DdrDram] = []
        for _, slot in _target_slots(system, self.spec.target):
            self.devices += _dram_devices(slot)
        self.bank = int(self.spec.param("bank", 0))
        self.mode = str(self.spec.param("mode", "slow"))
        self.extra_ps = int(self.spec.param("extra_ps", 100_000))

    def inject(self, now_ps: int) -> str:
        if not self.devices:
            return "skipped"
        for device in self.devices:
            device.set_bank_fault(self.bank, self.mode, self.extra_ps)
        return "injected"

    def recover(self, now_ps: int) -> str:
        for device in self.devices:
            device.clear_bank_fault(self.bank)
        return "recovered"


@register_injector("nvdimm.power_loss")
class NvdimmPowerLoss(Injector):
    """Drop host power on NVDIMM-N modules; window end restores it.

    Each module saves to flash on supercap energy (or loses contents when
    the supercap cannot hold up).  Recovery reports ``"lost"`` when any
    module came back empty.
    """

    def bind(self, system) -> None:
        self.devices: List[NvdimmN] = []
        for _, slot in _target_slots(system, self.spec.target):
            self.devices += _nvdimm_devices(slot)

    def inject(self, now_ps: int) -> str:
        hit = False
        for device in self.devices:
            if device.state is NvdimmState.NORMAL:
                device.power_loss(now_ps)
                hit = True
        return "injected" if hit else "skipped"

    def recover(self, now_ps: int) -> str:
        lost = False
        restored = False
        for device in self.devices:
            if device.state in (NvdimmState.SAVED, NvdimmState.LOST):
                lost = lost or device.state is NvdimmState.LOST
                device.power_restore(now_ps)
                restored = True
        if not restored:
            return "noop"
        return "lost" if lost else "recovered"


# ---------------------------------------------------------------------------
# Accelerator injector
# ---------------------------------------------------------------------------


@register_injector("accel.engine_stall")
class EngineStall(Injector):
    """Seize MBS command engines for the window, starving real traffic."""

    def bind(self, system) -> None:
        self.pools = [
            slot.buffer.mbs.engines
            for _, slot in _target_slots(system, self.spec.target)
            if hasattr(slot.buffer, "mbs")
        ]
        self._held: List[Tuple[object, object]] = []

    def inject(self, now_ps: int) -> str:
        if not self.pools:
            return "skipped"
        want = int(self.spec.param("engines", 8))
        seized = 0
        for pool in self.pools:
            for _ in range(want):
                engine = pool.try_allocate(-1)
                if engine is None:
                    break
                self._held.append((pool, engine))
                seized += 1
        return "injected" if seized else "skipped"

    def recover(self, now_ps: int) -> str:
        for pool, engine in self._held:
            pool.free(engine)
        self._held.clear()
        return "recovered"


@register_injector("fpga.clock_jitter")
class ClockJitter(Injector):
    """Thermal/clock instability on the FPGA fabric for the window.

    A prototyping platform's fabric clock is not a production ASIC's: a
    hot or marginal build closes timing with jitter.  Modeled as a
    uniform extra delay in ``[0, jitter_ps]`` on every MBS memory
    operation (the knob's delay-module path; flush is ordering, not a
    memory access, and is exempt).  Only ConTutto buffers have an MBS —
    on a Centaur-only system the injector skips.  The per-injector
    forked RNG keeps runs deterministic.
    """

    def bind(self, system) -> None:
        self.mbs = [
            slot.buffer.mbs
            for _, slot in _target_slots(system, self.spec.target)
            if hasattr(slot.buffer, "mbs")
        ]
        self._saved: Optional[List[Tuple[int, object]]] = None

    def inject(self, now_ps: int) -> str:
        if not self.mbs:
            return "skipped"
        if self._saved is None:  # overlapping windows keep the first save
            self._saved = [(m.jitter_ps, m.jitter_rng) for m in self.mbs]
        jitter = int(self.spec.param("jitter_ps", 2_000))
        if jitter < 0:
            raise ConfigurationError(
                f"{self.spec.label}: jitter_ps must be >= 0 (got {jitter})"
            )
        for i, mbs in enumerate(self.mbs):
            mbs.jitter_ps = jitter
            mbs.jitter_rng = self.rng.fork(f"jitter{i}")
        return "injected"

    def recover(self, now_ps: int) -> str:
        if self._saved is None:
            return "noop"
        for mbs, (jitter, rng) in zip(self.mbs, self._saved):
            mbs.jitter_ps = jitter
            mbs.jitter_rng = rng
        self._saved = None
        return "recovered"


# ---------------------------------------------------------------------------
# Storage injectors
# ---------------------------------------------------------------------------


@register_injector("storage.io_errors")
class StorageIoErrors(Injector):
    """Install an :class:`IoFaultModel` on block devices for the window.

    Attempts fail with probability ``rate`` (per-device forked RNG, so
    runs are deterministic) or for the next ``force_failures`` attempts;
    the device retries up to ``max_retries`` times before surfacing a
    typed ``StorageError`` as the completion value.
    """

    def bind(self, system) -> None:
        self.devices = [
            device
            for _, device in _storage_devices(system, self.spec.target)
            if hasattr(device, "io_fault")
        ]

    def inject(self, now_ps: int) -> str:
        if not self.devices:
            return "skipped"
        rate = float(self.spec.param("rate", 0.0))
        force = int(self.spec.param("force_failures", 0))
        retries = int(self.spec.param("max_retries", 2))
        for i, device in enumerate(self.devices):
            device.io_fault = IoFaultModel(
                rate=rate, force_failures=force, max_retries=retries,
                rng=self.rng.fork(f"io{i}"),
            )
        return "injected"

    def recover(self, now_ps: int) -> str:
        for device in self.devices:
            device.io_fault = None
        return "recovered"


@register_injector("hybrid.migration_stall")
class MigrationStall(Injector):
    """Freeze tiered-memory page migration for the window.

    Hot slow pages keep accumulating heat but stay resident in the slow
    tier — every would-be promotion counts a ``tier.migration_stalls``
    and demand traffic pays slow-tier latency.  Window end unfreezes the
    devices and the backlog (visible as the ``tier.*.hot_slow_pages``
    occupancy source) drains as the hot set re-promotes.
    """

    def bind(self, system) -> None:
        self.devices = []
        for _, slot in _target_slots(system, self.spec.target):
            for port in getattr(slot.buffer, "ports", []):
                if hasattr(port.device, "freeze_migration"):
                    self.devices.append(port.device)

    def inject(self, now_ps: int) -> str:
        if not self.devices:
            return "skipped"
        for device in self.devices:
            device.freeze_migration()
        return "injected"

    def recover(self, now_ps: int) -> str:
        for device in self.devices:
            device.unfreeze_migration()
        return "recovered"


@register_injector("storage.destage_stall")
class DestageStall(Injector):
    """Freeze write-cache destaging for the window.

    Staged writes keep landing in the NVM log; once it fills, admission
    stalls — the exact backpressure path the Table 4 cache bounds.
    Window end unfreezes the destager, which drains the backlog.
    """

    def bind(self, system) -> None:
        self.caches = [
            device
            for _, device in _storage_devices(system, self.spec.target)
            if hasattr(device, "freeze_destage")
        ]

    def inject(self, now_ps: int) -> str:
        if not self.caches:
            return "skipped"
        for cache in self.caches:
            cache.freeze_destage()
        return "injected"

    def recover(self, now_ps: int) -> str:
        for cache in self.caches:
            cache.unfreeze_destage()
        return "recovered"


@register_injector("storage.slow_disk")
class SlowDisk(Injector):
    """Add ``extra_us`` of latency to every IO of a device for the window."""

    def bind(self, system) -> None:
        self.devices = [
            device
            for _, device in _storage_devices(system, self.spec.target)
            if hasattr(device, "slow_extra_ps")
        ]
        self._saved: Optional[List[int]] = None

    def inject(self, now_ps: int) -> str:
        if not self.devices:
            return "skipped"
        if self._saved is None:  # overlapping windows keep the first save
            self._saved = [device.slow_extra_ps for device in self.devices]
        extra = us_to_ps(float(self.spec.param("extra_us", 1000.0)))
        for device in self.devices:
            device.slow_extra_ps = extra
        return "injected"

    def recover(self, now_ps: int) -> str:
        if self._saved is None:
            return "noop"
        for device, saved in zip(self.devices, self._saved):
            device.slow_extra_ps = saved
        self._saved = None
        return "recovered"
