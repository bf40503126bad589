"""Request classes: what one service operation costs in the simulated stack.

A tenant's requests belong to one *class* — a short, named operation
against the simulated memory or storage stack.  Classes are not modeled
with synthetic constants: each one is **calibrated** by actually running
its operation in the discrete-event simulator and recording per-sample
(service time, success) pairs.  The service loop then draws from that
empirical profile, so queueing dynamics inherit the stack's real latency
distribution — including tail samples and, when a fault plan is
installed, degraded and failed operations.

Determinism contract: :func:`calibrate` is a pure function of
``(klass, samples, seed, fault plan)``.  The shard runner derives the
calibration seed from the repetition seed and the class name only —
never from the shard index — so every shard of a sharded run computes
byte-identical profiles and the merged run table is shard-invariant.

Classes
-------

``mem_read`` / ``mem_write``
    One 128 B cache-line read/write through the full POWER8 socket →
    DMI → Centaur → DRAM path (random addresses, memory-level
    parallelism of one).
``pointer_chase``
    One hop of a dependent pointer chain — the no-MLP worst case the
    paper flags for latency sensitivity.
``storage_read`` / ``storage_write``
    One 4 KiB block IO against a PCIe-attached NVRAM card
    (fio-style random offsets).
``gpfs_write``
    One synchronous GPFS-style 4 KiB write: filesystem software
    overhead plus the PCIe store visit.

Fault plans bind to the :class:`~repro.core.system.ContuttoSystem`
behind the memory classes; the storage classes run on a bare simulator
with no system to inject into, so a plan leaves them untouched.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.system import CardSpec, ContuttoSystem
from ..errors import ConfigurationError, SimulationError, StorageError
from ..faults import FaultController, FaultPlan
from ..sim import Rng, Simulator
from ..sim.rng import derive_seed
from ..storage import NVRAM_PCIE, DirectStore, PcieAttachedStore
from ..telemetry import probe
from ..units import CACHE_LINE_BYTES, MIB
from ..workloads import GpfsJob, GpfsWriter, TraceSpec, pointer_chase
from .profile import ServiceProfile

#: every request class a schedule's tenants may reference
REQUEST_CLASSES = (
    "gpfs_write",
    "mem_read",
    "mem_write",
    "pointer_chase",
    "storage_read",
    "storage_write",
)

#: classes backed by a booted ContuttoSystem (fault plans apply here)
SYSTEM_CLASSES = frozenset({"mem_read", "mem_write", "pointer_chase"})

#: block size of the storage-class IOs
_BLOCK_BYTES = 4096

#: backing-store capacity for the storage classes (small: offsets are
#: random, capacity only bounds the offset space)
_STORE_BYTES = 64 * MIB

#: per-operation sim deadline — generous against any fault window
_OP_TIMEOUT_PS = 10**12


def _run_op(sim: Simulator, signal) -> bool:
    """Drain one submitted operation; classify its completion value."""
    try:
        value = sim.run_until_signal(signal, timeout_ps=_OP_TIMEOUT_PS)
    except (SimulationError, StorageError):
        return False
    return not isinstance(value, Exception)


def _calibrate_system(
    klass: str, samples: int, seed: int, plan: Optional[FaultPlan]
) -> ServiceProfile:
    """Measure socket-path line operations on a booted Centaur system."""
    probe.set_scenario(f"service:{klass}:boot")
    system = ContuttoSystem.build([CardSpec(slot=0, kind="centaur")], seed=seed)
    controller = None
    if plan is not None:
        controller = FaultController(
            system.sim, plan, seed=derive_seed(seed, "faults")
        )
        controller.install(system).start()

    region = system.region_for_slot(0)
    rng = Rng(derive_seed(seed, "ops"), f"service.{klass}")
    probe.set_scenario(f"service:{klass}")
    if klass == "pointer_chase":
        # one calibrated sample per dependent hop of a random chain
        spec = TraceSpec(region.base, min(region.os_size, 256 * 1024), samples)
        addrs = pointer_chase(spec, rng)
        while len(addrs) < samples:          # tiny regions: rewalk the chain
            addrs += addrs[: samples - len(addrs)]
    else:
        lines = region.os_size // CACHE_LINE_BYTES
        addrs = [
            region.base + rng.randint(0, lines - 1) * CACHE_LINE_BYTES
            for _ in range(samples)
        ]

    times: List[int] = []
    oks: List[bool] = []
    payload = bytes(CACHE_LINE_BYTES)
    for addr in addrs:
        t0 = system.sim.now_ps
        if klass == "mem_write":
            signal = system.socket.write_line(addr, payload)
        else:
            signal = system.socket.read_line(addr)
        oks.append(_run_op(system.sim, signal))
        times.append(system.sim.now_ps - t0)
        if controller is not None:
            controller.heal()
    if controller is not None:
        controller.stop()
    return ServiceProfile(klass, tuple(times), tuple(oks))


def _calibrate_storage(klass: str, samples: int, seed: int) -> ServiceProfile:
    """Measure 4 KiB block IOs against a PCIe-attached NVRAM card."""
    sim = Simulator()
    store = PcieAttachedStore(sim, _STORE_BYTES, NVRAM_PCIE, name=f"svc.{klass}")
    rng = Rng(derive_seed(seed, "ops"), f"service.{klass}")
    blocks = _STORE_BYTES // _BLOCK_BYTES
    probe.set_scenario(f"service:{klass}")
    times: List[int] = []
    oks: List[bool] = []
    for _ in range(samples):
        offset = rng.randint(0, blocks - 1) * _BLOCK_BYTES
        t0 = sim.now_ps
        if klass == "storage_write":
            signal = store.submit_write(offset, _BLOCK_BYTES)
        else:
            signal = store.submit_read(offset, _BLOCK_BYTES)
        oks.append(_run_op(sim, signal))
        times.append(sim.now_ps - t0)
    return ServiceProfile(klass, tuple(times), tuple(oks))


def _calibrate_gpfs(samples: int, seed: int) -> ServiceProfile:
    """Measure synchronous GPFS-style writes (software path + store)."""
    sim = Simulator()
    store = DirectStore(
        PcieAttachedStore(sim, _STORE_BYTES, NVRAM_PCIE, name="svc.gpfs"),
        name="svc.gpfs",
    )
    writer = GpfsWriter(sim)
    probe.set_scenario("service:gpfs_write")
    times: List[int] = []
    oks: List[bool] = []
    for i in range(samples):
        job = GpfsJob(total_writes=1, seed=derive_seed(seed, f"op{i}"))
        result = writer.run(store, job)
        times.append(int(result.mean_latency_us * 1e6))
        oks.append(result.errors == 0)
    return ServiceProfile("gpfs_write", tuple(times), tuple(oks))


def calibrate(
    klass: str,
    samples: int,
    seed: int,
    faults: Optional[FaultPlan] = None,
) -> ServiceProfile:
    """Run ``samples`` real sim operations of ``klass``; return its profile."""
    if klass not in REQUEST_CLASSES:
        raise ConfigurationError(
            f"unknown request class {klass!r} "
            f"(known: {', '.join(REQUEST_CLASSES)})"
        )
    if samples < 1:
        raise ConfigurationError("calibration needs at least one sample")
    if klass in SYSTEM_CLASSES:
        return _calibrate_system(klass, samples, seed, faults)
    if klass == "gpfs_write":
        return _calibrate_gpfs(samples, seed)
    return _calibrate_storage(klass, samples, seed)
