"""GPFS small-random-write workload (Table 4).

A single-threaded writer issues small synchronous writes at random file
offsets — the IO pattern that motivates the NVM write cache.  Measured
against three persistent stores:

* the bare SAS HDD (every write seeks: ~75 IOPS),
* a SAS SSD (~15K IOPS),
* STT-MRAM behind ConTutto on the DMI link, used as a write cache in
  front of the HDD (~125K IOPS — 8.3x over the SSD).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StorageError
from ..sim import Rng, Signal, Simulator
from ..telemetry import probe
from ..units import S


@dataclass(frozen=True)
class GpfsJob:
    """Single-threaded synchronous small-write workload."""

    write_bytes: int = 4096
    total_writes: int = 64
    file_bytes: int = 1 << 30
    seed: int = 99
    #: filesystem software path per write: allocation, token/metadata,
    #: recovery-log bookkeeping — paid regardless of the persistent store
    software_overhead_us: float = 5.5


@dataclass(frozen=True)
class GpfsResult:
    iops: float
    mean_latency_us: float
    total_writes: int
    #: writes whose store completion surfaced a StorageError
    errors: int = 0


class GpfsWriter:
    """Runs the GPFS-style writer against a store with a write() method."""

    def __init__(self, sim: Simulator):
        self.sim = sim

    def run(self, store, job: GpfsJob = GpfsJob()) -> GpfsResult:
        """Issue the writes one at a time (single thread, sync semantics)."""
        rng = Rng(job.seed, "gpfs")
        slots = job.file_bytes // job.write_bytes
        start_ps = self.sim.now_ps
        total_latency = 0
        errors = 0
        overhead_ps = int(job.software_overhead_us * 1e6)
        store_name = getattr(store, "name", "store")
        for _ in range(job.total_writes):
            offset = rng.randint(0, slots - 1) * job.write_bytes
            t0 = self.sim.now_ps
            journeys = probe.tracker()
            jid = None
            if journeys is not None:
                jid = journeys.begin("gpfs.write", offset, store_name, t0)
            # the filesystem software path runs before the store IO
            gate = Signal("gpfs.sw")
            self.sim.trigger_after(overhead_ps, gate)
            self.sim.run_until_signal(gate, timeout_ps=10**15)
            if journeys is not None and jid is not None:
                journeys.stage_to(jid, "gpfs.software", self.sim.now_ps)
                journeys.push(jid)
            done = store.write(offset, job.write_bytes)
            if journeys is not None and jid is not None:
                journeys.pop()
            value = self.sim.run_until_signal(done, timeout_ps=10**15)
            if isinstance(value, StorageError):
                errors += 1
                if probe.session is not None:
                    probe.session.count("workload.gpfs_errors")
            if journeys is not None and jid is not None:
                # catch-all for stores that do not stage themselves
                journeys.stage_to(jid, "storage.io", self.sim.now_ps)
                journeys.finish(jid, self.sim.now_ps)
            total_latency += self.sim.now_ps - t0
        duration_ps = self.sim.now_ps - start_ps
        return GpfsResult(
            iops=job.total_writes / (duration_ps / S),
            mean_latency_us=total_latency / job.total_writes / 1e6,
            total_writes=job.total_writes,
            errors=errors,
        )
