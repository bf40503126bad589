"""FIO-style IO benchmark (Figures 9 and 10).

Drives any block-style store (PCIe card, SAS device, or a DMI pmem region
wrapped as a block device) with a configurable random read or write job and
reports IOPS and latency — the two metrics the paper's Figures 9 and 10
chart across technologies and attach points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import StorageError
from ..sim import Rng, Signal, Simulator
from ..telemetry import probe
from ..units import S


@dataclass(frozen=True)
class FioJob:
    """One FIO job description."""

    rw: str = "randread"        # "randread" | "randwrite"
    block_bytes: int = 4096
    iodepth: int = 1            # concurrent IOs kept in flight
    total_ios: int = 64         # IOs to run (sim-time budget, not wall time)
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.rw not in ("randread", "randwrite"):
            raise StorageError(f"unsupported rw mode {self.rw!r}")
        if self.iodepth < 1 or self.total_ios < 1:
            raise StorageError("iodepth and total_ios must be >= 1")


@dataclass(frozen=True)
class FioResult:
    """Measured outcome of one job."""

    job: FioJob
    iops: float
    mean_latency_us: float
    p99_latency_us: float
    duration_us: float
    #: IOs whose completion surfaced a StorageError (injected failures
    #: past the device's retry bound); their latency still counts
    errors: int = 0


class FioRunner:
    """Executes FIO jobs against a device in simulated time."""

    def __init__(self, sim: Simulator):
        self.sim = sim

    def run(self, device, job: FioJob) -> FioResult:
        """Run the job to completion; returns measured IOPS/latency."""
        rng = Rng(job.seed, "fio")
        blocks = device.capacity_bytes // job.block_bytes
        if blocks < 1:
            raise StorageError("device smaller than one block")

        latencies_ps: List[int] = []
        state = {"submitted": 0, "completed": 0, "errors": 0}
        finished = Signal("fio.done")
        start_ps = self.sim.now_ps
        device_name = getattr(device, "name", "storage")

        def submit_one() -> None:
            offset = rng.randint(0, blocks - 1) * job.block_bytes
            t0 = self.sim.now_ps
            trace = probe.session
            journeys = trace.journeys if trace is not None else None
            jid = None
            if journeys is not None:
                jid = journeys.begin(f"fio.{job.rw}", offset, device_name, t0)
                journeys.push(jid)
            if job.rw == "randread":
                sig = device.submit_read(offset, job.block_bytes)
            else:
                sig = device.submit_write(offset, job.block_bytes)
            if journeys is not None:
                journeys.pop()
            state["submitted"] += 1
            sig.add_waiter(lambda value: complete(t0, journeys, jid, value))

        def complete(t0: int, journeys, jid, value) -> None:
            now = self.sim.now_ps
            if isinstance(value, StorageError):
                state["errors"] += 1
                trace = probe.session
                if trace is not None:
                    trace.count("workload.fio_errors")
            latencies_ps.append(now - t0)
            if journeys is not None and jid is not None:
                # catch-all for devices that do not stage themselves; a
                # zero-length no-op when the device already covered the IO
                journeys.stage_to(jid, "storage.io", now)
                journeys.finish(jid, now)
            state["completed"] += 1
            if state["completed"] >= job.total_ios:
                finished.trigger()
            elif state["submitted"] < job.total_ios:
                submit_one()

        for _ in range(min(job.iodepth, job.total_ios)):
            submit_one()
        self.sim.run_until_signal(finished, timeout_ps=10**15)

        duration_ps = self.sim.now_ps - start_ps
        trace = probe.session
        if trace is not None:
            trace.complete(
                "workload", f"fio.{job.rw}", start_ps, self.sim.now_ps,
                {"iodepth": job.iodepth, "ios": job.total_ios},
            )
            trace.count("workload.fio_jobs")
            trace.count("workload.fio_ios", job.total_ios)
        ordered = sorted(latencies_ps)
        p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
        return FioResult(
            job=job,
            iops=job.total_ios / (duration_ps / S),
            mean_latency_us=sum(latencies_ps) / len(latencies_ps) / 1e6,
            p99_latency_us=p99 / 1e6,
            duration_us=duration_ps / 1e6,
            errors=state["errors"],
        )
