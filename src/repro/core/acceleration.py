"""Table 5 — near-memory acceleration: the accelerated kernels vs software.

Table 5's runner is the only experiment that drives the accelerators, and
the only one that needs numpy (for the min/max data stream and, through
:mod:`repro.accel`, the FFT farm).  It lives apart from
:mod:`repro.core.experiment` so no other job imports either.  numpy's
``random`` module, which numpy itself loads on first use, is imported
here too, so a job's clock never includes it.
"""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng

from ..accel import (
    AccessProcessor,
    ControlBlock,
    FftEngineFarm,
    KERNEL_FFT,
    KERNEL_MEMCOPY,
    KERNEL_MINMAX,
    MemcopyEngine,
    MinMaxEngine,
    SoftwareBaselines,
)
from ..memory import DdrDram, MemoryController
from ..sim import Simulator
from ..telemetry import probe
from ..units import MIB, S
from .results import ResultTable


def run_table5(size_mib: int = 16, seed: int = 0) -> ResultTable:
    """The three accelerated kernels vs their software baselines.

    ``size_mib`` scales the block the kernels process (the paper used 1 GB
    blocks; throughput is size-independent once streaming saturates).
    """
    nbytes = size_mib * MIB
    table = ResultTable(
        "Table 5: performance of accelerated functions on ConTutto",
        ["Function", "ConTutto (2 DIMM ports)", "Software (CDIMMs)",
         "Speedup", "Paper ConTutto", "Paper software"],
    )
    software = SoftwareBaselines()

    def fresh_platform():
        sim = Simulator()
        dimms = [
            DdrDram(max(256 * MIB, 2 * nbytes), name=f"d{i}", refresh_enabled=False)
            for i in range(2)
        ]
        ports = [MemoryController(sim, d) for d in dimms]
        return sim, dimms, AccessProcessor(sim, ports)

    def preload(dimms, raw):
        chunk = 8 << 10
        for pos in range(0, len(raw), chunk):
            chunk_no = pos // chunk
            dimms[chunk_no % 2].backing.write(
                (chunk_no // 2) * chunk, raw[pos : pos + chunk]
            )

    # memory copy
    sim, dimms, ap = fresh_platform()
    preload(dimms, bytes(nbytes))
    probe.set_scenario("accel:memcopy")
    engine = MemcopyEngine(sim, ap)
    t0 = sim.now_ps
    engine.run_to_completion(
        ControlBlock(opcode=KERNEL_MEMCOPY, src=0, dst=nbytes, length=nbytes)
    )
    accel = nbytes / ((sim.now_ps - t0) / S) / 1e9
    sw = software.memcopy_gb_s()
    table.add_row("Memory copy", f"{accel:.1f} GB/s", f"{sw:.1f} GB/s",
                  f"{accel / sw:.1f}x", "6 GB/s", "3.2 GB/s")

    # min/max
    sim, dimms, ap = fresh_platform()
    # default seed=0 preserves the historical min/max data stream (seed 11)
    rng = default_rng(11 + seed)
    preload(dimms, rng.integers(-(2**31), 2**31 - 1, nbytes // 4, dtype=np.int32).tobytes())
    probe.set_scenario("accel:minmax")
    engine = MinMaxEngine(sim, ap)
    t0 = sim.now_ps
    engine.run_to_completion(ControlBlock(opcode=KERNEL_MINMAX, src=0, length=nbytes))
    accel = nbytes / ((sim.now_ps - t0) / S) / 1e9
    sw = software.minmax_gb_s()
    table.add_row("Min/max (32-bit ints)", f"{accel:.1f} GB/s", f"{sw:.1f} GB/s",
                  f"{accel / sw:.0f}x", "10.5 GB/s", "0.5 GB/s")

    # 1024-point FFTs
    sim, dimms, ap = fresh_platform()
    preload(dimms, bytes(nbytes))
    probe.set_scenario("accel:fft")
    farm = FftEngineFarm(sim, ap, num_engines=8)
    t0 = sim.now_ps
    farm.run_to_completion(
        ControlBlock(opcode=KERNEL_FFT, src=0, dst=nbytes, length=nbytes)
    )
    samples = nbytes // 8
    accel = 2 * samples / ((sim.now_ps - t0) / S) / 1e9
    sw = software.fft_gsamples_s()
    table.add_row("1024-pt FFT", f"{accel:.2f} Gsamples/s", f"{sw:.2f} Gsamples/s",
                  f"{accel / sw:.1f}x", "1.3 Gsamples/s", "0.68 Gsamples/s")
    table.add_note(
        "FFT throughput counts samples moved (in + out) per second, the "
        "convention that makes the paper's 1.3 Gs/s consistent with its "
        "10-12 GB/s port-bandwidth bound"
    )
    return table
