"""Fault injection must cost ~nothing when no plan is active.

The fault hooks ride the hottest paths: the journey tracker's
``fault_probe`` nil-check on every journey finish, the ``force_drops``
check in the link error model on every frame, and the ``_bank_faults``
dict check on every DRAM access.  This guard runs the same experiment
with and without an (empty-effect) fault controller attached: the
no-faults run must stay within noise of the faulted run's simulation
work — if the dormant hooks cost real time, the run doing strictly more
work could not beat them.
"""

import time

from bench_util import run_once

from repro import run_table3
from repro.telemetry import TraceSession


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_dormant_fault_hooks_overhead(benchmark):
    # warm caches (imports, numpy init) off the clock
    run_table3(samples=2)

    def no_faults():
        run_table3(samples=8)

    def with_probe():
        # trace AND attach a live fault probe with zero windows: every
        # journey finish walks the probe on top of the tracing work
        from repro.faults import FaultController, FaultPlan
        from repro.sim import Simulator

        controller = FaultController(Simulator(), FaultPlan(specs=()))
        with TraceSession(spans=False) as session:
            session.journeys.fault_probe = controller.fault_tags
            run_table3(samples=8)

    no_faults_s = min(_timed(no_faults) for _ in range(3))
    with_probe_s = min(_timed(with_probe) for _ in range(3))
    run_once(benchmark, no_faults)

    benchmark.extra_info["no_faults_s"] = round(no_faults_s, 4)
    benchmark.extra_info["traced_s"] = round(with_probe_s, 4)
    # dormant hooks are an attribute load + truthiness test each; the
    # plain run must not cost more than the traced run (15% cushion for
    # timer noise on a shared machine)
    assert no_faults_s <= with_probe_s * 1.15, (
        f"no-faults run ({no_faults_s:.3f}s) measurably slower than the "
        f"traced run ({with_probe_s:.3f}s): a fault hook leaked onto the "
        "clean path"
    )
