"""Attribution must cost ~nothing when telemetry is off.

The journey/occupancy hooks live on the hottest paths in the simulation —
host command issue, frame dispatch, controller submit — behind the
ambient-probe nil-check.  This guard measures the same experiment with
telemetry disabled before and at this commit's instrumentation points:
the untraced run must stay within noise of the traced run's *simulation*
work, i.e. the nil-checks must not show up.

Method: run ``run_table3`` untraced (the hot path executes every hook
site with ``probe.session is None``) and compare against the traced run.
A fixed absolute budget would flake across machines, so the assertion is
relative: the untraced run must not be slower than the traced run — if
the disabled hooks cost real time, tracing (which does strictly more
work) could not beat them.
"""

import time

from bench_util import run_once

from repro import run_table3
from repro.telemetry import TraceSession


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_disabled_attribution_overhead(benchmark):
    # warm caches (imports, numpy init) off the clock
    run_table3(samples=2)

    def untraced():
        run_table3(samples=8)

    def traced():
        with TraceSession(spans=False):
            run_table3(samples=8)

    untraced_s = min(_timed(untraced) for _ in range(3))
    traced_s = min(_timed(traced) for _ in range(3))
    run_once(benchmark, untraced)

    benchmark.extra_info["untraced_s"] = round(untraced_s, 4)
    benchmark.extra_info["traced_s"] = round(traced_s, 4)
    # disabled hooks are one attribute load + is-None test; the untraced
    # run must not cost more than the traced run (15% cushion for timer
    # noise on a shared machine)
    assert untraced_s <= traced_s * 1.15, (
        f"disabled-telemetry run ({untraced_s:.3f}s) measurably slower than "
        f"traced run ({traced_s:.3f}s): the nil-check pattern regressed"
    )
