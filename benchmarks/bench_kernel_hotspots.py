"""Kernel self-profiler: hotspot map plus the zero-cost-disabled guard.

The DES kernel's one dispatch loop checks ``profile.active`` once per
drive and runs with no per-event hook when neither the profiler nor
kernel-event tracing is on (see :mod:`repro.sim.profile`).  This
benchmark guards that promise the same way ``bench_attribution_overhead.py``
guards the telemetry nil-checks: the unprofiled run must not be measurably
slower than the profiled run of the same experiment — if the disabled path
cost real time, the profiled run (which does strictly more work per
event) could not keep up.

It also records the hotspot map itself into ``BENCH_kernel.json``
(schema ``repro.bench/v1``) — per-callback wall share and event counts
for ``run_table3`` — the baseline any kernel overhaul (calendar queue,
event batching) will be judged against.

Standalone:      python benchmarks/bench_kernel_hotspots.py
Under pytest:    pytest benchmarks/bench_kernel_hotspots.py -s
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_util import host_facts, run_once  # noqa: E402

from repro import run_table3  # noqa: E402
from repro.sim import profile  # noqa: E402

#: artifact written next to this file (CI uploads it)
ARTIFACT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_kernel.json"
)

#: sample count: big enough that the kernel loop dominates, small
#: enough for CI
SAMPLES = 8

#: timing-noise cushion on a shared machine, mirroring
#: bench_attribution_overhead.py
NOISE_CUSHION = 1.15


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_hotspots(artifact_path: str = ARTIFACT) -> dict:
    run_table3(samples=2)  # warm caches off the clock

    def unprofiled():
        run_table3(samples=SAMPLES)

    def profiled_run():
        with profile.profiled():
            run_table3(samples=SAMPLES)

    unprofiled_s = min(_timed(unprofiled) for _ in range(3))
    profiled_s = min(_timed(profiled_run) for _ in range(3))

    with profile.profiled() as prof:
        run_table3(samples=SAMPLES)
    hotspots = prof.hotspots()

    record = {
        "schema": "repro.bench/v1",
        "benchmark": "kernel_hotspots",
        "experiment": f"table3[samples={SAMPLES}]",
        "host": host_facts(),
        "unprofiled_s": round(unprofiled_s, 4),
        "profiled_s": round(profiled_s, 4),
        "profiler_overhead": round(profiled_s / unprofiled_s, 3),
        "events": prof.events,
        "kernel_wall_s": round(prof.total_wall_s, 4),
        "hotspots": [
            {
                "key": row["key"],
                "count": row["count"],
                "wall_share": round(row["wall_share"], 4),
                "mean_us": round(row["mean_us"], 3),
            }
            for row in hotspots[:12]
        ],
    }
    with open(artifact_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


def test_kernel_hotspots(benchmark, tmp_path):
    """Pytest entry: disabled-path guard plus artifact coherence."""
    record = run_hotspots(str(tmp_path / "BENCH_kernel.json"))
    run_once(benchmark, lambda: run_table3(samples=SAMPLES))
    benchmark.extra_info.update({
        "unprofiled_s": record["unprofiled_s"],
        "profiled_s": record["profiled_s"],
        "events": record["events"],
    })

    # the zero-cost-disabled guard: no profiler installed means no
    # per-event hook, so the unprofiled run must not lose to the
    # profiled one (which times every dispatch)
    assert record["unprofiled_s"] <= record["profiled_s"] * NOISE_CUSHION, (
        f"unprofiled run ({record['unprofiled_s']:.3f}s) measurably slower "
        f"than profiled run ({record['profiled_s']:.3f}s): the "
        "profile.active check leaked into the disabled path"
    )
    # the map itself must be non-trivial and internally consistent
    assert record["events"] > 0
    assert record["hotspots"], "profiler saw no callbacks"
    shares = [row["wall_share"] for row in record["hotspots"]]
    assert shares == sorted(shares, reverse=True)
    assert sum(row["count"] for row in record["hotspots"]) <= record["events"]


if __name__ == "__main__":
    result = run_hotspots()
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"\nwrote {ARTIFACT}", file=sys.stderr)
