"""Campaign scaling: serial vs parallel vs cached wall-clock.

Runs the same reduced experiment matrix three ways through the campaign
engine and records the wall-clock of each into ``BENCH_campaign.json``
(schema ``repro.bench/v1``) — the start of the campaign performance
trajectory:

1. **serial**   — one worker, the campaign's own process (no pool),
   cold cache;
2. **parallel** — a process pool (``min(4, cpu_count)`` workers), cold
   cache; on a multi-core host this is bounded below by the single
   longest job, on a single-core host it degenerates to serial plus
   pool overhead (the host's ``cpu_count`` is recorded so readers can tell);
3. **cached**   — a re-run against the warm cache: every job served by
   content address, no simulation at all.

It also records the **cold start** of a campaign job: the median, over
fresh interpreters, of start-up plus ``import repro.campaign.worker``
plus one ``table3[samples=1]`` job (the shape of the repo benchmark's
``setup_s``), and how many ``repro`` modules that loads.

Last, a fresh interpreter runs the matrix's jobs one after another
through ``execute_job``, as a pool worker does.  It fails if any job
leaves a ``Simulator`` alive once it returns, and its peak RSS is
recorded as ``jobs_peak_rss_mib`` (recorded, not gated).

Standalone:      python benchmarks/bench_campaign_scaling.py
Under pytest:    pytest benchmarks/bench_campaign_scaling.py -s
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_util import host_facts  # noqa: E402

from repro.campaign import CampaignRunner, ResultCache, ScenarioMatrix  # noqa: E402

#: artifact written next to this file (CI uploads it)
ARTIFACT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_campaign.json")
#: the ``src`` directory of this checkout (what the cold-start children import)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: fresh interpreters whose median is ``cold_start_s``
COLD_START_RUNS = 9
#: one cold-start child: import the worker, run the smallest table3 job,
#: then report the monotonic clock and the ``repro`` modules loaded
COLD_START_CHILD = """\
import json, sys, time
import repro.campaign.worker
out = repro.campaign.worker.execute_job(("table3", (("samples", 1),), 0))
done = time.monotonic()
assert out["status"] == "ok", out.get("traceback")
print(json.dumps([done, sum(m == "repro" or m.startswith("repro.") for m in sys.modules)]))
"""


#: the jobs child: run each job given as ``[experiment, kwargs, seed]``
#: in turn, fail if one leaves a Simulator alive, report peak RSS (KiB)
JOBS_CHILD = """\
import gc, json, resource, sys
from repro.campaign import CampaignJob
from repro.campaign.worker import execute_job
from repro.sim import Simulator
for experiment, kwargs, seed in json.loads(sys.argv[1]):
    job = CampaignJob.make(experiment, kwargs, seed)
    out = execute_job((job.experiment, job.kwargs, job.seed))
    assert out["status"] == "ok", out.get("traceback")
    alive = sum(isinstance(o, Simulator) for o in gc.get_objects())
    if alive:
        raise RuntimeError(f"{job.job_id} left {alive} Simulator(s) alive")
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
"""


def scaling_matrix() -> ScenarioMatrix:
    """A reduced paper sweep: every simulating experiment, small knobs.

    Small enough for CI (a few seconds serial), varied enough that the
    parallel schedule has real work to overlap.
    """
    matrix = ScenarioMatrix(base_seed=0)
    matrix.add("table2", samples=8, seed=0)
    matrix.add("fig6", samples=8, seed=0)
    matrix.add("table3", samples=8, seed=0)
    matrix.add("fig7", samples=8, seed=0)
    matrix.add("table4", writes=8, seed=0)
    matrix.add("table5", size_mib=4, seed=0)
    matrix.add("fio", ios=8, seed=0)
    return matrix


def cold_start(runs: int = COLD_START_RUNS):
    """``(median seconds, repro modules loaded)`` over ``runs`` children.

    A child's time runs from just before the spawn to the end of its job
    (``time.monotonic`` is shared by all processes on Linux).
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times, modules = [], set()
    for _ in range(runs):
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", COLD_START_CHILD], env=env,
                              capture_output=True, text=True, check=True)
        done, loaded = json.loads(proc.stdout.splitlines()[-1])
        times.append(done - started)
        modules.add(loaded)
    if len(modules) != 1:
        raise RuntimeError(f"cold start loaded differing module counts: {modules}")
    return statistics.median(times), modules.pop()


def jobs_peak_rss_mib(jobs) -> float:
    """Peak RSS (MiB) of a fresh interpreter that runs ``jobs`` one after
    another; raises if any job leaves a ``Simulator`` alive."""
    spec = json.dumps([[job.experiment, job.kwargs_dict, job.seed] for job in jobs])
    proc = subprocess.run([sys.executable, "-c", JOBS_CHILD, spec],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"jobs child failed:\n{proc.stderr}")
    return int(proc.stdout.splitlines()[-1]) / 1024


def _timed_run(jobs, workers, cache):
    t0 = time.perf_counter()
    report = CampaignRunner(jobs, workers=workers, cache=cache).run()
    elapsed = time.perf_counter() - t0
    if report.failed:
        raise RuntimeError(
            f"campaign failed: {[o.job.job_id for o in report.failed]}"
        )
    return elapsed, report


def run_scaling(artifact_path: str = ARTIFACT) -> dict:
    jobs = scaling_matrix().expand()
    host = host_facts()
    cpu_count = host["cpu_count"]
    cold_start_s, cold_start_modules = cold_start()
    peak_rss_mib = jobs_peak_rss_mib(jobs)
    # always at least 2 so the pool path is actually exercised; on a
    # single-core host that measures pure scheduling overhead
    workers = max(2, min(4, cpu_count))

    serial_s, serial_report = _timed_run(jobs, workers=1, cache=None)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(os.path.join(tmp, "cache"))
        parallel_s, parallel_report = _timed_run(jobs, workers=workers, cache=cache)
        cached_s, cached_report = _timed_run(
            jobs, workers=1, cache=ResultCache(os.path.join(tmp, "cache"))
        )

    if [t.rows for t in parallel_report.tables()] != [t.rows for t in serial_report.tables()]:
        raise RuntimeError("parallel campaign diverged from the serial tables")
    if cached_report.cache_hits != len(jobs):
        raise RuntimeError(
            f"warm re-run hit cache on {cached_report.cache_hits}/{len(jobs)} jobs"
        )

    record = {
        "schema": "repro.bench/v1",
        "benchmark": "campaign_scaling",
        "host": host,
        "cold_start_s": round(cold_start_s, 4),
        "cold_start_modules": cold_start_modules,
        "parallel_workers": workers,
        "jobs": len(jobs),
        "jobs_peak_rss_mib": round(peak_rss_mib, 1),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "cached_s": round(cached_s, 4),
        "speedup_parallel": round(serial_s / parallel_s, 3),
        "speedup_cached": round(serial_s / cached_s, 1),
        "per_job_s": {
            o.job.job_id: round(o.duration_s, 4) for o in serial_report.outcomes
        },
    }
    with open(artifact_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


#: absolute ceiling on the fio[ios=8] job (seconds).  The table-driven
#: scrambling/CRC + tuple-heap rewrite runs it in ~1.0 s; 3.0 s is ~3x
#: headroom for slow CI machines while still catching any reintroduction
#: of per-bit/per-byte Python on the frame path (which costs 5x+).
FIO_CEILING_S = 3.0

#: absolute ceiling on the table5[size_mib=4] job (seconds).  The batched
#: FFT runs it in ~0.18 s; 1.0 s is ~5x headroom while still catching any
#: return of per-block Python to the accelerator compute (which costs 8x+).
TABLE5_CEILING_S = 1.0


def test_campaign_scaling(tmp_path):
    """Pytest entry: artifact is coherent and the cache path dominates."""
    record = run_scaling(str(tmp_path / "BENCH_campaign.json"))
    assert record["jobs"] >= 7
    # the content-addressed cache must beat re-simulating by a wide margin
    assert record["speedup_cached"] > 5
    # the kernel fast-path regression gates (see docs/kernel.md)
    fio_s = record["per_job_s"]["fio[ios=8]#s0"]
    assert fio_s < FIO_CEILING_S, (
        f"fio[ios=8] took {fio_s:.2f}s (ceiling {FIO_CEILING_S}s): "
        "the DMI/kernel hot path has regressed"
    )
    table5_s = record["per_job_s"]["table5[size_mib=4]#s0"]
    assert table5_s < TABLE5_CEILING_S, (
        f"table5[size_mib=4] took {table5_s:.2f}s (ceiling {TABLE5_CEILING_S}s): "
        "the accelerator compute path has regressed"
    )
    # parallel never loses badly: on one core it degenerates to ~serial
    # (pool overhead only); with real cores it must actually win
    if record["host"]["cpu_count"] >= 2:
        assert record["speedup_parallel"] > 1.1
    else:
        assert record["speedup_parallel"] > 0.7


if __name__ == "__main__":
    result = run_scaling()
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"\nwrote {ARTIFACT}", file=sys.stderr)
