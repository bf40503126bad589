"""The in-process half of the ConTutto benchmark.

``bench.py`` runs this file in a fresh child interpreter, one workload at
a time::

    python3 measure.py '{"mode": "run", "workload": "pmem_fio", "seed": 0, ...}'

and reads the JSON object it prints as its last line.  Everything that
imports ``repro`` lives here, so the parent stays a small orchestrator and
the memory and set-up it measures belong to the child alone.

One *op* is one call to :func:`repro.campaign.worker.execute_job`, the
function every campaign job runs, metrics-and-journeys ``TraceSession``
included.  No ``ResultCache`` is involved, so every op is a cold
simulation.  Ops run back to back in a closed loop with a single client.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import pstats
import re
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]

#: workload -> (experiment, measured kwargs, warm-up kwargs); the warm-up
#: runs at the experiment's smallest size knob
WORKLOADS = {
    "mem_latency": ("table3", {"samples": 192}, {"samples": 1}),
    "pmem_fio": ("fio", {"ios": 4}, {"ios": 1}),
    "gpfs_writes": ("table4", {"writes": 24}, {"writes": 1}),
    "accel_stream": ("table5", {"size_mib": 1}, {"size_mib": 1}),
}

#: ``src/repro`` packages, plus ``core`` (which also takes the top-level
#: modules ``units.py``/``errors.py``) and ``ext`` (code outside repro
#: called from code outside repro)
LAYERS = (
    "sim", "dmi", "fpga", "buffer", "memory", "processor", "storage",
    "accel", "hybrid", "workloads", "telemetry", "campaign", "core",
    "firmware", "faults", "service", "tune", "report", "ext",
)

#: snapshot counters summed over ops; bench.py derives the per-layer
#: counter metrics from these sums
COUNTERS = (
    "dmi.frames_sent", "dmi.frames_accepted", "dmi.commands_completed",
    "dmi.duplicates", "dmi.seq_drops", "buffer.centaur.commands",
    "buffer.contutto.commands", "buffer.cache.hits",
    "buffer.cache.misses", "memory.reads", "memory.writes",
    "processor.commands", "storage.reads", "storage.writes",
    "storage.bytes_read", "storage.bytes_written", "accel.dma_bytes_read",
    "accel.dma_bytes_written", "telemetry.dropped_events",
)

#: untraced ops run in exactly this many passes on every run; each op is
#: timed by its best pass, which filters out the host's second-long slow
#: spells
PASSES = 2

_RATIO_NOTE = re.compile(
    r"([\d.]+)x read / ([\d.]+)x write \(paper: ([\d.]+)x / ([\d.]+)x\)"
)
_LEADING_FLOAT = re.compile(r"[\d.]+")


def op_seed(seed: int, workload: str, index: int) -> int:
    from repro.sim.rng import derive_seed

    return derive_seed(seed, f"{workload}|{index}")


def warmup_seed(workload: str) -> int:
    """The warm-up op's seed does not depend on ``--seed``, so its digest is
    checked against ``golden.json`` on every run, whatever the seed."""
    from repro.sim.rng import derive_seed

    return derive_seed(0, f"{workload}|warmup")


def digest(outcome: dict) -> str:
    """sha256 of the op's result tables and journey records.

    The metrics snapshot is left out: kernel/DMI counters may change under
    simulator-only work without the simulated result changing.
    """
    from repro.campaign.worker import tables_of

    tables = [
        {"title": t.title, "columns": t.columns, "rows": t.rows, "notes": t.notes}
        for t in tables_of(outcome["result"])
    ]
    blob = json.dumps(
        {"tables": tables, "journeys": outcome["attribution"]},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def model_error_pct(experiment: str, outcome: dict) -> float:
    """Mean ``|measured/paper - 1| * 100`` over the paper-referenced cells."""
    from repro.campaign.worker import tables_of

    tables = tables_of(outcome["result"])
    if experiment == "table3":
        pairs = zip(tables[0].column("Latency (ns)"),
                    tables[0].column("Paper latency (ns)"))
    elif experiment == "table4":
        pairs = zip(tables[0].column("IOPS"), tables[0].column("Paper IOPS"))
    elif experiment == "table5":
        pairs = (
            (float(_LEADING_FLOAT.match(m).group()),
             float(_LEADING_FLOAT.match(p).group()))
            for m, p in zip(tables[0].column("ConTutto (2 DIMM ports)"),
                            tables[0].column("Paper ConTutto"))
        )
    else:  # fio: the "Nx read / Mx write (paper: a / b)" notes of Fig 9/10
        pairs = []
        for table in tables:
            for note in table.notes:
                match = _RATIO_NOTE.search(note)
                if match:
                    r, w, pr, pw = map(float, match.groups())
                    pairs += [(r, pr), (w, pw)]
    errors = [abs(float(m) / float(p) - 1.0) * 100.0 for m, p in pairs]
    return sum(errors) / len(errors)


def run_op(workload: str, seed: int, kwargs: Dict[str, object],
           profiler: Optional[cProfile.Profile] = None) -> dict:
    """Run one op and return its record; host time covers only the call."""
    from repro.campaign.worker import execute_job

    experiment = WORKLOADS[workload][0]
    payload = (experiment, tuple(sorted(kwargs.items())), seed)
    t0 = time.perf_counter()
    if profiler is None:
        outcome = execute_job(payload)
    else:
        profiler.enable()
        outcome = execute_job(payload)
        profiler.disable()
    seconds = time.perf_counter() - t0
    record = {"seed": seed, "s": seconds, "status": outcome["status"]}
    if outcome["status"] != "ok":
        record["error"] = outcome["error"]
        return record
    record.update(
        digest=digest(outcome),
        err_pct=model_error_pct(experiment, outcome),
        journeys=len(outcome["attribution"]),
        counters={k: outcome["metrics"].get(k, 0) for k in COUNTERS},
    )
    return record


def _layer_of(filename: str, repro_dir: str):
    """The layer of a profiled function's file, or None outside repro."""
    if not filename.startswith(repro_dir):
        return None
    head = filename[len(repro_dir):].split(os.sep, 1)[0]
    return "core" if head.endswith(".py") else head


def layer_split(profiler: cProfile.Profile, ops: int) -> dict:
    """Charge all profiled self time to layers, per op.

    repro functions keep their own self time.  A function outside repro
    (builtin, numpy, heapq) is charged to the layer of its direct caller,
    split along the profile's caller edges; what a non-repro caller
    calls, or what no edge explains, goes to ``ext``.  Every profiled
    second lands in exactly one layer, whichever loop drives the kernel.
    """
    import repro

    repro_dir = os.path.dirname(repro.__file__) + os.sep
    kernel = os.path.join(repro_dir, "sim", "kernel.py")
    event = os.path.join(repro_dir, "sim", "event.py")
    self_s: Dict[str, float] = defaultdict(float)
    events = cancels = 0
    stats = pstats.Stats(profiler).stats
    for (filename, line, name), (_cc, nc, tt, _ct, callers) in stats.items():
        layer = _layer_of(filename, repro_dir)
        if layer is not None:
            self_s[layer] += tt
        else:
            charged = 0.0
            for caller, edge in callers.items():
                self_s[_layer_of(caller[0], repro_dir) or "ext"] += edge[2]
                charged += edge[2]
            self_s["ext"] += tt - charged
        if filename == kernel and name in ("call_at", "call_after"):
            events += nc
        elif filename == event and name == "cancel":
            cancels += nc
    top = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:15]
    return {
        "self_s": {layer: s / ops for layer, s in self_s.items()},
        "events": events / ops,
        "cancels": cancels / ops,
        "top": [
            {"function": f"{os.path.relpath(f, ROOT) if f.startswith(os.sep) else f}"
                         f":{line}({name})",
             "self_s": tt / ops}
            for (f, line, name), (_cc, _nc, tt, _ct, _callers) in top
        ],
    }


def measure(workload: str, seed: int, ops: int, trace: bool) -> dict:
    """Warm up, then run the workload's ops; optionally trace them.

    Ops ``0..ops-1`` run untraced in ``PASSES`` passes, whatever the host's
    speed, so every commit measures the same work.  A traced run then runs
    all of them once more under ``cProfile``.
    """
    import numpy

    _experiment, kwargs, warm_kwargs = WORKLOADS[workload]
    warmup = run_op(workload, warmup_seed(workload), warm_kwargs)
    seeds = [op_seed(seed, workload, i) for i in range(ops)]
    passes = [[run_op(workload, op, kwargs) for op in seeds]
              for _ in range(PASSES)]
    result = {
        "workload": workload,
        "warmup": warmup,
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    }
    if trace:
        profiler = cProfile.Profile()
        result["traced"] = [run_op(workload, op, kwargs, profiler)
                            for op in seeds]
        result["layers"] = layer_split(profiler, ops)
    return result


def main(argv: List[str]) -> None:
    request = json.loads(argv[0])
    workload = request["workload"]
    if request["mode"] == "setup":
        # set-up time: interpreter start -> worker imported -> one
        # smallest-size op done.  ``started`` is the parent's
        # time.monotonic() just before it spawned this process; on Linux
        # that clock is shared by all processes.
        import repro.campaign.worker  # noqa: F401

        op = run_op(workload, warmup_seed(workload), WORKLOADS[workload][2])
        op["setup_s"] = time.monotonic() - request["started"]
        print(json.dumps(op))
        return
    out = measure(workload, request["seed"], request["ops"], request["trace"])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
