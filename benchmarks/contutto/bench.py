"""ConTutto benchmark: host time of real campaign jobs, end to end and by layer.

Run from the repository root::

    python3 benchmarks/contutto/bench.py --workload pmem_fio --seed 0 \\
        --seconds 15 --trace 0 [--out runs.jsonl] [--write-golden]
    python3 benchmarks/contutto/bench.py compare A.jsonl B.jsonl
    python3 benchmarks/contutto/bench.py baseline [--seed 0]

A run measures one workload (see ``measure.WORKLOADS`` and README.md) in
a fresh child interpreter and prints every metric by name and unit; its
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics of ``BENCHMARK.json``, taken with tracing off;
``--trace 1`` gives its per-layer metrics, from the same ops run again
under ``cProfile``.  Every run does the same fixed work whatever
``--seconds`` says, so two commits are always measured on the same ops.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN_FILE = HERE / "golden.json"
BASELINE_FILE = HERE / "BENCH_baseline.json"

#: measured ops per run (op ``i`` gets seed ``derive_seed(S, "<workload>|i")``)
OPS = 20
#: fresh interpreters whose median start-to-first-op time is ``setup_s``;
#: the first of a batch often starts 20-40% slow, and nine keep the median
#: within a few percent where five did not
SETUP_RUNS = 9
#: untraced runs per workload in ``BENCH_baseline.json``
BASELINE_RUNS = 5
#: an op whose mean error against the paper exceeds this counts as failed;
#: the measured workloads stay far below it on every seed tried
MAX_MODEL_ERR_PCT = 25.0
#: every child together must finish within this, so a run ends in 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}


# -- child processes ----------------------------------------------------------


def run_child(request: dict, deadline: float) -> dict:
    """Run ``measure.py`` in a fresh interpreter; return its JSON result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {ROOT / 'src'}")
    request = dict(request, started=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), json.dumps(request)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{request['mode']} child timed out") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{request['mode']} child exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# -- statistics -----------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- correctness ----------------------------------------------------------------


def check_ops(workload: str, seed: int, run: dict, setups: List[dict],
              golden: Optional[dict]) -> Tuple[int, List[str], bool]:
    """Judge every op of a run; returns (failed ops, reasons, verified).

    An op fails when its job did not return ``ok``, its digest differs
    from ``golden.json`` or from the first pass (later passes, traced
    ops), or its model error is out of range.  ``verified`` says the first
    pass had golden digests to compare against.
    """
    entry = (golden or {}).get(workload, {})
    expected = entry.get("seeds", {}).get(str(seed), [])
    reasons: List[str] = []

    def judge(label: str, op: dict, want: Optional[str],
              max_err_pct: float = float("inf")) -> None:
        if op["status"] != "ok":
            reasons.append(f"{label}: {op['status']}: {op.get('error', '')}")
        elif want is not None and op["digest"] != want:
            reasons.append(f"{label}: digest {op['digest'][:12]} != {want[:12]}")
        elif not op["err_pct"] <= max_err_pct:
            reasons.append(f"{label}: model error {op['err_pct']:.2f}% > "
                           f"{max_err_pct}%")

    # set-up and warm-up ops run at the smallest size, where the model is
    # not meant to match the paper; their digests are checked instead
    for i, op in enumerate(setups):
        judge(f"setup {i}", op, entry.get("warmup"))
    judge("warm-up", run["warmup"], entry.get("warmup"))
    first = run["passes"][0]
    for i, op in enumerate(first):
        judge(f"op {i}", op, expected[i] if i < len(expected) else None,
              MAX_MODEL_ERR_PCT)
    for k, later in enumerate(run["passes"][1:], start=1):
        for i, op in enumerate(later):
            judge(f"op {i} pass {k}", op, first[i].get("digest"))
    for i, op in enumerate(run.get("traced", [])):
        judge(f"op {i} traced", op, first[i].get("digest"))
    verified = "warmup" in entry and len(expected) >= len(first)
    return len(reasons), reasons, verified


# -- metrics ----------------------------------------------------------------------


def best_times(run: dict) -> List[float]:
    """Each untraced op's host time at its best pass."""
    return [min(op["s"] for op in ops) for ops in zip(*run["passes"])]


def end_to_end_metrics(run: dict, setups: List[dict]) -> Dict[str, float]:
    best = best_times(run)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": sum(best),
        "op_p50_s": statistics.median(best),
        "peak_rss_mib": run["peak_rss_kib"] / 1024,
        "model_err_pct": statistics.fmean(
            op["err_pct"] for op in run["passes"][0] if op["status"] == "ok"
        ),
    }


def per_layer_metrics(run: dict) -> Dict[str, float]:
    ops, layers = run["passes"][0], run["layers"]
    n = len(ops)
    untraced_s = sum(best_times(run))
    traced_s = sum(op["s"] for op in run["traced"])
    total = sum(layers["self_s"].values())
    m: Dict[str, float] = {}
    for layer in measure.LAYERS:
        self_s = layers["self_s"].get(layer, 0.0)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = self_s / total
    events = layers["events"]
    m["sim.events"] = events
    m["sim.events_per_s"] = events * n / untraced_s
    m["sim.cancelled_ratio"] = layers["cancels"] / events if events else 0.0
    c = {k: sum(op["counters"][k] for op in ops if op["status"] == "ok")
         for k in measure.COUNTERS}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m.update({
        "dmi.frames_sent": c["dmi.frames_sent"] / n,
        "dmi.frames_per_command": ratio(c["dmi.frames_sent"],
                                        c["dmi.commands_completed"]),
        "dmi.useful_frame_ratio": ratio(c["dmi.frames_accepted"],
                                        c["dmi.frames_sent"]),
        "dmi.duplicates": c["dmi.duplicates"] / n,
        "dmi.seq_drops": c["dmi.seq_drops"] / n,
        "buffer.commands": (c["buffer.centaur.commands"]
                            + c["buffer.contutto.commands"]) / n,
        "buffer.cache_hit_ratio": ratio(
            c["buffer.cache.hits"],
            c["buffer.cache.hits"] + c["buffer.cache.misses"]),
        "memory.reads": c["memory.reads"] / n,
        "memory.writes": c["memory.writes"] / n,
        "processor.commands": c["processor.commands"] / n,
        "storage.ios": (c["storage.reads"] + c["storage.writes"]) / n,
        "storage.bytes": (c["storage.bytes_read"] + c["storage.bytes_written"]) / n,
        "accel.dma_bytes": (c["accel.dma_bytes_read"]
                            + c["accel.dma_bytes_written"]) / n,
        "telemetry.journeys": sum(op.get("journeys", 0) for op in ops) / n,
        "telemetry.dropped_events": c["telemetry.dropped_events"] / n,
        "trace.overhead": traced_s / untraced_s,
    })
    return m


# -- one run ------------------------------------------------------------------------


def run_workload(workload: str, seed: int, trace: bool,
                 golden: Optional[dict], ops: int = OPS,
                 setup_runs: int = SETUP_RUNS) -> dict:
    """Measure one workload and return its full record.

    ``ops`` and ``setup_runs`` exist so the tests can run the same code
    path on one op; the command line always uses the defaults.
    """
    spec = load_spec()
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if trace else [
        run_child({"mode": "setup", "workload": workload}, deadline)
        for _ in range(setup_runs)
    ]
    run = run_child({"mode": "run", "workload": workload, "seed": seed,
                     "ops": ops, "trace": trace}, deadline)
    failed, reasons, verified = check_ops(workload, seed, run, setups, golden)
    if trace:
        values = per_layer_metrics(run)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(run, setups)
        wanted = spec["end_to_end"]
    first = run["passes"][0]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": (len(setups) + 1 + sum(map(len, run["passes"]))
                      + len(run.get("traced", []))),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "verified": verified,
        "failures": reasons,
        "n_ops": len(first),
        "passes": len(run["passes"]),
        "digests": {"warmup": run["warmup"].get("digest"),
                    "ops": [op.get("digest") for op in first]},
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": run["numpy"], "platform": platform.platform()},
    }
    if trace:
        record["digests"]["traced"] = [op.get("digest") for op in run["traced"]]
        record["traced_op_s"] = statistics.fmean(op["s"] for op in run["traced"])
        record["top_functions"] = run["layers"]["top"]
    return record


def print_record(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops={record['n_ops']} passes={record['passes']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"verified={record['verified']}")
    for name, metric in record["metrics"].items():
        extra = f"  (n={record['n_ops']})" if name == "op_p50_s" else ""
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}{extra}")
    for fn in record.get("top_functions", []):
        print(f"  top  {fn['self_s']:.4f} s/op  {fn['function']}")
    for reason in record["failures"]:
        print(f"  FAIL {reason}")
    if not record["verified"]:
        print(f"  no golden digests for seed {record['seed']}; this run's:")
        print(f"  warm-up {record['digests']['warmup']}")
        for i, d in enumerate(record["digests"]["ops"]):
            print(f"  op {i:2d}   {d}")


def write_golden(record: dict) -> None:
    """Make a run's digests the golden ones for its workload and seed.

    Only a full untraced run in which every op passed may do this, so no
    op of the seed is left without a digest to check against.
    """
    digests = [record["digests"]["warmup"], *record["digests"]["ops"]]
    if (record["trace"] or record["failed"] or None in digests
            or len(digests) != 1 + OPS):
        raise BenchError("golden digests come only from an untraced run "
                         f"of all {OPS} ops in which every op passed")
    golden = load_golden()
    entry = golden.setdefault(record["workload"], {"warmup": None, "seeds": {}})
    entry["warmup"] = record["digests"]["warmup"]
    entry["seeds"][str(record["seed"])] = record["digests"]["ops"]
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


# -- compare ---------------------------------------------------------------------------


def load_runs(path: str) -> List[dict]:
    """Run records from a JSONL file of ``--out`` records or from a
    ``BENCH_baseline.json``."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:  # more than one line
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    if "workloads" in data:
        return [r for w in data["workloads"].values()
                for r in w["runs"] + [w["traced"]]]
    return [data]


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    """Judge B against A by the rules of the choosing-metrics guide."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    base = abs(qa[1]) or 1.0
    change = sign * (qb[1] - qa[1]) / base          # > 0 means B is worse
    spread = max(qa[2] - qa[0], qb[2] - qb[0]) / base
    pairs = [(sign * x, sign * y) for x in b for y in a]
    wins = sum(x < y for x, y in pairs) / len(pairs)
    losses = sum(x > y for x, y in pairs) / len(pairs)
    if change < 0 and wins >= 0.9 and -change * base > qa[2] - qa[0]:
        return "better"
    if spread > bound and wins < 1.0 and losses < 1.0:
        return "unresolved"
    return "worse" if change > bound else "within bound"


def compare(path_a: str, path_b: str) -> None:
    spec = load_spec()
    runs = {"A": load_runs(path_a), "B": load_runs(path_b)}
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':13s} {'metric':14s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in measure.WORKLOADS:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                side: [r["metrics"][name]["value"] for r in records
                       if r["workload"] == workload and name in r["metrics"]]
                for side, records in runs.items()
            }
            if not values["A"] or not values["B"]:
                continue
            qa, qb = quartiles(values["A"]), quartiles(values["B"])
            change = (qb[1] - qa[1]) / (abs(qa[1]) or 1.0)
            print(f"{workload:13s} {name:14s} "
                  f"{qa[1]:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}] "
                  f"{qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}] "
                  f"{change:+8.2%} {metric['bound']:6.0%}  "
                  f"{verdict(values['A'], values['B'], metric['bound'], metric['better'])}")


# -- baseline ---------------------------------------------------------------------------


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def baseline(seed: int) -> None:
    """Write BENCH_baseline.json: per workload, BASELINE_RUNS untraced runs
    (median and quartiles of each metric) and one traced run."""
    spec = load_spec()
    golden = load_golden()
    out = {"schema": "contutto-bench-baseline/v1", "seed": seed,
           "commit": git_commit(), "ops": OPS, "passes": measure.PASSES,
           "workloads": {}}
    for workload in measure.WORKLOADS:
        runs = [run_workload(workload, seed, False, golden)
                for _ in range(BASELINE_RUNS)]
        traced = run_workload(workload, seed, True, golden)
        for record in runs + [traced]:
            print_record(record)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            summary[metric["name"]] = {"unit": metric["unit"], "median": med,
                                       "q1": q1, "q3": q3}
        out["workloads"][workload] = {"summary": summary, "runs": runs,
                                      "traced": traced}
    out["host"] = traced["host"]
    BASELINE_FILE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {BASELINE_FILE}")


# -- command line --------------------------------------------------------------------


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench.py compare")
        parser.add_argument("a", help="parent run records")
        parser.add_argument("b", help="change run records")
        args = parser.parse_args(argv[1:])
        compare(args.a, args.b)
        return 0
    if argv[:1] == ["baseline"]:
        parser = argparse.ArgumentParser(prog="bench.py baseline")
        parser.add_argument("--seed", type=int, default=0)
        baseline(parser.parse_args(argv[1:]).seed)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=measure.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="ignored: every run measures the same "
                             f"{measure.PASSES} passes of {OPS} ops")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="append this run's full record to a "
                                      "JSONL file (input to compare)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this untraced run's digests in "
                             "golden.json")
    args = parser.parse_args(argv)
    if args.write_golden and args.trace:
        parser.error("--write-golden needs an untraced run (--trace 0)")
    try:
        golden = None if args.write_golden else load_golden()
        record = run_workload(args.workload, args.seed, bool(args.trace),
                              golden)
        print_record(record)
        if args.write_golden:
            write_golden(record)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench.py: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
