"""Checks of the benchmark itself.  Run with ``pytest benchmarks/contutto``.

Each workload runs one op, untraced and traced, through
``bench.run_workload`` — the code path of the command line — in fresh
child interpreters.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import measure  # noqa: E402

SPEC = bench.load_spec()


@pytest.fixture(scope="module", params=list(measure.WORKLOADS))
def runs(request):
    golden = bench.load_golden()
    untraced = bench.run_workload(request.param, 0, False, golden,
                                  ops=1, setup_runs=1)
    traced = bench.run_workload(request.param, 0, True, golden, ops=1)
    return untraced, traced


def test_every_metric_is_printed_with_its_unit(runs, capsys):
    for record, kind in zip(runs, ("end_to_end", "per_layer")):
        assert list(record["metrics"]) == [m["name"] for m in SPEC[kind]]
        bench.print_record(record)
        out = capsys.readouterr().out
        for metric in SPEC[kind]:
            assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
            line = rf"^  {re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])}( |$)"
            assert re.search(line, out, re.M), metric["name"]


def test_tracing_does_not_change_behaviour(runs):
    untraced, traced = runs
    assert traced["digests"]["traced"] == traced["digests"]["ops"]
    assert traced["digests"]["ops"] == untraced["digests"]["ops"]


def test_runs_do_fixed_work(runs):
    for record in runs:
        assert (record["n_ops"], record["passes"]) == (1, measure.PASSES)
    assert len(runs[1]["digests"]["traced"]) == 1


def test_layer_self_times_explain_traced_wall(runs):
    workload = runs[0]["workload"]
    metrics = {k: v["value"] for k, v in runs[1]["metrics"].items()}
    self_s = sum(metrics[f"{layer}.self_s"] for layer in measure.LAYERS)
    assert self_s == pytest.approx(runs[1]["traced_op_s"], rel=0.05)
    if workload == "accel_stream":
        assert metrics["accel.share"] >= 0.8
    else:
        assert metrics["dmi.share"] >= 0.4


def test_no_op_fails(runs):
    for record in runs:
        assert record["failed"] == 0, record["failures"]
        assert record["correct"] and record["verified"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "contutto",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/contutto/bench.py", "--workload",
         "pmem_fio", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_write_golden_takes_only_full_passing_untraced_runs(tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(bench, "GOLDEN_FILE", tmp_path / "golden.json")
    full = {"workload": "pmem_fio", "seed": 0, "trace": 0, "failed": 0,
            "digests": {"warmup": "w", "ops": ["d"] * bench.OPS}}
    bench.write_golden(full)
    written = bench.GOLDEN_FILE.read_text()
    assert json.loads(written) == {
        "pmem_fio": {"warmup": "w", "seeds": {"0": ["d"] * bench.OPS}}}
    partial = [
        dict(full, trace=1),
        dict(full, failed=1),
        dict(full, digests={"warmup": "w", "ops": ["d"] * (bench.OPS - 1)}),
        dict(full, digests={"warmup": "w", "ops": [None] + ["d"] * (bench.OPS - 1)}),
        dict(full, digests={"warmup": None, "ops": ["d"] * bench.OPS}),
    ]
    for record in partial:
        with pytest.raises(bench.BenchError):
            bench.write_golden(record)
    assert bench.GOLDEN_FILE.read_text() == written


def test_write_golden_refuses_a_traced_run():
    with pytest.raises(SystemExit) as exc:
        bench.main(["--workload", "pmem_fio", "--seed", "0", "--trace", "1",
                    "--write-golden"])
    assert exc.value.code != 0


@pytest.mark.parametrize("a, b, expected", [
    ([10, 10.1, 9.9, 10.05, 9.95], [8, 8.1, 7.9, 8.05, 7.95], "better"),
    ([10, 10.1, 9.9, 10.05, 9.95], [10.2, 10, 10.1, 9.9, 10.3], "within bound"),
    ([10, 10.1, 9.9, 10.05, 9.95], [12, 12.1, 11.9, 12.05, 11.95], "worse"),
    ([10, 14, 8, 12, 9], [11, 15, 8, 13, 10], "unresolved"),
])
def test_compare_verdicts(a, b, expected):
    assert bench.verdict(a, b, 0.1, "lower") == expected
    flipped = {"better": "worse", "worse": "better"}.get(expected, expected)
    assert bench.verdict(b, a, 0.1, "lower") == flipped
    assert bench.verdict([-x for x in a], [-x for x in b], 0.1, "higher") == expected


def test_compare_reads_out_records(tmp_path, capsys):
    record = {"workload": "pmem_fio", "trace": 0,
              "metrics": {"wall_s": {"value": 8.0, "unit": "s"}}}
    path = tmp_path / "runs.jsonl"
    path.write_text("\n".join(json.dumps(record) for _ in range(3)) + "\n")
    bench.compare(str(path), str(path))
    assert re.search(r"pmem_fio +wall_s .* within bound", capsys.readouterr().out)
