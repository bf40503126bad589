#!/usr/bin/env python
"""Render a per-stage latency breakdown from attribution artifacts.

    python scripts/analyze_latency.py /tmp/t3                 # one traced run
    python scripts/analyze_latency.py campaign-out            # merged campaign
    python scripts/analyze_latency.py a.jsonl b.jsonl --check # CI gate

Inputs are ``repro.attribution/v1`` files (``attribution.jsonl``) or
directories containing one.  Several inputs merge deterministically the
way the campaign runner merges per-worker artifacts: sources sorted by
label, journeys tagged with their source, summaries recomputed over the
union.

For every scenario the report shows the stage table (queueing vs service,
p50/p95/p99/mean/max, share of total), the critical path (stages by mean
contribution), and — when a baseline scenario exists — the per-stage
delta against it, which is the paper's Table 3 decomposition: where the
extra ConTutto nanoseconds actually go.

DMI journeys carry two extra annotations the report exploits when
present: the command address maps to its DRAM bank (row bits above bank
bits, 8 KiB pages over 8 banks), giving a per-bank contention table —
how evenly the address stream spread across the rank, and what each
bank's latency profile looked like; and the channel's in-flight count at
issue time gives a queue-depth-vs-latency correlation table, showing how
much of the tail is queueing amplified by memory-level parallelism.

``--check`` turns the breakdown's self-diagnostics into an exit code:
non-zero when the artifact has no journeys, unattributed residual above
tolerance, or negative stage durations.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.core.results import ResultTable
from repro.errors import ArtifactError
from repro.memory import DdrDram
from repro.report import load_journeys, resolve_artifact
from repro.telemetry import LatencyBreakdown, nearest_rank


def pick_baseline(scenarios, requested=None) -> str:
    """The delta baseline: requested, else ``centaur``, else the first."""
    if requested:
        if requested not in scenarios:
            raise KeyError(
                f"baseline {requested!r} not in artifact (have: {scenarios})"
            )
        return requested
    return "centaur" if "centaur" in scenarios else scenarios[0]


def stage_table(breakdown: LatencyBreakdown, scenario: str) -> ResultTable:
    e2e = breakdown.end_to_end(scenario)
    table = ResultTable(
        f"Latency breakdown: {scenario} "
        f"({breakdown.journey_count(scenario)} journeys, "
        f"mean {e2e['mean'] / 1000:.2f} ns end-to-end)",
        ["Stage", "Kind", "Count", "Mean (ns)", "p50 (ns)", "p95 (ns)",
         "p99 (ns)", "Max (ns)", "Share"],
    )
    for row in breakdown.stage_table(scenario):
        table.add_row(
            row["stage"], row["kind"], row["count"],
            row["mean_ps"] / 1000, row["p50_ps"] / 1000, row["p95_ps"] / 1000,
            row["p99_ps"] / 1000, row["max_ps"] / 1000,
            f"{row['share']:.1%}",
        )
    residual = breakdown.residual(scenario)
    if residual.get("count"):
        table.add_note(
            f"unattributed residual: mean {residual['mean']:.0f} ps, "
            f"max {residual['max']:.0f} ps"
        )
    path = [r["stage"] for r in breakdown.critical_path(scenario)]
    table.add_note("critical path (by mean contribution): " + " > ".join(path))
    return table


def fault_table(breakdown: LatencyBreakdown, scenario: str) -> ResultTable:
    """Clean vs fault-affected end-to-end percentiles for one scenario."""
    clean, fault = breakdown.fault_split(scenario)
    table = ResultTable(
        f"Fault split: {scenario} "
        f"({breakdown.fault_count(scenario)} of "
        f"{breakdown.journey_count(scenario)} journeys fault-affected)",
        ["Population", "Count", "Mean (ns)", "p50 (ns)", "p95 (ns)",
         "p99 (ns)", "Max (ns)"],
    )
    for label, stats in (("clean", clean), ("fault-affected", fault)):
        table.add_row(
            label, int(stats["count"]), stats["mean"] / 1000,
            stats["p50"] / 1000, stats["p95"] / 1000, stats["p99"] / 1000,
            stats["max"] / 1000,
        )
    table.add_note(
        f"fault-affected mean delta: "
        f"{(fault['mean'] - clean['mean']) / 1000:+.2f} ns"
    )
    return table


def dmi_journeys(journeys, scenario: str) -> list:
    """Completed depth-annotated journeys of one scenario.

    Only the host memory controller stamps ``depth``, so its presence
    discriminates DMI line commands (whose addresses are physical and
    bank-mappable) from storage-layer journeys (whose ``addr`` is a file
    offset).
    """
    return [
        j for j in journeys
        if j.get("scenario", "") == scenario
        and j.get("depth") is not None
        and j.get("end_ps") is not None
    ]


def bank_table(journeys, scenario: str) -> ResultTable:
    """Per-DRAM-bank access counts and latency profile for one scenario."""
    by_bank = {}
    for j in journeys:
        bank = (j["addr"] // DdrDram.ROW_BYTES) % DdrDram.NUM_BANKS
        by_bank.setdefault(bank, []).append(j["end_ps"] - j["start_ps"])
    total = sum(len(v) for v in by_bank.values())
    table = ResultTable(
        f"DRAM bank contention: {scenario} ({total} commands, "
        f"{len(by_bank)} of {DdrDram.NUM_BANKS} banks touched)",
        ["Bank", "Count", "Share", "Mean (ns)", "p95 (ns)", "p99 (ns)",
         "Max (ns)"],
    )
    for bank in sorted(by_bank):
        lat = sorted(by_bank[bank])
        table.add_row(
            bank, len(lat), f"{len(lat) / total:.1%}",
            sum(lat) / len(lat) / 1000,
            nearest_rank(lat, 95) / 1000,
            nearest_rank(lat, 99) / 1000,
            lat[-1] / 1000,
        )
    counts = [len(v) for v in by_bank.values()]
    imbalance = max(counts) / (sum(counts) / len(counts)) if counts else 0.0
    table.add_note(
        f"hottest bank holds {imbalance:.2f}x the mean bank load "
        "(1.00 = perfectly even)"
    )
    return table


def depth_table(journeys, scenario: str) -> ResultTable:
    """Queue-depth-vs-latency correlation for one scenario.

    Rows bucket journeys by the in-flight count their issue observed; the
    note reports the Pearson correlation between depth and end-to-end
    latency — high r means the tail is queueing, not service time.
    """
    by_depth = {}
    pairs = []
    for j in journeys:
        latency = j["end_ps"] - j["start_ps"]
        by_depth.setdefault(j["depth"], []).append(latency)
        pairs.append((j["depth"], latency))
    table = ResultTable(
        f"Queue depth vs latency: {scenario} ({len(pairs)} commands)",
        ["Depth at issue", "Count", "Mean (ns)", "p50 (ns)", "p99 (ns)",
         "Max (ns)"],
    )
    for depth in sorted(by_depth):
        lat = sorted(by_depth[depth])
        table.add_row(
            depth, len(lat),
            sum(lat) / len(lat) / 1000,
            nearest_rank(lat, 50) / 1000,
            nearest_rank(lat, 99) / 1000,
            lat[-1] / 1000,
        )
    n = len(pairs)
    mean_d = sum(d for d, _ in pairs) / n
    mean_l = sum(l for _, l in pairs) / n
    cov = sum((d - mean_d) * (l - mean_l) for d, l in pairs)
    var_d = sum((d - mean_d) ** 2 for d, _ in pairs)
    var_l = sum((l - mean_l) ** 2 for _, l in pairs)
    if var_d > 0 and var_l > 0:
        r = cov / math.sqrt(var_d * var_l)
        table.add_note(f"Pearson depth-latency correlation: r = {r:+.3f}")
    else:
        table.add_note(
            "Pearson depth-latency correlation undefined "
            "(constant depth or constant latency)"
        )
    return table


def delta_table(breakdown: LatencyBreakdown, scenario: str, baseline: str) -> ResultTable:
    diff = breakdown.scenario_mean_ns(scenario) - breakdown.scenario_mean_ns(baseline)
    table = ResultTable(
        f"Stage deltas: {scenario} - {baseline} ({diff:+.2f} ns end-to-end)",
        ["Stage", f"{scenario} (ns)", f"{baseline} (ns)", "Delta (ns)"],
    )
    for row in breakdown.delta(scenario, baseline):
        table.add_row(
            row["stage"], row["mean_ps"] / 1000, row["baseline_ps"] / 1000,
            row["delta_ps"] / 1000,
        )
    return table


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "inputs", nargs="+",
        help="attribution.jsonl files, or directories containing one",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="SCENARIO",
        help="delta baseline (default: 'centaur' when present, else the "
             "first scenario)",
    )
    parser.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="restrict the report to this scenario (repeatable)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.01,
        help="residual tolerance as a fraction of mean latency (default 1%%)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if the breakdown's self-check reports warnings",
    )
    parser.add_argument(
        "--lenient", action="store_true",
        help="skip (but report) malformed artifact lines instead of failing",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        paths = [resolve_artifact(arg) for arg in args.inputs]
        journeys, load_warnings = load_journeys(
            paths, malformed="skip" if args.lenient else "error"
        )
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    breakdown = LatencyBreakdown()
    breakdown.add_records(journeys)

    warnings = load_warnings + breakdown.check(tolerance=args.tolerance)
    scenarios = breakdown.scenarios()
    if args.scenario:
        missing = [s for s in args.scenario if s not in scenarios]
        if missing:
            print(f"error: scenarios {missing} not in artifact "
                  f"(have: {scenarios})", file=sys.stderr)
            return 2
        scenarios = [s for s in scenarios if s in args.scenario]

    if scenarios:
        try:
            baseline = pick_baseline(breakdown.scenarios(), args.baseline)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for scenario in scenarios:
            print(stage_table(breakdown, scenario).to_markdown())
            print()
            if breakdown.fault_split(scenario) is not None:
                print(fault_table(breakdown, scenario).to_markdown())
                print()
            annotated = dmi_journeys(journeys, scenario)
            if annotated:
                print(bank_table(annotated, scenario).to_markdown())
                print()
                print(depth_table(annotated, scenario).to_markdown())
                print()
        for scenario in scenarios:
            if scenario != baseline:
                print(delta_table(breakdown, scenario, baseline).to_markdown())
                print()

    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.check and warnings:
        print(f"check failed: {len(warnings)} warning(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
