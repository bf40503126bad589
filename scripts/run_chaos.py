#!/usr/bin/env python
"""Run fault experiments and print a resilience report.

    python scripts/run_chaos.py                       # both fault drills
    python scripts/run_chaos.py ber_sweep --seed 3
    python scripts/run_chaos.py ber_sweep --plan plan.json --out /tmp/chaos

Each named experiment runs under telemetry; afterwards the CLI prints the
experiment's table, then a resilience report reconstructed from the
``faults.*`` counters — faults injected, recoveries, failures, LOST
outcomes — with clean-vs-fault-affected latency deltas from the journey
attribution.  ``--plan`` layers extra fault-plan entries (docs/faults.md)
on top of the experiment's own fault schedule.  With ``--out`` the
metrics and attribution artifacts are written for offline analysis.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.campaign import experiment_names, get_experiment, run_experiment
from repro.errors import ConfigurationError, ReproError
from repro.faults import render_time_buckets, report_from_snapshot, time_buckets
from repro.report import load_fault_plan

FAULT_EXPERIMENTS = [
    name for name in experiment_names()
    if get_experiment(name).supports_faults
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help=f"fault experiments to run (default: all of "
             f"{', '.join(FAULT_EXPERIMENTS)})",
    )
    parser.add_argument(
        "--plan", default=None, metavar="FILE",
        help="extra fault-plan JSON merged into each experiment's own plan",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--samples", type=int, default=None,
        help="override the experiment's size knob",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write metrics.jsonl / attribution.jsonl per experiment",
    )
    parser.add_argument(
        "--buckets", type=int, default=10, metavar="N",
        help="time slices in the injections-vs-latency view (default 10)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = args.experiments or FAULT_EXPERIMENTS
    unknown = [n for n in names if n not in FAULT_EXPERIMENTS]
    if unknown:
        print(f"error: not fault experiments: {', '.join(unknown)} "
              f"(known: {', '.join(FAULT_EXPERIMENTS)})", file=sys.stderr)
        return 2
    plan_json = load_fault_plan(args.plan) if args.plan else None

    failures = 0
    for name in names:
        out_dir = Path(args.out) / name if args.out else None
        print(f"=== {name} ===")
        try:
            session, tables = run_experiment(
                name, out_dir, samples=args.samples, seed=args.seed,
                faults=plan_json, session_name=f"chaos:{name}", max_events=0,
            )
        except ReproError as exc:
            print(f"error: {name} failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        for table in tables:
            print(table.to_markdown())
            print()

        breakdown = session.breakdown()
        report = report_from_snapshot(session.registry.snapshot(), plan_name=name)
        if report is None:
            print("no faults were injected (empty plan or all targets skipped)")
        else:
            print(report.render(breakdown))
            # time-bucketed resilience view: injections vs latency over
            # sim time, from the windows controllers published at stop()
            windows = session.fault_windows
            journeys = session.journey_records() if windows else []
            if journeys:
                rows = time_buckets(windows, journeys, buckets=args.buckets)
                if rows:
                    print()
                    print(render_time_buckets(rows))
        print()
        if out_dir is not None:
            print(f"artifacts: {out_dir}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
