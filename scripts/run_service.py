#!/usr/bin/env python
"""Run the simulated stack as an open-loop service and emit a run table.

A schedule file describes offered load over time (see docs/service.md):

    python scripts/run_service.py --schedule schedules/flashcrowd.json
    python scripts/run_service.py --schedule s.json --repetitions 3
    python scripts/run_service.py --schedule s.json --faults plan.json

The run is one campaign job and a replay.  The **calibration job**
measures every request class the schedule references; it is cached and
journaled like any campaign job, and it is the run's only simulator
work.  Then, for each repetition, this process generates the arrivals,
draws every request's service demand from the calibrated profiles,
replays the bounded-queue service loop over the stream, and writes to
``--out``:

* ``run_table.csv``    — one row per (run, repetition, window);
* ``run_table.jsonl``  — the same grid as ``repro.service/v1`` records;
* ``metrics.jsonl``    — telemetry of the calibration job;
* ``attribution.jsonl``— latency attribution of the calibration;
* ``manifest.jsonl``   — the calibration job journal.

The same schedule and seed reproduce the run table byte for byte, with a
cold or a warm cache.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.campaign import ResultCache
from repro.errors import ConfigurationError
from repro.report import load_fault_plan
from repro.service import ArrivalSchedule, ServiceDriver


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--schedule", required=True, metavar="FILE",
        help="arrival-schedule JSON (docs/service.md)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=1, metavar="N",
        help="independent repetitions (distinct derived seeds)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; repetition seeds derive from it",
    )
    parser.add_argument(
        "--calib-samples", type=int, default=24, metavar="N",
        help="sim operations per request-class calibration",
    )
    parser.add_argument(
        "--faults", default=None, metavar="FILE",
        help="fault plan JSON installed during memory-class calibration "
             "(see docs/faults.md)",
    )
    parser.add_argument(
        "--out", default="service-out", metavar="DIR",
        help="output directory for run_table.csv and friends",
    )
    parser.add_argument(
        "--cache-dir", default=".campaign-cache", metavar="DIR",
        help="content-addressed result cache location",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always run the calibration job; don't read or write the cache",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock limit in seconds",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        schedule = ArrivalSchedule.from_json(
            Path(args.schedule).read_text(encoding="utf-8")
        )
    except (OSError, ConfigurationError) as exc:
        print(f"schedule: {exc}", file=sys.stderr)
        return 2
    if args.repetitions < 1 or args.calib_samples < 1:
        print("--repetitions and --calib-samples must be >= 1", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("--timeout must be > 0", file=sys.stderr)
        return 2

    faults = None
    if args.faults:
        try:
            faults = load_fault_plan(args.faults)
        except ConfigurationError as exc:
            print(f"fault plan: {exc}", file=sys.stderr)
            return 2

    out_dir = Path(args.out)
    driver = ServiceDriver(
        schedule,
        out_dir=out_dir,
        seed=args.seed,
        repetitions=args.repetitions,
        calib_samples=args.calib_samples,
        faults=faults,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        timeout_s=args.timeout,
    )
    result = driver.run()
    if result.failed:
        for outcome in result.failed:
            print(f"FAILED {outcome.job.job_id}: {outcome.error}",
                  file=sys.stderr)
        return 1

    print(result.render())
    print(f"calibration: {result.calib_report.summary()}", file=sys.stderr)
    print(f"wrote {out_dir / 'run_table.csv'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
