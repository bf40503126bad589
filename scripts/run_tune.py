#!/usr/bin/env python
"""Tune memory configurations against a workload: budgeted, cached search.

A tune spec (JSON, schema ``repro.tune/v1``; see docs/tuning.md and the
examples in ``tunespecs/``) declares a knob space, objectives, and a
budget; this CLI drives it through the campaign engine and renders the
result:

    python scripts/run_tune.py tunespecs/buffer_latency.json --jobs 4
    python scripts/run_tune.py tunespecs/writecache.json --seed 7
    python scripts/run_tune.py tunespecs/buffer_latency.json \\
        --faults faultplans/ber_storm.json     # stress the tuned configs

The output directory receives:

* ``pareto.jsonl``      — the ``repro.tune/v1`` record stream: one meta
  record, then one record per trial (config, objective vector, dominated
  flag, rung history).  Byte-identical at any ``--jobs``;
* ``tune_report.csv``   — the same grid flattened for spreadsheets;
* ``manifest-rung<r>.jsonl`` — one campaign manifest per rung;
* ``metrics.jsonl`` / ``attribution.jsonl`` — the usual campaign
  telemetry artifacts.

Trials are served from the content-addressed cache when the same
(config, workload, samples, depth, faults, seed, code fingerprint) has
already run — re-running a finished spec is a near-total cache hit, and
a killed run resumes mid-rung for free.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.campaign import ResultCache
from repro.errors import ReproError
from repro.report import load_fault_plan
from repro.tune import TuneDriver, TuneSpec


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "spec", metavar="SPEC",
        help="tune spec JSON file (schema repro.tune/v1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = run inline, no pool)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="search seed, shared by every trial (common random numbers: "
             "configs see the same operation stream)",
    )
    parser.add_argument(
        "--out", default="tune-out", metavar="DIR",
        help="output directory for pareto.jsonl / tune_report.csv",
    )
    parser.add_argument(
        "--cache-dir", default=".campaign-cache", metavar="DIR",
        help="content-addressed result cache location (shared with campaigns)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always run every trial; don't read or write the cache",
    )
    parser.add_argument(
        "--faults", default=None, metavar="FILE",
        help="fault plan JSON injected into every trial system "
             "(memory workloads only; see docs/faults.md)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-trial wall-clock limit in seconds",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-attempts per failing trial (with exponential backoff)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also print the per-trial report table",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.jobs < 1 or args.retries < 0:
        print("--jobs must be >= 1 and --retries >= 0", file=sys.stderr)
        return 2
    try:
        spec = TuneSpec.from_json(
            Path(args.spec).read_text(encoding="utf-8")
        )
    except OSError as exc:
        print(f"cannot read spec: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"bad tune spec: {exc}", file=sys.stderr)
        return 2
    try:
        faults = load_fault_plan(args.faults) if args.faults else None
    except ReproError as exc:
        print(f"fault plan: {exc}", file=sys.stderr)
        return 2

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    driver = TuneDriver(
        spec,
        seed=args.seed,
        workers=args.jobs,
        cache=cache,
        out_dir=args.out,
        resume=cache is not None,
        timeout_s=args.timeout,
        retries=args.retries,
        faults=faults,
    )
    report = driver.run()

    print(report.render())
    print(
        f"trials: {report.jobs} job(s), {report.cache_hits} from cache, "
        f"{len(report.failed)} failed",
        file=sys.stderr,
    )
    for outcome in report.failed:
        print(f"  FAILED {outcome.job.job_id}: {outcome.error}", file=sys.stderr)
    if args.verbose:
        out_dir = Path(args.out)
        sys.stdout.write(
            (out_dir / "tune_report.csv").read_text(encoding="utf-8")
        )
    print(f"wrote {Path(args.out) / 'pareto.jsonl'}", file=sys.stderr)
    return 1 if report.winner is None else 0


if __name__ == "__main__":
    sys.exit(main())
