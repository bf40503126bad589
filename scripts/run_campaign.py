#!/usr/bin/env python
"""Run an experiment campaign: parallel, cached, journaled.

The default campaign is the full paper regeneration (every table/figure
at its EXPERIMENTS.md defaults, seed 0 — byte-identical to the serial
``regenerate_experiments.py`` path):

    python scripts/run_campaign.py --jobs 4
    python scripts/run_campaign.py --jobs 2 --only table3 --only table1
    python scripts/run_campaign.py --jobs 4      # again: finish a crashed run

Custom sweeps come from a JSON matrix file (see docs/campaign.md):

    python scripts/run_campaign.py --jobs 8 --matrix sweeps/latency.json

The output directory receives:

* ``experiments.md``  — every table, matrix order (the regenerate format);
* ``manifest.jsonl``  — the ``repro.campaign/v1`` job journal;
* ``metrics.jsonl``   — one merged ``repro.telemetry/v1`` artifact
  (per-job snapshots + campaign totals);
* ``attribution.jsonl`` — one merged ``repro.attribution/v1`` artifact
  (per-job request journeys and fault windows + recomputed stage
  summaries; render with ``scripts/analyze_latency.py``).

Results are served from the content-addressed cache when the same
(experiment, kwargs, seed, code fingerprint) has already run; any source
change invalidates the whole cache.  Re-running the same command after a
crash replays every finished job and runs the rest.  A failing job is
retried with backoff, then recorded with its traceback — the campaign
always runs to completion, and the exit code reports whether every job
succeeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.campaign import (
    ALIASES,
    ResultCache,
    ScenarioMatrix,
    apply_fault_plan,
    experiment_names,
    run_campaign,
)
from repro.errors import ConfigurationError
from repro.report import load_fault_plan


def load_matrix(path: str) -> ScenarioMatrix:
    """Build a ScenarioMatrix from its JSON description.

    Raises ConfigurationError for a file that cannot be read, is not
    JSON, has no ``scenarios`` list or names an unknown experiment.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(spec, dict) or not isinstance(spec.get("scenarios"), list):
        raise ConfigurationError(f"{path}: needs a 'scenarios' list")
    matrix = ScenarioMatrix(base_seed=spec.get("base_seed", 0))
    for scenario in spec["scenarios"]:
        if not isinstance(scenario, dict) or "experiment" not in scenario:
            raise ConfigurationError(f"{path}: every scenario needs an 'experiment'")
        matrix.add(scenario["experiment"], **scenario.get("axes", {}))
    return matrix


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = run inline, no pool)",
    )
    parser.add_argument(
        "--only", action="append", metavar="NAME",
        choices=experiment_names() + sorted(ALIASES),
        help="restrict the paper campaign to this experiment (repeatable)",
    )
    parser.add_argument(
        "--matrix", default=None, metavar="FILE",
        help="JSON scenario matrix (overrides --only/--seed's paper default)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed (paper matrix pins it; custom matrices derive "
             "per-job seeds from it)",
    )
    parser.add_argument(
        "--out", default="campaign-out", metavar="DIR",
        help="output directory for experiments.md / manifest.jsonl / metrics.jsonl",
    )
    parser.add_argument(
        "--cache-dir", default=".campaign-cache", metavar="DIR",
        help="content-addressed result cache location",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always run every job; don't read or write the cache",
    )
    parser.add_argument(
        "--faults", default=None, metavar="FILE",
        help="fault plan JSON injected into fault-capable experiments "
             "(see docs/faults.md)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock limit in seconds",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-attempts per failing job (with exponential backoff)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also print every table to stdout",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.jobs < 1 or args.retries < 0:
        print("--jobs must be >= 1 and --retries >= 0", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("--timeout must be > 0", file=sys.stderr)
        return 2
    try:
        plan = load_fault_plan(args.faults) if args.faults else None
    except ConfigurationError as exc:
        print(f"fault plan: {exc}", file=sys.stderr)
        return 2
    if args.matrix:
        try:
            matrix = load_matrix(args.matrix)
        except ConfigurationError as exc:
            print(f"matrix: {exc}", file=sys.stderr)
            return 2
    else:
        only = [ALIASES.get(name, name) for name in args.only] if args.only else None
        matrix = ScenarioMatrix.paper(only=only, seed=args.seed)
    jobs = matrix.expand()
    if plan is not None:
        jobs = apply_fault_plan(jobs, plan)
    if not jobs:
        print("matrix expanded to zero jobs", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    report = run_campaign(
        jobs, out_dir,
        params={"jobs": args.jobs, "seed": matrix.base_seed, "count": len(jobs)},
        workers=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        timeout_s=args.timeout,
        retries=args.retries,
        base_seed=matrix.base_seed,
    )

    if args.verbose:
        sys.stdout.write(report.markdown())
    print(f"campaign: {report.summary()}", file=sys.stderr)
    for outcome in report.failed:
        print(f"  FAILED {outcome.job.job_id}: {outcome.error}", file=sys.stderr)
    print(f"wrote {out_dir / 'experiments.md'}", file=sys.stderr)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
