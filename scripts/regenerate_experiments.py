#!/usr/bin/env python
"""Regenerate the measured tables embedded in EXPERIMENTS.md.

Runs every experiment in the harness and prints the markdown blocks; use
this after changing any model to refresh the paper-vs-measured record:

    python scripts/regenerate_experiments.py > /tmp/experiments_raw.md
    python scripts/regenerate_experiments.py --only table3
    python scripts/regenerate_experiments.py --out /tmp/experiments_raw.md
    python scripts/regenerate_experiments.py --jobs 4     # parallel workers

The fidelity-note prose in EXPERIMENTS.md is curated by hand; splice the
regenerated tables into the existing structure rather than overwriting it.

This is a thin front-end over the campaign engine (``repro.campaign``):
the experiment list is its registry's paper matrix, executed uncached so
a regeneration always reflects the current source tree.  For cached,
resumable, failure-tolerant sweeps use ``scripts/run_campaign.py``.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign import ALIASES, CampaignRunner, ScenarioMatrix, experiment_names


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", action="append", metavar="NAME",
        choices=experiment_names() + sorted(ALIASES),
        help="regenerate only this experiment (repeatable)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the markdown to this file instead of stdout",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = inline, the historical serial path)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    only = [ALIASES.get(name, name) for name in args.only] if args.only else None
    jobs = ScenarioMatrix.paper(only=only).expand()
    report = CampaignRunner(jobs, workers=args.jobs).run()
    for outcome in report.failed:
        print(f"FAILED {outcome.job.job_id}: {outcome.error}", file=sys.stderr)
        if outcome.traceback:
            print(outcome.traceback, file=sys.stderr)
    if report.failed:
        return 1

    text = report.markdown()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(jobs)} experiment(s) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
