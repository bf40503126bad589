#!/usr/bin/env python
"""Run a declarative experiment suite and emit its report.

A suite spec (JSON, schema ``repro.suite/v1``; see docs/reports.md and
the examples in ``suites/``) bundles campaigns, service schedules, and
tune specs into one named run:

    python scripts/run_suite.py suites/ci_smoke.json --jobs 4
    python scripts/run_suite.py suites/nightly.json --out /tmp/nightly

The output directory receives one subdirectory per section entry
(``campaign-<name>/``, ``service-<name>/``, ``tune-<name>/`` — each
holding exactly what the standalone CLI would have written), plus:

* ``report.json``         — the ``repro.report/v1`` summary, byte-
  identical at any ``--jobs`` (compare runs with
  ``scripts/diff_artifacts.py``);
* ``report.html``         — the same data as one self-contained page
  (inline CSS/SVG, opens offline);
* ``kernel_profile.json`` — sim-kernel hotspots from the in-process
  profile pass (wall times; intentionally outside report.json).

Every section runs through the campaign engine: results come from the
content-addressed cache when nothing changed, failures are retried then
recorded, and the exit code says whether every job passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.campaign import ResultCache
from repro.errors import ReproError
from repro.report import SuiteRunner, SuiteSpec


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "spec", metavar="SPEC",
        help="suite spec JSON file (schema repro.suite/v1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = run inline, no pool); report.json "
             "does not depend on this",
    )
    parser.add_argument(
        "--out", default="suite-out", metavar="DIR",
        help="output directory for report.json / report.html",
    )
    parser.add_argument(
        "--cache-dir", default=".campaign-cache", metavar="DIR",
        help="content-addressed result cache location (shared with campaigns)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always run every job; don't read or write the cache",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock limit in seconds",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-attempts per failing job (with exponential backoff)",
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
        spec = SuiteSpec.load(args.spec)
    except ReproError as exc:
        print(f"bad suite spec: {exc}", file=sys.stderr)
        return 2

    runner = SuiteRunner(
        spec,
        args.out,
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        timeout_s=args.timeout,
        retries=args.retries,
    )
    try:
        result = runner.run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(result.summary(), file=sys.stderr)
    for failure in result.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    if result.ok:
        print(f"wrote {Path(args.out) / 'report.json'}", file=sys.stderr)
        print(f"wrote {Path(args.out) / 'report.html'}", file=sys.stderr)
    else:
        print("report not written (suite had failures)", file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
