#!/usr/bin/env python
"""Run one experiment under telemetry and write an artifact bundle.

    python scripts/trace_experiment.py table3 --out /tmp/t3

produces in the output directory:

* ``trace.json``   — Chrome ``trace_event`` array; open in ``chrome://tracing``
  or https://ui.perfetto.dev (spans per component: kernel, dmi, buffer,
  memory, processor, storage, accel, workload; journey stage spans are
  linked by flow arrows);
* ``metrics.jsonl`` — schema-versioned record stream (see docs/telemetry.md):
  one ``meta`` record, one ``result`` record per ResultTable produced, and
  metric snapshots; the last ``snapshot`` is the final counter state;
* ``attribution.jsonl`` — ``repro.attribution/v1`` request journeys plus
  per-stage summaries; render with ``scripts/analyze_latency.py``.

The experiment names match the paper's tables/figures (``table1`` ..
``table5``, ``fig6`` .. ``fig8``, ``fio`` for the Figure 9/10 matrix).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.campaign import ALIASES, experiment_names, get_experiment, run_experiment
from repro.errors import ConfigurationError


def parse_args(argv=None) -> argparse.Namespace:
    known = ", ".join(sorted(experiment_names()) + sorted(ALIASES))
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=f"known experiments: {known}",
    )
    parser.add_argument(
        "experiment",
        help=f"paper table/figure to run (one of: {known})",
    )
    parser.add_argument(
        "--out", default=None,
        help="artifact directory (default: traces/<experiment>)",
    )
    parser.add_argument(
        "--samples", type=int, default=None,
        help="override the experiment's sample/IO count knob",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="offset the experiment's deterministic seed streams.  Each "
             "experiment keeps its own historical base seeds (e.g. the GPFS "
             "job stream); --seed shifts them all by the given amount, so "
             "the default 0 reproduces the documented results exactly and "
             "any other value yields a distinct but still deterministic run",
    )
    parser.add_argument(
        "--kernel-events", action="store_true",
        help="also emit one instant per simulator event (large traces)",
    )
    parser.add_argument(
        "--max-events", type=int, default=None,
        help="trace event buffer cap (further spans are dropped, counted)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = get_experiment(args.experiment)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.samples is not None and spec.size_knob is None:
        print(f"note: {spec.name} takes no sample knob; --samples ignored",
              file=sys.stderr)
    session_options = {"kernel_events": args.kernel_events}
    if args.max_events is not None:
        session_options["max_events"] = args.max_events

    out_dir = Path(args.out or Path("traces") / spec.name)
    session, tables = run_experiment(
        spec.name, out_dir, samples=args.samples, seed=args.seed,
        **session_options,
    )
    trace_path = out_dir / "trace.json"
    session.write_chrome(trace_path)

    for table in tables:
        print(table.to_markdown())
        print()
    print(f"trace:   {trace_path}  "
          f"({session.span_count} spans, {session.instant_count} instants, "
          f"{sorted(session.categories())})")
    print(f"metrics: {out_dir / 'metrics.jsonl'}")
    journeys = session.journeys
    print(f"attribution: {out_dir / 'attribution.jsonl'}  "
          f"({len(journeys.completed)} journeys, "
          f"{len(journeys.scenarios())} scenarios)")
    dropped = session.counts.dropped_events
    if dropped:
        print(f"warning: {dropped} events dropped "
              f"(buffer cap {session.max_events})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
