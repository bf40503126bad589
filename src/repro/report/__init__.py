"""Reports and regression verdicts over the repo's run artifacts.

Everything upstream emits machine-readable JSONL — attribution journeys,
fault windows, service run tables, Pareto fronts — and this package is
where they become *legible* and *comparable*:

* :mod:`~repro.report.artifacts` — the one shared loader for every
  JSONL artifact (file-or-directory resolution, strict/lenient
  malformed-line handling, deterministic multi-source merging) that the
  CLI scripts previously each reimplemented;
* :mod:`~repro.report.suite` / :mod:`~repro.report.runner` — a
  declarative ``repro.suite/v1`` spec bundling campaigns, fault plans,
  service schedules, and tune specs into one named run driven through
  the campaign engine (cached, resumable, worker-count-invariant);
* :mod:`~repro.report.summary` — folds a suite run's artifacts into one
  machine-readable ``report.json`` whose bytes are independent of
  worker count (wall-clock never enters it);
* :mod:`~repro.report.html` — renders the same data as a single
  self-contained HTML page (inline CSS + SVG, no network, no deps);
* :mod:`~repro.report.diff` — compares two suite runs scenario by
  scenario with budget-matched percentile deltas and per-metric
  tolerances, emitting a deterministic PASS/WARN/FAIL verdict usable as
  a CI gate.

``scripts/run_suite.py`` and ``scripts/diff_artifacts.py`` are the
CLIs; the spec schema, report anatomy, and diff semantics live in
``docs/reports.md``.
"""

from .._lazy import lazy_exports

#: public name -> submodule imported on first access (PEP 562): loading
#: a fault plan or diffing two reports imports neither the suite runner
#: nor the tune, service, fault and core packages it drives
_EXPORTS = {
    "DEFAULT_TOLERANCES": ".diff",
    "DiffFinding": ".diff",
    "DiffResult": ".diff",
    "REPORT_SCHEMA": ".summary",
    "SUITE_SCHEMA": ".suite",
    "SuiteResult": ".runner",
    "SuiteRunner": ".runner",
    "SuiteSpec": ".suite",
    "VERDICTS": ".diff",
    "build_report": ".summary",
    "diff_reports": ".diff",
    "load_fault_plan": ".artifacts",
    "load_journeys": ".artifacts",
    "load_report": ".artifacts",
    "read_artifact": ".artifacts",
    "render_diff": ".diff",
    "render_html": ".html",
    "resolve_artifact": ".artifacts",
    "write_report_json": ".summary",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
