"""Pareto dominance and the first-class tuning artifacts.

The non-dominated front is computed over every successfully evaluated
trial's final objective vector and published two ways:

* ``pareto.jsonl`` — a ``repro.tune/v1`` record stream: one ``meta``
  record (spec identity, objectives, budget, front size) then one
  ``trial`` record per config (config, objective vector, dominated
  flag, rung history), sorted by canonical config key;
* ``tune_report.csv`` — the same grid flattened for spreadsheets: one
  column per knob in the space, one per objective metric, plus rung /
  samples / status / dominated.

Nothing in either artifact depends on worker count, scheduling order,
cache state, or wall-clock time, so a re-run of the same spec at any
``--jobs`` reproduces both byte for byte.

Dominance convention: ``a`` dominates ``b`` iff ``a`` is no worse on
every objective (respecting each ``min``/``max`` goal) and strictly
better on at least one.  Equal vectors therefore do not dominate each
other — tied configs are all on the front.  With a single objective the
front degenerates to the set of configs tied at the optimum.

Halving evaluates survivors at growing sample budgets, and tail metrics
are budget-dependent (a p99 over 144 samples probes a deeper tail than
one over 16), so vectors from different rungs must not be compared
directly.  Dominance between two trials is therefore judged at the
**deepest rung both were measured at** — every trial's rung history is
retained for exactly this.  Trials run under common random numbers, so
a same-rung comparison is paired: the difference is the config's doing,
not the draw's.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List, Optional, Sequence, Tuple

from .search import TrialState
from .space import TUNE_SCHEMA, TUNE_SCHEMA_VERSION, Objective, TuneSpec


def objectives_of(table) -> Dict[str, float]:
    """The metric→value mapping of a trial's result table (one row per
    metric, as :func:`~repro.tune.trial.run_tune_trial` writes it)."""
    return {row[0]: float(row[1]) for row in table.rows}


def dominates(
    a: Dict[str, float], b: Dict[str, float], objectives: Sequence[Objective]
) -> bool:
    """Whether objective vector ``a`` Pareto-dominates ``b``."""
    better = False
    for objective in objectives:
        av = objective.key(a[objective.metric])
        bv = objective.key(b[objective.metric])
        if av > bv:
            return False
        if av < bv:
            better = True
    return better


def common_rung_objectives(
    a: TrialState, b: TrialState
) -> Optional[Tuple[Dict[str, float], Dict[str, float]]]:
    """Both trials' vectors at the deepest rung both were measured at."""
    hist_a = {h["rung"]: h["objectives"] for h in a.history}
    hist_b = {h["rung"]: h["objectives"] for h in b.history}
    common = set(hist_a) & set(hist_b)
    if not common:
        return None
    rung = max(common)
    return hist_a[rung], hist_b[rung]


def mark_dominated(
    trials: Sequence[TrialState], objectives: Sequence[Objective]
) -> Dict[str, bool]:
    """``key -> dominated`` for every ok trial (failed trials excluded).

    Each pair is compared at its deepest common rung (see the module
    docstring); a trial is dominated if any other trial beats it there.
    """
    ok = [t for t in trials if t.status == "ok" and t.objectives]
    flags: Dict[str, bool] = {}
    for trial in ok:
        dominated = False
        for other in ok:
            if other.key == trial.key:
                continue
            pair = common_rung_objectives(other, trial)
            if pair is not None and dominates(pair[0], pair[1], objectives):
                dominated = True
                break
        flags[trial.key] = dominated
    return flags


def front_keys(
    trials: Sequence[TrialState], objectives: Sequence[Objective]
) -> List[str]:
    """Canonical keys of the non-dominated trials, sorted."""
    flags = mark_dominated(trials, objectives)
    return sorted(k for k, dominated in flags.items() if not dominated)


def select_winner(
    trials: Sequence[TrialState], objectives: Sequence[Objective]
) -> Optional[TrialState]:
    """The best trial: primary objective at the deepest evaluated rung.

    Halving's final survivors carry the largest budget, so the winner is
    chosen among trials at the maximum rung; ties break on the canonical
    key.  ``None`` when every trial failed.
    """
    ok = [t for t in trials if t.status == "ok" and t.objectives]
    if not ok:
        return None
    top_rung = max(t.rung for t in ok)
    primary = objectives[0]
    pool = [t for t in ok if t.rung == top_rung]
    return min(pool, key=lambda t: (primary.key(t.objectives[primary.metric]), t.key))


# -- artifacts ---------------------------------------------------------------


def pareto_records(
    spec: TuneSpec, trials: Sequence[TrialState], seed: int
) -> List[dict]:
    """The ``repro.tune/v1`` record stream for ``pareto.jsonl``."""
    ordered = sorted(trials, key=lambda t: t.key)
    flags = mark_dominated(ordered, spec.objectives)
    winner = select_winner(ordered, spec.objectives)
    records: List[dict] = [
        {
            "schema": TUNE_SCHEMA,
            "schema_version": TUNE_SCHEMA_VERSION,
            "kind": "meta",
            "name": spec.name,
            "workload": spec.workload,
            "searcher": spec.searcher,
            "objectives": [
                {"metric": o.metric, "goal": o.goal} for o in spec.objectives
            ],
            "budget": {
                "base_samples": spec.budget.base_samples,
                "rungs": spec.budget.rungs,
                "eta": spec.budget.eta,
            },
            "depth": spec.depth,
            "seed": seed,
            "trials": len(ordered),
            "front_size": sum(
                1 for k, dominated in flags.items() if not dominated
            ),
            "winner": winner.key if winner is not None else None,
            "baseline": json.dumps(
                spec.baseline_config(), sort_keys=True, separators=(",", ":")
            ),
        }
    ]
    for trial in ordered:
        record = {
            "schema": TUNE_SCHEMA,
            "kind": "trial",
            "key": trial.key,
            "config": dict(sorted(trial.config.items())),
            "status": trial.status,
            "rung": trial.rung,
            "samples": trial.samples,
            "objectives": trial.objectives,
            "dominated": flags.get(trial.key),
            "history": trial.history,
        }
        if trial.error:
            record["error"] = trial.error
        records.append(record)
    return records


def write_pareto(path: str, records: List[dict]) -> int:
    """Write the record stream as JSONL; returns the record count."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def report_rows(
    spec: TuneSpec, trials: Sequence[TrialState]
) -> Tuple[List[str], List[List[object]]]:
    """Header + rows of ``tune_report.csv`` (deterministic order)."""
    knob_names = sorted(
        {name for trial in trials for name in trial.config}
    )
    metrics = [o.metric for o in spec.objectives]
    header = (
        knob_names
        + metrics
        + ["rung", "samples", "status", "dominated"]
    )
    flags = mark_dominated(trials, spec.objectives)
    rows: List[List[object]] = []
    for trial in sorted(trials, key=lambda t: t.key):
        row: List[object] = [
            trial.config.get(name, "") for name in knob_names
        ]
        for metric in metrics:
            row.append(
                trial.objectives.get(metric, "") if trial.objectives else ""
            )
        dominated = flags.get(trial.key)
        row += [
            trial.rung,
            trial.samples,
            trial.status,
            "" if dominated is None else int(dominated),
        ]
        rows.append(row)
    return header, rows


def write_report_csv(
    path: str, spec: TuneSpec, trials: Sequence[TrialState]
) -> int:
    header, rows = report_rows(spec, trials)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)
