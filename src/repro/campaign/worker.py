"""The in-worker half of the campaign engine.

:func:`execute_job` is the only function a pool worker runs.  It must be
importable by name (``repro.campaign.worker.execute_job``) because the
job description — not a closure — is what crosses the process boundary.
Each invocation imports its experiment's runner (see
:class:`~repro.campaign.registry.ExperimentSpec`) before its clock starts,
runs it under its own :class:`~repro.telemetry.TraceSession` and returns
the job's **payload**, a plain dict: pickle-friendly tables, the final
metrics snapshot and what pools across jobs, every journey record with
the tracker's dropped and abandoned counts, the fault windows,
wall-clock duration, and (on failure) the formatted traceback.  Every
job has this one payload shape; the campaign keeps and caches it whole.
Exceptions never escape: a crashing experiment yields a
``status="failed"`` payload so the parent can retry or record it without
losing the rest of the campaign.

:func:`run_experiment` is the one-off counterpart for the CLIs: one named
experiment under a session, its artifacts written, its exceptions raised.
"""

from __future__ import annotations

import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..telemetry import TraceSession, meta_record, result_record
from .matrix import CampaignJob
from .registry import get_experiment


def run_experiment(
    name: str,
    out_dir=None,
    *,
    samples: Optional[int] = None,
    seed: int = 0,
    faults: Optional[str] = None,
    session_name: Optional[str] = None,
    **session_options,
) -> Tuple[TraceSession, List]:
    """Run one named experiment in-process under its own TraceSession.

    The one-off path of the CLIs, outside any campaign.  ``samples``
    replaces the spec's :attr:`~repro.campaign.registry.ExperimentSpec.
    size_knob` (ignored when it has none), ``seed`` and ``faults`` join
    its kwargs, and
    ``session_options`` go to the session, named ``session_name`` or
    the spec's name.  With ``out_dir``, ``metrics.jsonl`` (a meta record,
    one ``result`` per table, then the session's snapshots) and
    ``attribution.jsonl`` are written there.  Returns the closed session
    and the result tables.
    """
    spec = get_experiment(name)
    kwargs = dict(spec.defaults)
    if samples is not None and spec.size_knob is not None:
        kwargs[spec.size_knob] = samples
    kwargs["seed"] = seed
    if faults is not None:
        kwargs["faults"] = faults
    with TraceSession(session_name or spec.name, **session_options) as session:
        tables = tables_of(spec.runner(**kwargs))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        session.write_metrics(
            out_dir / "metrics.jsonl",
            extra_records=[meta_record(spec.name, kwargs)]
            + [result_record(t) for t in tables],
        )
        session.write_attribution(out_dir / "attribution.jsonl")
    return session, tables


def execute_job(message: Tuple[str, tuple, int]) -> Dict[str, object]:
    """Pool entry point: run one job, never raise; returns its payload.

    ``message`` is ``(experiment, kwargs_pairs, seed)`` — rather than a
    :class:`CampaignJob` — so the pickled message stays a plain tuple.
    The payload carries every journey record for the campaign's exact
    attribution merge, the tracker's ``journeys_dropped`` (refused past
    its cap) and ``journeys_abandoned`` (still in flight at the end), and
    in ``amounts`` every counter total and histogram sample, which the
    campaign's ``merged`` snapshot pools.
    """
    job = CampaignJob(*message)
    try:
        # import the runner's module before the clock starts, so no
        # job's duration includes an import
        runner = get_experiment(job.experiment).runner
    except Exception as exc:  # noqa: BLE001 — an unknown name fails the job
        return _failed(job, exc, 0.0)
    t0 = time.perf_counter()
    try:
        # traces are capped low: a campaign wants metrics, not span dumps
        # (journeys stay on — they are bounded and cross the pickle
        # boundary as plain dicts for campaign-level attribution merging)
        with TraceSession(f"campaign:{job.job_id}", max_events=0) as session:
            result = runner(**job.kwargs_dict, seed=job.seed)
        tracker = session.journeys
        return {
            "status": "ok",
            "job_id": job.job_id,
            "result": result,
            # the "final" snapshot the session took on exit
            "metrics": session.snapshots[-1]["metrics"],
            "amounts": session.registry.amounts(),
            "attribution": session.journey_records(),
            "journeys_dropped": tracker.dropped,
            "journeys_abandoned": tracker.active_count,
            "fault_windows": session.fault_windows,
            "duration_s": time.perf_counter() - t0,
        }
    except BaseException as exc:  # noqa: BLE001 — the whole point is containment
        return _failed(job, exc, time.perf_counter() - t0)


def _failed(job: CampaignJob, exc: BaseException, duration_s: float) -> Dict[str, object]:
    """The outcome of a job that raised ``exc`` (call inside ``except``)."""
    return {
        "status": "failed",
        "job_id": job.job_id,
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc(),
        "duration_s": duration_s,
    }


def tables_of(result) -> List:
    """Normalize a runner's return value to a list of ResultTables."""
    return list(result) if isinstance(result, tuple) else [result]
