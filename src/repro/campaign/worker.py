"""The in-worker half of the campaign engine.

:func:`execute_job` is the only function a pool worker runs.  It must be
importable by name (``repro.campaign.worker.execute_job``) because the
job description — not a closure — is what crosses the process boundary.
Each invocation imports its experiment's runner (see
:class:`~repro.campaign.registry.ExperimentSpec`) before its clock starts,
runs it under its own :class:`~repro.telemetry.TraceSession` and returns
a plain dict: pickle-friendly tables, the final metrics snapshot,
wall-clock duration, and (on failure) the formatted traceback.  Exceptions never escape: a
crashing experiment yields a ``status="failed"`` outcome so the parent
can retry or record it without losing the rest of the campaign.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List, Tuple

from ..telemetry import TraceSession, journey_record
from ..telemetry.attribution import stage_summary_records
from .matrix import CampaignJob
from .registry import get_experiment


def run_experiment(job: CampaignJob):
    """Run one job's experiment in-process; returns the raw result."""
    spec = get_experiment(job.experiment)
    return spec.runner(**job.kwargs_dict, seed=job.seed)


def execute_job(payload: Tuple[str, tuple, int]) -> Dict[str, object]:
    """Pool entry point: run one job, never raise.

    ``payload`` is ``(experiment, kwargs_pairs, seed)`` — rather than a
    :class:`CampaignJob` — so the pickled message stays a plain tuple.  An
    optional fourth element selects the attribution mode: ``"journeys"``
    (default — every journey record crosses back for an exact merge) or
    ``"summary"`` (the journeys are reduced to ``stage_summary`` records
    in-worker, so neither the pickle payload nor the parent's merge grows
    with journey count — the bounded-memory path for very large sweeps).
    """
    job = CampaignJob(*payload[:3])
    mode = payload[3] if len(payload) > 3 else "journeys"
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
        journeys = session.journeys
        if mode == "summary":
            attribution: List[dict] = []
            summaries = stage_summary_records(session.breakdown())
        else:
            attribution = (
                [journey_record(j) for j in journeys.completed]
                if journeys is not None else []
            )
            summaries = []
        return {
            "status": "ok",
            "job_id": job.job_id,
            "result": result,
            "metrics": session.registry.snapshot(),
            "attribution": attribution,
            "attribution_summaries": summaries,
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
