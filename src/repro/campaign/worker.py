"""The in-worker half of the campaign engine.

:func:`execute_job` is the only function a pool worker runs.  It must be
importable by name (``repro.campaign.worker.execute_job``) because the
job description — not a closure — is what crosses the process boundary.
Each invocation imports its experiment's runner (see
:class:`~repro.campaign.registry.ExperimentSpec`) before its clock starts
and runs the job through :func:`run_job`, which opens the job's
:class:`~repro.telemetry.TraceSession` and builds its **payload**, a
plain dict: pickle-friendly tables, the final metrics snapshot and what
pools across jobs, every journey record with the tracker's dropped and
abandoned counts, the fault windows, wall-clock duration, and (on
failure) the formatted traceback.  Every job has this one payload shape;
the campaign keeps and caches it whole.  Exceptions never escape: a
crashing experiment yields a ``status="failed"`` payload so the parent
can retry or record it without losing the rest of the campaign.

:func:`run_job` is also the one-off path: ``repro.campaign.runner.
run_experiment`` runs one experiment as a one-job campaign through it,
with the session the caller asks for and the experiment's exceptions
raised.  Either way a job frees what it built before :func:`run_job`
returns, so a worker that runs many jobs holds one job's systems at a
time.
"""

from __future__ import annotations

import gc
import time
import traceback
from typing import Callable, Dict, List, Tuple

from ..telemetry import TraceSession
from .matrix import CampaignJob
from .registry import get_experiment


def run_job(
    job: CampaignJob, runner: Callable, **session_options
) -> Tuple[TraceSession, Dict[str, object]]:
    """Run ``job`` with ``runner`` under its own TraceSession.

    ``session_options`` go to the session.  Returns the closed session
    and the job's ``status="ok"`` payload; the runner's exceptions
    propagate.

    The job's garbage is freed before this returns, whether the job
    succeeds or raises.  Its simulated systems are reference cycles that
    only the cyclic collector frees, so every object alive before the
    job is frozen (``gc.freeze``) and the closing ``gc.collect`` scans
    the job's objects alone.  The caller's collector state is left as
    found: it is never switched on or off, and a caller that froze
    objects itself keeps them frozen (the collection then scans every
    object it did not freeze).
    """
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        t0 = time.perf_counter()
        with TraceSession(**session_options) as session:
            result = runner(**job.kwargs_dict, seed=job.seed)
        tracker = session.journeys
        return session, {
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
    except BaseException as exc:
        # the traceback's finished frames still hold the failed job's
        # systems; drop their locals so the collection below frees them
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        gc.collect()
        if freeze:
            gc.unfreeze()


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
        # a campaign wants metrics and journeys, not span dumps (journeys
        # cross the pickle boundary as plain dicts for the exact merge)
        return run_job(job, runner, spans=False)[1]
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
