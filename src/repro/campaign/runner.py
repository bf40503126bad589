"""The campaign scheduler: parallel, cached, fault-tolerant execution.

:class:`CampaignRunner` drives a list of :class:`CampaignJob`s to
completion:

* **parallel** — jobs run on a ``ProcessPoolExecutor`` (``workers > 1``)
  or inline (``workers == 1``, no pickling, no pool spin-up — the mode
  ``regenerate_experiments.py`` uses);
* **cached** — with a :class:`~repro.campaign.cache.ResultCache`, a job
  whose ``(experiment, kwargs, seed, code fingerprint)`` already has a
  stored result is served without running;
* **fault-tolerant** — a failing job is retried up to ``retries`` times
  with exponential backoff, then recorded with its traceback; the rest
  of the campaign completes regardless.  A job that runs past the
  per-job ``timeout_s`` is failed the same way on both paths — neither
  can preempt a running job: the pool abandons its worker to finish in
  the background, and the inline path judges the job when it returns;
* **journaled** — every completion is recorded in a JSONL manifest.
  Re-running a campaign with the same cache is how an interrupted one
  finishes: what succeeded replays from the cache, the rest runs.

Determinism: a job's seed is part of its identity (fixed at matrix
expansion), so scheduling order, worker count, retries, and cache state
cannot change any table's values.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..telemetry import (
    MetricsRegistry,
    TraceSession,
    fault_window_record,
    merge_attribution,
    meta_record,
    result_record,
    snapshot_record,
    write_jsonl,
)
from .cache import ResultCache
from .manifest import ManifestWriter, campaign_record, job_record
from .matrix import CampaignJob
from .registry import get_experiment
from .worker import execute_job, run_job, tables_of


@dataclass
class JobOutcome:
    """What happened to one job: its payload, and how it was obtained."""

    job: CampaignJob
    source: str                      # "run" | "cache"
    #: the dict :func:`~repro.campaign.worker.execute_job` returned, or
    #: the cache's copy of it (which has no ``duration_s``)
    payload: Dict[str, object]
    attempts: int = 0

    @property
    def status(self) -> str:         # "ok" | "failed"
        return self.payload["status"]

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def duration_s(self) -> float:
        return self.payload.get("duration_s", 0.0)

    @property
    def error(self) -> Optional[str]:
        return self.payload.get("error")

    @property
    def traceback(self) -> Optional[str]:
        return self.payload.get("traceback")

    def tables(self) -> List:
        return tables_of(self.payload["result"]) if self.ok else []


@dataclass
class CampaignReport:
    """The completed campaign: outcomes in matrix order plus aggregates."""

    outcomes: List[JobOutcome]
    wall_clock_s: float
    workers: int

    @property
    def succeeded(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "cache")

    def tables(self) -> List:
        """Every ResultTable of every successful job, in matrix order."""
        out: List = []
        for outcome in self.outcomes:
            out.extend(outcome.tables())
        return out

    def merged_metrics(self) -> Dict[str, float]:
        """Every successful job's counters summed and samples pooled into
        one registry, summarized as one job's snapshot is; no gauges."""
        pooled = MetricsRegistry.pooled(o.payload["amounts"] for o in self.succeeded)
        # keys sorted whole, as the merged line has always listed them
        return dict(sorted(pooled.snapshot().items()))

    def summary(self) -> str:
        return (
            f"{len(self.outcomes)} jobs: {len(self.succeeded)} ok "
            f"({self.cache_hits} from cache), {len(self.failed)} failed; "
            f"{self.wall_clock_s:.2f}s wall clock on {self.workers} worker(s)"
        )

    def markdown(self) -> str:
        """Every table as markdown, matrix order: the ``experiments.md``
        (and ``regenerate_experiments.py``) format."""
        return "\n\n".join(t.to_markdown() for t in self.tables()) + "\n"

    def write_artifacts(self, out_dir, params: dict, name: str = "campaign") -> None:
        """Write ``metrics.jsonl`` and ``attribution.jsonl`` into ``out_dir``.

        ``metrics.jsonl`` (``repro.telemetry/v1``): a meta record carrying
        ``params``, one ``result`` per table, one ``snapshot`` per
        successful job (labelled ``job:<id>``), then the ``merged``
        snapshot (:meth:`merged_metrics`) — so the artifact ends with
        campaign-level totals, the same "last snapshot wins" convention
        single-run artifacts use.

        ``attribution.jsonl`` (``repro.attribution/v1``, named ``name``):
        per-job journey and fault-window records merge deterministically —
        sources sorted by job id, records tagged with their source,
        summaries recomputed over the union — for any worker count or
        completion order.  Its meta record's ``dropped`` and ``abandoned``
        sum the jobs' ``journeys_dropped`` and ``journeys_abandoned``.
        """
        out_dir = Path(out_dir)
        done = [(f"job:{o.job.job_id}", o.payload) for o in self.succeeded]
        records = [meta_record("campaign", params, summary=self.summary())]
        records += [result_record(t) for t in self.tables()]
        records += [snapshot_record(label, None, p["metrics"]) for label, p in done]
        records.append(snapshot_record("merged", None, self.merged_metrics()))
        write_jsonl(out_dir / "metrics.jsonl", records)

        sources = [
            (label, p["attribution"]
             + [fault_window_record(w) for w in p["fault_windows"]])
            for label, p in done
        ]
        records = merge_attribution(
            [s for s in sources if s[1]], name=name,
            dropped=sum(p["journeys_dropped"] for _, p in done),
            abandoned=sum(p["journeys_abandoned"] for _, p in done),
        )
        write_jsonl(out_dir / "attribution.jsonl", records)


class CampaignRunner:
    """Schedule jobs across workers with caching, retries, and a manifest."""

    def __init__(
        self,
        jobs: List[CampaignJob],
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        manifest_path: Optional[str] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        backoff_s: float = 0.25,
        base_seed: int = 0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        self.jobs = list(jobs)
        self.workers = workers
        self.cache = cache
        self.manifest_path = manifest_path
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.base_seed = base_seed

    # -- execution ----------------------------------------------------------

    def run(self) -> CampaignReport:
        t0 = time.perf_counter()
        outcomes: Dict[CampaignJob, JobOutcome] = {}
        manifest = None
        if self.manifest_path:
            manifest = ManifestWriter(self.manifest_path)
            fingerprint = self.cache.fingerprint if self.cache else ""
            manifest.write(campaign_record(self.base_seed, fingerprint, len(self.jobs)))

        try:
            to_run: List[CampaignJob] = []
            for job in self.jobs:
                outcome = self._try_replay(job)
                if outcome is not None:
                    outcomes[job] = outcome
                    self._journal(manifest, outcome)
                else:
                    to_run.append(job)

            if to_run:
                if self.workers == 1:
                    executed = self._run_inline(to_run, manifest)
                else:
                    executed = self._run_pool(to_run, manifest)
                outcomes.update(executed)
        finally:
            if manifest is not None:
                manifest.close()

        ordered = [outcomes[job] for job in self.jobs]
        return CampaignReport(ordered, time.perf_counter() - t0, self.workers)

    # -- cache replay -------------------------------------------------------

    def _try_replay(self, job: CampaignJob) -> Optional[JobOutcome]:
        """Serve a job from the cache (source ``"cache"``), or None."""
        if self.cache is None:
            return None
        entry = self.cache.get(job)
        if entry is None:
            return None
        return JobOutcome(job, "cache", entry)

    # -- serial path --------------------------------------------------------

    def _run_inline(self, jobs: List[CampaignJob], manifest) -> Dict[CampaignJob, JobOutcome]:
        outcomes = {}
        for job in jobs:
            attempt = 0
            while True:
                attempt += 1
                payload = execute_job((job.experiment, job.kwargs, job.seed))
                if self.timeout_s and payload["duration_s"] > self.timeout_s:
                    payload = self._timed_out()
                if payload["status"] == "ok" or attempt > self.retries:
                    break
                time.sleep(self._backoff(attempt))
            outcome = self._finish(job, payload, attempt)
            outcomes[job] = outcome
            self._journal(manifest, outcome)
        return outcomes

    # -- parallel path ------------------------------------------------------

    def _run_pool(self, jobs: List[CampaignJob], manifest) -> Dict[CampaignJob, JobOutcome]:
        outcomes: Dict[CampaignJob, JobOutcome] = {}
        queue: List[tuple] = [(job, 1, 0.0) for job in jobs]  # (job, attempt, not_before)
        pending: Dict[object, tuple] = {}  # future -> (job, attempt, deadline)
        # import every runner's module before the pool forks: the workers
        # inherit them instead of each importing its own copy
        for name in sorted({job.experiment for job in jobs}):
            try:
                get_experiment(name).runner
            except ConfigurationError:  # unknown name: its jobs fail when run
                pass
        pool = ProcessPoolExecutor(max_workers=self.workers)
        abandoned = False
        try:
            while queue or pending:
                now = time.monotonic()
                still_waiting = []
                for job, attempt, not_before in queue:
                    if now >= not_before:
                        future = pool.submit(
                            execute_job, (job.experiment, job.kwargs, job.seed)
                        )
                        deadline = now + self.timeout_s if self.timeout_s else None
                        pending[future] = (job, attempt, deadline)
                    else:
                        still_waiting.append((job, attempt, not_before))
                queue = still_waiting

                if not pending:
                    time.sleep(min(self.backoff_s, 0.05))
                    continue

                done, _ = wait(pending, timeout=0.05, return_when=FIRST_COMPLETED)
                now = time.monotonic()

                for future in done:
                    job, attempt, _ = pending.pop(future)
                    exc = future.exception()
                    if exc is not None:
                        # worker death (BrokenProcessPool) or payload
                        # pickling trouble — treat like any job failure
                        payload = {
                            "status": "failed",
                            "error": f"{type(exc).__name__}: {exc}",
                            "traceback": None,
                            "duration_s": 0.0,
                        }
                    else:
                        payload = future.result()
                    if payload["status"] == "failed" and attempt <= self.retries:
                        queue.append((job, attempt + 1, now + self._backoff(attempt)))
                        continue
                    outcome = self._finish(job, payload, attempt)
                    outcomes[job] = outcome
                    self._journal(manifest, outcome)

                # enforce per-job deadlines; a running task cannot be
                # preempted, so the job is recorded failed (or requeued)
                # and its worker abandoned to drain in the background
                for future, (job, attempt, deadline) in list(pending.items()):
                    if deadline is None or now <= deadline:
                        continue
                    pending.pop(future)
                    if not future.cancel():
                        abandoned = True
                    if attempt <= self.retries:
                        queue.append((job, attempt + 1, now + self._backoff(attempt)))
                    else:
                        outcome = self._finish(job, self._timed_out(), attempt)
                        outcomes[job] = outcome
                        self._journal(manifest, outcome)
        finally:
            # don't block campaign completion on an abandoned (timed-out)
            # worker; its process drains in the background
            pool.shutdown(wait=not abandoned, cancel_futures=True)
        return outcomes

    # -- bookkeeping --------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        return self.backoff_s * (2 ** (attempt - 1))

    def _timed_out(self) -> dict:
        """The failed payload of a job that ran past ``timeout_s``."""
        return {
            "status": "failed",
            "error": f"TimeoutError: exceeded {self.timeout_s}s",
            "traceback": None,
            "duration_s": self.timeout_s,
        }

    def _finish(self, job: CampaignJob, payload: dict, attempts: int) -> JobOutcome:
        outcome = JobOutcome(job, "run", payload, attempts)
        if outcome.ok and self.cache is not None:
            self.cache.put(job, payload)
        return outcome

    def _journal(self, manifest, outcome: JobOutcome) -> None:
        if manifest is None:
            return
        key = self.cache.key_for(outcome.job) if self.cache else ""
        manifest.write(
            job_record(
                outcome.job, key, outcome.status, outcome.source,
                outcome.attempts, outcome.duration_s,
                error=outcome.error, traceback=outcome.traceback,
            )
        )


def run_campaign(
    jobs: List[CampaignJob], out_dir, params: dict, name: str = "campaign",
    **options,
) -> CampaignReport:
    """Run ``jobs`` into ``out_dir`` and return the report.

    ``manifest.jsonl`` is journaled while the jobs run; then
    ``experiments.md`` (:meth:`CampaignReport.markdown`) and the
    :meth:`CampaignReport.write_artifacts` pair are written.  ``options``
    are :class:`CampaignRunner` arguments.  ``run_campaign.py`` and the
    suite runner's campaign sections both run through here.
    """
    out_dir = Path(out_dir)
    # the runner checks its options before the directory exists
    runner = CampaignRunner(jobs, manifest_path=str(out_dir / "manifest.jsonl"), **options)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = runner.run()
    (out_dir / "experiments.md").write_text(report.markdown(), encoding="utf-8")
    report.write_artifacts(out_dir, params, name)
    return report


def run_experiment(
    name: str,
    out_dir=None,
    *,
    samples: Optional[int] = None,
    seed: int = 0,
    faults: Optional[str] = None,
    **session_options,
) -> Tuple[TraceSession, CampaignReport]:
    """Run one named experiment in-process as a one-job campaign.

    The one-off path of ``trace_experiment.py`` and ``run_chaos.py``.
    ``samples`` replaces the spec's :attr:`~repro.campaign.registry.
    ExperimentSpec.size_knob` (ignored when it has none) and ``faults``
    joins its kwargs; the job is the one a campaign matrix gives the same
    cell.  It runs through :func:`~repro.campaign.worker.run_job` with
    ``session_options`` going to its session, and unlike a campaign job
    its exceptions propagate.  With ``out_dir``, the report's
    :meth:`CampaignReport.write_artifacts` pair is written there: its
    ``attribution.jsonl`` is byte-identical to a one-job
    :func:`run_campaign`'s, and its ``metrics.jsonl`` differs only in the
    meta record.  Returns the closed session and the report.
    """
    spec = get_experiment(name)
    kwargs = dict(spec.defaults)
    if samples is not None and spec.size_knob is not None:
        kwargs[spec.size_knob] = samples
    if faults is not None:
        kwargs["faults"] = faults
    job = CampaignJob.make(spec.name, kwargs, seed)
    session, payload = run_job(job, spec.runner, **session_options)
    report = CampaignReport(
        [JobOutcome(job, "run", payload, attempts=1)], payload["duration_s"], 1
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report.write_artifacts(
            out_dir, {"experiment": spec.name, **kwargs, "seed": seed}
        )
    return session, report
