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
  of the campaign completes regardless.  A per-job ``timeout_s`` marks a
  stuck job failed (its worker is abandoned to finish in the background
  — a process pool cannot preempt a running task);
* **resumable** — every completion is journaled to a JSONL manifest;
  ``resume=True`` replays ``status="ok"`` journal entries from cache and
  re-runs only what is missing or failed.

Determinism: a job's seed is part of its identity (fixed at matrix
expansion), so scheduling order, worker count, retries, and cache state
cannot change any table's values.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..telemetry import (
    MetricsRegistry,
    fault_window_record,
    fold_stage_summaries,
    merge_attribution,
    meta_record,
    result_record,
    snapshot_record,
    write_jsonl,
)
from .cache import ResultCache
from .manifest import (
    ManifestWriter,
    campaign_record,
    completed_job_ids,
    job_record,
    read_manifest,
)
from .matrix import CampaignJob
from .registry import get_experiment
from .worker import execute_job, tables_of


@dataclass
class JobOutcome:
    """What happened to one job: its payload, and how it was obtained."""

    job: CampaignJob
    source: str                      # "run" | "cache" | "resume"
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
        return sum(1 for o in self.outcomes if o.source in ("cache", "resume"))

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
        completion order.  Campaigns run in summary attribution mode
        carry per-worker ``stage_summary`` records instead of journeys;
        those fold via :func:`fold_stage_summaries`, keeping the merge
        memory bounded.
        """
        out_dir = Path(out_dir)
        done = [(f"job:{o.job.job_id}", o.payload) for o in self.succeeded]
        records = [meta_record("campaign", params, summary=self.summary())]
        records += [result_record(t) for t in self.tables()]
        records += [snapshot_record(label, None, p["metrics"]) for label, p in done]
        records.append(snapshot_record("merged", None, self.merged_metrics()))
        write_jsonl(out_dir / "metrics.jsonl", records)

        folded = [(label, p["attribution_summaries"]) for label, p in done
                  if p["attribution_summaries"]]
        if folded and not any(p["attribution"] for _, p in done):
            records = fold_stage_summaries(folded, name=name)
        else:
            sources = [
                (label, p["attribution"]
                 + [fault_window_record(w) for w in p["fault_windows"]])
                for label, p in done
            ]
            records = merge_attribution([s for s in sources if s[1]], name=name)
        write_jsonl(out_dir / "attribution.jsonl", records)


class CampaignRunner:
    """Schedule jobs across workers with caching, retries, and a manifest."""

    def __init__(
        self,
        jobs: List[CampaignJob],
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        manifest_path: Optional[str] = None,
        resume: bool = False,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        backoff_s: float = 0.25,
        base_seed: int = 0,
        attribution_mode: str = "journeys",
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if resume and cache is None:
            raise ValueError("resume requires a result cache to replay from")
        if attribution_mode not in ("journeys", "summary"):
            raise ValueError("attribution_mode must be 'journeys' or 'summary'")
        self.jobs = list(jobs)
        self.workers = workers
        self.cache = cache
        self.manifest_path = manifest_path
        self.resume = resume
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.base_seed = base_seed
        #: "journeys" ships every journey record back for an exact merge;
        #: "summary" reduces them in-worker (bounded merge memory, folded
        #: percentiles — see ``fold_stage_summaries``)
        self.attribution_mode = attribution_mode

    # -- execution ----------------------------------------------------------

    def run(self) -> CampaignReport:
        t0 = time.perf_counter()
        outcomes: Dict[CampaignJob, JobOutcome] = {}
        manifest = None
        if self.manifest_path:
            previous = read_manifest(self.manifest_path) if self.resume else []
            manifest = ManifestWriter(self.manifest_path, append=self.resume)
            if not self.resume:
                fingerprint = self.cache.fingerprint if self.cache else ""
                manifest.write(campaign_record(self.base_seed, fingerprint, len(self.jobs)))
            done_before = completed_job_ids(previous)
        else:
            done_before = {}

        try:
            to_run: List[CampaignJob] = []
            for job in self.jobs:
                outcome = self._try_replay(job, done_before)
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

    # -- cache / resume replay ----------------------------------------------

    def _try_replay(self, job: CampaignJob, done_before: Dict[str, dict]):
        """Serve a job from the cache.

        A content-addressed hit is valid regardless of manifest state, so
        resume mode only changes the reported source: jobs the journal
        says completed are ``"resume"``, any other hit is ``"cache"``.
        """
        if self.cache is None:
            return None
        entry = self.cache.get(job, self.attribution_mode)
        if entry is None:
            return None
        source = "resume" if self.resume and job.job_id in done_before else "cache"
        return JobOutcome(job, source, entry)

    # -- serial path --------------------------------------------------------

    def _run_inline(self, jobs: List[CampaignJob], manifest) -> Dict[CampaignJob, JobOutcome]:
        outcomes = {}
        for job in jobs:
            attempt = 0
            while True:
                attempt += 1
                payload = execute_job(
                    (job.experiment, job.kwargs, job.seed, self.attribution_mode)
                )
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
                            execute_job,
                            (job.experiment, job.kwargs, job.seed,
                             self.attribution_mode),
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
                    payload = {
                        "status": "failed",
                        "error": f"TimeoutError: exceeded {self.timeout_s}s",
                        "traceback": None,
                        "duration_s": self.timeout_s,
                    }
                    if attempt <= self.retries:
                        queue.append((job, attempt + 1, now + self._backoff(attempt)))
                    else:
                        outcome = self._finish(job, payload, attempt)
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

    def _finish(self, job: CampaignJob, payload: dict, attempts: int) -> JobOutcome:
        outcome = JobOutcome(job, "run", payload, attempts)
        if outcome.ok and self.cache is not None:
            self.cache.put(job, payload, mode=self.attribution_mode)
        return outcome

    def _journal(self, manifest, outcome: JobOutcome) -> None:
        if manifest is None:
            return
        key = (self.cache.key_for(outcome.job, self.attribution_mode)
               if self.cache else "")
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
