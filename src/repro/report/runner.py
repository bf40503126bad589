"""Execute a :class:`~repro.report.suite.SuiteSpec` end to end.

The runner is deliberately thin: every section reuses the engine that
its standalone CLI uses — campaigns through
:func:`~repro.campaign.run_campaign`, services through
:class:`~repro.service.ServiceDriver`, tunes through
:class:`~repro.tune.TuneDriver` — so a suite run is the same cached,
worker-count-invariant execution, just orchestrated from one spec and
folded into one report.  ``--jobs`` sets the worker count of campaigns
and tunes; a service runs its one calibration job inline.

Output layout under ``out_dir``::

    campaign-<name>/   experiments.md, manifest.jsonl, metrics.jsonl,
                       attribution.jsonl
    service-<name>/    run_table.csv/.jsonl, metrics.jsonl, ...
    tune-<name>/       pareto.jsonl, tune_report.csv, ...
    kernel_profile.json   wall-time hotspots (non-deterministic; never
                          folded into report.json)
    report.json        the deterministic ``repro.report/v1`` summary
    report.html        the same data as one self-contained page

The kernel-profile pass runs **in the parent process** (the profiler is
a process-global), so its artifact exists at any ``--jobs`` and the
event *counts* embedded in ``report.json`` stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from ..campaign import apply_fault_plan, get_experiment, run_campaign
from ..sim import profiled, write_profile
from ..tune import TuneDriver
from .suite import SuiteSpec
from .summary import build_report, write_report_json


@dataclass
class SuiteResult:
    """What one suite run produced."""

    spec: SuiteSpec
    out_dir: Path
    report: Optional[dict] = None
    failures: List[str] = field(default_factory=list)
    profile: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        sections = (
            f"{len(self.spec.campaigns)} campaign(s), "
            f"{len(self.spec.services)} service(s), "
            f"{len(self.spec.tunes)} tune(s)"
        )
        if self.failures:
            return (f"suite {self.spec.name}: {sections}; "
                    f"{len(self.failures)} FAILED job(s)")
        return f"suite {self.spec.name}: {sections}; all jobs ok"


class SuiteRunner:
    """Drive every section of a suite and fold the artifacts."""

    def __init__(
        self,
        spec: SuiteSpec,
        out_dir,
        *,
        jobs: int = 1,
        cache=None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
    ) -> None:
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.jobs = jobs
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = retries

    def run(self) -> SuiteResult:
        """Run all sections; build the report only when every job passed.

        Failures don't abort the suite — later sections still run, every
        failure is collected — but a partial report would be worse than
        none, so ``report.json``/``report.html`` are only written for a
        clean run.
        """
        spec = self.spec
        self.out_dir.mkdir(parents=True, exist_ok=True)
        failures: List[str] = []

        for entry in spec.campaigns:
            failures.extend(self._run_campaign(entry))
        for entry in spec.services:
            failures.extend(self._run_service(entry))
        for entry in spec.tunes:
            failures.extend(self._run_tune(entry))

        profile_record = self._run_profile_pass()
        result = SuiteResult(spec, self.out_dir, failures=failures,
                             profile=profile_record)
        if not failures:
            report = build_report(self.out_dir, spec)
            write_report_json(self.out_dir / "report.json", report)
            from .html import render_html  # local: html imports summary

            (self.out_dir / "report.html").write_text(
                render_html(report, profile=profile_record), encoding="utf-8"
            )
            result.report = report
        return result

    # -- sections -----------------------------------------------------------

    def _run_campaign(self, entry) -> List[str]:
        matrix = entry.matrix(self.spec.seed)
        jobs = matrix.expand()
        if entry.faults is not None:
            jobs = apply_fault_plan(jobs, entry.faults)
        report = run_campaign(
            jobs, self.out_dir / f"campaign-{entry.name}",
            params={"suite": self.spec.name, "campaign": entry.name,
                    "seed": matrix.base_seed, "count": len(jobs)},
            name=f"suite:{self.spec.name}:{entry.name}",
            workers=self.jobs,
            cache=self.cache,
            timeout_s=self.timeout_s,
            retries=self.retries,
            base_seed=matrix.base_seed,
        )
        return [
            f"campaign {entry.name}: {o.job.job_id}: {o.error}"
            for o in report.failed
        ]

    def _run_service(self, entry) -> List[str]:
        from ..service import ServiceDriver  # local: service imports campaign

        result = ServiceDriver(
            entry.schedule,
            out_dir=self.out_dir / f"service-{entry.name}",
            seed=self.spec.seed,
            repetitions=entry.repetitions,
            calib_samples=entry.calib_samples,
            faults=entry.faults,
            cache=self.cache,
            timeout_s=self.timeout_s,
            retries=self.retries,
        ).run()
        return [
            f"service {entry.name}: {o.job.job_id}: {o.error}"
            for o in result.failed
        ]

    def _run_tune(self, entry) -> List[str]:
        report = TuneDriver(
            entry.spec,
            seed=self.spec.seed,
            workers=self.jobs,
            cache=self.cache,
            out_dir=str(self.out_dir / f"tune-{entry.name}"),
            timeout_s=self.timeout_s,
            retries=self.retries,
            faults=entry.faults,
        ).run()
        return [
            f"tune {entry.name}: {o.job.job_id}: {o.error}"
            for o in report.failed
        ]

    # -- kernel profile ------------------------------------------------------

    def _run_profile_pass(self) -> Optional[dict]:
        """Profile one representative experiment in-process.

        Returns the written ``repro.profile/v1`` record, or ``None`` when
        the suite disabled profiling.  The experiment re-runs outside the
        campaign engine — the profiler hooks the parent's sim kernel, and
        a cached campaign result would have nothing to profile.
        """
        job = self.spec.profile_job()
        if job is None:
            return None
        experiment, kwargs, seed = job
        with profiled() as prof:
            get_experiment(experiment).runner(**kwargs, seed=seed)
        return write_profile(
            self.out_dir / "kernel_profile.json", prof,
            suite=self.spec.name, experiment=experiment,
            kwargs={k: kwargs[k] for k in sorted(kwargs)}, seed=seed,
        )
