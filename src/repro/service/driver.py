"""One callable service run: calibrate, shard, merge, write artifacts.

``scripts/run_service.py`` and the suite runner both need the same
two-phase orchestration — a single calibration job whose profile
artifact every (repetition, shard) job reuses, then the sharded demand
campaign, then the worker-count-invariant merge into a run table.  This
module is that orchestration as a library, so the CLI stays a thin
argument parser and suites drive services through the exact code path
the CLI exercises.

The driver writes the same artifact set the CLI documents:
``run_table.csv`` / ``run_table.jsonl``, merged ``metrics.jsonl`` and
``attribution.jsonl``, and both campaign manifests.  A failed phase
short-circuits — the result carries the failed outcomes and no run
table is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigurationError
from .loop import run_service
from .profile import profiles_from_table, profiles_to_json
from .schedule import ArrivalSchedule, generate_arrivals, rep_seed
from .table import (
    demand_stream,
    merge_shard_demands,
    render_summary,
    window_rows,
    write_run_table,
)


@dataclass
class ServiceResult:
    """What one service run produced (or where it stopped)."""

    schedule: ArrivalSchedule
    rows: List[dict] = field(default_factory=list)
    calib_report: Optional[object] = None  # CampaignReport
    shard_report: Optional[object] = None  # CampaignReport

    @property
    def failed(self) -> list:
        """Failed job outcomes across both phases, calibration first."""
        failed = []
        for report in (self.calib_report, self.shard_report):
            if report is not None:
                failed.extend(report.failed)
        return failed

    def render(self) -> str:
        """The terminal digest (sparklines + SLO lines)."""
        return render_summary(self.schedule, self.rows)


class ServiceDriver:
    """Run one arrival schedule through the campaign engine.

    Parameters mirror the ``run_service.py`` flags: ``faults`` is the
    canonical fault-plan JSON string (see
    :func:`repro.report.load_fault_plan`), ``cache`` a shared
    :class:`~repro.campaign.ResultCache` or ``None``.
    """

    def __init__(
        self,
        schedule,
        *,
        out_dir,
        seed: int = 0,
        shards: int = 1,
        repetitions: int = 1,
        calib_samples: int = 24,
        faults: Optional[str] = None,
        cache=None,
        timeout_s: Optional[float] = None,
    ) -> None:
        if shards < 1 or repetitions < 1:
            raise ConfigurationError("shards and repetitions must be >= 1")
        if calib_samples < 1:
            raise ConfigurationError("calib_samples must be >= 1")
        self.schedule = ArrivalSchedule.load(schedule)
        self.out_dir = Path(out_dir)
        self.seed = seed
        self.shards = shards
        self.repetitions = repetitions
        self.calib_samples = calib_samples
        self.faults = faults
        self.cache = cache
        self.timeout_s = timeout_s

    def run(self) -> ServiceResult:
        """Execute both phases; write artifacts when everything passes.

        Raises :class:`~repro.errors.ConfigurationError` on a torn shard
        merge (the same failure the CLI reports as ``merge:``).
        """
        # local: campaign.registry imports service.shard, so a module-level
        # campaign import here would close an import cycle
        from ..campaign import CampaignJob, CampaignReport, CampaignRunner

        schedule = self.schedule
        out_dir = self.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

        calib_kwargs = {
            "classes": ",".join(sorted({t.klass for t in schedule.tenants})),
            "calib_samples": self.calib_samples,
        }
        if self.faults is not None:
            calib_kwargs["faults"] = self.faults

        # phase 1: one shared calibration job for the whole invocation —
        # every (repetition, shard) job below reuses its profiles artifact
        calib_report = CampaignRunner(
            [CampaignJob.make("service_calibrate", calib_kwargs, seed=self.seed)],
            workers=1,
            cache=self.cache,
            manifest_path=str(out_dir / "calib-manifest.jsonl"),
            timeout_s=self.timeout_s,
            base_seed=self.seed,
        ).run()
        if calib_report.failed:
            return ServiceResult(schedule, calib_report=calib_report)
        profiles_json = profiles_to_json(
            profiles_from_table(calib_report.outcomes[0].tables()[0])
        )

        # phase 2: shard demand jobs, none of which touch the simulator
        jobs = [
            CampaignJob.make(
                "service_shard",
                {"schedule": schedule.to_json(), "shards": self.shards,
                 "profiles": profiles_json, "repetition": rep, "shard": shard},
                seed=self.seed,
            )
            for rep in range(self.repetitions)
            for shard in range(self.shards)
        ]
        shard_report = CampaignRunner(
            jobs,
            workers=self.shards,
            cache=self.cache,
            manifest_path=str(out_dir / "manifest.jsonl"),
            timeout_s=self.timeout_s,
            base_seed=self.seed,
        ).run()
        if shard_report.failed:
            return ServiceResult(
                schedule, calib_report=calib_report, shard_report=shard_report
            )

        by_rep = {}
        for outcome in shard_report.outcomes:
            kwargs = outcome.job.kwargs_dict
            by_rep.setdefault(kwargs["repetition"], []).append(
                outcome.tables()[0]
            )
        rows: List[dict] = []
        for rep in sorted(by_rep):
            arrivals = generate_arrivals(schedule, rep_seed(self.seed, rep))
            demands = merge_shard_demands(by_rep[rep])
            outcomes = run_service(schedule, demand_stream(arrivals, demands))
            rows.extend(window_rows(schedule, rep, outcomes))

        write_run_table(
            str(out_dir / "run_table.csv"), str(out_dir / "run_table.jsonl"),
            schedule, self.seed, self.repetitions, rows,
        )
        # artifacts cover both phases: calibration first (it holds the
        # sim journeys), then the shard demand jobs
        combined = CampaignReport(
            outcomes=calib_report.outcomes + shard_report.outcomes,
            wall_clock_s=calib_report.wall_clock_s + shard_report.wall_clock_s,
            workers=self.shards,
        )
        combined.write_artifacts(
            out_dir,
            params={"schedule": schedule.name, "seed": self.seed,
                    "shards": self.shards, "repetitions": self.repetitions},
            name=f"service:{schedule.name}",
        )
        return ServiceResult(
            schedule, rows=rows,
            calib_report=calib_report, shard_report=shard_report,
        )
