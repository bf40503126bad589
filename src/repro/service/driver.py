"""One callable service run: calibrate once, then replay each repetition.

``scripts/run_service.py`` and the suite runner both run a schedule
through :class:`ServiceDriver`, so suites drive services through the
exact code path the CLI exercises.  A run is two steps:

1. one ``service_calibrate`` campaign job measures every request class
   the schedule's tenants reference.  It is the run's only simulator
   work, and it is cached and journaled in ``manifest.jsonl`` like any
   campaign job;
2. in this process, each repetition draws its requests' demands from
   those profiles and replays them through the service loop
   (:func:`repetition_rows`).

The driver writes ``run_table.csv`` / ``run_table.jsonl`` and the
calibration job's ``metrics.jsonl`` / ``attribution.jsonl``.  A failed
calibration short-circuits — the result carries the failed outcome and
no run table is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from .loop import run_service
from .profile import ServiceProfile, draw_demand, profiles_from_table
from .schedule import ArrivalSchedule, generate_arrivals, rep_seed
from .table import render_summary, window_rows, write_run_table


def repetition_rows(
    schedule: ArrivalSchedule,
    profiles: Dict[str, ServiceProfile],
    seed: int,
    repetition: int,
) -> List[dict]:
    """The run-table rows of one repetition.

    Generates the repetition's arrivals, draws each request's demand from
    its class profile (:func:`~repro.service.profile.draw_demand`), runs
    the bounded-queue service loop over the whole stream and bins the
    outcomes into windows.  ``profiles`` must cover every class the
    schedule's tenants reference.
    """
    repetition_seed = rep_seed(seed, repetition)
    demands = (
        (arrival, *draw_demand(arrival, profiles[arrival.klass], repetition_seed))
        for arrival in generate_arrivals(schedule, repetition_seed)
    )
    return window_rows(schedule, repetition, run_service(schedule, demands))


@dataclass
class ServiceResult:
    """What one service run produced (or where it stopped)."""

    schedule: ArrivalSchedule
    calib_report: object  # the calibration job's CampaignReport
    rows: List[dict] = field(default_factory=list)

    @property
    def failed(self) -> list:
        """The failed calibration outcome, if the run stopped there."""
        return self.calib_report.failed

    def render(self) -> str:
        """The terminal digest (sparklines + SLO lines)."""
        return render_summary(self.schedule, self.rows)


class ServiceDriver:
    """Run one arrival schedule: a calibration job, then the service loop.

    Parameters mirror the ``run_service.py`` flags: ``faults`` is the
    canonical fault-plan JSON string (see
    :func:`repro.report.load_fault_plan`), ``cache`` a shared
    :class:`~repro.campaign.ResultCache` or ``None``.  ``retries`` goes
    to the calibration job's :class:`~repro.campaign.CampaignRunner`
    (the CLI keeps its default; a suite passes its own).
    """

    def __init__(
        self,
        schedule,
        *,
        out_dir,
        seed: int = 0,
        repetitions: int = 1,
        calib_samples: int = 24,
        faults: Optional[str] = None,
        cache=None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
    ) -> None:
        if repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if calib_samples < 1:
            raise ConfigurationError("calib_samples must be >= 1")
        self.schedule = ArrivalSchedule.load(schedule)
        self.out_dir = Path(out_dir)
        self.seed = seed
        self.repetitions = repetitions
        self.calib_samples = calib_samples
        self.faults = faults
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = retries

    def run(self) -> ServiceResult:
        """Calibrate, replay every repetition, write the artifacts."""
        # local: the CLI's --help then loads no campaign runner
        from ..campaign import CampaignJob, CampaignRunner

        schedule = self.schedule
        out_dir = self.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

        kwargs = {
            "classes": ",".join(sorted({t.klass for t in schedule.tenants})),
            "calib_samples": self.calib_samples,
        }
        if self.faults is not None:
            kwargs["faults"] = self.faults
        report = CampaignRunner(
            [CampaignJob.make("service_calibrate", kwargs, seed=self.seed)],
            cache=self.cache,
            manifest_path=str(out_dir / "manifest.jsonl"),
            timeout_s=self.timeout_s,
            retries=self.retries,
            base_seed=self.seed,
        ).run()
        if report.failed:
            return ServiceResult(schedule, report)

        profiles = profiles_from_table(report.outcomes[0].tables()[0])
        rows = [
            row
            for rep in range(self.repetitions)
            for row in repetition_rows(schedule, profiles, self.seed, rep)
        ]
        write_run_table(
            str(out_dir / "run_table.csv"), str(out_dir / "run_table.jsonl"),
            schedule, self.seed, self.repetitions, rows,
        )
        report.write_artifacts(
            out_dir,
            params={"schedule": schedule.name, "seed": self.seed,
                    "repetitions": self.repetitions},
            name=f"service:{schedule.name}",
        )
        return ServiceResult(schedule, report, rows)
