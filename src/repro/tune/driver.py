"""The tune driver: rung batches through the campaign engine.

Each searcher batch becomes a list of ``tune_trial`` campaign jobs, so a
tuning run inherits the whole campaign contract: process-pool
parallelism, retry/timeout, content-addressed caching, and a JSONL
manifest per rung (``manifest-rung<r>.jsonl``).  Re-running a spec is a
near-total cache hit; re-running one killed mid-rung finishes it —
finished trials replay from the cache, only the missing ones execute.
Every trial's journeys merge into one exact ``attribution.jsonl``.

Every trial runs under the *same* seed (common random numbers): configs
at a given rung see the identical operation stream, so tail-latency
comparisons are paired — a difference in p99 is caused by the config,
not by which addresses the trial happened to draw.  The cache still
distinguishes trials because the config rides in the job kwargs.  The
stream is also prefix-stable in ``samples``, so a promoted config's
higher-rung measurement extends its rung-0 run instead of reshuffling
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..campaign import CampaignJob, CampaignRunner, ResultCache
from ..campaign.runner import CampaignReport, JobOutcome
from .pareto import (
    common_rung_objectives,
    front_keys,
    objectives_of,
    pareto_records,
    select_winner,
    write_pareto,
    write_report_csv,
)
from .search import TrialState, make_searcher
from .space import TuneSpec, canonical_config


@dataclass
class TuneReport:
    """The completed search: trial states, front, winner, campaign stats."""

    spec: TuneSpec
    seed: int
    trials: List[TrialState]
    front: List[str]
    winner: Optional[TrialState]
    baseline: Optional[TrialState]
    rung_summaries: List[str]
    campaign: CampaignReport

    @property
    def jobs(self) -> int:
        return len(self.campaign.outcomes)

    @property
    def cache_hits(self) -> int:
        return self.campaign.cache_hits

    @property
    def failed(self) -> List[JobOutcome]:
        return self.campaign.failed

    def matched_comparison(self) -> Optional[Tuple[float, float]]:
        """``(winner, baseline)`` primary values at their deepest common rung.

        A rung-2 p99 over 144 samples probes a deeper tail than a rung-0
        p99 over 16, so the winner-vs-baseline comparison only means
        something at a shared budget.
        """
        if (
            self.winner is None
            or self.baseline is None
            or self.baseline.status != "ok"
        ):
            return None
        pair = common_rung_objectives(self.winner, self.baseline)
        if pair is None:
            return None
        primary = self.spec.objectives[0]
        return pair[0][primary.metric], pair[1][primary.metric]

    def improvement_pct(self) -> Optional[float]:
        """Primary-objective gain of the winner over the baseline config."""
        pair = self.matched_comparison()
        if pair is None:
            return None
        best, base = pair
        if base == 0:
            return None
        primary = self.spec.objectives[0]
        gain = (base - best) / abs(base)
        return 100.0 * (gain if primary.goal == "min" else -gain)

    def render(self) -> str:
        objectives = ", ".join(
            f"{o.metric}({o.goal})" for o in self.spec.objectives
        )
        lines = [
            f"tune {self.spec.name}: {self.spec.searcher} search over "
            f"{len(self.trials)} config(s), workload {self.spec.workload}, "
            f"objectives {objectives}",
        ]
        lines += self.rung_summaries
        metrics = [o.metric for o in self.spec.objectives]
        front_set = set(self.front)
        lines.append(f"Pareto front ({len(self.front)} of {len(self.trials)}):")
        for trial in self.trials:
            if trial.key not in front_set:
                continue
            values = "  ".join(
                f"{m}={trial.objectives[m]:.3f}" for m in metrics
            )
            lines.append(f"  {trial.key}  {values}")
        primary = self.spec.objectives[0]
        if self.winner is not None:
            lines.append(
                f"winner: {self.winner.key}  "
                f"{primary.metric}={self.winner.objectives[primary.metric]:.3f} "
                f"(rung {self.winner.rung}, {self.winner.samples} samples)"
            )
        pair = self.matched_comparison()
        if pair is not None:
            best, base = pair
            gain = self.improvement_pct()
            lines.append(
                f"baseline: {self.baseline.key}  {primary.metric}={base:.3f}"
            )
            if gain is not None:
                lines.append(
                    f"winner vs baseline on {primary.metric} at matched "
                    f"budget: {best:.3f} vs {base:.3f} "
                    f"({gain:+.1f}%, {'better' if gain > 0 else 'not better'})"
                )
        return "\n".join(lines)


class TuneDriver:
    """Drive one spec to completion over the campaign engine."""

    def __init__(
        self,
        spec: TuneSpec,
        seed: int = 0,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        out_dir: Optional[str] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        faults: Optional[str] = None,
    ):
        self.spec = spec
        self.seed = seed
        self.workers = workers
        self.cache = cache
        self.out_dir = Path(out_dir) if out_dir else None
        self.timeout_s = timeout_s
        self.retries = retries
        self.faults = faults

    # -- job construction ---------------------------------------------------

    def _jobs(self, batch) -> List[CampaignJob]:
        jobs = []
        for entry in batch:
            kwargs = {
                "config": entry.key,
                "workload": self.spec.workload,
                "samples": entry.samples,
                "depth": self.spec.depth,
            }
            if self.faults:
                kwargs["faults"] = self.faults
            # every trial shares the search seed: common random numbers
            # make cross-config comparisons paired (see module docstring)
            jobs.append(CampaignJob.make("tune_trial", kwargs, seed=self.seed))
        return jobs

    # -- execution ----------------------------------------------------------

    def run(self) -> TuneReport:
        searcher = make_searcher(self.spec)
        if self.out_dir:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        outcomes: List[JobOutcome] = []
        wall_clock = 0.0
        rung_summaries: List[str] = []
        rung = 0
        while True:
            batch = searcher.next_batch()
            if batch is None:
                break
            jobs = self._jobs(batch)
            manifest = (
                str(self.out_dir / f"manifest-rung{rung}.jsonl")
                if self.out_dir
                else None
            )
            runner = CampaignRunner(
                jobs,
                workers=self.workers,
                cache=self.cache,
                manifest_path=manifest,
                timeout_s=self.timeout_s,
                retries=self.retries,
                base_seed=self.seed,
            )
            report = runner.run()
            results: Dict[str, Optional[Dict[str, float]]] = {}
            for outcome in report.outcomes:
                key = outcome.job.kwargs_dict["config"]
                if outcome.ok:
                    results[key] = objectives_of(outcome.tables()[0])
                else:
                    results[key] = None
                    searcher.trials[key].error = outcome.error
            searcher.observe(results)
            outcomes.extend(report.outcomes)
            wall_clock += report.wall_clock_s
            rung_summaries.append(
                f"rung {rung}: {len(jobs)} trial(s) @ {batch[0].samples} "
                f"samples — {len(report.succeeded)} ok, "
                f"{report.cache_hits} from cache, {len(report.failed)} failed"
            )
            rung += 1

        trials = sorted(searcher.trials.values(), key=lambda t: t.key)
        evaluated = [t for t in trials if t.status != "pending"]
        campaign = CampaignReport(outcomes, wall_clock, self.workers)
        front = front_keys(evaluated, self.spec.objectives)
        winner = select_winner(evaluated, self.spec.objectives)
        baseline = searcher.trials.get(
            canonical_config(self.spec.baseline_config())
        )
        if self.out_dir:
            write_pareto(
                str(self.out_dir / "pareto.jsonl"),
                pareto_records(self.spec, evaluated, self.seed),
            )
            write_report_csv(
                str(self.out_dir / "tune_report.csv"), self.spec, evaluated
            )
            campaign.write_artifacts(
                self.out_dir,
                params={
                    "spec": self.spec.name,
                    "workload": self.spec.workload,
                    "searcher": self.spec.searcher,
                    "seed": self.seed,
                },
                name=f"tune:{self.spec.name}",
            )
        return TuneReport(
            spec=self.spec,
            seed=self.seed,
            trials=evaluated,
            front=front,
            winner=winner,
            baseline=baseline,
            rung_summaries=rung_summaries,
            campaign=campaign,
        )
