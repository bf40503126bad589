"""Campaign engine: parallel, cached, fault-tolerant experiment sweeps.

Turns the one-table-at-a-time experiment harness into a scheduled
campaign: a declarative :class:`ScenarioMatrix` expands parameter grids
into individually seeded :class:`CampaignJob`s, a :class:`CampaignRunner`
executes them across a process pool with retries, per-job timeouts, and
a content-addressed :class:`ResultCache`, and every completion is
journaled to a JSONL manifest.  Re-running a crashed or interrupted
sweep with the same cache replays what finished and runs the rest.
Every job's counts and samples pool into one ``repro.telemetry/v1``
artifact, and its journeys into one ``repro.attribution/v1`` artifact.

    from repro.campaign import CampaignRunner, ResultCache, ScenarioMatrix

    matrix = ScenarioMatrix(base_seed=42)
    matrix.add("table3", samples=[8, 24, 96])
    runner = CampaignRunner(matrix.expand(), workers=4,
                            cache=ResultCache(".campaign-cache"))
    report = runner.run()
    for table in report.tables():
        print(table.format())

:func:`run_campaign` runs a job list into an output directory (manifest,
``experiments.md``, ``metrics.jsonl``, ``attribution.jsonl``), and
:func:`run_experiment` runs one experiment as a one-job campaign, with
the session its caller asks for.  See
``docs/campaign.md`` for the matrix format, manifest/cache layout,
and failure semantics; ``scripts/run_campaign.py`` is the CLI.
"""

from .._lazy import lazy_exports

#: public name -> submodule imported on first access (PEP 562): the
#: registry and matrix load without the runner's pool machinery, and no
#: experiment code loads until a job resolves its runner
_EXPORTS = {
    "ALIASES": ".registry",
    "CampaignJob": ".matrix",
    "CampaignReport": ".runner",
    "CampaignRunner": ".runner",
    "ExperimentSpec": ".registry",
    "JobOutcome": ".runner",
    "ManifestWriter": ".manifest",
    "ResultCache": ".cache",
    "ScenarioMatrix": ".matrix",
    "apply_fault_plan": ".matrix",
    "campaign_record": ".manifest",
    "canonical_kwargs": ".matrix",
    "canonical_manifest": ".manifest",
    "code_fingerprint": ".cache",
    "execute_job": ".worker",
    "experiment_names": ".registry",
    "get_experiment": ".registry",
    "job_key": ".cache",
    "job_record": ".manifest",
    "read_manifest": ".manifest",
    "run_campaign": ".runner",
    "run_experiment": ".runner",
    "tables_of": ".worker",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
