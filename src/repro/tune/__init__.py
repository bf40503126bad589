"""Memory-config autotuner: budgeted search over the campaign engine.

A declarative :class:`TuneSpec` (JSON, schema ``repro.tune/v1``) names a
search space over the memory subsystem's tunable knobs — Table-2-style
buffer latency settings, DDR timing parameters, write-cache geometry,
DMI tag/replay depths — one or more objectives, and a budget.  A
searcher (exhaustive grid or successive halving) proposes rung batches
that the :class:`TuneDriver` evaluates as hidden ``tune_trial`` campaign
jobs, so every trial gets deterministic seeding, process-pool
parallelism, retry/timeout, and content-addressed caching for free.
Results land as ``pareto.jsonl`` + ``tune_report.csv`` artifacts whose
bytes are independent of worker count.

    from repro.tune import TuneDriver, TuneSpec

    spec = TuneSpec.from_json(open("tunespecs/example.json").read())
    report = TuneDriver(spec, seed=42, workers=4).run()
    print(report.render())

See ``docs/tuning.md`` for the spec format, the knob catalogue, and the
artifact schemas; ``scripts/run_tune.py`` is the CLI.
"""

from .._lazy import lazy_exports

#: public name -> submodule imported on first access (PEP 562): reading
#: a spec loads neither the trial runner's system stack nor the driver's
#: campaign engine
_EXPORTS = {
    "BatchEntry": ".search",
    "Budget": ".space",
    "GridSearcher": ".search",
    "KNOBS": ".space",
    "Knob": ".space",
    "OBJECTIVE_METRICS": ".space",
    "Objective": ".space",
    "SuccessiveHalvingSearcher": ".search",
    "TUNE_SCHEMA": ".space",
    "TUNE_SCHEMA_VERSION": ".space",
    "TrialState": ".search",
    "TuneDriver": ".driver",
    "TuneReport": ".driver",
    "TuneSpec": ".space",
    "WORKLOADS": ".space",
    "canonical_config": ".space",
    "check_workload_knobs": ".space",
    "common_rung_objectives": ".pareto",
    "dominates": ".pareto",
    "front_keys": ".pareto",
    "make_searcher": ".search",
    "mark_dominated": ".pareto",
    "materialize": ".trial",
    "objectives_of": ".pareto",
    "pareto_records": ".pareto",
    "run_tune_trial": ".trial",
    "select_winner": ".pareto",
    "validate_config": ".space",
    "write_pareto": ".pareto",
    "write_report_csv": ".pareto",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
