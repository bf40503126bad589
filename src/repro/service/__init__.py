"""Twin-as-a-service: the simulated stack behind an open-loop load front.

The rest of the repo measures the memory subsystem one experiment at a
time.  This package runs it like an operator would run a fleet: a
declarative **arrival schedule** (diurnal ramps, flash crowds,
multi-tenant mixes) generates an open-loop request stream; **request
classes** calibrate what each operation costs by actually running it in
the simulator; a deterministic **service loop** admits arrivals through
a bounded queue onto ``c`` servers, shedding what will not fit; and a
**run table** reports offered vs achieved throughput, latency
percentiles, shed rate, and occupancy per time window.

Execution shards across campaign workers (one job per repetition ×
shard) and merges exactly — the same schedule and seed produce
byte-identical run tables for any shard count.  ``scripts/
run_service.py`` is the CLI; the format and column reference live in
``docs/service.md``.
"""

from .._lazy import lazy_exports

#: public name -> submodule imported on first access (PEP 562): the CLI
#: and the driver that fold profiles and merge shards load no simulator;
#: only calibration and the shard workers do
_EXPORTS = {
    "Arrival": ".schedule",
    "ArrivalSchedule": ".schedule",
    "CALIBRATION_COLUMNS": ".profile",
    "OUTCOME_STATUSES": ".loop",
    "PHASE_KINDS": ".schedule",
    "PS_PER_MS": ".schedule",
    "Phase": ".schedule",
    "REQUEST_CLASSES": ".classes",
    "RUN_TABLE_COLUMNS": ".table",
    "RequestOutcome": ".loop",
    "SERVICE_SCHEMA": ".schedule",
    "SHARD_COLUMNS": ".shard",
    "SYSTEM_CLASSES": ".classes",
    "ServiceDriver": ".driver",
    "ServiceLoop": ".loop",
    "ServiceProfile": ".profile",
    "ServiceResult": ".driver",
    "Tenant": ".schedule",
    "calibrate": ".classes",
    "calibrate_classes": ".shard",
    "calibration_seed": ".shard",
    "demand_stream": ".table",
    "draw_demand": ".shard",
    "generate_arrivals": ".schedule",
    "merge_shard_demands": ".table",
    "profiles_from_json": ".profile",
    "profiles_from_table": ".profile",
    "profiles_to_json": ".profile",
    "render_run_table_csv": ".table",
    "render_summary": ".table",
    "rep_seed": ".schedule",
    "run_service": ".loop",
    "run_service_calibrate": ".shard",
    "run_service_shard": ".shard",
    "run_table_columns": ".table",
    "run_table_records": ".table",
    "window_rows": ".table",
    "write_run_table": ".table",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
