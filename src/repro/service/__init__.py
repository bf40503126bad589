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

A run is one cached campaign job — the calibration, its only simulator
work — and then, in-process, one demand draw and service-loop replay
per repetition; the same schedule and seed produce byte-identical run
tables, cold or warm.  ``scripts/run_service.py`` is the CLI; the format
and column reference live in ``docs/service.md``.
"""

from .._lazy import lazy_exports

#: public name -> submodule imported on first access (PEP 562): the CLI
#: and the driver load no simulator; only the calibration job does
_EXPORTS = {
    "Arrival": ".schedule",
    "ArrivalSchedule": ".schedule",
    "CALIBRATION_COLUMNS": ".profile",
    "OUTCOME_STATUSES": ".loop",
    "PHASE_KINDS": ".schedule",
    "PS_PER_MS": ".schedule",
    "Phase": ".schedule",
    "REQUEST_CLASSES": ".schedule",
    "RUN_TABLE_COLUMNS": ".table",
    "RequestOutcome": ".loop",
    "SERVICE_SCHEMA": ".schedule",
    "SYSTEM_CLASSES": ".classes",
    "ServiceDriver": ".driver",
    "ServiceLoop": ".loop",
    "ServiceProfile": ".profile",
    "ServiceResult": ".driver",
    "Tenant": ".schedule",
    "calibrate": ".classes",
    "calibrate_classes": ".classes",
    "calibration_seed": ".classes",
    "draw_demand": ".profile",
    "generate_arrivals": ".schedule",
    "profiles_from_table": ".profile",
    "render_run_table_csv": ".table",
    "render_summary": ".table",
    "rep_seed": ".schedule",
    "repetition_rows": ".driver",
    "run_service": ".loop",
    "run_service_calibrate": ".classes",
    "run_table_columns": ".table",
    "run_table_records": ".table",
    "window_rows": ".table",
    "write_run_table": ".table",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
