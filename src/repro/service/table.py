"""Run-table artifacts: the service twin's per-window scorecard.

One service run produces two artifacts describing the same grid — a
``run_table.csv`` for spreadsheets and plotting, and a
``repro.service/v1`` JSONL for tooling — with **one row per
(run, repetition, window)**.  Every row answers the capacity question
directly: what was offered, what was achieved, what was shed, and what
did admitted requests pay in queue delay and end-to-end latency.

Both artifacts are a pure function of the schedule, the seed and the
calibration: rerunning the same schedule and seed, with a cold or a warm
result cache, reproduces both files byte for byte — CI asserts exactly
that.

Column reference lives in ``docs/service.md``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from ..telemetry import bucket_of, nearest_rank, sparkline
from .loop import RequestOutcome
from .schedule import PS_PER_MS, ArrivalSchedule, SERVICE_SCHEMA

#: CSV header, in emission order (schedules with tenant SLO targets
#: append one ``slo_<tenant>`` verdict column per target — see
#: :func:`run_table_columns`)
RUN_TABLE_COLUMNS = [
    "run",
    "repetition",
    "window",
    "window_start_ms",
    "window_end_ms",
    "offered",
    "offered_rps",
    "admitted",
    "completed",
    "achieved_rps",
    "shed",
    "shed_rate",
    "failed",
    "failure_rate",
    "queue_delay_mean_ms",
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "occupancy_mean",
]


def run_table_columns(schedule: ArrivalSchedule) -> List[str]:
    """The emission column order for one schedule.

    The base grid plus one ``slo_<tenant>`` verdict column per tenant
    that declares ``slo_p99_ms``, in schedule tenant order.  Schedules
    without targets keep the historical column set exactly, so existing
    artifacts and their consumers are untouched.
    """
    return list(RUN_TABLE_COLUMNS) + [
        f"slo_{t.name}" for t in schedule.tenants if t.slo_p99_ms is not None
    ]


def window_rows(
    schedule: ArrivalSchedule,
    repetition: int,
    outcomes: Sequence[RequestOutcome],
) -> List[dict]:
    """The run-table rows of one repetition.

    Arrival-side counts (offered/admitted/shed, queue delay) bin by
    arrival time; completion-side stats (completed, achieved rate,
    latency percentiles) bin by completion time, with completions
    draining after the schedule ends clamped into the last window.
    Occupancy is busy-server-time inside the window over window
    capacity, so a saturated window reads 1.0.

    Tenants with an ``slo_p99_ms`` target get a per-window verdict
    column: ``met``/``missed`` against the tenant's p99 over its own
    completions in the window, or the empty string when the tenant
    completed nothing there (no evidence either way).
    """
    nwin = schedule.windows()
    width_ps = int(schedule.window_ms * PS_PER_MS)
    offered = [0] * nwin
    admitted = [0] * nwin
    shed = [0] * nwin
    failed = [0] * nwin
    completed = [0] * nwin
    queue_delay_ps = [0] * nwin
    latencies: List[List[int]] = [[] for _ in range(nwin)]
    busy_ps = [0.0] * nwin
    slo_tenants = [t for t in schedule.tenants if t.slo_p99_ms is not None]
    tenant_lat: Dict[str, List[List[int]]] = {
        t.name: [[] for _ in range(nwin)] for t in slo_tenants
    }

    for out in outcomes:
        w_arr = bucket_of(out.t_ps, 0, width_ps, nwin)
        offered[w_arr] += 1
        if not out.admitted:
            shed[w_arr] += 1
            continue
        admitted[w_arr] += 1
        queue_delay_ps[w_arr] += out.queue_delay_ps
        if out.status == "failed":
            failed[w_arr] += 1
        w_done = bucket_of(out.done_ps, 0, width_ps, nwin)
        completed[w_done] += 1
        latencies[w_done].append(out.latency_ps)
        if out.tenant in tenant_lat:
            tenant_lat[out.tenant][w_done].append(out.latency_ps)
        # busy time: clip the service interval to each window it spans
        start = out.done_ps - out.service_ps
        if out.service_ps > 0:
            first = bucket_of(start, 0, width_ps, nwin)
            last = bucket_of(out.done_ps - 1, 0, width_ps, nwin)
            for w in range(first, last + 1):
                w0, w1 = w * width_ps, (w + 1) * width_ps
                if w == nwin - 1:
                    w1 = max(w1, out.done_ps)  # last window absorbs overrun
                busy_ps[w] += max(0, min(out.done_ps, w1) - max(start, w0))

    window_s = width_ps / 1e12
    rows = []
    for w in range(nwin):
        ordered = sorted(latencies[w])
        slo_cells = {}
        for tenant in slo_tenants:
            mine = sorted(tenant_lat[tenant.name][w])
            if not mine:
                slo_cells[f"slo_{tenant.name}"] = ""
            else:
                p99_ps = nearest_rank(mine, 99)
                met = p99_ps <= tenant.slo_p99_ms * PS_PER_MS
                slo_cells[f"slo_{tenant.name}"] = "met" if met else "missed"
        rows.append({
            "run": schedule.name,
            "repetition": repetition,
            "window": w,
            "window_start_ms": w * width_ps / PS_PER_MS,
            "window_end_ms": (w + 1) * width_ps / PS_PER_MS,
            "offered": offered[w],
            "offered_rps": offered[w] / window_s,
            "admitted": admitted[w],
            "completed": completed[w],
            "achieved_rps": completed[w] / window_s,
            "shed": shed[w],
            "shed_rate": shed[w] / offered[w] if offered[w] else 0.0,
            "failed": failed[w],
            "failure_rate": failed[w] / admitted[w] if admitted[w] else 0.0,
            "queue_delay_mean_ms": (
                queue_delay_ps[w] / admitted[w] / PS_PER_MS
                if admitted[w] else 0.0
            ),
            "latency_p50_ms": nearest_rank(ordered, 50) / PS_PER_MS,
            "latency_p95_ms": nearest_rank(ordered, 95) / PS_PER_MS,
            "latency_p99_ms": nearest_rank(ordered, 99) / PS_PER_MS,
            "occupancy_mean": busy_ps[w] / (width_ps * schedule.servers),
            **slo_cells,
        })
    return rows


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def render_run_table_csv(
    rows: Sequence[dict], columns: Optional[Sequence[str]] = None
) -> str:
    """The CSV artifact as a string (fixed column order, 6-digit floats)."""
    columns = list(columns) if columns is not None else RUN_TABLE_COLUMNS
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row[col]) for col in columns))
    return "\n".join(lines) + "\n"


def run_table_records(
    schedule: ArrivalSchedule,
    seed: int,
    repetitions: int,
    rows: Sequence[dict],
) -> List[dict]:
    """The ``repro.service/v1`` JSONL records mirroring the CSV.

    The meta record carries the full schedule (provenance), the seed and
    the repetition count — nothing of how or where the run executed.
    """
    columns = run_table_columns(schedule)
    slo_columns = columns[len(RUN_TABLE_COLUMNS):]
    records: List[dict] = [{
        "schema": SERVICE_SCHEMA,
        "kind": "meta",
        "schedule": schedule.to_dict(),
        "seed": seed,
        "repetitions": repetitions,
        "columns": columns,
    }]
    for row in rows:
        records.append({"kind": "window", **row})
    for rep in range(repetitions):
        mine = [r for r in rows if r["repetition"] == rep]
        offered = sum(r["offered"] for r in mine)
        record = {
            "kind": "repetition",
            "repetition": rep,
            "offered": offered,
            "completed": sum(r["completed"] for r in mine),
            "shed": sum(r["shed"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "peak_queue_delay_ms": max(
                (r["queue_delay_mean_ms"] for r in mine), default=0.0
            ),
            "overloaded_windows": sum(
                1 for r in mine
                if r["shed"] > 0 or r["completed"] < r["offered"]
            ),
        }
        if slo_columns:
            record["slo_missed_windows"] = sum(
                1 for r in mine
                if any(r.get(col) == "missed" for col in slo_columns)
            )
        records.append(record)
    return records


def write_run_table(path_csv: str, path_jsonl: str, schedule, seed, repetitions,
                    rows) -> None:
    """Emit both artifacts (newline-terminated, sorted-key JSON)."""
    with open(path_csv, "w", encoding="utf-8") as fh:
        fh.write(render_run_table_csv(rows, run_table_columns(schedule)))
    records = run_table_records(schedule, seed, repetitions, rows)
    with open(path_jsonl, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def render_summary(schedule: ArrivalSchedule, rows: Sequence[dict]) -> str:
    """A terminal digest: offered vs achieved sparklines per repetition."""
    lines = [f"service run: {schedule.name} "
             f"({schedule.servers} server(s), queue<={schedule.queue_limit})"]
    reps = sorted({r["repetition"] for r in rows})
    for rep in reps:
        mine = [r for r in rows if r["repetition"] == rep]
        shed = sum(r["shed"] for r in mine)
        total = sum(r["offered"] for r in mine)
        lines += [
            f"  rep {rep}: offered {total}, shed {shed} "
            f"({100 * shed / total if total else 0:.1f}%)",
            "    offered  " + sparkline([r["offered_rps"] for r in mine]),
            "    achieved " + sparkline([r["achieved_rps"] for r in mine]),
            "    queue ms " + sparkline([r["queue_delay_mean_ms"] for r in mine]),
        ]
        for tenant in schedule.tenants:
            if tenant.slo_p99_ms is None:
                continue
            col = f"slo_{tenant.name}"
            judged = sum(1 for r in mine if r.get(col))
            met = sum(1 for r in mine if r.get(col) == "met")
            lines.append(
                f"    slo {tenant.name}: {met}/{judged} windows met "
                f"(p99 <= {tenant.slo_p99_ms:g} ms)"
            )
    return "\n".join(lines)
