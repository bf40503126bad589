"""JSONL run artifacts: the machine-readable record of what a run did.

One artifact is a newline-delimited JSON stream, schema-versioned so
downstream tooling can evolve without guessing.  Record kinds:

``meta``
    One per file, first: experiment name, parameters, schema version.
``result``
    A serialized :class:`~repro.core.results.ResultTable` (title, columns,
    rows, notes) — the same numbers the experiment printed.
``snapshot``
    One flat metrics snapshot (see ``docs/telemetry.md`` for the key
    naming scheme).  The **last** snapshot in the file is the run's final
    state.

Everything is stdlib-only and value types are coerced to plain
JSON-serializable Python before writing, so numpy scalars in result
tables round-trip as numbers.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: bump when record shapes change incompatibly
SCHEMA_VERSION = 1

#: the schema identifier stamped on every record
SCHEMA = f"repro.telemetry/v{SCHEMA_VERSION}"


def _plain(value):
    """Coerce a cell to a JSON-serializable plain value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # numpy scalars (and anything else numeric) expose item() or __float__
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _plain(item())
        except (TypeError, ValueError):
            pass
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def meta_record(experiment: str, params: Optional[dict] = None, **extra) -> dict:
    record = {
        "schema": SCHEMA,
        "kind": "meta",
        "experiment": experiment,
        "params": {k: _plain(v) for k, v in (params or {}).items()},
    }
    for key, value in extra.items():
        record[key] = _plain(value)
    return record


def snapshot_record(
    label: str, ts_ps: Optional[int], metrics: Dict[str, float]
) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "snapshot",
        "label": label,
        "ts_ps": ts_ps,
        "metrics": {k: _plain(v) for k, v in metrics.items()},
    }


def result_record(table) -> dict:
    """Serialize a ResultTable-shaped object (title/columns/rows/notes)."""
    return {
        "schema": SCHEMA,
        "kind": "result",
        "title": table.title,
        "columns": list(table.columns),
        "rows": [[_plain(cell) for cell in row] for row in table.rows],
        "notes": list(table.notes),
    }


def write_jsonl(path: str, records: List[dict]) -> int:
    """Write one JSON record per line; returns the record count."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
    return len(records)


def final_snapshot(records: List[dict]) -> Optional[dict]:
    """The last snapshot record of an artifact, or None."""
    for record in reversed(records):
        if record.get("kind") == "snapshot":
            return record
    return None
