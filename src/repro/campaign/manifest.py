"""The campaign manifest: a JSONL journal of what each job did.

One ``campaign`` header record, then one ``job`` record per completed
attempt, written as jobs finish and flushed per record (a crash
mid-campaign loses at most the in-flight jobs).  Schema::

    {"schema": "repro.campaign/v1", "kind": "campaign", "base_seed": ...,
     "fingerprint": ..., "jobs": <total>}
    {"schema": "repro.campaign/v1", "kind": "job", "job_id": ...,
     "experiment": ..., "kwargs": {...}, "seed": ..., "key": <cache key>,
     "status": "ok"|"failed", "source": "run"|"cache", "attempts": N,
     "duration_s": ..., "error": ...?, "traceback": ...?}

Each run writes a fresh manifest.  Re-running a campaign with the same
result cache is how an interrupted one finishes: every job that
succeeded replays from the cache (source ``cache``) and the rest run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional

#: bump when record shapes change incompatibly
SCHEMA = "repro.campaign/v1"


def campaign_record(base_seed: int, fingerprint: str, total_jobs: int) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "campaign",
        "base_seed": base_seed,
        "fingerprint": fingerprint,
        "jobs": total_jobs,
    }


def job_record(
    job,
    key: str,
    status: str,
    source: str,
    attempts: int,
    duration_s: float,
    error: Optional[str] = None,
    traceback: Optional[str] = None,
) -> dict:
    record = {
        "schema": SCHEMA,
        "kind": "job",
        "job_id": job.job_id,
        "experiment": job.experiment,
        "kwargs": job.kwargs_dict,
        "seed": job.seed,
        "key": key,
        "status": status,
        "source": source,
        "attempts": attempts,
        "duration_s": round(duration_s, 6),
    }
    if error:
        record["error"] = error
    if traceback:
        record["traceback"] = traceback
    return record


class ManifestWriter:
    """JSONL writer, flushed per record."""

    def __init__(self, path: str):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":"), default=str))
        self._fh.write("\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "ManifestWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_manifest(path: str) -> List[dict]:
    """Every record of a manifest; missing file ⇒ empty, bad lines skipped.

    Tolerating a torn final line matters: a manifest may have been
    written right up to a crash.
    """
    records: List[dict] = []
    manifest = Path(path)
    if not manifest.exists():
        return records
    with open(manifest, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def canonical_manifest(records: List[dict]) -> List[dict]:
    """The deterministic core of a manifest: what a reproducible campaign
    must agree on across runs and worker counts.

    Keeps the campaign header and one record per job (latest wins),
    sorted by job_id, with the nondeterministic fields — wall-clock
    ``duration_s``, retry ``attempts``, ``source`` (cache vs run), and
    failure tracebacks — stripped.  Two campaigns of the same matrix,
    plan, and seed produce equal canonical manifests regardless of
    ``--jobs``, caching, or scheduling order.
    """
    header: Optional[dict] = None
    jobs: Dict[str, dict] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "campaign" and header is None:
            header = dict(record)
        elif kind == "job":
            cleaned = {
                k: v for k, v in record.items()
                if k not in ("duration_s", "attempts", "source", "traceback")
            }
            jobs[record.get("job_id", "")] = cleaned
    out = [header] if header is not None else []
    return out + [jobs[jid] for jid in sorted(jobs)]
