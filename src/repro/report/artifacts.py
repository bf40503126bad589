"""One loader for every JSONL artifact the repo emits.

``analyze_latency.py`` resolved inputs and merged journeys its own way,
and every CLI that takes ``--faults`` re-implemented plan loading.  Worse,
the copies disagreed on malformed input: some paths raised a bare
``json.JSONDecodeError`` with no file context, and ad-hoc readers
skipped bad lines silently.  This module is the single shared
implementation with one explicit policy:

* **strict** (default) — a malformed line raises
  :class:`~repro.errors.ArtifactError` naming the file and line;
* **lenient** (``malformed="skip"``) — bad lines are skipped but
  *counted and returned*, so callers can surface a warning instead of
  quietly analyzing a truncated artifact.

Blank lines are tolerated everywhere (artifacts are append-journaled;
a crash can leave a trailing newline).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import ArtifactError, ConfigurationError
from ..telemetry import merge_attribution
from ..telemetry.attribution import journey_records

#: malformed-line policies :func:`read_artifact` accepts
MALFORMED_POLICIES = ("error", "skip")


def read_artifact(
    path, malformed: str = "error"
) -> Tuple[List[dict], List[int]]:
    """Load a JSONL artifact; returns ``(records, skipped line numbers)``.

    ``malformed="error"`` (default) raises :class:`ArtifactError` with
    file and line context on the first bad line; ``malformed="skip"``
    collects the 1-based line numbers of unparseable lines instead.
    Records that parse but are not JSON objects count as malformed —
    every artifact schema in this repo is a stream of objects.
    """
    if malformed not in MALFORMED_POLICIES:
        raise ValueError(
            f"malformed must be one of {MALFORMED_POLICIES}, got {malformed!r}"
        )
    records: List[dict] = []
    skipped: List[int] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not a JSON object")
            except ValueError as exc:
                if malformed == "error":
                    raise ArtifactError(
                        f"{path}:{lineno}: malformed artifact line ({exc})"
                    ) from exc
                skipped.append(lineno)
                continue
            records.append(record)
    return records, skipped


def resolve_artifact(arg, filename: str = "attribution.jsonl") -> Path:
    """Accept an artifact file or a directory holding ``filename``."""
    path = Path(arg)
    if path.is_dir():
        candidate = path / filename
        if not candidate.exists():
            raise ArtifactError(f"{path} has no {filename}")
        return candidate
    if not path.exists():
        raise ArtifactError(f"no such artifact: {path}")
    return path


def load_journeys(
    paths: Sequence, malformed: str = "error"
) -> Tuple[List[dict], List[str]]:
    """Journey records across all inputs; merged when there are several.

    Returns ``(journeys, warnings)``.  The merge is the deterministic
    campaign merge — sources sorted by label, journeys tagged with their
    source — so feeding two per-worker artifacts or two campaign outputs
    produces identical bytes regardless of argument order.
    """
    warnings: List[str] = []

    def one(path) -> List[dict]:
        records, skipped = read_artifact(path, malformed=malformed)
        if skipped:
            warnings.append(
                f"{path}: skipped {len(skipped)} malformed line(s) "
                f"(first at line {skipped[0]})"
            )
        return journey_records(records)

    if len(paths) == 1:
        return one(paths[0]), warnings
    sources = [(str(p), one(p)) for p in paths]
    return journey_records(merge_attribution(sources)), warnings


def load_fault_plan(path) -> str:
    """Read a fault-plan JSON file to its canonical string form.

    The canonical form is what rides in campaign-job kwargs (hashable,
    cache-key stable) — every ``--faults`` CLI flag funnels through
    here.  Raises :class:`ConfigurationError` on unreadable files or
    invalid plans, matching the error contract of the plan parser.
    """
    from ..faults import FaultPlan  # local: faults imports telemetry too

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read fault plan {path}: {exc}") from exc
    return FaultPlan.from_json(text).to_json()


def load_report(path) -> dict:
    """Load a ``report.json`` (or a suite out-dir containing one)."""
    resolved = resolve_artifact(path, filename="report.json")
    try:
        report = json.loads(resolved.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ArtifactError(f"{resolved}: not valid JSON ({exc})") from exc
    if not isinstance(report, dict) or "schema" not in report:
        raise ArtifactError(f"{resolved}: not a report.json (no schema field)")
    return report


def records_of_kind(records: Iterable[dict], kind: str) -> List[dict]:
    """The records of one ``kind`` in an artifact stream, in file order."""
    return [r for r in records if r.get("kind") == kind]


def first_meta(records: Sequence[dict]) -> Optional[dict]:
    """The stream's leading ``meta`` record, wherever it is."""
    for record in records:
        if record.get("kind") == "meta":
            return record
    return None
