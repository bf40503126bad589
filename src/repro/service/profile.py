"""Calibrated service profiles and the forms they travel in.

A :class:`ServiceProfile` is one request class's empirical service-time
distribution, measured by :func:`~repro.service.classes.calibrate`.  It
leaves the calibration job as a result table (one row per sample) and
rides in every shard job's kwargs as canonical JSON.  The conversions
live here, apart from the calibration code, so the service driver that
folds and forwards profiles loads no simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from ..sim import Rng

#: columns of the calibration table (one row per calibrated sample)
CALIBRATION_COLUMNS = ["class", "sample", "service_ps", "ok"]


@dataclass(frozen=True)
class ServiceProfile:
    """Calibrated empirical service-time distribution of one class."""

    klass: str
    samples_ps: Tuple[int, ...]
    ok: Tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.samples_ps or len(self.samples_ps) != len(self.ok):
            raise ConfigurationError(
                f"profile {self.klass!r}: malformed sample set"
            )

    def draw(self, rng: Rng) -> Tuple[int, bool]:
        """One (service time ps, success) draw from the empirical set."""
        i = rng.randint(0, len(self.samples_ps) - 1)
        return self.samples_ps[i], self.ok[i]

    @property
    def mean_ps(self) -> float:
        return sum(self.samples_ps) / len(self.samples_ps)

    def to_dict(self) -> dict:
        return {
            "klass": self.klass,
            "samples_ps": list(self.samples_ps),
            "ok": [int(v) for v in self.ok],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceProfile":
        try:
            return cls(
                data["klass"],
                tuple(int(v) for v in data["samples_ps"]),
                tuple(bool(v) for v in data["ok"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed profile record: {exc}") from exc


def profiles_to_json(profiles: dict) -> str:
    """Canonical JSON of a ``{class: profile}`` map.

    Canonical (sorted keys, no whitespace) because the string rides in
    shard-job kwargs: the result cache keys on it, so the same profiles
    must always serialize to the same bytes.
    """
    return json.dumps(
        {klass: profiles[klass].to_dict() for klass in sorted(profiles)},
        sort_keys=True, separators=(",", ":"),
    )


def profiles_from_json(text: str) -> dict:
    """Parse a ``{class: profile}`` map written by :func:`profiles_to_json`."""
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad profiles JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("profiles JSON must be an object")
    return {klass: ServiceProfile.from_dict(rec) for klass, rec in raw.items()}


def profiles_from_table(table) -> Dict[str, ServiceProfile]:
    """Rebuild the ``{class: profile}`` map from a calibration
    :class:`~repro.core.results.ResultTable`."""
    samples: Dict[str, List[int]] = {}
    oks: Dict[str, List[bool]] = {}
    for row in table.rows:
        record = dict(zip(CALIBRATION_COLUMNS, row))
        samples.setdefault(record["class"], []).append(int(record["service_ps"]))
        oks.setdefault(record["class"], []).append(bool(record["ok"]))
    return {
        klass: ServiceProfile(klass, tuple(samples[klass]), tuple(oks[klass]))
        for klass in samples
    }
