"""Calibrated service profiles: what the service loop draws demands from.

A :class:`ServiceProfile` is one request class's empirical service-time
distribution, measured by :func:`~repro.service.classes.calibrate`.  It
leaves the calibration job as a result table (one row per sample);
:func:`profiles_from_table` folds the table back into profiles and
:func:`draw_demand` draws each request's demand from them.  Both live
here, apart from the calibration code, so the service driver loads no
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from ..sim import Rng
from ..sim.rng import derive_seed
from .schedule import Arrival

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


def draw_demand(
    arrival: Arrival, profile: ServiceProfile, repetition_seed: int
) -> Tuple[int, bool]:
    """One request's total service demand: ``ops`` profile draws.

    Seeded by the request's global index in its repetition, so a
    request's demand does not depend on which other requests are drawn.
    """
    rng = Rng(derive_seed(repetition_seed, f"req{arrival.index}"), "svc.req")
    total_ps = 0
    ok = True
    for _ in range(arrival.ops):
        service_ps, op_ok = profile.draw(rng)
        total_ps += service_ps
        ok = ok and op_ok
    return total_ps, ok
