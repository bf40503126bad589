"""The sharded service worker: one slice of one repetition's demand.

A service run fans out as campaign jobs, one per ``(repetition, shard)``,
after a single **calibration job** per invocation has measured every
request class the schedule references (:func:`run_service_calibrate`).
Each shard worker:

1. regenerates the repetition's **full** arrival stream (a pure function
   of schedule + repetition seed — cheap, and it keeps global request
   indices identical on every shard);
2. deserializes the shared calibration artifact riding in its
   ``profiles`` kwarg — one profile per class, reused by every
   ``(repetition, shard)`` job, so an R-repetition S-shard run performs
   one calibration instead of R × S;
3. draws every assigned request's service demand from its class profile
   with a per-request rng seeded by the **global** request index.

The worker returns demands, not outcomes: queueing couples every request
to every other, so the bounded-queue service loop runs once at merge
time over the globally ordered stream (:mod:`repro.service.loop`).
Shard assignment is round-robin on the global index (``index % shards``),
which spreads hot windows evenly across workers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.results import ResultTable
from ..errors import ConfigurationError
from ..faults import FaultPlan
from ..sim.rng import Rng, derive_seed
from .classes import calibrate
from .profile import CALIBRATION_COLUMNS, ServiceProfile, profiles_from_json
from .schedule import Arrival, ArrivalSchedule, generate_arrivals, rep_seed

#: columns of the shard demand table (the campaign-visible result)
SHARD_COLUMNS = ["index", "tenant", "class", "service_ps", "ok"]

def draw_demand(
    arrival: Arrival, profile: ServiceProfile, repetition_seed: int
) -> Tuple[int, bool]:
    """One request's total service demand: ``ops`` profile draws.

    Seeded by the global request index, so the demand of request *i* is
    the same no matter which shard draws it.
    """
    rng = Rng(derive_seed(repetition_seed, f"req{arrival.index}"), "svc.req")
    total_ps = 0
    ok = True
    for _ in range(arrival.ops):
        service_ps, op_ok = profile.draw(rng)
        total_ps += service_ps
        ok = ok and op_ok
    return total_ps, ok


def calibrate_classes(
    classes, samples: int, seed: int, plan: Optional[FaultPlan]
) -> Dict[str, ServiceProfile]:
    """Profiles for ``classes``, each seeded by (``seed``, class) only."""
    return {
        klass: calibrate(
            klass, samples, derive_seed(seed, f"class.{klass}"), plan
        )
        for klass in sorted(set(classes))
    }


def calibration_seed(seed: int) -> int:
    """The seed the shared (per-invocation) calibration derives from.

    Deliberately **not** repetition-derived: the whole point of the
    shared artifact is that one calibration serves every repetition.
    """
    return derive_seed(seed, "calib")


def run_service_calibrate(
    classes: str = "",
    calib_samples: int = 24,
    faults: Optional[str] = None,
    seed: int = 0,
) -> ResultTable:
    """Campaign experiment: one shared calibration for a service run.

    ``classes`` is a comma-separated, sorted class list (it rides in job
    kwargs so the result cache keys on exactly the classes measured, not
    on schedule timing that doesn't change profiles).  Returns one row
    per calibrated sample; :func:`profiles_from_table` folds the table
    back into :class:`ServiceProfile` objects at merge time.
    """
    wanted = [k for k in classes.split(",") if k]
    if not wanted:
        raise ConfigurationError("calibration needs at least one class")
    plan = FaultPlan.from_json(faults) if faults else None
    profiles = calibrate_classes(
        wanted, calib_samples, calibration_seed(seed), plan
    )
    table = ResultTable(
        f"service calibration ({len(profiles)} classes x "
        f"{calib_samples} samples)",
        list(CALIBRATION_COLUMNS),
    )
    for klass in sorted(profiles):
        profile = profiles[klass]
        for i, (service_ps, ok) in enumerate(
            zip(profile.samples_ps, profile.ok)
        ):
            table.add_row(klass, i, service_ps, int(ok))
    table.add_note(
        "mean service time (ns): " + ", ".join(
            f"{klass}={profiles[klass].mean_ps / 1000:.1f}"
            for klass in sorted(profiles)
        )
    )
    return table


def run_service_shard(
    schedule: str = "",
    shard: int = 0,
    shards: int = 1,
    repetition: int = 0,
    profiles: str = "",
    seed: int = 0,
) -> ResultTable:
    """Campaign experiment: demands of one shard of one repetition.

    ``schedule`` is the canonical schedule JSON (it rides in job kwargs
    so the result cache keys on schedule content).  ``profiles`` is the
    shared calibration artifact as canonical JSON (required; see
    :func:`run_service_calibrate`), so the worker never touches the
    simulator.  Returns a :class:`ResultTable` with one row per assigned
    request — plain data, so it pickles across the pool boundary and
    caches like any other experiment result.
    """
    if shards < 1 or not 0 <= shard < shards:
        raise ConfigurationError(
            f"bad shard assignment {shard}/{shards} (need 0 <= shard < shards)"
        )
    sched = ArrivalSchedule.load(schedule)
    repetition_seed = rep_seed(seed, repetition)

    arrivals = generate_arrivals(sched, repetition_seed)
    mine: List[Arrival] = [a for a in arrivals if a.index % shards == shard]
    needed = sorted({a.klass for a in mine})
    by_class = profiles_from_json(profiles)
    missing = [k for k in needed if k not in by_class]
    if missing:
        raise ConfigurationError(
            f"profiles artifact missing classes: {', '.join(missing)}"
        )

    table = ResultTable(
        f"service {sched.name} rep={repetition} shard={shard}/{shards}",
        list(SHARD_COLUMNS),
    )
    for arrival in mine:
        service_ps, ok = draw_demand(arrival, by_class[arrival.klass], repetition_seed)
        table.add_row(arrival.index, arrival.tenant, arrival.klass,
                      service_ps, int(ok))
    table.add_note(
        f"{len(mine)}/{len(arrivals)} requests; "
        f"classes: {', '.join(needed)}"
    )
    return table
