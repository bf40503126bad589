"""One tuning trial: materialize a config, run the workload, measure.

``tune_trial`` is a registered (hidden) campaign experiment, so the
search layer gets seeding, process-pool parallelism, retry/timeout, and
content-addressed caching for free.  Its kwargs are plain strings and
ints — the config rides as its canonical JSON — so a trial's cache key
is exactly ``(config, workload, samples, depth, faults, seed)`` plus the
code fingerprint.

Workloads:

``mem_read`` / ``mem_write``
    ``samples`` random 128 B line operations through the full socket →
    DMI → buffer → DRAM path with ``depth`` kept in flight (memory-level
    parallelism), on a system built from the config's buffer/DDR/DMI
    knobs.
``gpfs_write``
    ``samples`` synchronous GPFS-style 4 KiB writes through an
    :class:`~repro.storage.NvWriteCache` whose geometry comes from the
    config's ``wcache.*`` knobs (NVRAM log in front of a hard disk).
``tier_replay``
    ``samples`` key-value-mix operations replayed against a ConTutto
    card carrying a :class:`~repro.hybrid.TieredMemory` whose split,
    policy, and migration knobs come from the config's ``tier.*`` knobs
    (docs/hybrid.md) — the search trades fast-tier capacity against
    migration traffic.

The trial reports a metric table (one row per objective metric).
Percentiles use the repo-wide nearest-rank convention; ``occupancy`` is
the time-averaged number of outstanding operations (Little's law:
Σ latency / elapsed), which is what the arrival-driven occupancy sampler
observes as ``occupancy.dmi.*.tags_in_flight``.  Seeds are
prefix-stable: a rung-promoted re-run with more samples extends the same
address stream, it does not reshuffle it.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..buffer.config import DEFAULT
from ..core.results import ResultTable
from ..core.system import CardSpec, ContuttoSystem
from ..errors import ConfigurationError
from ..faults import FaultController, FaultPlan
from ..hybrid import TieredConfig, TieringSpec
from ..memory import DDR3_1066, DDR3_1333, DDR3_1600
from ..processor import SocketConfig
from ..sim import Rng, Signal, Simulator
from ..sim.rng import derive_seed
from ..storage import (
    NVRAM_PCIE,
    HardDiskDrive,
    NvWriteCache,
    PcieAttachedStore,
    WriteCacheConfig,
)
from ..telemetry import nearest_rank
from ..units import CACHE_LINE_BYTES, GIB, MIB
from ..workloads import GpfsJob, GpfsWriter
from ..workloads.replay import generate, replay
from ..workloads.trace import TraceSpec
from .space import check_workload_knobs, validate_config

#: columns of the trial result table
TRIAL_COLUMNS = ["metric", "value"]

#: per-trial sim deadline — generous against any fault window
_OP_TIMEOUT_PS = 10**14

#: DIMM capacity for trial systems (offsets are random; small is fast)
_DIMM_BYTES = 256 * MIB

#: NVRAM log capacity for the gpfs_write workload
_LOG_BYTES = 256 * MIB

#: per-write size for the gpfs_write workload — large relative to small
#: segment geometries so destage pressure shows up within a trial budget
_WRITE_BYTES = 512 * 1024

#: tier_replay geometry: small tiered DIMMs, a replay span that starts
#: cold in the slow tier, and a short epoch so decay/budget refill are
#: exercised within a trial budget (mirrors the tiered_replay experiment)
_TIER_DIMM_BYTES = 64 * MIB
_TIER_SPAN_BYTES = 256 * 1024
_TIER_EPOCH_PS = 50_000_000

_DDR_GRADES = {
    "ddr3_1066": DDR3_1066,
    "ddr3_1333": DDR3_1333,
    "ddr3_1600": DDR3_1600,
}


# -- config materialization --------------------------------------------------


def materialize(config: Dict[str, object]) -> Tuple[CardSpec, SocketConfig]:
    """Turn a validated config into a card spec and socket config.

    A config with any ``fpga.*`` knob drives a ConTutto card; otherwise a
    Centaur whose settings start from the shipping ``DEFAULT`` and apply
    the config's overrides — so an empty config *is* the seed default.
    """
    kind = "contutto" if any(k.startswith("fpga.") for k in config) else "centaur"

    timing = _DDR_GRADES[config.get("ddr.grade", "ddr3_1333")]
    overrides = {
        short: config[f"ddr.{short}"]
        for short in ("cl_cycles", "trcd_cycles", "trp_cycles")
        if f"ddr.{short}" in config
    }
    if overrides:
        timing = replace(timing, **overrides)
    ddr_timing = timing if any(k.startswith("ddr.") for k in config) else None

    centaur = DEFAULT
    centaur_overrides = {}
    if "centaur.extra_delay_ns" in config:
        centaur_overrides["extra_delay_ps"] = int(
            round(float(config["centaur.extra_delay_ns"]) * 1_000)
        )
    if "centaur.cache_enabled" in config:
        centaur_overrides["cache_enabled"] = config["centaur.cache_enabled"]
    if "centaur.prefetch_enabled" in config:
        centaur_overrides["prefetch_enabled"] = config["centaur.prefetch_enabled"]
    if centaur_overrides:
        centaur = replace(centaur, name="tuned", **centaur_overrides)

    spec = CardSpec(
        slot=0,
        kind=kind,
        memory="dram",
        capacity_per_dimm=_DIMM_BYTES,
        centaur_config=centaur,
        knob_position=int(config.get("fpga.knob_position", 0)),
        ddr_timing=ddr_timing,
    )
    socket_kwargs = {}
    if "dmi.num_tags" in config:
        socket_kwargs["num_tags"] = int(config["dmi.num_tags"])
    if "dmi.replay_depth" in config:
        socket_kwargs["replay_depth"] = int(config["dmi.replay_depth"])
    return spec, SocketConfig(**socket_kwargs)


# -- measurement -------------------------------------------------------------


def _metric_rows(
    latencies_ps: List[int], elapsed_ps: int, errors: int
) -> List[Tuple[str, float]]:
    ordered = sorted(latencies_ps)
    samples = len(ordered)
    elapsed_s = elapsed_ps * 1e-12
    throughput = samples / elapsed_s if elapsed_s > 0 else 0.0
    occupancy = sum(ordered) / elapsed_ps if elapsed_ps > 0 else 0.0
    return [
        ("p99_ns", nearest_rank(ordered, 99) / 1_000),
        ("p50_ns", nearest_rank(ordered, 50) / 1_000),
        ("mean_ns", sum(ordered) / samples / 1_000),
        ("max_ns", ordered[-1] / 1_000),
        ("throughput_ops_s", throughput),
        ("occupancy", occupancy),
        ("throughput_per_occupancy", throughput / occupancy if occupancy else 0.0),
        ("samples", float(samples)),
        ("errors", float(errors)),
    ]


def _measure_lines(
    system: ContuttoSystem, op: str, samples: int, depth: int, seed: int
) -> Tuple[List[int], int, int]:
    """Pipelined line operations: ``depth`` kept in flight until done."""
    region = system.region_for_slot(0)
    sim = system.sim
    socket = system.socket
    rng = Rng(derive_seed(seed, "ops"), "tune.ops")
    lines = region.os_size // CACHE_LINE_BYTES
    addrs = [
        region.base + rng.randint(0, lines - 1) * CACHE_LINE_BYTES
        for _ in range(samples)
    ]
    payload = bytes(CACHE_LINE_BYTES)
    latencies = [0] * samples
    state = {"next": 0, "inflight": 0, "errors": 0}
    done = Signal("tune.done")

    def issue_next() -> None:
        i = state["next"]
        state["next"] += 1
        state["inflight"] += 1
        t0 = sim.now_ps
        if op == "write":
            signal = socket.write_line(addrs[i], payload)
        else:
            signal = socket.read_line(addrs[i])

        def complete(value, i=i, t0=t0) -> None:
            latencies[i] = sim.now_ps - t0
            if isinstance(value, Exception):
                state["errors"] += 1
            state["inflight"] -= 1
            if state["next"] < samples:
                issue_next()
            elif state["inflight"] == 0:
                done.trigger(None)

        signal.add_waiter(complete)

    t_start = sim.now_ps
    for _ in range(min(depth, samples)):
        issue_next()
    sim.run_until_signal(done, timeout_ps=_OP_TIMEOUT_PS)
    return latencies, sim.now_ps - t_start, state["errors"]


def _run_memory_workload(
    config: Dict[str, object],
    op: str,
    samples: int,
    depth: int,
    plan: Optional[FaultPlan],
    seed: int,
) -> List[Tuple[str, float]]:
    spec, socket_config = materialize(config)
    system = ContuttoSystem.build(
        [spec], seed=derive_seed(seed, "system"), socket_config=socket_config
    )
    controller = None
    if plan is not None:
        controller = FaultController(
            system.sim, plan, seed=derive_seed(seed, "faults")
        )
        controller.install(system).start()
    latencies, elapsed, errors = _measure_lines(system, op, samples, depth, seed)
    if controller is not None:
        controller.heal()
        controller.stop()
    return _metric_rows(latencies, elapsed, errors)


def _run_gpfs_workload(
    config: Dict[str, object], samples: int, seed: int
) -> List[Tuple[str, float]]:
    wconfig = WriteCacheConfig(
        segment_bytes=int(config.get("wcache.segment_bytes", 4 * MIB)),
        segments=int(config.get("wcache.segments", 16)),
        destage_threshold=int(config.get("wcache.destage_threshold", 2)),
    )
    if wconfig.segment_bytes * wconfig.segments > _LOG_BYTES:
        raise ConfigurationError(
            f"wcache log {wconfig.segment_bytes}B x {wconfig.segments} "
            f"exceeds the {_LOG_BYTES}B NVRAM device"
        )
    sim = Simulator()
    log = PcieAttachedStore(sim, _LOG_BYTES, NVRAM_PCIE, name="tune.log")
    disk = HardDiskDrive(sim, 4 * GIB)
    cache = NvWriteCache(sim, log, disk, wconfig, name="tune.wcache")
    writer = GpfsWriter(sim)
    latencies: List[int] = []
    errors = 0
    t_start = sim.now_ps
    for i in range(samples):
        job = GpfsJob(
            write_bytes=_WRITE_BYTES,
            total_writes=1,
            seed=derive_seed(seed, f"op{i}"),
        )
        result = writer.run(cache, job)
        latencies.append(int(result.mean_latency_us * 1e6))
        errors += result.errors
    return _metric_rows(latencies, sim.now_ps - t_start, errors)


def _run_tier_workload(
    config: Dict[str, object],
    samples: int,
    depth: int,
    plan: Optional[FaultPlan],
    seed: int,
) -> List[Tuple[str, float]]:
    tiering = TieringSpec(
        fast_fraction=float(config.get("tier.fast_fraction", 0.25)),
        policy=str(config.get("tier.policy", "clock")),
        config=TieredConfig(
            epoch_ps=_TIER_EPOCH_PS,
            promote_threshold=int(config.get("tier.promote_threshold", 4)),
            migrate_budget_bytes=(
                int(config.get("tier.migrate_budget_kib", 32)) * 1024
            ),
        ),
    )
    system = ContuttoSystem.build(
        [CardSpec(slot=0, kind="contutto", memory="tiered",
                  capacity_per_dimm=_TIER_DIMM_BYTES, tiering=tiering)],
        seed=derive_seed(seed, "system"),
    )
    controller = None
    if plan is not None:
        controller = FaultController(
            system.sim, plan, seed=derive_seed(seed, "faults")
        )
        controller.install(system).start()
    region = system.region_for_slot(0)
    spec = TraceSpec(
        base=region.base,
        size_bytes=min(region.os_size, _TIER_SPAN_BYTES),
        num_accesses=samples,
    )
    ops = generate("kv", spec, derive_seed(seed, "ops"))
    latencies, elapsed, errors = replay(system, ops, depth=depth)
    if controller is not None:
        controller.heal()
        controller.stop()
    return _metric_rows(latencies, elapsed, errors)


# -- the campaign experiment -------------------------------------------------


def run_tune_trial(
    config: str = "{}",
    workload: str = "mem_read",
    samples: int = 32,
    depth: int = 4,
    faults: Optional[str] = None,
    seed: int = 0,
) -> ResultTable:
    """Campaign experiment: measure one tuned config against one workload.

    ``config`` is the canonical knob JSON (part of the cache identity);
    ``faults`` an optional canonical fault-plan JSON installed on the
    built system for the run (system-building workloads only — like the
    service classes, the bare-simulator gpfs_write path has no system to
    inject into).
    """
    try:
        knobs = validate_config(json.loads(config))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"trial config is not valid JSON: {exc}")
    if samples < 2:
        raise ConfigurationError(f"trial needs >= 2 samples, got {samples}")
    if depth < 1:
        raise ConfigurationError(f"trial depth must be >= 1, got {depth}")
    check_workload_knobs(workload, knobs)
    plan = FaultPlan.from_json(faults) if faults else None

    if workload in ("mem_read", "mem_write"):
        rows = _run_memory_workload(
            knobs, "write" if workload == "mem_write" else "read",
            samples, depth, plan, seed,
        )
    elif workload == "gpfs_write":
        rows = _run_gpfs_workload(knobs, samples, seed)
    elif workload == "tier_replay":
        rows = _run_tier_workload(knobs, samples, depth, plan, seed)
    else:
        raise ConfigurationError(f"unknown trial workload {workload!r}")

    table = ResultTable(f"tune trial: {workload}", list(TRIAL_COLUMNS))
    for metric, value in rows:
        table.add_row(metric, value)
    table.add_note(f"config: {config}; depth={depth}; seed={seed}")
    return table
