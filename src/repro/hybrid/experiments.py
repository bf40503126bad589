"""The registered tiered-memory experiment: policy × replay workload.

``tiered_replay`` drives a ConTutto card carrying a :class:`TieredMemory`
with one synthesized replay workload (graph strides, key-value mix, or a
pointer-chase probe) under one migration policy, and reports the tier
hit rates, migration traffic, and end-to-end latency percentiles.  The
campaign engine sweeps ``policy`` × ``workload`` as scenario axes, so
one campaign renders the whole comparison matrix — byte-identically at
any worker count.
"""

from __future__ import annotations

from typing import Optional

from ..core.results import ResultTable
from ..core.system import CardSpec, ContuttoSystem
from ..errors import ConfigurationError
from ..faults import FaultController, FaultPlan
from ..sim import derive_seed
from ..telemetry import nearest_rank, probe
from ..units import MIB
from ..workloads.replay import generate, replay, replay_depth
from ..workloads.trace import TraceSpec
from .build import TieringSpec
from .device import TieredConfig
from .policy import POLICIES

#: capacity of each of the card's two tiered DIMM devices
_DIMM_BYTES = 64 * MIB

#: replayed working set: placed cold in the slow tier at build time,
#: small enough that a hot subset crosses the promotion threshold
#: within a CI-sized replay
_SPAN_BYTES = 256 * 1024

#: hotness epoch for experiment systems — short relative to a replay so
#: decay and budget refill actually happen within a run
_EPOCH_PS = 50_000_000

#: migration allowance per epoch — tight enough that the budget policy
#: visibly stalls promotions the clock policy would run
_BUDGET_BYTES = 32 * 1024


def run_tiered_replay(
    policy: str = "clock",
    workload: str = "graph",
    ops: int = 96,
    depth: int = 4,
    seed: int = 0,
    faults: Optional[str] = None,
) -> ResultTable:
    """Replay one workload against one migration policy; one table row.

    The scenario label is ``tiered:<policy>:<workload>`` so attribution
    artifacts from a policy × workload sweep aggregate per cell.
    """
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown migration policy {policy!r} "
            f"(known: {', '.join(sorted(POLICIES))})"
        )
    if ops < 2:
        raise ConfigurationError(f"tiered replay needs >= 2 ops, got {ops}")
    label = f"tiered:{policy}:{workload}"
    probe.set_scenario(f"{label}:boot")
    tiering = TieringSpec(
        policy=policy,
        config=TieredConfig(epoch_ps=_EPOCH_PS,
                            migrate_budget_bytes=_BUDGET_BYTES),
    )
    system = ContuttoSystem.build(
        [CardSpec(slot=0, kind="contutto", memory="tiered",
                  capacity_per_dimm=_DIMM_BYTES, tiering=tiering)],
        seed=derive_seed(seed, "system"),
    )
    region = system.region_for_slot(0)
    spec = TraceSpec(
        base=region.base,
        size_bytes=min(region.os_size, _SPAN_BYTES),
        num_accesses=ops,
    )
    stream = generate(workload, spec, derive_seed(seed, label))

    controller = None
    plan = FaultPlan.load(faults) if faults else None
    if plan is not None:
        controller = FaultController(
            system.sim, plan, seed=derive_seed(seed, "faults")
        )
        controller.install(system).start()
    probe.set_scenario(label)
    latencies, elapsed_ps, errors = replay(
        system, stream, depth=replay_depth(workload, depth)
    )
    if controller is not None:
        controller.heal()
        controller.stop()

    devices = [port.device for port in system.cards[0].buffer.ports]
    counts = [d.counts for d in devices]
    fast_hits = sum(c.fast_hits for c in counts)
    slow_hits = sum(c.slow_hits for c in counts)
    accesses = fast_hits + slow_hits
    hit_rate = fast_hits / accesses if accesses else 0.0
    promotions = sum(c.promotions for c in counts)
    stalls = sum(c.migration_stalls for c in counts)
    migrated_kib = sum(c.migrated_bytes for c in counts) / 1024
    trace = probe.session
    if trace is not None:
        # levels of this run: its job snapshot keeps them, and a
        # campaign's merged snapshot, which pools amounts, leaves them out
        trace.gauge_set("tier.fast_hit_rate", hit_rate)
        trace.gauge_set("tier.hot_slow_pages",
                        sum(d.hot_slow_pages for d in devices))
    ordered = sorted(latencies)
    table = ResultTable(
        "Tiered replay: migration policy vs workload",
        ["Policy", "Workload", "Ops", "Fast hits", "Slow hits", "Hit rate",
         "Promotions", "Stalls", "Migrated KiB", "Mean (ns)", "P99 (ns)",
         "Errors"],
    )
    table.add_row(
        policy, workload, len(stream), fast_hits, slow_hits,
        f"{hit_rate:.3f}", promotions, stalls, f"{migrated_kib:.0f}",
        f"{sum(ordered) / len(ordered) / 1_000:.1f}",
        f"{nearest_rank(ordered, 99) / 1_000:.1f}", errors,
    )
    table.add_note(
        f"2x {_DIMM_BYTES // MIB} MiB tiered DIMMs (25% DRAM fast tier), "
        f"{spec.size_bytes // 1024} KiB replay span, depth="
        f"{replay_depth(workload, depth)}; elapsed "
        f"{elapsed_ps / 1e6:.1f} us"
    )
    return table
