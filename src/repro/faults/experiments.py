"""Registered fault experiments: BER sweep, NVDIMM drill, storage drill.

Both are ordinary campaign experiments (``run_*`` returning a
:class:`~repro.core.results.ResultTable`) that drive a
:class:`FaultController` over a built system.  Each accepts a ``faults``
kwarg — ``None``, a plan dict, or canonical plan JSON (the form
``scripts/run_campaign.py --faults`` threads through job kwargs) — whose
entries are injected *in addition to* the experiment's own fault.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.results import ResultTable
from ..core.system import CardSpec, ContuttoSystem
from ..errors import ReproError
from ..sim import Rng, derive_seed
from ..telemetry import probe
from ..units import GIB, MIB, ms_to_ps, us_to_ps
from .controller import FaultController
from .plan import FaultPlan, FaultSpec

#: frame error rates the BER sweep visits by default
DEFAULT_BER_RATES = (0.0, 0.02, 0.05, 0.1)
#: per-read patience: generous against replay storms, but prompt enough
#: that a dead channel surfaces as a failure instead of hanging the sweep
_READ_TIMEOUT_PS = 10**9
_LINE = 128


def _merge_plan(name: str, base: List[FaultSpec], faults) -> FaultPlan:
    """The experiment's own specs plus any user-supplied plan entries."""
    extra = FaultPlan.load(faults)
    specs = tuple(base) + (extra.specs if extra is not None else ())
    return FaultPlan(name=name, specs=specs)


def _measure_reads(
    system: ContuttoSystem, rng: Rng, samples: int
) -> Tuple[int, int, Optional[ReproError]]:
    """Dependent serialized cache-line reads over slot 0's region.

    Returns (completed reads, elapsed ps, first error or None) — errors
    cover both a synchronous :class:`ReplayError` from a failed channel
    and a :class:`SimulationError` read timeout.
    """
    socket = system.socket
    region = system.region_for_slot(0)
    lines = region.os_size // _LINE
    t0 = system.sim.now_ps
    done = 0
    error: Optional[ReproError] = None
    for _ in range(samples):
        addr = region.base + rng.randint(0, lines - 1) * _LINE
        try:
            system.sim.run_until_signal(
                socket.read_line(addr), timeout_ps=_READ_TIMEOUT_PS
            )
        except ReproError as exc:
            error = exc
            break
        done += 1
    return done, system.sim.now_ps - t0, error


def _endpoint_stats(channel) -> Tuple[int, int]:
    """(replays, crc drops) summed over both endpoints."""
    eps = (channel.host_endpoint, channel.buffer_endpoint)
    return (
        sum(e.counts.replays_triggered for e in eps),
        sum(e.crc_drops for e in eps),
    )


# ---------------------------------------------------------------------------
# BER sweep
# ---------------------------------------------------------------------------


def run_ber_sweep(
    samples: int = 8,
    rates=None,
    seed: int = 0,
    faults=None,
) -> ResultTable:
    """Frame error rate → replays → effective read latency/bandwidth.

    For each rate the sweep measures ``samples`` clean reads, then opens a
    ``dmi.bit_errors`` window and measures ``samples`` reads under error
    injection — once with the Section 3.3 freeze workaround (retransmit
    while preparing replay) and once without it, where a replay that
    cannot start within the host's ``max_replay_start_ps`` fails the
    channel and firmware recovery retrains it mid-measurement.
    """
    rates = tuple(DEFAULT_BER_RATES if rates is None else rates)
    table = ResultTable(
        "BER sweep: DMI frame errors vs replay cost",
        ["Error rate", "Freeze cheat", "Reads", "Replays", "CRC drops",
         "Failures", "Recoveries", "Clean (ns)", "Faulty (ns)", "Eff. MB/s"],
    )
    for freeze in (True, False):
        mode = "freeze" if freeze else "nofreeze"
        for rate in rates:
            label = f"ber:{rate:g}:{mode}"
            probe.set_scenario(f"{label}:boot")
            system = ContuttoSystem.build(
                [CardSpec(slot=0, kind="contutto",
                          capacity_per_dimm=256 * MIB, freeze=freeze)],
                seed=seed,
            )
            rng = Rng(derive_seed(seed, label), "measure")
            # clean and faulty reads share one scenario so the attribution
            # fault split (clean vs fault-affected) compares like with like
            probe.set_scenario(label)
            clean_n, clean_ps, _ = _measure_reads(system, rng.fork("clean"), samples)

            plan = _merge_plan(f"ber[{rate:g}]", [FaultSpec(
                "dmi.bit_errors", target="0", schedule="once", at_ps=0,
                duration_ps=10**12,
                params=(("max_flips", 1), ("rate", rate)), label="ber",
            )], faults)
            probe.set_scenario(label)
            measure_rng = rng.fork("faulty")
            remaining = samples
            ok_total = 0
            fault_ps = 0
            replays = 0
            crc_drops = 0
            failures = 0
            recoveries = 0
            while remaining > 0:
                controller = FaultController(system.sim, plan, seed=seed)
                controller.install(system).start()
                r0, c0 = _endpoint_stats(system.socket.slots[0].channel)
                done, elapsed, error = _measure_reads(
                    system, measure_rng, remaining
                )
                r1, c1 = _endpoint_stats(system.socket.slots[0].channel)
                controller.stop()  # closes the window, restores link models
                ok_total += done
                fault_ps += elapsed
                remaining -= done
                replays += r1 - r0
                crc_drops += c1 - c0
                if error is None:
                    break
                # the channel died mid-measurement: recover it like firmware
                # would, then resume with a fresh controller (the failed
                # read consumed its sample)
                failures += 1
                remaining -= 1
                if not system.socket.recover_channel(0):
                    break
                recoveries += 1
            clean_ns = clean_ps / clean_n / 1_000 if clean_n else float("nan")
            faulty_ns = fault_ps / ok_total / 1_000 if ok_total else float("nan")
            mb_s = ok_total * _LINE * 1e6 / fault_ps if fault_ps else 0.0
            table.add_row(
                f"{rate:g}", "yes" if freeze else "no", ok_total, replays,
                crc_drops, failures, recoveries,
                f"{clean_ns:.1f}", f"{faulty_ns:.1f}", f"{mb_s:.1f}",
            )
    table.add_note(
        "freeze cheat = Section 3.3 'retransmit while preparing replay'; "
        "without it a slow replay start fails the channel and firmware "
        "retrains it"
    )
    return table


# ---------------------------------------------------------------------------
# NVDIMM power-fail drill
# ---------------------------------------------------------------------------


def run_nvdimm_drill(lines: int = 16, seed: int = 0, faults=None) -> ResultTable:
    """Power-loss drill: save/restore on a healthy supercap, LOST on an
    undersized one, with data integrity checked end to end."""
    from ..memory import SupercapSpec  # local: keep module import light

    table = ResultTable(
        "NVDIMM power-fail drill",
        ["Case", "Hold-up (ms)", "Save time (ms)", "Saves", "Failed saves",
         "Outcome", "Data intact"],
    )
    cases = [
        ("healthy", SupercapSpec()),
        ("undersized", SupercapSpec(hold_up_ms=50.0)),
    ]
    for case, supercap in cases:
        label = f"nvdimm:{case}"
        probe.set_scenario(f"{label}:boot")
        # firmware wants DRAM contiguous from address 0, so the NVDIMM card
        # rides on channel 2 (even DMI slots only) behind a small DRAM card
        system = ContuttoSystem.build(
            [CardSpec(slot=0, kind="contutto", capacity_per_dimm=256 * MIB),
             CardSpec(slot=2, kind="contutto", memory="nvdimm",
                      capacity_per_dimm=1 * GIB)],
            seed=seed,
        )
        devices = [port.device for port in system.cards[2].buffer.ports]
        for device in devices:
            device.supercap = supercap
        save_ms = max(
            supercap.save_time_ms(d.capacity_bytes) for d in devices
        )
        probe.set_scenario(label)
        socket = system.socket
        region = system.region_for_slot(2)
        written = {}
        for i in range(lines):
            addr = region.base + i * _LINE
            data = bytes((i * 7 + j) % 256 for j in range(_LINE))
            written[addr] = data
            system.sim.run_until_signal(
                socket.write_line(addr, data), timeout_ps=_READ_TIMEOUT_PS
            )

        hold_ps = ms_to_ps(save_ms if supercap.can_save(devices[0].capacity_bytes)
                           else supercap.hold_up_ms)
        duration = hold_ps + us_to_ps(10)
        plan = _merge_plan(f"nvdimm[{case}]", [FaultSpec(
            "nvdimm.power_loss", target="2", schedule="once", at_ps=0,
            duration_ps=duration, label="drill",
        )], faults)
        controller = FaultController(system.sim, plan, seed=seed)
        controller.install(system).start()
        system.sim.run(until_ps=system.sim.now_ps + duration + 1)
        report = controller.stop()

        intact = True
        for addr, data in written.items():
            got = system.sim.run_until_signal(
                socket.read_line(addr), timeout_ps=_READ_TIMEOUT_PS
            )
            if got != data:
                intact = False
                break
        tally = report.tallies.get("drill")
        if tally is None or tally.injected == 0:
            outcome = "skipped"
        elif tally.lost:
            outcome = "LOST"
        elif tally.recovered:
            outcome = "recovered"
        else:
            outcome = "failed"
        table.add_row(
            case, f"{supercap.hold_up_ms:g}", f"{save_ms:.0f}",
            sum(d.saves for d in devices),
            sum(d.failed_saves for d in devices),
            outcome, "yes" if intact else "no",
        )
    table.add_note(
        "undersized supercap cannot complete the DRAM->flash save; contents "
        "are LOST and the restore comes back empty"
    )
    return table


# ---------------------------------------------------------------------------
# Storage fault drill
# ---------------------------------------------------------------------------


def run_storage_drill(writes: int = 24, seed: int = 0, faults=None) -> ResultTable:
    """GPFS-style writers under storage faults, against a clean baseline.

    Three measured cases:

    * ``wcache clean`` — the ConTutto MRAM write cache with no faults:
      the baseline the fault rows are read against;
    * ``ssd io_errors`` — a direct SSD store with forced IO failures
      (bounded retry; exhausted retries surface a ``StorageError`` to
      the workload as the completion value);
    * ``wcache faulted`` — the same cache with the destager frozen for a
      window and the backing HDD slowed, driving admission stalls.

    The cache geometry is deliberately tiny (16 KiB segments, 4 of them,
    threshold 2) so a handful of 4 KiB writes exercises destage
    backpressure — the paths the strict-admission and wrap-split fixes
    guard.  Each case attaches its devices as ``system.storage_devices``
    so plan entries resolve; extra ``faults`` entries should use empty
    targets (injectors filter by capability) since the device namespace
    differs per case.
    """
    from ..storage import (  # local: keep the module import light
        DirectStore,
        HardDiskDrive,
        NvWriteCache,
        PmemBlockDevice,
        SolidStateDrive,
        WriteCacheConfig,
    )
    from ..workloads import GpfsJob, GpfsWriter

    table = ResultTable(
        "Storage fault drill: GPFS writers under injected storage faults",
        ["Case", "Writes", "IOPS", "Mean lat (us)", "Errors", "Retries",
         "Stalls", "Destages", "Faults"],
    )
    # default seed=0 preserves the historical GpfsJob stream (seed 99)
    job = GpfsJob(total_writes=writes, seed=99 + seed)

    def build_cache(label):
        probe.set_scenario(f"storage:{label}:boot")
        system = ContuttoSystem.build(
            [CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB),
             CardSpec(slot=0, kind="contutto", memory="mram",
                      capacity_per_dimm=128 * MIB)],
            seed=seed,
        )
        log = PmemBlockDevice(system.pmem_region())
        hdd = HardDiskDrive(system.sim, 4 * GIB)
        cache = NvWriteCache(
            system.sim, log, hdd,
            WriteCacheConfig(segment_bytes=16 * 1024, segments=4,
                             destage_threshold=2),
        )
        system.storage_devices = {"hdd": hdd, "log": log, "wcache": cache}
        return system, log, hdd, cache

    # -- wcache clean (no faults): the comparison baseline -----------------
    system, log, hdd, cache = build_cache("wcache-clean")
    probe.set_scenario("storage:wcache-clean")
    result = GpfsWriter(system.sim).run(cache, job)
    table.add_row(
        "wcache clean", result.total_writes, f"{result.iops:.0f}",
        f"{result.mean_latency_us:.1f}", result.errors,
        log.counts.io_retries + hdd.counts.io_retries, cache.counts.stalls,
        cache.counts.destages, 0,
    )

    # -- direct SSD with forced IO failures --------------------------------
    probe.set_scenario("storage:ssd:boot")
    system = ContuttoSystem.build(
        [CardSpec(slot=0, kind="contutto", capacity_per_dimm=256 * MIB)],
        seed=seed,
    )
    ssd = SolidStateDrive(system.sim, 1 * GIB)
    system.storage_devices = {"ssd": ssd}
    # force exactly 2 IOs' worth of exhausted retries: deterministic
    # error and retry counts independent of the stochastic rate
    plan = _merge_plan("storage[ssd]", [FaultSpec(
        "storage.io_errors", target="ssd", schedule="once", at_ps=0,
        duration_ps=10**12,
        params=(("rate", 0.0), ("force_failures", 6), ("max_retries", 2)),
        label="ssd-io",
    )], faults)
    probe.set_scenario("storage:ssd")
    controller = FaultController(system.sim, plan, seed=seed)
    controller.install(system).start()
    result = GpfsWriter(system.sim).run(DirectStore(ssd, name="ssd"), job)
    report = controller.stop()
    table.add_row(
        "ssd io_errors", result.total_writes, f"{result.iops:.0f}",
        f"{result.mean_latency_us:.1f}", result.errors, ssd.counts.io_retries,
        "-", "-", report.total("injected"),
    )

    # -- wcache with a frozen destager and a slow backing disk -------------
    system, log, hdd, cache = build_cache("wcache-faulted")
    plan = _merge_plan("storage[wcache]", [
        FaultSpec(
            "storage.destage_stall", target="wcache", schedule="once",
            at_ps=us_to_ps(50), duration_ps=us_to_ps(400),
            label="destage-stall",
        ),
        FaultSpec(
            "storage.slow_disk", target="hdd", schedule="once", at_ps=0,
            duration_ps=10**12, params=(("extra_us", 2000.0),),
            label="slow-hdd",
        ),
    ], faults)
    probe.set_scenario("storage:wcache-faulted")
    controller = FaultController(system.sim, plan, seed=seed)
    controller.install(system).start()
    result = GpfsWriter(system.sim).run(cache, job)
    report = controller.stop()
    table.add_row(
        "wcache faulted", result.total_writes, f"{result.iops:.0f}",
        f"{result.mean_latency_us:.1f}", result.errors,
        log.counts.io_retries + hdd.counts.io_retries, cache.counts.stalls,
        cache.counts.destages, report.total("injected"),
    )
    table.add_note(
        "tiny log geometry (4 x 16 KiB segments) makes destage backpressure "
        "visible at drill scale; forced SSD failures exhaust the retry bound "
        "deterministically"
    )
    return table
