"""Counts a component keeps reach snapshots by being read, not pushed.

A component that counts something anyway (frames sent, cache hits, IOs,
tier migrations) keeps the count in its own counts object, which joins
the session active when the component is built; snapshots read those
objects in place.  These tests pin whole snapshots to the ones the
earlier push-per-event design wrote, cover the counts no pinned job
moves, and check the scope rule and that a session never keeps a
dropped system alive.
"""

import gc
import json
import weakref
from pathlib import Path

import pytest

from repro.buffer.cache import BufferCache
from repro.campaign.worker import execute_job
from repro.core.system import CardSpec, ContuttoSystem
from repro.faults import FaultPlan
from repro.hybrid import TieredConfig, TieredMemory
from repro.hybrid.policy import make_policy
from repro.memory import DdrDram, SttMram
from repro.sim import Simulator
from repro.storage import (
    HardDiskDrive,
    IoFaultModel,
    NvWriteCache,
    SolidStateDrive,
    WriteCacheConfig,
)
from repro.telemetry import TraceSession
from repro.units import GIB, MIB

#: snapshots written by the push-per-event design for :data:`JOBS`
GOLDEN = Path(__file__).with_name("pulled_counts_golden.json")

#: CI's chaos plan (three forced DMI frame drops) and its storage plan
DROP_PLAN = FaultPlan.from_dict({"name": "ci-smoke", "faults": [
    {"injector": "dmi.frame_drop", "target": "0", "schedule": "periodic",
     "start_ps": 0, "period_ps": 2000000, "count": 3, "label": "drop"},
]}).to_json()
SLOW_DISK_PLAN = FaultPlan.from_dict({"name": "ci-storage", "faults": [
    {"injector": "storage.slow_disk", "target": "", "schedule": "once",
     "at_ps": 0, "duration_ps": 500000000, "params": {"extra_us": 50.0},
     "label": "ci-slow"},
]}).to_json()

#: small seed-0 campaign jobs that together move every pulled count a
#: shipped experiment moves
JOBS = {
    "table3[samples=2]": ("table3", {"samples": 2}),
    "table4[writes=4]": ("table4", {"writes": 4}),
    "fio[ios=1]": ("fio", {"ios": 1}),
    "table5[size_mib=1]": ("table5", {"size_mib": 1}),
    "nvdimm_drill[lines=2]": ("nvdimm_drill", {"lines": 2}),
    "ber_sweep+drop": ("ber_sweep", {"samples": 4, "rates": (0.0, 0.05),
                                     "faults": DROP_PLAN}),
    "storage_drill+slow_disk": ("storage_drill", {"writes": 4,
                                                  "faults": SLOW_DISK_PLAN}),
    "tiered_replay[budget,kv]": ("tiered_replay", {"policy": "budget",
                                                   "workload": "kv", "ops": 16}),
}


def job_snapshot(label: str) -> dict:
    experiment, kwargs = JOBS[label]
    outcome = execute_job((experiment, tuple(sorted(kwargs.items())), 0))
    assert outcome["status"] == "ok", outcome.get("traceback")
    return outcome["metrics"]


@pytest.mark.parametrize("label", sorted(JOBS))
def test_job_snapshot_is_unchanged(label):
    golden = json.loads(GOLDEN.read_text())[label]
    # as JSON text: keys, their order, values and int/float all pinned
    assert json.dumps(job_snapshot(label)) == json.dumps(golden)


def assert_reads(session, moved, *counts):
    """The snapshot reads each metric of ``counts`` as its sum over them,
    and every metric in ``moved`` is nonzero."""
    totals = {}
    for each in counts:
        for field, name in each.METRICS.items():
            totals[name] = totals.get(name, 0) + getattr(each, field)
    snap = session.registry.snapshot()
    assert {name: snap.get(name, 0) for name in totals} == totals
    assert all(totals[name] > 0 for name in moved), totals


class TestCountsNoPinnedJobMoves:
    def test_buffer_cache_writebacks(self):
        with TraceSession(spans=False) as session:
            # one set of two ways: the third dirty fill evicts a dirty line
            cache = BufferCache(capacity_bytes=2 * 128, ways=2,
                                prefetch_next_line=False)
            for line in range(3):
                cache.fill(line * 128, bytes(128), dirty=True)
            cache.lookup(2 * 128)
            cache.lookup(0)
        assert_reads(session, ["buffer.cache.writebacks", "buffer.cache.hits",
                               "buffer.cache.misses"], cache.counts)

    def test_tier_migration_stalls(self):
        with TraceSession(spans=False) as session:
            page = 256
            dev = TieredMemory(
                DdrDram(2 * page, name="t.fast"), SttMram(4 * page, name="t.slow"),
                make_policy("budget"),
                TieredConfig(page_bytes=page, promote_threshold=2,
                             epoch_ps=10**15, migrate_budget_bytes=page),
                name="t",
            )
            t = 0
            for _ in range(4):
                _, t = dev.read(0, 64, t)
        assert_reads(session, ["tier.migration_stalls"], dev.counts)

    def test_write_cache_reads_wraps_and_errors(self):
        with TraceSession(spans=False) as session:
            sim = Simulator()
            log = SolidStateDrive(sim, 1 * MIB)
            disk = HardDiskDrive(sim, 1 * GIB)
            cache = NvWriteCache(sim, log, disk, WriteCacheConfig(
                segment_bytes=8 * 1024, segments=4, destage_threshold=1,
            ))
            # the first log write and the first destage fail outright
            log.io_fault = IoFaultModel(force_failures=1, max_retries=0)
            disk.io_fault = IoFaultModel(force_failures=1, max_retries=0)
            nbytes = 6144  # does not divide the 32 KiB log: a write wraps
            for i in range(6):
                sim.run_until_signal(cache.write(i * nbytes, nbytes),
                                     timeout_ps=10**14)
            sim.run_until_signal(cache.read(5 * nbytes, 4096), timeout_ps=10**14)
            sim.run_until_signal(cache.read(512 * 1024, 4096), timeout_ps=10**14)
            sim.run()
        assert_reads(session, [
            "storage.wcache.read_hits", "storage.wcache.read_misses",
            "storage.wcache.wrap_splits", "storage.wcache.stage_errors",
            "storage.wcache.destage_errors",
        ], cache.counts)
        # both devices publish storage.*: the snapshot adds them up
        assert_reads(session, ["storage.writes", "storage.io_failed"],
                     log.counts, disk.counts)


class TestScope:
    def test_component_built_outside_a_session_adds_nothing(self):
        cache = BufferCache(capacity_bytes=2 * 128, ways=2)
        cache.lookup(0)
        with TraceSession(spans=False) as session:
            cache.lookup(0)
        assert cache.counts.misses == 2
        assert session.snapshots[-1]["metrics"]["buffer.cache.misses"] == 0

    def test_reset_leaves_pulled_counts_alone(self):
        with TraceSession(spans=False) as session:
            cache = BufferCache(capacity_bytes=2 * 128, ways=2)
            cache.lookup(0)
            session.count("buffer.cache.misses", 5)
            assert session.registry.snapshot()["buffer.cache.misses"] == 6
            session.registry.reset()
            assert session.registry.counter("buffer.cache.misses").count == 0
            assert session.registry.snapshot()["buffer.cache.misses"] == 1

    def test_dropped_system_is_collected_while_the_session_is_open(self):
        def frames_sent(system):
            channel = system.socket.slots[0].channel
            return sum(link.counts.frames_sent
                       for link in (channel.down_link, channel.up_link))

        with TraceSession(spans=False) as session:
            first = ContuttoSystem.build([CardSpec(slot=0, kind="centaur")], seed=0)
            link = weakref.ref(first.socket.slots[0].channel.down_link)
            first_sent = frames_sent(first)
            # the next build takes over the occupancy sampler, which held
            # the first system's queues
            second = ContuttoSystem.build([CardSpec(slot=0, kind="centaur")], seed=1)
            del first
            gc.collect()
            assert link() is None
            # the dropped system's frames still count
            assert first_sent > 0
            assert (session.registry.snapshot()["dmi.frames_sent"]
                    == first_sent + frames_sent(second))

    def test_closed_session_holds_no_system(self):
        with TraceSession(spans=False) as session:
            system = ContuttoSystem.build([CardSpec(slot=0, kind="centaur")], seed=0)
            link = weakref.ref(system.socket.slots[0].channel.down_link)
        # the session is still referenced; its sampler's sources are not
        del system
        gc.collect()
        assert link() is None
        assert session.occupancy.sources == {}
