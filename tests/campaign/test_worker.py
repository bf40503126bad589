"""What a campaign job leaves behind: nothing it built, no span work.

A job's simulated systems are reference cycles, which reference counting
alone never frees.  :func:`~repro.campaign.worker.run_job` collects the
job's objects before it returns, whether the job succeeds or raises, and
leaves the caller's collector state as it found it.  A job's session
runs ``spans=False``, and no span site does span work for it.
"""

import gc

import pytest

from repro.campaign import run_experiment
from repro.campaign.matrix import CampaignJob
from repro.campaign.registry import REGISTRY, experiment_names
from repro.campaign.worker import execute_job, run_job
from repro.core.system import CardSpec, ContuttoSystem
from repro.service.schedule import REQUEST_CLASSES
from repro.sim import Simulator
from repro.telemetry import TraceSession

from ..telemetry.test_pulled_counts import DROP_PLAN

#: every registered experiment at its smallest size (the self-test
#: fixtures aside)
SMALLEST = {
    "table1": {},
    "table2": {"samples": 1},
    "fig6": {"samples": 1},
    "table3": {"samples": 1},
    "fig7": {"samples": 1},
    "fig8": {},
    "table4": {"writes": 1},
    "fio": {"ios": 1},
    "table5": {"size_mib": 1},
    "ber_sweep": {"samples": 1},
    "nvdimm_drill": {"lines": 1},
    "storage_drill": {"writes": 1},
    "tiered_replay": {"ops": 2},
    "service_calibrate": {"classes": ",".join(sorted(REQUEST_CLASSES)),
                          "calib_samples": 1},
    "tune_trial": {"samples": 2},
}


def message(experiment, kwargs):
    kwargs = dict(REGISTRY[experiment].defaults, **kwargs)
    return (experiment, tuple(sorted(kwargs.items())), 0)


def live_simulators():
    """Every Simulator the collector can see; no collection runs."""
    return [o for o in gc.get_objects() if isinstance(o, Simulator)]


def new_simulators(before):
    # ``before`` holds the earlier ones, so no id is reused meanwhile
    return [s for s in live_simulators() if not any(s is b for b in before)]


class TestJobFreesItsSystems:
    @pytest.mark.parametrize("experiment, kwargs, status", [
        ("table3", {"samples": 4}, "ok"),
        ("fio", {"ios": 1}, "ok"),
        ("table4", {"writes": 1}, "ok"),
        ("ber_sweep", {"samples": 4, "faults": DROP_PLAN}, "ok"),
        ("_selftest_fail", {}, "failed"),
    ], ids=["table3", "fio", "table4", "ber_sweep+drop", "selftest_fail"])
    def test_no_simulator_outlives_its_job(self, experiment, kwargs, status):
        before = live_simulators()
        outcome = execute_job(message(experiment, kwargs))
        assert outcome["status"] == status, outcome.get("traceback")
        assert new_simulators(before) == []

    def test_a_job_that_raises_after_building_is_freed(self):
        def build_then_fail(seed):
            system = ContuttoSystem.build([CardSpec(slot=0, kind="centaur")], seed=seed)
            raise RuntimeError(f"failed holding {system.sim!r}")

        before = live_simulators()
        with pytest.raises(RuntimeError, match="failed holding"):
            run_job(CampaignJob("build_then_fail", (), 0), build_then_fail)
        assert new_simulators(before) == []


class TestCollectorStateLeftAsFound:
    @pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
    def gc_enabled(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_execute_job(self, gc_enabled):
        frozen = gc.get_freeze_count()
        execute_job(message("table3", {"samples": 1}))
        assert gc.isenabled() is gc_enabled
        assert gc.get_freeze_count() == frozen

    def test_run_experiment(self, gc_enabled):
        frozen = gc.get_freeze_count()
        run_experiment("table3", samples=1, spans=False)
        assert gc.isenabled() is gc_enabled
        assert gc.get_freeze_count() == frozen

    def test_a_callers_frozen_objects_stay_frozen(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            execute_job(message("table3", {"samples": 1}))
            run_experiment("table3", samples=1, spans=False)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()


class TestSpanFreeJobs:
    def test_smallest_sizes_cover_every_experiment(self):
        names = experiment_names(include_hidden=True)
        assert sorted(SMALLEST) == sorted(n for n in names if not n.startswith("_selftest"))

    @pytest.mark.parametrize("experiment", sorted(SMALLEST))
    def test_no_span_site_records_for_a_job(self, experiment, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("span work in a spans=False session")

        monkeypatch.setattr(TraceSession, "complete", refuse)
        monkeypatch.setattr(TraceSession, "instant", refuse)
        outcome = execute_job(message(experiment, SMALLEST[experiment]))
        assert outcome["status"] == "ok", outcome.get("traceback")
