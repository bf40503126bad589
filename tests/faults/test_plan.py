"""FaultPlan: spec validation, labelling, compilation, (de)serialisation."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import SCHEDULES, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_schedule_values(self):
        assert SCHEDULES == ("once", "periodic", "bernoulli")

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("dmi.bit_errors", schedule="cron")

    def test_periodic_needs_period_and_count(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("dmi.frame_drop", schedule="periodic", period_ps=0)
        with pytest.raises(ConfigurationError):
            FaultSpec("dmi.frame_drop", schedule="periodic",
                      period_ps=1_000, count=0)

    def test_bernoulli_needs_window_and_valid_rate(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("dmi.frame_drop", schedule="bernoulli",
                      period_ps=1_000, until_ps=0)
        with pytest.raises(ConfigurationError):
            FaultSpec("dmi.frame_drop", schedule="bernoulli",
                      period_ps=1_000, until_ps=10_000, rate=1.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("dmi.bit_errors", duration_ps=-1)

    def test_params_lookup(self):
        spec = FaultSpec("dmi.bit_errors", params=(("rate", 0.1),))
        assert spec.param("rate") == 0.1
        assert spec.param("missing", 42) == 42


class TestLabelling:
    def test_auto_labels_are_unique_and_stable(self):
        plan = FaultPlan(specs=(
            FaultSpec("dmi.bit_errors", target="0"),
            FaultSpec("dmi.bit_errors", target="0"),
            FaultSpec("nvdimm.power_loss"),
        ))
        labels = [s.label for s in plan.specs]
        assert len(set(labels)) == 3
        assert labels == [s.label for s in FaultPlan(specs=plan.specs).specs]

    def test_duplicate_explicit_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(specs=(
                FaultSpec("dmi.bit_errors", label="x"),
                FaultSpec("dmi.frame_drop", label="x"),
            ))


class TestCompile:
    def test_once_fires_at_at_ps(self):
        plan = FaultPlan(specs=(FaultSpec("dmi.bit_errors", at_ps=5_000),))
        (event,) = plan.compile(seed=0)
        assert event.at_ps == 5_000
        assert event.index == 0

    def test_periodic_expands_count_events(self):
        plan = FaultPlan(specs=(FaultSpec(
            "dmi.frame_drop", schedule="periodic",
            start_ps=1_000, period_ps=2_000, count=3,
        ),))
        assert [e.at_ps for e in plan.compile(0)] == [1_000, 3_000, 5_000]

    def test_events_sorted_across_specs(self):
        plan = FaultPlan(specs=(
            FaultSpec("dmi.bit_errors", at_ps=9_000),
            FaultSpec("dmi.frame_drop", schedule="periodic",
                      start_ps=0, period_ps=4_000, count=3),
        ))
        times = [e.at_ps for e in plan.compile(0)]
        assert times == sorted(times)

    def test_bernoulli_deterministic_per_seed(self):
        plan = FaultPlan(specs=(FaultSpec(
            "dmi.frame_drop", schedule="bernoulli",
            start_ps=0, period_ps=1_000, until_ps=200_000, rate=0.3,
        ),))
        a = [e.at_ps for e in plan.compile(7)]
        b = [e.at_ps for e in plan.compile(7)]
        c = [e.at_ps for e in plan.compile(8)]
        assert a == b
        assert 0 < len(a) < 200
        assert a != c  # a different seed reshuffles the trial stream

    def test_bernoulli_rate_extremes(self):
        def compiled(rate):
            return FaultPlan(specs=(FaultSpec(
                "dmi.frame_drop", schedule="bernoulli",
                start_ps=0, period_ps=1_000, until_ps=10_000, rate=rate,
            ),)).compile(0)
        assert compiled(0.0) == []
        assert len(compiled(1.0)) == 10


class TestSerialization:
    def test_json_roundtrip_is_canonical(self):
        plan = FaultPlan(name="p", specs=(
            FaultSpec("dmi.bit_errors", target="0", duration_ps=10,
                      params=(("rate", 0.2),)),
        ))
        text = plan.to_json()
        again = FaultPlan.from_json(text)
        assert again == plan
        assert again.to_json() == text

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"name": "p", "specs": [], "bogus": 1})
        with pytest.raises(ConfigurationError):
            FaultSpec.from_dict({"injector": "dmi.bit_errors", "bogus": 1})

    def test_load_coercions(self):
        plan = FaultPlan(specs=(FaultSpec("dmi.bit_errors"),))
        assert FaultPlan.load(None) is None
        assert FaultPlan.load(plan) is plan
        assert FaultPlan.load(plan.to_json()) == plan
        assert FaultPlan.load(plan.to_dict()) == plan
