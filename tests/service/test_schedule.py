"""ArrivalSchedule: validation, rate math, JSON round-trip, determinism."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    ArrivalSchedule,
    Phase,
    Tenant,
    generate_arrivals,
)

SCHED = ArrivalSchedule(
    name="mix",
    duration_ms=50.0,
    window_ms=10.0,
    servers=2,
    queue_limit=16,
    tenants=(
        Tenant("oltp", "mem_read", weight=3.0),
        Tenant("scan", "storage_read", weight=1.0, ops_per_request=2),
    ),
    phases=(
        Phase("constant", 0.0, 50.0, rate_rps=10_000.0),
        Phase("flash", 20.0, 40.0, peak_rps=50_000.0),
    ),
)


class TestValidation:
    def test_rejects_empty_tenants_and_phases(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule("x", 10.0, (), SCHED.phases)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule("x", 10.0, SCHED.tenants, ())

    def test_rejects_duplicate_tenant_names(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule(
                "x", 10.0,
                (Tenant("a", "mem_read"), Tenant("a", "mem_write")),
                SCHED.phases, window_ms=10.0,
            )

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule("x", 10.0, SCHED.tenants, SCHED.phases,
                            window_ms=20.0)

    def test_rejects_unknown_phase_kind(self):
        with pytest.raises(ConfigurationError):
            Phase("spike", 0.0, 10.0)

    def test_rejects_inverted_phase_bounds(self):
        with pytest.raises(ConfigurationError):
            Phase("constant", 10.0, 10.0, rate_rps=1.0)

    def test_rejects_nonpositive_tenant_weight(self):
        with pytest.raises(ConfigurationError):
            Tenant("t", "mem_read", weight=0.0)

    def test_rejects_unknown_request_class(self):
        # refused when the schedule loads, not inside the calibration job
        with pytest.raises(ConfigurationError, match="unknown request class 'http_get'"):
            Tenant("t", "http_get")


class TestRates:
    def test_phases_are_additive(self):
        assert SCHED.rate_rps(10.0) == 10_000.0
        # flash apex at 30 ms sits on top of the constant baseline
        assert SCHED.rate_rps(30.0) == pytest.approx(60_000.0)

    def test_flash_is_triangular(self):
        phase = Phase("flash", 20.0, 40.0, peak_rps=50_000.0)
        assert phase.rate_at(20.0) == pytest.approx(0.0)
        assert phase.rate_at(25.0) == pytest.approx(25_000.0)
        assert phase.rate_at(30.0) == pytest.approx(50_000.0)
        assert phase.rate_at(39.999) == pytest.approx(0.0, abs=20.0)
        assert phase.rate_at(40.0) == 0.0

    def test_ramp_is_linear(self):
        phase = Phase("ramp", 0.0, 10.0, from_rps=100.0, to_rps=300.0)
        assert phase.rate_at(5.0) == pytest.approx(200.0)
        assert phase.peak() == 300.0

    def test_peak_bounds_every_instant(self):
        peak = SCHED.peak_rps()
        assert all(
            SCHED.rate_rps(t / 10) <= peak for t in range(0, 500)
        )

    def test_window_count_is_ceiling(self):
        assert SCHED.windows() == 5
        odd = ArrivalSchedule("x", 25.0, SCHED.tenants, SCHED.phases,
                              window_ms=10.0)
        assert odd.windows() == 3


class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        again = ArrivalSchedule.from_json(json.dumps(SCHED.to_dict()))
        assert again == SCHED
        assert again.to_dict() == SCHED.to_dict()

    def test_load_accepts_all_forms(self):
        assert ArrivalSchedule.load(SCHED) is SCHED
        assert ArrivalSchedule.load(SCHED.to_dict()) == SCHED
        assert ArrivalSchedule.load(json.dumps(SCHED.to_dict())) == SCHED
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.load(42)

    def test_unknown_fields_rejected(self):
        spec = SCHED.to_dict()
        spec["burst"] = True
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.from_dict(spec)


class TestArrivals:
    def test_same_seed_same_stream(self):
        a = generate_arrivals(SCHED, seed=7)
        b = generate_arrivals(SCHED, seed=7)
        assert a == b

    def test_different_seed_different_stream(self):
        assert generate_arrivals(SCHED, 1) != generate_arrivals(SCHED, 2)

    def test_stream_is_ordered_and_contiguous(self):
        arrivals = generate_arrivals(SCHED, seed=3)
        assert [a.index for a in arrivals] == list(range(len(arrivals)))
        times = [a.t_ps for a in arrivals]
        assert times == sorted(times)
        assert all(0 <= t < 50 * 1_000_000_000 for t in times)

    def test_tenant_weights_shape_the_mix(self):
        arrivals = generate_arrivals(SCHED, seed=3)
        oltp = sum(1 for a in arrivals if a.tenant == "oltp")
        scan = len(arrivals) - oltp
        # 3:1 weights; allow generous sampling noise
        assert oltp > 2 * scan

    def test_flash_concentrates_arrivals(self):
        arrivals = generate_arrivals(SCHED, seed=3)
        in_flash = sum(
            1 for a in arrivals
            if 20 * 1_000_000_000 <= a.t_ps < 40 * 1_000_000_000
        )
        # flash doubles+ the density of its 40% span
        assert in_flash > len(arrivals) / 2

    def test_ops_per_request_carried(self):
        arrivals = generate_arrivals(SCHED, seed=3)
        assert all(
            a.ops == (2 if a.tenant == "scan" else 1) for a in arrivals
        )
