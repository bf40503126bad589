"""The shared calibration: one measurement, every repetition.

Storage-backed classes keep these fast (no Centaur system boot).
"""

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    ArrivalSchedule,
    Phase,
    Tenant,
    calibrate_classes,
    calibration_seed,
    draw_demand,
    generate_arrivals,
    profiles_from_table,
    rep_seed,
    run_service_calibrate,
)

SCHED = ArrivalSchedule(
    name="tiny",
    duration_ms=4.0,
    window_ms=2.0,
    tenants=(
        Tenant("reader", "storage_read", weight=2.0),
        Tenant("writer", "storage_write", weight=1.0),
    ),
    phases=(Phase("constant", 0.0, 4.0, rate_rps=20_000.0),),
)

SEED = 5


def calibration_table(samples=6):
    return run_service_calibrate(
        classes="storage_read,storage_write",
        calib_samples=samples, seed=SEED,
    )


class TestCalibrationExperiment:
    def test_table_round_trips_to_calibrate_classes(self):
        rebuilt = profiles_from_table(calibration_table())
        direct = calibrate_classes(
            ["storage_read", "storage_write"], 6, calibration_seed(SEED), None,
        )
        assert rebuilt == direct

    def test_empty_class_list_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one class"):
            run_service_calibrate(classes="", calib_samples=6, seed=SEED)

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown request class"):
            run_service_calibrate(classes="mem_scan", calib_samples=6, seed=SEED)


class TestProfileSerialization:
    def test_canonical_bytes_are_stable(self):
        assert calibration_table().to_markdown() == \
            calibration_table().to_markdown()


class TestShardWithSharedProfiles:
    def test_shared_profiles_shared_across_repetitions(self):
        # both repetitions draw from the same calibration: the set of
        # per-request demands stays within the calibrated sample set
        profiles = profiles_from_table(calibration_table(samples=4))
        calibrated = {
            ps for profile in profiles.values() for ps in profile.samples_ps
        }
        for rep in (0, 1):
            repetition_seed = rep_seed(SEED, rep)
            service = [
                draw_demand(a, profiles[a.klass], repetition_seed)[0]
                for a in generate_arrivals(SCHED, repetition_seed)
            ]
            assert service and all(ps in calibrated for ps in service)

    def test_registry_exposes_calibration_experiment(self):
        from repro.campaign import get_experiment

        spec = get_experiment("service_calibrate")
        assert spec.hidden and spec.supports_faults
