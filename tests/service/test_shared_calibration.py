"""The shared calibration artifact: one measurement, every shard job.

Storage-backed classes keep these fast (no Centaur system boot).
"""

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    ArrivalSchedule,
    Phase,
    ServiceProfile,
    Tenant,
    calibrate_classes,
    calibration_seed,
    profiles_from_json,
    profiles_from_table,
    profiles_to_json,
    run_service_calibrate,
    run_service_shard,
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


def shared_profiles_json(samples=6):
    table = run_service_calibrate(
        classes="storage_read,storage_write",
        calib_samples=samples, seed=SEED,
    )
    return profiles_to_json(profiles_from_table(table))


class TestCalibrationExperiment:
    def test_table_round_trips_to_calibrate_classes(self):
        table = run_service_calibrate(
            classes="storage_read,storage_write", calib_samples=6, seed=SEED,
        )
        rebuilt = profiles_from_table(table)
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
    def test_json_round_trip(self):
        profiles = calibrate_classes(
            ["storage_read"], 4, calibration_seed(SEED), None,
        )
        assert profiles_from_json(profiles_to_json(profiles)) == profiles

    def test_canonical_bytes_are_stable(self):
        assert shared_profiles_json() == shared_profiles_json()

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigurationError, match="bad profiles JSON"):
            profiles_from_json("{nope")
        with pytest.raises(ConfigurationError, match="must be an object"):
            profiles_from_json("[1, 2]")
        with pytest.raises(ConfigurationError, match="malformed profile"):
            profiles_from_json('{"storage_read": {"klass": "storage_read"}}')

    def test_profile_dict_round_trip(self):
        profile = ServiceProfile("storage_read", (10, 20), (True, False))
        assert ServiceProfile.from_dict(profile.to_dict()) == profile


class TestShardWithSharedProfiles:
    def test_demands_invariant_across_shard_counts(self):
        profiles = shared_profiles_json()

        def demands(shards):
            rows = []
            for shard in range(shards):
                table = run_service_shard(
                    schedule=SCHED.to_json(), shard=shard, shards=shards,
                    profiles=profiles, seed=SEED,
                )
                rows.extend(tuple(r) for r in table.rows)
            return sorted(rows)

        assert demands(1) == demands(3)

    def test_shared_profiles_shared_across_repetitions(self):
        # both repetitions draw from the same artifact: the set of
        # per-request demands stays within the calibrated sample set
        profiles = shared_profiles_json(samples=4)
        calibrated = {
            ps
            for profile in profiles_from_json(profiles).values()
            for ps in profile.samples_ps
        }
        for rep in (0, 1):
            table = run_service_shard(
                schedule=SCHED.to_json(), repetition=rep,
                profiles=profiles, seed=SEED,
            )
            service = [dict(zip(table.columns, row))["service_ps"]
                       for row in table.rows]
            assert service and all(ps in calibrated for ps in service)

    def test_profiles_are_required(self):
        # shard jobs never calibrate: without the artifact they refuse
        with pytest.raises(ConfigurationError, match="bad profiles JSON"):
            run_service_shard(schedule=SCHED.to_json(), seed=SEED)

    def test_missing_class_rejected(self):
        only_reads = profiles_to_json(calibrate_classes(
            ["storage_read"], 4, calibration_seed(SEED), None,
        ))
        with pytest.raises(ConfigurationError, match="missing classes"):
            run_service_shard(
                schedule=SCHED.to_json(), profiles=only_reads, seed=SEED,
            )

    def test_registry_exposes_calibration_experiment(self):
        from repro.campaign import get_experiment

        spec = get_experiment("service_calibrate")
        assert spec.hidden and spec.supports_faults
