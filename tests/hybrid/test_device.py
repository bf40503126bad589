"""TieredMemory unit behaviour: placement, heat, migration, integrity.

The load-bearing property is that migration moves *real bytes*: the
tiered layer only translates logical pages to tier frames, so a
promotion that left data behind (or swapped the mapping without the
payload) shows up here as a read-back mismatch, not as a latency glitch.
"""

import pytest

from repro.errors import ConfigurationError
from repro.hybrid import TieredConfig, TieredMemory, TieringSpec, build_tiered
from repro.hybrid.device import FAST, SLOW
from repro.hybrid.policy import POLICIES, make_policy
from repro.memory import DdrDram, SttMram

PAGE = 256


def make_tiered(fast_pages=2, slow_pages=4, policy="clock", **knobs):
    config = TieredConfig(page_bytes=PAGE, **knobs)
    return TieredMemory(
        DdrDram(fast_pages * PAGE, name="t.fast"),
        SttMram(slow_pages * PAGE, name="t.slow"),
        make_policy(policy),
        config,
        name="t",
    )


class TestColdStartPlacement:
    def test_low_pages_start_slow_high_pages_fast(self):
        dev = make_tiered(fast_pages=2, slow_pages=4)
        assert dev.pages == 6 and dev.fast_frames == 2
        assert [dev.tier_of(p) for p in range(6)] == [SLOW] * 4 + [FAST] * 2

    def test_capacity_is_sum_of_tiers(self):
        dev = make_tiered(fast_pages=2, slow_pages=4)
        assert dev.capacity_bytes == 6 * PAGE


class TestDataIntegrity:
    def _fill(self, dev):
        patterns = {}
        for page in range(dev.pages):
            data = bytes([page + 1]) * PAGE
            dev.write(page * PAGE, data, now_ps=0)
            patterns[page] = data
        return patterns

    def test_promotion_swap_moves_real_bytes(self):
        dev = make_tiered(policy="clock", promote_threshold=2,
                          epoch_ps=10**15)
        patterns = self._fill(dev)
        assert dev.tier_of(0) == SLOW
        t = 0
        while dev.tier_of(0) == SLOW:
            _, t = dev.read(0, PAGE, t)
        assert dev.counts.promotions >= 1 and dev.counts.demotions >= 1
        assert dev.counts.migrated_bytes == dev.counts.promotions * 2 * PAGE
        # every page — promoted, demoted victim, bystanders — reads back
        for page, expected in patterns.items():
            data, t = dev.read(page * PAGE, PAGE, t)
            assert data == expected, f"page {page} corrupted by migration"

    def test_cross_page_access_is_chunked_and_consistent(self):
        dev = make_tiered(policy="static")
        payload = bytes(range(256)) * 2  # spans two 256 B pages
        t = dev.write(PAGE // 2, payload, now_ps=0)
        data, _ = dev.read(PAGE // 2, len(payload), t)
        assert data == payload


class TestHeatAndDecay:
    def test_threshold_accesses_promote_under_clock(self):
        dev = make_tiered(policy="clock", promote_threshold=3,
                          epoch_ps=10**15)
        t = 0
        for _ in range(3):
            _, t = dev.read(0, 64, t)
        assert dev.tier_of(0) == FAST
        assert dev.counts.promotions == 1

    def test_decayed_heat_does_not_promote(self):
        # 3 quick touches, then a 4th far beyond the epoch horizon: the
        # decay halves the counter to zero first, so no promotion
        epoch = 1_000_000
        dev = make_tiered(policy="clock", promote_threshold=4,
                          epoch_ps=epoch)
        t = 0
        for _ in range(3):
            _, t = dev.read(0, 64, t)
        assert dev.heat(0) == 3
        dev.read(0, 64, 40 * epoch)
        assert dev.tier_of(0) == SLOW and dev.counts.promotions == 0
        assert dev.heat(0) == 1  # the post-decay bump

    def test_hot_slow_gauge_tracks_threshold_and_decay(self):
        epoch = 1_000_000
        dev = make_tiered(policy="static", promote_threshold=2,
                          epoch_ps=epoch)
        t = 0
        for _ in range(2):
            _, t = dev.read(0, 64, t)
        assert dev.hot_slow_pages == 1
        # static never migrates; the page cools off instead
        dev.read(PAGE, 64, 50 * epoch)
        assert dev.hot_slow_pages == 0

    def test_promotion_moves_page_out_of_hot_slow_set(self):
        dev = make_tiered(policy="clock", promote_threshold=2,
                          epoch_ps=10**15)
        t = 0
        for _ in range(2):
            _, t = dev.read(0, 64, t)
        assert dev.tier_of(0) == FAST
        assert dev.hot_slow_pages == 0


class TestClockVictim:
    def test_second_chance_clears_ref_bits_before_evicting(self):
        dev = make_tiered(fast_pages=3, slow_pages=3)
        dev._ref[:] = bytes([1, 1, 0])
        assert dev._clock_victim() == 2
        # the sweep cleared the referenced frames it passed
        assert bytes(dev._ref[:2]) == bytes([0, 0])

    def test_all_referenced_falls_back_to_hand(self):
        dev = make_tiered(fast_pages=3, slow_pages=3)
        dev._ref[:] = bytes([1, 1, 1])
        victim = dev._clock_victim()
        assert 0 <= victim < 3


class TestBudgetPolicy:
    def test_exhausted_budget_stalls_instead_of_promoting(self):
        # allowance below one swap's cost: every wanted promotion stalls
        dev = make_tiered(policy="budget", promote_threshold=2,
                          epoch_ps=10**15, migrate_budget_bytes=PAGE)
        t = 0
        for _ in range(4):
            _, t = dev.read(0, 64, t)
        assert dev.counts.promotions == 0
        assert dev.counts.migration_stalls > 0
        assert dev.tier_of(0) == SLOW

    def test_budget_refills_each_epoch(self):
        epoch = 1_000_000
        dev = make_tiered(policy="budget", promote_threshold=1,
                          epoch_ps=epoch, migrate_budget_bytes=2 * PAGE)
        dev.read(0, 64, 0)            # first touch promotes (budget: 1 swap)
        assert dev.counts.promotions == 1
        dev.read(PAGE, 64, 1)         # same epoch: budget spent, stalls
        assert dev.counts.promotions == 1 and dev.counts.migration_stalls == 1
        dev.read(PAGE, 64, 2 * epoch)  # next epoch: refilled
        assert dev.counts.promotions == 2


class TestMigrationFreeze:
    def test_frozen_device_stalls_and_unfreeze_resumes(self):
        dev = make_tiered(policy="clock", promote_threshold=1,
                          epoch_ps=10**15)
        dev.freeze_migration()
        _, t = dev.read(0, 64, 0)
        assert dev.tier_of(0) == SLOW
        assert dev.counts.migration_stalls == 1
        dev.unfreeze_migration()
        dev.read(0, 64, t)
        assert dev.tier_of(0) == FAST


class TestPower:
    def test_power_cycles_propagate_to_both_tiers(self):
        dev = make_tiered()
        dev.power_off()
        assert not dev.powered
        assert not dev.fast.powered and not dev.slow.powered
        dev.power_on()
        assert dev.powered and dev.fast.powered and dev.slow.powered

    def test_tiered_device_is_volatile(self):
        # the hot set lives in DRAM, so the composed device must never
        # advertise non-volatility (it would map into the NVM window)
        assert TieredMemory.non_volatile is False


class TestValidation:
    def test_page_bytes_must_be_multiple_of_128(self):
        with pytest.raises(ConfigurationError):
            TieredConfig(page_bytes=100)

    @pytest.mark.parametrize("field, value", [
        ("epoch_ps", 0),
        ("promote_threshold", 0),
        ("migrate_budget_bytes", -1),
    ])
    def test_bad_config_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            TieredConfig(**{field: value})

    def test_tier_capacity_must_be_page_aligned(self):
        with pytest.raises(ConfigurationError):
            TieredMemory(
                DdrDram(PAGE + 128), SttMram(4 * PAGE),
                make_policy("static"), TieredConfig(page_bytes=PAGE),
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("lru")

    def test_policy_registry_names_match_classes(self):
        assert set(POLICIES) == {"static", "clock", "budget"}
        for name, cls in POLICIES.items():
            assert cls.name == name


class TestBuildTiered:
    def test_split_respects_fast_fraction(self):
        dev = build_tiered(16 * 4096, "card", TieringSpec(fast_fraction=0.25))
        assert dev.fast_frames == 4
        assert dev.pages == 16

    def test_both_tiers_keep_at_least_one_page(self):
        lo = build_tiered(8 * 4096, "card", TieringSpec(fast_fraction=0.01))
        hi = build_tiered(8 * 4096, "card", TieringSpec(fast_fraction=0.99))
        assert lo.fast_frames == 1
        assert hi.fast_frames == 7

    def test_slow_memory_selects_technology(self):
        mram = build_tiered(8 * 4096, "c", TieringSpec(slow_memory="mram"))
        nvd = build_tiered(8 * 4096, "c", TieringSpec(slow_memory="nvdimm"))
        assert mram.slow.technology == "mram"
        assert nvd.slow.technology == "nvdimm"

    @pytest.mark.parametrize("kwargs", [
        {"fast_fraction": 0.0},
        {"fast_fraction": 1.0},
        {"slow_memory": "flash"},
        {"policy": "lru"},
    ])
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TieringSpec(**kwargs)

    def test_unaligned_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tiered(4096 + 1, "card", TieringSpec())

    def test_single_page_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tiered(4096, "card", TieringSpec())
