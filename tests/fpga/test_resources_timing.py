"""Tests for FPGA resource accounting (Table 1) and timing closure."""

import pytest

from repro.errors import ConfigurationError
from repro.fpga import (
    BlockCost,
    DesignResources,
    FpgaTimingConfig,
    INITIAL_TIMING,
    SHIPPING_TIMING,
    STRATIX_V_A9,
    TimingClosure,
    base_design_resources,
)


class TestTable1Resources:
    def test_base_design_matches_table1_exactly(self):
        table = base_design_resources().table()
        assert table == [
            ("ALMs", 317_000, 136_856),
            ("Registers", 634_000, 191_403),
            ("M20K", 2_640, 244),
        ]

    def test_utilization_percentages_match_paper(self):
        util = base_design_resources().utilization()
        assert util["alms"] == pytest.approx(0.43, abs=0.005)
        assert util["registers"] == pytest.approx(0.30, abs=0.005)
        assert util["m20k"] == pytest.approx(0.09, abs=0.005)

    def test_significant_headroom_for_acceleration(self):
        head = base_design_resources().headroom()
        assert head.alms > 150_000  # "a significant portion of resources"

    def test_accelerators_fit_in_headroom(self):
        design = base_design_resources()
        design.add("access_processor")
        design.add("fft_engine", count=4)
        design.add("minmax_engine")
        assert design.utilization()["alms"] < 1.0

    def test_overfull_design_rejected(self):
        design = DesignResources(STRATIX_V_A9)
        with pytest.raises(ConfigurationError):
            design.add("huge", cost=BlockCost(400_000, 0, 0))

    def test_unknown_block_requires_cost(self):
        with pytest.raises(ConfigurationError):
            DesignResources().add("mystery")

    def test_block_cost_arithmetic(self):
        a = BlockCost(1, 2, 3)
        assert a + a == BlockCost(2, 4, 6)
        assert a.scaled(3) == BlockCost(3, 6, 9)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignResources().add("mbi", count=0)


class TestTimingClosure:
    def test_shipping_config_meets_timing(self):
        assert TimingClosure(SHIPPING_TIMING).meets_timing()

    def test_initial_config_meets_timing_but_is_slow(self):
        # the 4-stage design closes timing trivially...
        initial = TimingClosure(INITIAL_TIMING)
        assert initial.meets_timing()
        # ...but pays more pipeline latency than the shipping design
        shipping = TimingClosure(SHIPPING_TIMING)
        assert initial.frtl_contribution_ps() > shipping.frtl_contribution_ps()

    def test_two_stage_crc_needs_both_optimizations(self):
        # Section 3.3: reduced CRC stages only close timing with pre-placed
        # RX flops AND the over-constrained CRC feed stage.
        without_preplace = FpgaTimingConfig(preplace_rx_flops=False)
        without_overconstrain = FpgaTimingConfig(overconstrain_crc_feed=False)
        assert not TimingClosure(without_preplace).meets_timing()
        assert not TimingClosure(without_overconstrain).meets_timing()
        assert TimingClosure(FpgaTimingConfig()).meets_timing()

    def test_one_stage_crc_hopeless(self):
        config = FpgaTimingConfig(crc_stages=1)
        assert not TimingClosure(config).meets_timing()
        with pytest.raises(ConfigurationError):
            TimingClosure(config).check()

    def test_fifo_bypass_saves_two_stages(self):
        with_fifo = TimingClosure(FpgaTimingConfig(use_rx_clock_crossing_fifo=True))
        without = TimingClosure(FpgaTimingConfig(use_rx_clock_crossing_fifo=False))
        assert with_fifo.rx_stages() - without.rx_stages() == 2
        assert with_fifo.rx_overhead_ps() - without.rx_overhead_ps() == 8_000

    def test_zero_crc_stages_rejected(self):
        with pytest.raises(ConfigurationError):
            FpgaTimingConfig(crc_stages=0)

    def test_replay_prep_time(self):
        closure = TimingClosure(SHIPPING_TIMING)
        assert closure.replay_prep_ps() == 10 * 4_000  # 10 fabric cycles
