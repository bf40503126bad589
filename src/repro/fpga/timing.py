"""Timing-closure model for the ConTutto FPGA logic (Section 3.3).

Two hard constraints shaped the real design:

1. **FRTL budget** — every fabric pipeline stage costs 4 ns (250 MHz), i.e.
   8 cycles on the 2 GHz memory bus, and the POWER8 host tolerates only a
   bounded frame round-trip latency.  The designers (a) bypassed the
   receiver macro's clock-crossing FIFO, capturing the phase-offset data
   directly in the core clock domain, and (b) collapsed the CRC logic from
   four pipeline stages to two, Centaur-style.

2. **Achievable clock** — packing more logic per stage lowers the fabric
   Fmax.  The two-stage CRC only closed timing with pre-placed first-stage
   flops at the receiver-fabric interface and an over-constrained CRC feed
   stage.

This module models both: a pipeline configuration yields rx/tx overheads
(for the DMI endpoint) and an Fmax estimate; configurations that cannot
reach 250 MHz raise at design-build time, reproducing the design-space
narrative as executable constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim import ClockDomain, fabric_clock


@dataclass(frozen=True)
class FpgaTimingConfig:
    """Pipeline structure knobs for the DMI-facing FPGA logic."""

    #: CRC pipeline depth: Centaur uses 2; the initial FPGA design used 4
    crc_stages: int = 2
    #: use the receiver macro's clock-crossing FIFO (adds 3 stages) instead
    #: of sampling the 14x32 phase-offset bits directly in the core domain
    use_rx_clock_crossing_fifo: bool = False
    #: pre-place the first stage of fabric flip-flops at the RX interface
    preplace_rx_flops: bool = True
    #: over-constrain the stage feeding all 14x32 bits into the CRC cone
    overconstrain_crc_feed: bool = True
    #: MBI stages after CRC: sequence/ACK bookkeeping
    mbi_stages: int = 2
    #: TX-side stages: frame build, scramble, serializer feed
    tx_stages: int = 3
    #: cycles to fence MBS and switch the TX mux onto the replay buffer
    replay_switch_cycles: int = 10

    def __post_init__(self) -> None:
        if self.crc_stages < 1:
            raise ConfigurationError("CRC needs at least one pipeline stage")


class TimingClosure:
    """Evaluates a pipeline configuration against fabric constraints."""

    #: Fmax of a comfortable (4-stage-CRC) datapath on this fabric, in MHz
    BASELINE_FMAX_MHZ = 350.0
    #: each physical optimization recovers this fraction of Fmax; the
    #: two-stage CRC misses 250 MHz unless BOTH are applied (Section 3.3)
    PREPLACE_GAIN = 0.05
    OVERCONSTRAIN_GAIN = 0.04

    def __init__(self, config: FpgaTimingConfig, clock: ClockDomain = None):
        self.config = config
        self.clock = clock or fabric_clock()

    # -- achievable clock --------------------------------------------------

    def logic_depth_factor(self) -> float:
        """Relative combinational depth per stage vs the 4-stage design."""
        # Halving the stage count roughly doubles the logic packed per stage;
        # interpolate with the 4-stage design as 1.0.
        return 4.0 / self.config.crc_stages * 0.5 + 0.5

    def estimated_fmax_mhz(self) -> float:
        fmax = self.BASELINE_FMAX_MHZ / self.logic_depth_factor()
        if self.config.preplace_rx_flops:
            fmax *= 1 + self.PREPLACE_GAIN
        if self.config.overconstrain_crc_feed:
            fmax *= 1 + self.OVERCONSTRAIN_GAIN
        return fmax

    @property
    def target_mhz(self) -> float:
        return 1_000_000 / self.clock.period_ps  # 4000 ps -> 250 MHz

    def meets_timing(self) -> bool:
        return self.estimated_fmax_mhz() >= self.target_mhz

    def check(self) -> None:
        if not self.meets_timing():
            raise ConfigurationError(
                f"design misses timing: estimated Fmax "
                f"{self.estimated_fmax_mhz():.0f} MHz below the "
                f"{self.target_mhz:.0f} MHz target "
                f"(crc_stages={self.config.crc_stages}, "
                f"preplace={self.config.preplace_rx_flops}, "
                f"overconstrain={self.config.overconstrain_crc_feed})"
            )

    # -- latency contributions -----------------------------------------------

    def rx_stages(self) -> int:
        fifo = 3 if self.config.use_rx_clock_crossing_fifo else 1
        return fifo + self.config.crc_stages + self.config.mbi_stages

    def rx_overhead_ps(self) -> int:
        return self.clock.cycles_to_ps(self.rx_stages())

    def tx_overhead_ps(self) -> int:
        return self.clock.cycles_to_ps(self.config.tx_stages + self.config.crc_stages)

    def replay_prep_ps(self) -> int:
        return self.clock.cycles_to_ps(self.config.replay_switch_cycles)

    def frtl_contribution_ps(self) -> int:
        """The buffer-internal part of the frame round trip."""
        return self.rx_overhead_ps() + self.tx_overhead_ps()


#: the shipping configuration: 2-stage CRC, FIFO bypassed, both physical
#: optimizations applied — the only combination that meets both constraints
SHIPPING_TIMING = FpgaTimingConfig()

#: the initial (pre-optimization) design: comfortable timing, FRTL too high
INITIAL_TIMING = FpgaTimingConfig(
    crc_stages=4,
    use_rx_clock_crossing_fifo=True,
    preplace_rx_flops=False,
    overconstrain_crc_feed=False,
)
