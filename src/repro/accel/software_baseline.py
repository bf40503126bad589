"""Software baselines for the Table 5 kernels.

Table 5 compares the ConTutto accelerators against software on the POWER8
using CDIMMs: memory copy 3.2 GB/s, min/max 0.5 GB/s, FFT 0.68 Gsamples/s
(the FFT number from Giefers et al., DATE'15, using 4 CDIMMs / 16 DIMM
ports).  The models below derive those throughputs from simple
machine-level arguments so they respond to configuration (core frequency,
latency) rather than being bare constants — but they are calibrated to the
published figures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SoftwareMachine:
    """The CPU-side parameters the baselines depend on."""

    core_freq_ghz: float = 4.0
    #: sustainable copy bandwidth per core: load+store through the cache
    #: hierarchy, limited by LSU throughput and miss handling
    copy_bytes_per_cycle: float = 0.8
    #: scalar compare loop: two data-dependent branches per int32 that
    #: mispredict on random data -> ~32 cycles per element
    minmax_elements_per_cycle: float = 1 / 32
    #: vectorized software FFT: cycles per butterfly (VSX, DATE'15-grade)
    fft_cycles_per_butterfly: float = 1.18


class SoftwareBaselines:
    """Throughput models for the three kernels run on the processor."""

    def __init__(self, machine: SoftwareMachine = SoftwareMachine()):
        self.machine = machine

    # -- memory copy ---------------------------------------------------------

    def memcopy_gb_s(self) -> float:
        """memcpy() of a large block: ~3.2 GB/s of payload copied."""
        return self.machine.copy_bytes_per_cycle * self.machine.core_freq_ghz

    # -- min/max scan -----------------------------------------------------------

    def minmax_gb_s(self) -> float:
        """Scalar scan of int32 data: ~0.5 GB/s."""
        elements_per_s = (
            self.machine.minmax_elements_per_cycle * self.machine.core_freq_ghz * 1e9
        )
        return elements_per_s * 4 / 1e9

    # -- FFT ----------------------------------------------------------------------

    def fft_gsamples_s(self, points: int = 1024) -> float:
        """1024-point FFT throughput: ~0.68 Gsamples/s (DATE'15, 16 ports)."""
        import math

        butterflies_per_sample = math.log2(points) / 2
        cycles_per_sample = butterflies_per_sample * self.machine.fft_cycles_per_butterfly
        return self.machine.core_freq_ghz / cycles_per_sample
