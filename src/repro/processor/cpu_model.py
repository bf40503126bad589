"""Analytical CPU performance model: CPI stacks vs memory latency.

The latency-variation experiments (Section 4.1) run complete applications
on real hardware; the observable is *end-to-end runtime as a function of
latency to memory*.  The mechanism behind the published curves is the
classic CPI decomposition:

    CPI(T) = CPI_base + (MPKI_mem / 1000) * exposed * T_cycles / MLP

* ``CPI_base`` — compute CPI with an ideal (zero-extra-latency) memory,
* ``MPKI_mem`` — off-chip (beyond-L3) misses per kilo-instruction,
* ``exposed`` — fraction of a miss's latency the out-of-order core cannot
  hide behind independent work,
* ``MLP`` — average number of overlapping outstanding misses.

Runtime is then ``instructions * CPI(T) / frequency``, and a SPEC-style
*ratio* is ``reference_runtime / runtime``.  An application's sensitivity to
memory latency collapses into ``s = MPKI_mem/1000 * exposed / MLP`` — CPI
added per cycle of memory latency — which is what distinguishes an mcf from
an hmmer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class WorkloadProfile:
    """Latency-sensitivity characterization of one application."""

    name: str
    #: CPI with an ideal memory system
    base_cpi: float
    #: off-chip misses per kilo-instruction
    mem_mpki: float
    #: fraction of miss latency the core cannot hide
    exposed: float
    #: memory-level parallelism (overlapping misses)
    mlp: float
    #: dynamic instruction count of the (scaled) run
    instructions: float = 1e12
    #: SPEC reference runtime in seconds (for ratio reporting)
    reference_runtime_s: float = 10_000.0

    def __post_init__(self) -> None:
        if self.base_cpi <= 0:
            raise ConfigurationError(f"{self.name}: base CPI must be positive")
        if self.mem_mpki < 0:
            raise ConfigurationError(f"{self.name}: MPKI cannot be negative")
        if not 0 <= self.exposed <= 1:
            raise ConfigurationError(f"{self.name}: exposed must be in [0, 1]")
        if self.mlp < 1:
            raise ConfigurationError(f"{self.name}: MLP cannot be below 1")

    @property
    def sensitivity(self) -> float:
        """CPI added per core cycle of memory latency."""
        return self.mem_mpki / 1000 * self.exposed / self.mlp


class CpuModel:
    """Evaluates workload profiles against a memory latency."""

    def __init__(self, core_freq_ghz: float = 4.0):
        if core_freq_ghz <= 0:
            raise ConfigurationError("core frequency must be positive")
        self.core_freq_ghz = core_freq_ghz

    def latency_cycles(self, memory_latency_ns: float) -> float:
        return memory_latency_ns * self.core_freq_ghz

    def cpi(self, profile: WorkloadProfile, memory_latency_ns: float) -> float:
        """CPI at the given loaded memory latency."""
        if memory_latency_ns < 0:
            raise ConfigurationError("memory latency cannot be negative")
        return profile.base_cpi + profile.sensitivity * self.latency_cycles(
            memory_latency_ns
        )

    def runtime_s(self, profile: WorkloadProfile, memory_latency_ns: float) -> float:
        """End-to-end runtime in seconds."""
        cycles = profile.instructions * self.cpi(profile, memory_latency_ns)
        return cycles / (self.core_freq_ghz * 1e9)

    def spec_ratio(self, profile: WorkloadProfile, memory_latency_ns: float) -> float:
        """SPEC-style ratio: reference runtime over measured runtime."""
        return profile.reference_runtime_s / self.runtime_s(
            profile, memory_latency_ns
        )

    def degradation(
        self,
        profile: WorkloadProfile,
        base_latency_ns: float,
        new_latency_ns: float,
    ) -> float:
        """Fractional runtime increase going from base to new latency."""
        base = self.runtime_s(profile, base_latency_ns)
        new = self.runtime_s(profile, new_latency_ns)
        return new / base - 1.0
