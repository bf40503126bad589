"""Discrete-event simulation kernel: deterministic time, processes, profiling."""

from .clock import (
    ClockDomain,
    centaur_core_clock,
    dmi_link_clock,
    fabric_clock,
    nest_clock,
)
from .event import Signal
from .kernel import Simulator
from .process import Process, all_of
from .profile import PROFILE_SCHEMA, KernelProfiler, profiled, write_profile
from .rng import Rng, derive_seed

__all__ = [
    "ClockDomain",
    "KernelProfiler",
    "PROFILE_SCHEMA",
    "Process",
    "Rng",
    "Signal",
    "Simulator",
    "all_of",
    "centaur_core_clock",
    "derive_seed",
    "dmi_link_clock",
    "fabric_clock",
    "nest_clock",
    "profiled",
    "write_profile",
]
