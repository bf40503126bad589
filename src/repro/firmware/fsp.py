"""The Field Service Processor (FSP).

The FSP derives the structure of the machine, configures each feature card
before boot, monitors hardware health, and maintains long-term error logs —
deconfiguring hardware that faults too often (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..sim import Simulator
from .fsi import FsiBus


@dataclass(frozen=True)
class ErrorLogEntry:
    """One entry in the FSP's persistent error log."""

    time_ps: int
    component: str
    message: str
    severity: str = "error"  # "info" | "error" | "fatal"


class ServiceProcessor:
    """FSP: presence detection, error logging, deconfiguration policy."""

    #: errors on one component before the FSP pulls it from the config
    DECONFIGURE_THRESHOLD = 3

    def __init__(self, sim: Simulator, fsi: Optional[FsiBus] = None, name: str = "fsp"):
        self.sim = sim
        self.name = name
        self.fsi = fsi or FsiBus(sim)
        self.error_log: List[ErrorLogEntry] = []
        self._error_counts: Dict[str, int] = {}
        self.deconfigured: Set[str] = set()

    # -- structure discovery ----------------------------------------------------

    def discover(self) -> Dict[int, str]:
        """Presence-detect sweep over the FSI bus: port -> device kind."""
        return self.fsi.scan()

    # -- error handling -----------------------------------------------------------

    def log(self, component: str, message: str, severity: str = "error") -> None:
        self.error_log.append(
            ErrorLogEntry(self.sim.now_ps, component, message, severity)
        )
        if severity != "info":
            count = self._error_counts.get(component, 0) + 1
            self._error_counts[component] = count
            if count >= self.DECONFIGURE_THRESHOLD:
                self.deconfigure(component)

    def deconfigure(self, component: str) -> None:
        """Remove a component from the machine configuration."""
        if component not in self.deconfigured:
            self.deconfigured.add(component)
            self.error_log.append(
                ErrorLogEntry(
                    self.sim.now_ps, component, "deconfigured by FSP policy", "fatal"
                )
            )

    def is_deconfigured(self, component: str) -> bool:
        return component in self.deconfigured

    def errors_for(self, component: str) -> List[ErrorLogEntry]:
        return [e for e in self.error_log if e.component == component]

    @property
    def error_count(self) -> int:
        return sum(1 for e in self.error_log if e.severity != "info")
