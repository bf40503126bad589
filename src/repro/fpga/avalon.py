"""The on-chip Avalon bus connecting MBS to memory controllers and slaves.

Section 3.3(iv): MBS has two read and two write ports on the bus (it
processes two DMI frames per cycle), the core/DDR clock-domain crossing
happens in the bus, and new slaves — PCIe, accelerator MMIO regions,
controllers for alternative memory technologies — integrate plug-and-play
as long as they speak the bus interface.

A slave is anything with ``submit_read(addr, nbytes) -> Signal`` and
``submit_write(addr, data) -> Signal`` (the :class:`MemoryController` API).
Slaves are registered with a base/size window; the bus routes by address
and translates to slave-local addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import AddressRangeError, ConfigurationError
from ..sim import ClockDomain, Signal, Simulator, fabric_clock


@dataclass
class _Window:
    base: int
    size: int
    slave: object
    name: str

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class AvalonPort:
    """One master port: single-issue per fabric cycle, in-order."""

    def __init__(self, sim: Simulator, name: str, clock: ClockDomain):
        self.sim = sim
        self.name = name
        self.clock = clock
        self._next_issue_ps = 0
        self.transactions = 0
        self.wait_ps = 0

    def issue_slot(self) -> int:
        """Reserve the next issue slot; returns the slot's start time."""
        start = max(self.sim.now_ps, self._next_issue_ps)
        self.wait_ps += start - self.sim.now_ps
        self._next_issue_ps = start + self.clock.period_ps
        self.transactions += 1
        return start


class AvalonBus:
    """Address-routed interconnect with CDC latency and per-port pacing."""

    def __init__(
        self,
        sim: Simulator,
        num_read_ports: int = 2,
        num_write_ports: int = 2,
        cdc_latency_cycles: int = 3,
        clock: Optional[ClockDomain] = None,
        name: str = "avalon",
    ):
        if num_read_ports <= 0 or num_write_ports <= 0:
            raise ConfigurationError("Avalon bus needs at least one port each way")
        self.sim = sim
        self.name = name
        self.clock = clock or fabric_clock()
        self.read_ports = [
            AvalonPort(sim, f"{name}.rd{i}", self.clock) for i in range(num_read_ports)
        ]
        self.write_ports = [
            AvalonPort(sim, f"{name}.wr{i}", self.clock) for i in range(num_write_ports)
        ]
        self.cdc_latency_ps = cdc_latency_cycles * self.clock.period_ps
        self._windows: List[_Window] = []

    # -- topology ------------------------------------------------------------

    def add_slave(self, base: int, size: int, slave: object, name: str = "") -> None:
        """Map ``slave`` at ``[base, base+size)``; windows must not overlap."""
        if size <= 0:
            raise ConfigurationError("slave window size must be positive")
        for win in self._windows:
            if base < win.base + win.size and win.base < base + size:
                raise ConfigurationError(
                    f"slave window [{base:#x},{base + size:#x}) overlaps {win.name}"
                )
        self._windows.append(_Window(base, size, slave, name or repr(slave)))

    def _route(self, addr: int) -> Tuple[object, int]:
        for win in self._windows:
            if win.contains(addr):
                return win.slave, addr - win.base
        raise AddressRangeError(f"{self.name}: no slave at address {addr:#x}")

    # -- transfers ---------------------------------------------------------------

    def read(
        self, port: int, addr: int, nbytes: int, journey: Optional[int] = None
    ) -> Signal:
        """Read via read port ``port``; signal triggers with the data."""
        slave, local = self._route(addr)
        slot = self.read_ports[port].issue_slot()
        done = Signal(f"{self.name}.rd@{addr:#x}")
        lead = slot - self.sim.now_ps + self.cdc_latency_ps
        kwargs = self._journey_kwargs(slave, journey)

        def launch():
            inner = slave.submit_read(local, nbytes, **kwargs)
            inner.add_waiter(
                lambda data: self.sim.call_after(self.cdc_latency_ps, done.trigger, data)
            )

        self.sim.call_after(lead, launch)
        return done

    def write(
        self, port: int, addr: int, data: bytes, journey: Optional[int] = None
    ) -> Signal:
        """Write via write port ``port``; signal triggers on completion."""
        slave, local = self._route(addr)
        slot = self.write_ports[port].issue_slot()
        done = Signal(f"{self.name}.wr@{addr:#x}")
        lead = slot - self.sim.now_ps + self.cdc_latency_ps
        kwargs = self._journey_kwargs(slave, journey)

        def launch():
            inner = slave.submit_write(local, data, **kwargs)
            inner.add_waiter(
                lambda _: self.sim.call_after(self.cdc_latency_ps, done.trigger, None)
            )

        self.sim.call_after(lead, launch)
        return done

    @staticmethod
    def _journey_kwargs(slave: object, journey: Optional[int]) -> dict:
        """Only journey-aware slaves (``accepts_journey``) take the kwarg;
        others — accelerator MMIO regions, third-party slaves — keep the
        plain two-argument submit API."""
        if journey is not None and getattr(slave, "accepts_journey", False):
            return {"journey": journey}
        return {}
