"""Common interface for memory buffers terminating a DMI channel.

A memory buffer receives assembled :class:`~repro.dmi.commands.Command`
objects from the channel's command layer, executes them against its memory
ports, and calls ``respond`` with a :class:`~repro.dmi.commands.Response`.
Two implementations exist:

* :class:`~repro.buffer.centaur.Centaur` — the production ASIC model,
* :class:`~repro.fpga.contutto.ConTuttoBuffer` — the FPGA design.

The buffer is a protocol *slave*: it never initiates commands (Section 2.3).
"""

from __future__ import annotations

from typing import Callable

from ..dmi.commands import Command, Opcode, Response
from ..errors import ProtocolError
from ..sim import Simulator
from ..telemetry import probe

RespondFn = Callable[[Response], None]


class MemoryBuffer:
    """Abstract DMI memory buffer."""

    #: human-readable kind used by firmware presence detection
    kind: str = "abstract"

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name

    # -- DmiChannel integration ------------------------------------------------

    def handle_command(self, command: Command, respond: RespondFn) -> None:
        """Entry point wired as the channel's ``buffer_handler``."""
        started = self.sim.now_ps

        def respond_and_record(response: Response) -> None:
            trace = probe.session
            if trace is not None:
                if trace.spans:
                    trace.complete(
                        "buffer", f"{self.kind}.{command.opcode.value}",
                        started, self.sim.now_ps, {"addr": command.address},
                    )
                trace.count(f"buffer.{self.kind}.commands")
                trace.record("buffer.service_ps", self.sim.now_ps - started)
            respond(response)

        self._execute(command, respond_and_record)

    def _execute(self, command: Command, respond: RespondFn) -> None:
        raise NotImplementedError

    # -- characteristics used by training / firmware -----------------------------

    def endpoint_overheads(self):
        """(tx_overhead_ps, rx_overhead_ps, replay_prep_ps, freeze) for the endpoint."""
        raise NotImplementedError

    def supports(self, opcode: Opcode) -> bool:
        """Whether this buffer implements ``opcode`` (extensions are FPGA-only)."""
        return not opcode.is_extension

    def _reject_unsupported(self, command: Command) -> None:
        if not self.supports(command.opcode):
            raise ProtocolError(
                f"{self.name}: {command.opcode.value} not implemented by {self.kind}"
            )

    @property
    def capacity_bytes(self) -> int:
        raise NotImplementedError
