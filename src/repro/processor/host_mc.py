"""Processor-side DMI host memory controller.

One of these fronts each populated DMI channel.  It owns the channel's
32-tag window (Section 2.3): every command acquires a tag at issue and
frees it when the buffer's *done* arrives.  When the buffer is slow enough
that all 32 tags are outstanding, issue stalls — the throughput-throttling
effect the paper calls out as a key design constraint for keeping the
FPGA's round-trip latency low.
"""

from __future__ import annotations


from ..dmi import Command, DmiChannel, Opcode, TagPool
from ..errors import ProtocolError
from ..sim import Signal, Simulator
from ..telemetry import probe
from ..units import CACHE_LINE_BYTES


class HostMemoryController:
    """Tag-managed command issue over one DMI channel."""

    def __init__(
        self,
        sim: Simulator,
        channel: DmiChannel,
        name: str = "",
        num_tags: int = None,
    ):
        self.sim = sim
        self.channel = channel
        self.name = name or f"hmc.{channel.name}"
        self.tags = TagPool(sim) if num_tags is None else TagPool(sim, num_tags)

    # -- generic issue ------------------------------------------------------

    def _issue(self, opcode: Opcode, addr: int, data=None, byte_enable=None) -> Signal:
        """Acquire a tag (waiting if the window is full) and issue.

        The returned signal fires with the :class:`Response`; the tag is
        released (and, under a trace session, the round-trip latency
        recorded) first.
        """
        result = Signal(f"{self.name}.{opcode.value}@{addr:#x}")
        issued_at = self.sim.now_ps
        trace = probe.session
        journeys = None
        jid = None
        if trace is not None:
            # every transaction passes here, so this is the arrival point
            # that drives periodic occupancy sampling
            if trace.occupancy is not None:
                trace.occupancy.maybe_sample(trace, issued_at)
            journeys = trace.journeys
            if journeys is not None:
                # a line command issued inside a storage transfer becomes a
                # *child* journey of it (separate ":lines" scenario lane)
                jid = journeys.begin(opcode.value, addr, self.channel.name,
                                     issued_at, parent=journeys.current(),
                                     depth=self.tags.in_flight_count)

        def with_tag(tag: int) -> None:
            if jid is not None:
                # only recorded when acquisition actually stalled (the
                # cursor advances regardless, so the partition holds)
                journeys.stage_to(jid, "host.tag_wait", self.sim.now_ps, kind="queue")
                journeys.bind(self.channel.name, tag, jid)
            command = Command(opcode, addr, tag, data, byte_enable, journey=jid)
            inner = self.channel.host.issue(command)

            def complete(response) -> None:
                self.tags.release(tag)
                trace = probe.session
                if trace is not None:
                    # tag acquire through done: includes any tag-window stall
                    trace.complete(
                        "processor", f"host.{opcode.value}",
                        issued_at, self.sim.now_ps, {"addr": addr},
                    )
                    trace.count("processor.commands")
                    trace.record("processor.cmd_ps", self.sim.now_ps - issued_at)
                if jid is not None:
                    journeys.unbind(self.channel.name, tag)
                    journeys.finish(jid, self.sim.now_ps)
                result.trigger(response)

            inner.add_waiter(complete)

        tag = self.tags.try_acquire()
        if tag is not None:
            with_tag(tag)
        else:
            self._wait_for_tag(with_tag)
        return result

    def _wait_for_tag(self, callback) -> None:
        gate = Signal(f"{self.name}.tagwait")
        self.tags._waiters.append(gate)
        self.tags.stall_events += 1
        stall_start = self.sim.now_ps

        def retry(_):
            tag = self.tags.try_acquire()
            if tag is None:
                self._wait_for_tag(callback)
            else:
                self.tags.stall_ps += self.sim.now_ps - stall_start
                callback(tag)

        gate.add_waiter(retry)

    # -- operations ------------------------------------------------------------

    def read_line(self, addr: int) -> Signal:
        """128B cache-line read; signal fires with the data bytes."""
        result = Signal(f"{self.name}.rdline@{addr:#x}")
        self._issue(Opcode.READ, addr).add_waiter(
            lambda resp: result.trigger(resp.data)
        )
        return result

    def write_line(self, addr: int, data: bytes) -> Signal:
        if len(data) != CACHE_LINE_BYTES:
            raise ProtocolError(f"write_line requires {CACHE_LINE_BYTES}B")
        return self._issue(Opcode.WRITE, addr, data)

    def partial_write(self, addr: int, data: bytes, byte_enable: bytes) -> Signal:
        return self._issue(Opcode.PARTIAL_WRITE, addr, data, byte_enable)

    def flush(self) -> Signal:
        """ConTutto extension: drain the buffer's write pipeline."""
        return self._issue(Opcode.FLUSH, 0)

    def min_store(self, addr: int, data: bytes) -> Signal:
        return self._issue(Opcode.MIN_STORE, addr, data)

    def max_store(self, addr: int, data: bytes) -> Signal:
        return self._issue(Opcode.MAX_STORE, addr, data)

    def cswap(self, addr: int, data: bytes) -> Signal:
        """Conditional swap; signal fires with the pre-swap line."""
        return self._issue(Opcode.CSWAP, addr, data)

    # -- diagnostics ---------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.tags.in_flight_count
