"""Physical-layer model of one DMI link direction.

A :class:`SerialLink` is a unidirectional bundle of high-speed lanes (14
downstream, 21 upstream).  It models:

* **serialization**: one frame occupies 16 UI on every lane, so at 8 GHz a
  frame takes 2 ns on the wire and back-to-back frames cannot overlap;
* **latency**: transmitter SerDes + flight time + receiver capture.  The
  receive path differs by capture mode — Centaur uses the forwarded clock,
  while ConTutto's FPGA transceivers recover the clock from the data (CDR)
  and pay extra capture latency (Section 3.2);
* **scrambling**: the byte stream is scrambled at the transmitter and
  descrambled at the receiver with per-lane LFSRs;
* **bit errors**: an error model flips wire bits with a configurable
  per-frame probability, which surfaces at the receiver as CRC failures and
  exercises the replay machinery.

The link carries :class:`~repro.dmi.frames.Frame` objects.  While no
error model is armed it hands the receiver the sent object itself: the
wire round trip is provably the identity, so it is not computed.  Only
while corruption can occur does it pack, scramble, corrupt and
descramble, and deliver the received bytes for the endpoint to CRC-check
and unpack.  Framing and protocol live in :mod:`repro.dmi.channel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..sim import ClockDomain, Rng, Simulator
from ..telemetry import probe
from .frames import FRAME_UI, Frame
from .scrambler import BundleScrambler


@dataclass
class LinkErrorModel:
    """Stochastic corruption of frames in flight.

    ``frame_error_rate`` is the probability that a given frame suffers at
    least one bit flip in transit.  Real DMI links run with raw BERs around
    1e-12 and rely on CRC+replay; tests crank this up to exercise recovery.
    """

    frame_error_rate: float = 0.0
    max_flips: int = 1
    #: corrupt the next N frames unconditionally (deterministic drops for
    #: fault injection); consumed before the stochastic rate is consulted
    force_drops: int = 0

    def corrupt(self, data: bytes, rng: Rng) -> bytes:
        if self.force_drops == 0 and self.frame_error_rate == 0.0:
            # Clean-run fast path: no RNG consultation per frame.  Rng.chance
            # draws nothing for p=0 either, so stream state is unaffected —
            # this only skips the call overhead on every clean frame.
            return data
        if self.force_drops > 0:
            self.force_drops -= 1
            out = bytearray(data)
            out[0] ^= 1
            return bytes(out)
        if not rng.chance(self.frame_error_rate):
            return data
        out = bytearray(data)
        flips = rng.randint(1, max(1, self.max_flips))
        for _ in range(flips):
            bit = rng.randint(0, len(out) * 8 - 1)
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)


def configure_link_errors(
    links: Iterable[SerialLink], frame_error_rate: float, max_flips: int = 1
) -> List[Tuple[float, int]]:
    """Set the error model of each link; returns the previous settings.

    Every path that configures link errors — ``SocketConfig.
    frame_error_rate`` at attach time, the ``dmi.bit_errors`` injector at
    runtime — goes through here, so there is exactly one place that knows
    how a BER turns into :class:`LinkErrorModel` state.
    """
    if not 0.0 <= frame_error_rate <= 1.0:
        raise ConfigurationError(
            f"frame error rate {frame_error_rate} outside [0, 1]"
        )
    previous: List[Tuple[float, int]] = []
    for link in links:
        model = link.error_model
        previous.append((model.frame_error_rate, model.max_flips))
        model.frame_error_rate = frame_error_rate
        model.max_flips = max_flips
    return previous


class SerialLink:
    """One direction of the DMI channel: an ordered, lossy-by-corruption pipe."""

    #: extra receiver latency when the sampling clock is recovered from data
    CDR_EXTRA_PS = 900
    #: SerDes transmit + receive base latency (both modes)
    SERDES_BASE_PS = 1_600
    #: time of flight over the board trace
    FLIGHT_PS = 500

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_lanes: int,
        link_clock: ClockDomain,
        cdr_capture: bool = False,
        error_model: Optional[LinkErrorModel] = None,
        rng: Optional[Rng] = None,
    ):
        if num_lanes <= 0:
            raise ConfigurationError(f"link {name!r}: needs at least one lane")
        self.sim = sim
        self.name = name
        self.num_lanes = num_lanes
        self.link_clock = link_clock
        self.cdr_capture = cdr_capture
        #: pipe latency from start-of-serialization to start-of-delivery;
        #: the capture mode is fixed at construction
        self.latency_ps = (
            self.SERDES_BASE_PS + self.FLIGHT_PS + (self.CDR_EXTRA_PS if cdr_capture else 0)
        )
        self.error_model = error_model or LinkErrorModel()
        self.rng = rng or Rng(0, name)
        self._tx_scrambler = BundleScrambler(num_lanes)
        self._rx_scrambler = BundleScrambler(num_lanes)
        # Delivery is ordered and lossless (corruption flips bits, it never
        # drops frames), so the receive descrambler stays in lockstep with
        # the transmitter: the keystream the receiver will generate for a
        # frame is exactly the keystream it was scrambled with.  Each
        # scrambled frame's keystream therefore rides along as an argument
        # of its arrival event, and the receiver descrambles with one
        # big-int XOR instead of running the receive LFSRs a second time.
        # The one case where lockstep breaks — a resync with frames still in
        # flight — switches the receiver to a live LFSR (see resync()),
        # reproducing the real desync garbage.
        self._in_flight = 0
        self._rx_live = False
        # ClockDomain periods are fixed at construction, so the per-frame
        # wire time is a constant — cached because the send path and the
        # ACK-timeout math read it for every frame.
        self._frame_wire_ps = FRAME_UI * link_clock.period_ps
        self._next_free_ps = 0
        #: span label, formatted once — send() traces every frame
        self._trace_label = f"frame:{name}"
        self._deliver: Optional[Callable[[Union[Frame, bytes]], None]] = None
        # Stats
        self.frames_sent = 0
        self.frames_corrupted = 0
        self.busy_ps = 0

    # -- wiring ------------------------------------------------------------

    def connect(self, deliver: Callable[[Union[Frame, bytes]], None]) -> None:
        """Attach the receiver callback; called once during channel assembly.

        ``deliver`` receives the sent :class:`Frame` itself on a clean link,
        and the received (descrambled, possibly corrupted) bytes otherwise.
        """
        if self._deliver is not None:
            raise ConfigurationError(f"link {self.name!r} already connected")
        self._deliver = deliver

    # -- timing ------------------------------------------------------------

    @property
    def next_free_ps(self) -> int:
        """When the wire finishes serializing everything queued so far."""
        return max(self._next_free_ps, self.sim.now_ps)

    @property
    def frame_wire_ps(self) -> int:
        """Serialization time of one frame: 16 UI at the link rate."""
        return self._frame_wire_ps

    def resync(self) -> None:
        """Reset scrambler state on both ends (start of link training)."""
        self._tx_scrambler.resync()
        self._rx_scrambler.resync()
        if self._in_flight:
            # Frames are in flight across the resync: the freshly reset
            # receive scrambler is no longer in lockstep with the keystream
            # those frames were scrambled with.  From here on run the
            # receive descrambler as a live state machine so the in-flight
            # frames garble exactly as they would on real hardware (and the
            # link stays desynced until the next clean resync).
            self._rx_live = True

    # -- transfer ------------------------------------------------------------

    def send(self, frame: Frame) -> int:
        """Transmit one frame; returns its delivery timestamp (ps).

        Frames serialize back to back: a send issued while the wire is busy
        queues behind the in-flight frame (the protocol layer paces itself,
        but training patterns burst).
        """
        if self._deliver is None:
            raise ConfigurationError(f"link {self.name!r} has no receiver connected")
        wire_ps = self._frame_wire_ps
        start = max(self.sim.now_ps, self._next_free_ps)
        self._next_free_ps = start + wire_ps
        self.busy_ps += wire_ps

        em = self.error_model
        if (
            em.force_drops == 0
            and em.frame_error_rate == 0.0
            and not self._rx_live
        ):
            # Clean frame: nothing can corrupt it, so pack -> scramble ->
            # CRC -> descramble -> CRC check -> unpack returns the frame
            # that went in.  Deliver the object itself; only advance the
            # lane LFSRs (state must stay real for any later resync or
            # fault injection), lazily, by the frame's packed length.
            self._tx_scrambler.skip_frame(frame.packed_len())
            sent, wire, key = frame, None, 0
        else:
            sent = packed = frame.pack()
            n = len(packed)
            key = int.from_bytes(self._tx_scrambler.keystream_frame(n), "little")
            wire = (int.from_bytes(packed, "little") ^ key).to_bytes(n, "little")
            wire = em.corrupt(wire, self.rng)
        self._in_flight += 1
        arrival = start + wire_ps + self.latency_ps
        self.frames_sent += 1
        trace = probe.session
        if trace is not None:
            # serialization start through delivery: the whole wire transit
            trace.complete("dmi", self._trace_label, start, arrival)
            trace.count("dmi.frames_sent")
        self.sim.call_at(arrival, self._arrive, sent, wire, key)
        return arrival

    def _arrive(self, sent: Union[Frame, bytes], wire: Optional[bytes], key: int) -> None:
        """Deliver one frame.

        A clean frame arrives as ``(frame, None, 0)``; a scrambled one as
        ``(packed, wire, key)``: what was sent, the (possibly corrupted)
        bytes on the wire, and the keystream that scrambled them.
        """
        self._in_flight -= 1
        assert self._deliver is not None
        if wire is None:
            if not self._rx_live:
                self._deliver(sent)
                return
            # A clean frame caught in flight by resync(): its keystream
            # was skipped, so it is on the wire as its plain packed bytes.
            sent = wire = sent.pack()
        if self._rx_live:
            received = self._rx_scrambler.process(wire)
        else:
            n = len(wire)
            received = (int.from_bytes(wire, "little") ^ key).to_bytes(n, "little")
        if received != sent:
            self.frames_corrupted += 1
            trace = probe.session
            if trace is not None:
                trace.instant("dmi", f"corrupt:{self.name}", self.sim.now_ps)
                trace.count("dmi.frames_corrupted")
        self._deliver(received)

    def utilization(self, window_ps: int) -> float:
        """Fraction of ``window_ps`` the wire spent serializing frames."""
        if window_ps <= 0:
            raise ValueError("utilization window must be positive")
        return min(1.0, self.busy_ps / window_ps)
