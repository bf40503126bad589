"""DMI channel protocol: frame handshake, replay, and the command layer.

This module implements the two-level handshake of Section 2.3:

* **Frame loop** (:class:`FrameEndpoint`): every transmitted frame carries a
  6-bit sequence ID and is held in a replay buffer until the peer's
  cumulative ACK arrives (ACKs ride in frames travelling the opposite
  direction).  A receiver silently drops frames that fail CRC or arrive out
  of sequence; the transmitter notices the missing ACK after the measured
  round-trip time and replays from the oldest unacknowledged frame.  No NAK
  or explicit frame ID is ever sent back.

* **Command loop** (:class:`HostCommandLayer` / :class:`BufferCommandLayer`):
  commands are issued with one of 32 tags, write data arrives in 16-byte
  chunks interleaved across frames, read data returns in 32-byte chunks, and
  a *done* retires the tag.

The ConTutto-specific replay behaviour is modeled: an FPGA endpoint needs
``replay_prep_ps`` to fence off MBS and switch its transmit path to the
replay buffer.  If that exceeds the host's ``max_replay_start_ps`` the
channel fails — unless the *freeze workaround* is enabled, in which case the
endpoint re-transmits its last frame (duplicates the host ignores) until the
replay is ready, exactly the "cheat" of Section 3.3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Union

from ..errors import ProtocolError, ReplayError
from ..sim import Signal, Simulator
from ..telemetry import probe
from ..units import CACHE_LINE_BYTES
from .commands import Command, Opcode, Response
from .frames import (
    DOWN_DATA_CHUNK,
    SEQ_MOD,
    UP_DATA_CHUNK,
    CommandHeader,
    DataChunk,
    DoneNotice,
    DownstreamFrame,
    Frame,
    TrainingFrame,
    UpstreamFrame,
    seq_distance,
)
from .link import SerialLink
from .replay import DEFAULT_DEPTH, ReplayBuffer

#: chunk offset value that marks a byte-enable mask chunk (masks are 16 bytes
#: of bits covering the 128-byte line; real offsets are 0..112)
MASK_CHUNK_OFFSET = CACHE_LINE_BYTES


@dataclass
class EndpointConfig:
    """Per-endpoint protocol timing and behaviour knobs."""

    #: internal logic latency from payload ready to frame on the link
    tx_overhead_ps: int = 500
    #: internal logic latency from frame delivery to payload visible
    rx_overhead_ps: int = 500
    #: how long past the measured round trip before a missing ACK is declared
    ack_timeout_margin_ps: int = 10_000
    #: delay before sending a pure-ACK idle frame when there is no other traffic
    idle_ack_delay_ps: int = 1_000
    #: time to fence the command pipeline and switch to the replay buffer
    replay_prep_ps: int = 0
    #: retransmit the last frame while preparing replay (ConTutto's "cheat")
    freeze_workaround: bool = False
    #: consecutive replays without ACK progress before the channel fails
    replay_limit: int = 8
    #: replay buffer depth (bounds unacknowledged frames in flight)
    replay_depth: int = DEFAULT_DEPTH
    #: the longest the peer tolerates between replay trigger and replay start;
    #: only enforced against endpoints whose peer is a POWER8 host
    max_replay_start_ps: Optional[int] = None


class FrameEndpoint:
    """One side of the DMI frame loop (link layer + replay)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tx_link: SerialLink,
        frame_in_cls: type,
        config: EndpointConfig,
        on_payload: Optional[Callable[[Frame], None]] = None,
        on_fail: Optional[Callable[[Exception], None]] = None,
    ):
        self.sim = sim
        self.name = name
        self.tx_link = tx_link
        self.frame_in_cls = frame_in_cls
        # we *receive* frame_in_cls frames, so we transmit the other kind
        self._frame_out_cls = (
            DownstreamFrame if frame_in_cls is UpstreamFrame else UpstreamFrame
        )
        self.config = config
        self.on_payload = on_payload
        self.on_fail = on_fail
        self.peer: Optional["FrameEndpoint"] = None

        self._next_tx_seq = 0
        self._last_tx_frame: Optional[Frame] = None
        self._last_accepted: Optional[int] = None
        # payload tuples, popped from the front on every pump: a deque
        # keeps that O(1)
        self._tx_queue: Deque[tuple] = deque()
        self._replay = ReplayBuffer(config.replay_depth)
        self._ack_check_scheduled = False
        self._idle_ack_scheduled = False
        self._last_idle_ack_ps = -(10**12)
        self._replay_in_progress = False
        self._consecutive_replays = 0
        #: measured at link training; ACK timeout = frtl + margin
        self.frtl_ps: int = 0
        self.failed = False
        #: the exception that killed the channel (None while operational)
        self.failure: Optional[Exception] = None
        #: during training: echo received signature frames back (buffer side)
        self.training_echo = False
        #: during training: callback for echoed signatures (host side)
        self.on_training: Optional[Callable[[TrainingFrame], None]] = None
        # Stats
        self.frames_accepted = 0
        self.crc_drops = 0
        self.seq_drops = 0
        self.duplicates_seen = 0
        self.replays_triggered = 0
        self.ack_timeouts = 0
        self.freeze_frames_sent = 0

    # -- transmit ----------------------------------------------------------

    def enqueue(self, *payloads: tuple) -> None:
        """Queue a burst of payloads and schedule one pump to send it.

        A payload is the outgoing frame's two payload fields:
        ``(command, chunk)`` downstream, ``(dones, chunk)`` upstream.  One
        pump per burst is exact: pumps scheduled by one callback would get
        consecutive ``seq`` at one timestamp, nothing can run between them,
        and the first drains everything the replay window lets it send.
        """
        if self.failed:
            if isinstance(self.failure, ReplayError):
                # replay exhaustion killed the channel: surface the specific
                # error class so callers can route to firmware recovery
                raise ReplayError(
                    f"endpoint {self.name!r}: channel is down ({self.failure})"
                )
            raise ProtocolError(f"endpoint {self.name!r}: channel is down")
        self._tx_queue.extend(payloads)
        self.sim.call_after(self.config.tx_overhead_ps, self._pump)

    def _pump(self) -> None:
        if self.failed or self._replay_in_progress:
            return
        queue = self._tx_queue
        replay = self._replay
        sends = min(len(queue), replay.depth - replay.outstanding)
        if sends > 0:
            # sending schedules events but runs none: the ACK we piggyback
            # cannot change within the burst
            link = self.tx_link
            frame_cls = self._frame_out_cls
            ack = self._last_accepted
            seq = self._next_tx_seq
            for _ in range(sends):
                frame = frame_cls(seq, ack, *queue.popleft())
                link.send(frame)
                # Hold the frame object: retransmissions send copies with
                # the ACK field refreshed.  Stamp the hold with the time the
                # frame finishes serializing — under a transmit backlog that
                # is later than now, and the ACK timer must not start before
                # the frame even leaves.
                replay.hold(seq, frame, link.next_free_ps)
                seq = (seq + 1) % SEQ_MOD
            self._next_tx_seq = seq
            self._last_tx_frame = frame
        self._schedule_ack_check()

    # -- ACK timeout / replay ------------------------------------------------

    @property
    def _ack_timeout_ps(self) -> int:
        # A transmit burst serializes at one frame per wire time, so the ACK
        # for the oldest frame can legitimately lag by the whole burst length.
        burst = self._replay.outstanding * self.tx_link.frame_wire_ps
        return self.frtl_ps + self.config.ack_timeout_margin_ps + burst

    def _schedule_ack_check(self) -> None:
        if self._ack_check_scheduled or self._replay.outstanding == 0:
            return
        oldest = self._replay.oldest_unacked()
        assert oldest is not None
        _, _, sent_at = oldest
        self._ack_check_scheduled = True
        deadline = sent_at + self._ack_timeout_ps
        self.sim.call_at(max(deadline, self.sim.now_ps), self._ack_check)

    def _ack_check(self) -> None:
        self._ack_check_scheduled = False
        if self.failed or self._replay_in_progress:
            return
        oldest = self._replay.oldest_unacked()
        if oldest is None:
            return
        _, _, sent_at = oldest
        if self.sim.now_ps - sent_at >= self._ack_timeout_ps:
            self.ack_timeouts += 1
            trace = probe.session
            if trace is not None:
                trace.count("dmi.ack_timeouts")
            self._start_replay()
        else:
            self._schedule_ack_check()

    def _start_replay(self) -> None:
        self._consecutive_replays += 1
        self.replays_triggered += 1
        trace = probe.session
        if trace is not None:
            trace.instant(
                "dmi", f"replay:{self.name}", self.sim.now_ps,
                {"consecutive": self._consecutive_replays,
                 "outstanding": self._replay.outstanding},
            )
            trace.count("dmi.replays")
        if self._consecutive_replays > self.config.replay_limit:
            self._fail(ReplayError(
                f"endpoint {self.name!r}: {self._consecutive_replays} replays "
                "without ACK progress"
            ))
            return
        prep = self.config.replay_prep_ps
        limit = self.config.max_replay_start_ps
        if limit is not None and prep > limit and not self.config.freeze_workaround:
            self._fail(ReplayError(
                f"endpoint {self.name!r}: replay start {prep}ps exceeds host "
                f"limit {limit}ps and freeze workaround is disabled"
            ))
            return
        self._replay_in_progress = True
        if prep > 0 and self.config.freeze_workaround and self._last_tx_frame:
            # Freeze the flow from the host's perspective: keep re-sending the
            # last upstream frame (a duplicate the peer ignores) until ready.
            n_freeze = max(1, prep // max(self.tx_link.frame_wire_ps, 1))
            for _ in range(min(n_freeze, 64)):
                self.tx_link.send(self._repack(self._last_tx_frame))
                self.freeze_frames_sent += 1
                if trace is not None:
                    trace.count("dmi.freeze_frames")
        self.sim.call_after(prep, self._do_replay)

    def _repack(self, frame: Frame) -> Frame:
        """A copy of ``frame`` with the ACK field refreshed to the current state.

        Re-sending a frame with the ACK it was *originally* sent with is
        dangerous: after the 6-bit sequence space wraps, that stale value
        can alias into the peer's live transmit window and cumulatively
        retire frames the peer never actually delivered to us.  The held
        frame itself stays untouched: on a clean link the peer received
        that very object.
        """
        return frame.with_ack(self._last_accepted)

    def _do_replay(self) -> None:
        if self.failed:
            return
        for _, frame in self._replay.frames_for_replay():
            self.tx_link.send(self._repack(frame))
            self._last_tx_frame = frame
        # Restart ACK timers from when the replay burst has fully drained
        # onto the wire, not from now — otherwise a backlog triggers another
        # replay before this one has even been transmitted.
        self._replay.mark_resent(self.tx_link.next_free_ps)
        self._replay_in_progress = False
        self._schedule_ack_check()
        self._pump()

    def _fail(self, exc: Exception) -> None:
        self.failed = True
        self.failure = exc
        trace = probe.session
        if trace is not None:
            trace.instant(
                "dmi", f"channel_failed:{self.name}", self.sim.now_ps,
                {"error": str(exc)},
            )
            trace.count("dmi.channel_failed")
        if self.on_fail is not None:
            self.on_fail(exc)
        else:
            raise exc

    def reset(self) -> None:
        """Return the endpoint to its power-on protocol state.

        Used by firmware-driven channel recovery: after a reset on both
        sides, link training re-establishes scrambler sync and FRTL and the
        channel comes back without a system reboot.  Any in-flight frames
        are discarded — command-layer state must be reset alongside.
        """
        self.failed = False
        self.failure = None
        self._next_tx_seq = 0
        self._last_tx_frame = None
        self._last_accepted = None
        self._tx_queue.clear()
        self._replay = ReplayBuffer(self.config.replay_depth)
        self._ack_check_scheduled = False
        self._idle_ack_scheduled = False
        self._last_idle_ack_ps = -(10**12)
        self._replay_in_progress = False
        self._consecutive_replays = 0
        self.frtl_ps = 0

    # -- receive ------------------------------------------------------------

    def deliver(self, rx: Union[Frame, bytes]) -> None:
        """Link receiver callback (wired via :meth:`SerialLink.connect`)."""
        self.sim.call_after(self.config.rx_overhead_ps, self._process_rx, rx)

    def send_training_signature(self, signature: int) -> None:
        """Transmit an FRTL-measurement signature (training only)."""
        self.tx_link.send(TrainingFrame(signature))

    def _handle_training(self, frame: TrainingFrame) -> None:
        if self.training_echo and not frame.echoed:
            # Mirror the signature back after our internal pipeline delay —
            # this is what makes the measured FRTL include the buffer logic.
            self.sim.call_after(
                self.config.tx_overhead_ps,
                lambda: self.tx_link.send(TrainingFrame(frame.signature, echoed=True)),
            )
        elif self.on_training is not None:
            self.on_training(frame)

    def _unpack(self, raw: bytes) -> Optional[Frame]:
        """CRC-check and decode bytes from a link that could corrupt them.

        Returns ``None`` (and counts a CRC drop) for a frame that fails.
        """
        is_training = raw[0] == TrainingFrame.KIND
        try:
            return (TrainingFrame if is_training else self.frame_in_cls).unpack(raw)
        except ProtocolError:
            self.crc_drops += 1
            trace = probe.session
            if trace is not None and not is_training:
                trace.instant("dmi", f"crc_drop:{self.name}", self.sim.now_ps)
                trace.count("dmi.crc_drops")
            return None

    def _process_rx(self, rx: Union[Frame, bytes]) -> None:
        if self.failed:
            return
        if type(rx) is bytes:
            # byte path: the link had an error model armed
            frame = self._unpack(rx)
            if frame is None:
                return
        else:
            frame = rx  # object path: the sent frame itself, intact
        if type(frame) is TrainingFrame:
            self._handle_training(frame)
            return
        # 1) the ACK piggybacked on this frame retires our transmitted frames
        if frame.ack_seq is not None:
            retired = self._replay.ack(frame.ack_seq)
            if retired:
                self._consecutive_replays = 0
                self._pump()
        # 2) sequence check for the payload direction.  Forward distance from
        # the last accepted frame classifies the arrival: 1 = the expected
        # next frame; 2..depth = a gap (something before it was dropped, so
        # drop this too and let replay resend in order); anything else can
        # only be a duplicate of an already-accepted frame (replay holds at
        # most `depth` frames, so live frames are never further ahead).
        if self._last_accepted is None:
            fwd = (frame.seq_id + 1) % SEQ_MOD  # as if last_accepted were -1
        else:
            fwd = seq_distance(self._last_accepted, frame.seq_id)
        if fwd == 1:
            self._last_accepted = frame.seq_id
            self.frames_accepted += 1
            trace = probe.session
            if trace is not None:
                trace.count("dmi.frames_accepted")
            self._note_ack_owed()
            self.on_payload(frame)
        elif 2 <= fwd <= self.config.replay_depth:
            self.seq_drops += 1
            trace = probe.session
            if trace is not None:
                trace.count("dmi.seq_drops")
        else:
            self.duplicates_seen += 1
            trace = probe.session
            if trace is not None:
                trace.count("dmi.duplicates")
            # Re-ACK only *payload* duplicates: they mean the peer is
            # replaying held frames because our earlier ACK was lost.  An
            # idle duplicate is just an ACK carrier — it is never held for
            # replay, so answering it with another idle ACK would bounce
            # idle frames between the endpoints forever.
            if not getattr(frame, "is_idle", True):
                self._note_ack_owed()

    def _note_ack_owed(self) -> None:
        """Make sure the peer hears our ACK even if we have nothing to send.

        Idle ACKs are coalesced and rate-limited: under a duplicate storm
        (peer replaying) one ACK answers the whole burst.  Flooding one idle
        frame per received duplicate would saturate the opposite wire and
        congest the channel into collapse.
        """
        if self._idle_ack_scheduled:
            return
        self._idle_ack_scheduled = True
        earliest = self._last_idle_ack_ps + 4 * self.tx_link.frame_wire_ps
        fire_at = max(self.sim.now_ps + self.config.idle_ack_delay_ps, earliest)
        self.sim.call_at(fire_at, self._send_idle_ack)

    def _send_idle_ack(self) -> None:
        self._idle_ack_scheduled = False
        if self.failed or self._last_accepted is None:
            return
        if self._tx_queue:
            return  # a data frame will carry the ACK
        self._last_idle_ack_ps = self.sim.now_ps
        # Idle ACK frames re-use a sequence ID the peer has *already
        # acknowledged* (the peer treats them as duplicates), so they need no
        # ACK themselves and the ack exchange terminates.  Reusing merely the
        # last *transmitted* ID would be wrong: if that frame was corrupted
        # in flight, the peer would accept the empty idle frame in its place.
        oldest = self._replay.oldest_unacked()
        if oldest is not None:
            seq = (oldest[0] - 1) % SEQ_MOD
        else:
            seq = (self._next_tx_seq - 1) % SEQ_MOD
        self.tx_link.send(self._frame_out_cls(seq, self._last_accepted))


# ---------------------------------------------------------------------------
# Command layer
# ---------------------------------------------------------------------------

_CHUNKS_PER_WRITE = CACHE_LINE_BYTES // DOWN_DATA_CHUNK   # 8
_CHUNKS_PER_READ = CACHE_LINE_BYTES // UP_DATA_CHUNK      # 4


@dataclass
class _HostPending:
    command: Command
    signal: Signal
    issued_ps: int
    chunks: Dict[int, bytes] = field(default_factory=dict)


class HostCommandLayer:
    """Processor-side command issue over a :class:`FrameEndpoint`."""

    def __init__(self, sim: Simulator, endpoint: FrameEndpoint):
        self.sim = sim
        self.endpoint = endpoint
        self._pending: Dict[int, _HostPending] = {}
        # Stats
        self.commands_issued = 0
        self.commands_completed = 0

    def issue(self, command: Command) -> Signal:
        """Send ``command`` downstream; returns a Signal firing with Response."""
        if command.tag in self._pending:
            raise ProtocolError(f"tag {command.tag} already has a command in flight")
        done = Signal(f"cmd.tag{command.tag}")
        self._pending[command.tag] = _HostPending(command, done, self.sim.now_ps)
        self.commands_issued += 1
        trace = probe.session
        if trace is not None:
            trace.count("dmi.commands_issued")

        opcode, tag, data = command.opcode, command.tag, command.data
        header = CommandHeader(opcode, tag, command.address)
        if not opcode.has_downstream_data:
            self.endpoint.enqueue((header, None))
            return done
        # the header rides with the first chunk, then the byte-enable mask
        # of a partial write, then the rest of the line: one burst
        assert data is not None
        burst = [(header, DataChunk(tag, 0, data[:DOWN_DATA_CHUNK]))]
        if opcode is Opcode.PARTIAL_WRITE:
            assert command.byte_enable is not None
            mask_bits = bytearray(CACHE_LINE_BYTES // 8)
            for i, enabled in enumerate(command.byte_enable):
                if enabled:
                    mask_bits[i // 8] |= 1 << (i % 8)
            burst.append((None, DataChunk(tag, MASK_CHUNK_OFFSET, bytes(mask_bits))))
        for off in range(DOWN_DATA_CHUNK, CACHE_LINE_BYTES, DOWN_DATA_CHUNK):
            burst.append((None, DataChunk(tag, off, data[off : off + DOWN_DATA_CHUNK])))
        self.endpoint.enqueue(*burst)
        return done

    def on_upstream(self, frame: UpstreamFrame) -> None:
        """Payload handler for the host's receive direction."""
        if frame.chunk is not None:
            pending = self._pending.get(frame.chunk.tag)
            if pending is None:
                raise ProtocolError(f"read data for idle tag {frame.chunk.tag}")
            pending.chunks[frame.chunk.offset] = frame.chunk.data
        for done in frame.dones:
            self._complete(done.tag)

    def _complete(self, tag: int) -> None:
        pending = self._pending.pop(tag, None)
        if pending is None:
            raise ProtocolError(f"done for idle tag {tag}")
        data = None
        if pending.command.opcode.returns_data:
            if len(pending.chunks) != _CHUNKS_PER_READ:
                raise ProtocolError(
                    f"tag {tag}: done before all read data "
                    f"({len(pending.chunks)}/{_CHUNKS_PER_READ} chunks)"
                )
            data = b"".join(
                pending.chunks[off] for off in range(0, CACHE_LINE_BYTES, UP_DATA_CHUNK)
            )
        self.commands_completed += 1
        trace = probe.session
        if trace is not None:
            # the frame-loop round trip of one command: issue to done
            trace.complete(
                "dmi", f"cmd.{pending.command.opcode.value}",
                pending.issued_ps, self.sim.now_ps, {"tag": tag},
            )
            trace.count("dmi.commands_completed")
            trace.record("dmi.cmd_rtt_ps", self.sim.now_ps - pending.issued_ps)
            journeys = trace.journeys
            jid = pending.command.journey
            if journeys is not None and jid is not None:
                # upstream leg: buffer respond through done delivery
                journeys.stage_to(jid, "dmi.up", self.sim.now_ps)
        pending.signal.trigger(Response(tag, pending.command.opcode, data))

    @property
    def in_flight(self) -> int:
        return len(self._pending)


@dataclass
class _BufferPending:
    header: CommandHeader
    chunks: Dict[int, bytes] = field(default_factory=dict)
    mask: Optional[bytes] = None


class BufferCommandLayer:
    """Buffer-side command assembly and response transmission.

    ``handler(command, respond)`` is the buffer model's entry point: it
    receives a fully assembled :class:`Command` and a ``respond(Response)``
    callable to invoke when execution finishes (after whatever simulated
    delay the buffer's internals add).
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: FrameEndpoint,
        handler: Callable[[Command, Callable[[Response], None]], None],
        channel_name: str = "",
    ):
        self.sim = sim
        self.endpoint = endpoint
        self.handler = handler
        #: the owning channel's name — the journey tracker's binding key
        #: (frames carry no journey id across the wire)
        self.channel_name = channel_name or endpoint.name.rsplit(".", 1)[0]
        self._assembling: Dict[int, _BufferPending] = {}
        # Stats
        self.commands_received = 0
        self.responses_sent = 0

    def on_downstream(self, frame: DownstreamFrame) -> None:
        """Payload handler for the buffer's receive direction."""
        if frame.command is not None:
            tag = frame.command.tag
            if tag in self._assembling:
                raise ProtocolError(f"tag {tag}: command while previous is assembling")
            self._assembling[tag] = _BufferPending(frame.command)
        if frame.chunk is not None:
            pending = self._assembling.get(frame.chunk.tag)
            if pending is None:
                raise ProtocolError(f"write data for idle tag {frame.chunk.tag}")
            if frame.chunk.offset == MASK_CHUNK_OFFSET:
                pending.mask = frame.chunk.data
            else:
                pending.chunks[frame.chunk.offset] = frame.chunk.data
        for tag in list(self._assembling):
            if self._is_complete(self._assembling[tag]):
                self._dispatch(tag)

    def _is_complete(self, pending: _BufferPending) -> bool:
        op = pending.header.opcode
        if op.has_downstream_data and len(pending.chunks) < _CHUNKS_PER_WRITE:
            return False
        if op is Opcode.PARTIAL_WRITE and pending.mask is None:
            return False
        return True

    def _dispatch(self, tag: int) -> None:
        pending = self._assembling.pop(tag)
        op = pending.header.opcode
        data = None
        if op.has_downstream_data:
            data = b"".join(
                pending.chunks[off] for off in range(0, CACHE_LINE_BYTES, DOWN_DATA_CHUNK)
            )
        byte_enable = None
        if op is Opcode.PARTIAL_WRITE:
            assert pending.mask is not None
            byte_enable = bytes(
                1 if (pending.mask[i // 8] >> (i % 8)) & 1 else 0
                for i in range(CACHE_LINE_BYTES)
            )
        command = Command(op, pending.header.address, tag, data, byte_enable)
        self.commands_received += 1
        trace = probe.session
        if trace is not None:
            journeys = trace.journeys
            if journeys is not None:
                jid = journeys.bound(self.channel_name, tag)
                if jid is not None:
                    # re-attach the journey the wire stripped, and close the
                    # downstream leg: host issue through command assembly
                    command.journey = jid
                    journeys.stage_to(jid, "dmi.down", self.sim.now_ps)
        self.handler(command, lambda resp: self.respond(resp))

    def respond(self, response: Response) -> None:
        """Send a response upstream: data chunks (if any) then the done."""
        trace = probe.session
        if trace is not None:
            journeys = trace.journeys
            if journeys is not None:
                jid = journeys.bound(self.channel_name, response.tag)
                if jid is not None:
                    # buffer window: command dispatch through response ready
                    journeys.stage_to(jid, "buffer", self.sim.now_ps)
        tag, data = response.tag, response.data
        dones = (DoneNotice(tag),)
        if data is None:
            self.endpoint.enqueue((dones, None))
        else:
            # the data chunks, the done riding in the last: one burst
            last = CACHE_LINE_BYTES - UP_DATA_CHUNK
            burst = [
                (None, DataChunk(tag, off, data[off : off + UP_DATA_CHUNK]))
                for off in range(0, last, UP_DATA_CHUNK)
            ]
            burst.append((dones, DataChunk(tag, last, data[last : last + UP_DATA_CHUNK])))
            self.endpoint.enqueue(*burst)
        self.responses_sent += 1


# ---------------------------------------------------------------------------
# Channel assembly
# ---------------------------------------------------------------------------


class DmiChannel:
    """A fully wired DMI channel: host endpoint <-> buffer endpoint.

    Construction wires the two serial links to the two endpoints and the
    command layers on top.  Link training (:mod:`repro.dmi.training`) must
    run before commands flow; it fills in the measured FRTL on both sides.
    """

    def __init__(
        self,
        sim: Simulator,
        down_link: SerialLink,
        up_link: SerialLink,
        host_config: EndpointConfig,
        buffer_config: EndpointConfig,
        buffer_handler: Callable[[Command, Callable[[Response], None]], None],
        name: str = "dmi0",
    ):
        self.sim = sim
        self.name = name
        self.down_link = down_link
        self.up_link = up_link
        self.failure: Optional[Exception] = None

        self.host_endpoint = FrameEndpoint(
            sim, f"{name}.host", down_link, UpstreamFrame, host_config,
            on_fail=self._on_fail,
        )
        self.buffer_endpoint = FrameEndpoint(
            sim, f"{name}.buffer", up_link, DownstreamFrame, buffer_config,
            on_fail=self._on_fail,
        )
        down_link.connect(self.buffer_endpoint.deliver)
        up_link.connect(self.host_endpoint.deliver)

        self.host = HostCommandLayer(sim, self.host_endpoint)
        self.buffer = BufferCommandLayer(
            sim, self.buffer_endpoint, buffer_handler, channel_name=name
        )
        # each endpoint only receives its frame_in_cls, so it hands accepted
        # frames straight to its command layer
        self.host_endpoint.on_payload = self.host.on_upstream
        self.buffer_endpoint.on_payload = self.buffer.on_downstream

    def _on_fail(self, exc: Exception) -> None:
        self.failure = exc
        self.host_endpoint.failed = True
        self.buffer_endpoint.failed = True

    @property
    def operational(self) -> bool:
        return self.failure is None

    def set_frtl(self, frtl_ps: int) -> None:
        """Record the trained frame round-trip latency on both endpoints."""
        self.host_endpoint.frtl_ps = frtl_ps
        self.buffer_endpoint.frtl_ps = frtl_ps

    def reset(self) -> None:
        """Firmware-driven channel reset: both endpoints back to power-on.

        In-flight commands are abandoned (their signals never fire — the
        issuing software layer must re-drive them after recovery), and the
        caller must let any frames still in flight drain before starting
        link training, or the freshly resynchronized descramblers would
        consume keystream for frames the new transmit streams never sent.
        """
        self.failure = None
        self.host_endpoint.reset()
        self.buffer_endpoint.reset()
        self.host._pending.clear()
        self.buffer._assembling.clear()
