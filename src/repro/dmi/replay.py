"""Transmit replay buffer for DMI error recovery.

Every transmitted frame is held in the replay buffer until the peer's ACK
for its sequence ID comes back.  When an ACK goes missing, the transmitter
replays from the oldest unacknowledged frame — no explicit NAK or frame ID is
ever sent by the receiver (Section 2.3); the FRTL measured at training time
tells the transmitter how long an ACK can legitimately take.

The buffer depth bounds how many frames may be in flight unacknowledged;
when it fills, transmission stalls, which is how link-level flow control
emerges.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional, Tuple

from ..errors import ProtocolError, ReplayError
from .frames import SEQ_MOD, seq_distance

DEFAULT_DEPTH = 32


class ReplayBuffer:
    """Holds transmitted frames awaiting acknowledgement, in sequence order.

    Entries are opaque to the buffer — the endpoint stores :class:`Frame`
    objects (not packed bytes) so retransmissions can refresh the
    piggybacked ACK field: replaying a frame with its *original* ACK value
    would, after a sequence-space wrap, alias into the peer's live window
    and retire frames that were never delivered.
    """

    def __init__(self, depth: int = DEFAULT_DEPTH):
        if not 0 < depth < SEQ_MOD:
            # depth must leave sequence-number headroom to disambiguate
            # duplicates from new frames after a wrap.
            raise ProtocolError(
                f"replay depth must be in (0, {SEQ_MOD}), got {depth}"
            )
        self.depth = depth
        self._pending: "OrderedDict[int, Tuple[Any, int]]" = OrderedDict()
        # Stats
        self.total_acked = 0
        self.total_replayed = 0

    @property
    def is_full(self) -> bool:
        return len(self._pending) >= self.depth

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def hold(self, seq: int, frame: Any, sent_at_ps: int) -> None:
        """Record a just-transmitted frame until its ACK arrives."""
        if self.is_full:
            raise ReplayError("replay buffer overflow: transmitter failed to stall")
        if seq in self._pending:
            raise ProtocolError(f"sequence {seq} already awaiting ACK")
        self._pending[seq] = (frame, sent_at_ps)

    def ack(self, seq: int) -> int:
        """Process a cumulative ACK for ``seq``; returns frames retired.

        ACKs are cumulative: acknowledging sequence N retires every held
        frame up to and including N (ACKs themselves can be lost; a later
        ACK must cover for earlier ones).
        """
        if not self._pending:
            return 0
        if seq not in self._pending:
            # ACK for a frame already retired (duplicate after replay) — fine.
            return 0
        retired = 0
        while self._pending:
            head_seq = next(iter(self._pending))
            self._pending.popitem(last=False)
            retired += 1
            if head_seq == seq:
                break
        self.total_acked += retired
        return retired

    def oldest_unacked(self) -> Optional[Tuple[int, Any, int]]:
        """The oldest frame still awaiting ACK: (seq, frame, sent_at_ps)."""
        if not self._pending:
            return None
        seq = next(iter(self._pending))
        frame, sent_at = self._pending[seq]
        return seq, frame, sent_at

    def frames_for_replay(self) -> List[Tuple[int, Any]]:
        """All held frames in transmit order, for retransmission."""
        self.total_replayed += len(self._pending)
        return [(seq, frame) for seq, (frame, _) in self._pending.items()]

    def mark_resent(self, now_ps: int) -> None:
        """Reset the hold timestamps after a replay (restart ACK timers)."""
        for seq in list(self._pending):
            frame, _ = self._pending[seq]
            self._pending[seq] = (frame, now_ps)

    def covers(self, seq: int) -> bool:
        """Whether ``seq`` is currently held (useful for assertions)."""
        return seq in self._pending

    def span(self) -> int:
        """Sequence-space distance from oldest to newest held frame."""
        if len(self._pending) < 2:
            return len(self._pending)
        seqs = list(self._pending)
        return seq_distance(seqs[0], seqs[-1]) + 1
