"""The Centaur memory buffer's 16 MB eDRAM cache.

Each Centaur carries a 16 MB on-chip cache "to support prefetching and
improve system performance" (Section 2.1).  ConTutto's FPGA design omits it
for simplicity — one of the reasons the FPGA's latency "is not
representative of that of the Centaur chip".

The model is a set-associative write-back cache with LRU replacement and an
optional next-line prefetcher.  It is functional (it holds real line
contents) so the Centaur model's correctness does not depend on the cache
being transparent by construction — dirty lines really are written back.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..telemetry import probe
from ..units import CACHE_LINE_BYTES, MIB


@dataclass
class _Line:
    data: bytes
    dirty: bool = False


class BufferCache:
    """Set-associative write-back cache with LRU and next-line prefetch."""

    def __init__(
        self,
        capacity_bytes: int = 16 * MIB,
        ways: int = 16,
        line_bytes: int = CACHE_LINE_BYTES,
        prefetch_next_line: bool = True,
    ):
        if capacity_bytes % (ways * line_bytes) != 0:
            raise ConfigurationError(
                "cache capacity must be a multiple of ways x line size"
            )
        self.capacity_bytes = capacity_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = capacity_bytes // (ways * line_bytes)
        self.prefetch_next_line = prefetch_next_line
        # set number -> OrderedDict tag -> _Line, LRU at the front; a set
        # is created by its first fill (a job touches a few hundred of the
        # default geometry's 8,192), and an absent set holds no lines
        self._sets: Dict[int, "OrderedDict[int, _Line]"] = {}
        #: resident line count, maintained incrementally — the occupancy
        #: sampler reads it every period, and walking thousands of sets
        #: per sample dominated sampling cost
        self.lines_held = 0
        # Stats
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.prefetches_issued = 0
        self.prefetch_hits = 0
        self._prefetched_tags: set = set()

    # -- geometry ------------------------------------------------------------

    def _index(self, addr: int) -> Tuple[int, int]:
        line_no = addr // self.line_bytes
        return line_no % self.num_sets, line_no // self.num_sets

    def _line_addr(self, set_no: int, tag: int) -> int:
        return (tag * self.num_sets + set_no) * self.line_bytes

    # -- operations -----------------------------------------------------------

    def lookup(self, addr: int) -> Optional[bytes]:
        """Probe for the line containing ``addr``; LRU-promotes on hit."""
        set_no, tag = self._index(addr)
        assoc_set = self._sets.get(set_no)
        line = assoc_set.get(tag) if assoc_set is not None else None
        trace = probe.session
        if line is None:
            self.misses += 1
            if trace is not None:
                trace.count("buffer.cache.misses")
            return None
        assoc_set.move_to_end(tag)
        self.hits += 1
        if trace is not None:
            trace.count("buffer.cache.hits")
        if (set_no, tag) in self._prefetched_tags:
            self.prefetch_hits += 1
            self._prefetched_tags.discard((set_no, tag))
        return line.data

    def fill(self, addr: int, data: bytes, dirty: bool = False) -> Optional[Tuple[int, bytes]]:
        """Install a line; returns ``(victim_addr, victim_data)`` if a dirty
        line had to be evicted (the caller must write it back)."""
        if len(data) != self.line_bytes:
            raise ConfigurationError(
                f"cache fill must be one {self.line_bytes}B line"
            )
        set_no, tag = self._index(addr)
        assoc_set = self._sets.get(set_no)
        if assoc_set is None:
            assoc_set = self._sets[set_no] = OrderedDict()
        victim = None
        if tag not in assoc_set:
            if len(assoc_set) >= self.ways:
                victim_tag, victim_line = assoc_set.popitem(last=False)
                self._prefetched_tags.discard((set_no, victim_tag))
                if victim_line.dirty:
                    self.writebacks += 1
                    trace = probe.session
                    if trace is not None:
                        trace.count("buffer.cache.writebacks")
                    victim = (self._line_addr(set_no, victim_tag), victim_line.data)
            else:
                self.lines_held += 1
        assoc_set[tag] = _Line(data, dirty)
        assoc_set.move_to_end(tag)
        return victim

    def update(self, addr: int, data: bytes) -> bool:
        """Write a full line if present (marks dirty); returns hit/miss."""
        set_no, tag = self._index(addr)
        assoc_set = self._sets.get(set_no, ())
        trace = probe.session
        if tag not in assoc_set:
            if trace is not None:
                trace.count("buffer.cache.write_misses")
            return False
        assoc_set[tag] = _Line(data, dirty=True)
        assoc_set.move_to_end(tag)
        if trace is not None:
            trace.count("buffer.cache.write_hits")
        return True

    def next_line_candidate(self, addr: int) -> Optional[int]:
        """Address worth prefetching after a miss at ``addr`` (or ``None``)."""
        if not self.prefetch_next_line:
            return None
        nxt = addr + self.line_bytes
        set_no, tag = self._index(nxt)
        if tag in self._sets.get(set_no, ()):
            return None
        return nxt

    def note_prefetch(self, addr: int) -> None:
        """Mark a line just filled as prefetched (for accuracy stats)."""
        self.prefetches_issued += 1
        self._prefetched_tags.add(self._index(addr))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
