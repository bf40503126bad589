"""Tests for the Centaur eDRAM buffer cache."""

import pytest

from repro.buffer import BufferCache
from repro.errors import ConfigurationError
from repro.units import CACHE_LINE_BYTES, MIB


def small_cache(ways=2, sets=4, prefetch=False):
    capacity = ways * sets * CACHE_LINE_BYTES
    return BufferCache(capacity, ways=ways, prefetch_next_line=prefetch)


def line(fill):
    return bytes([fill] * CACHE_LINE_BYTES)


class TestLookupFill:
    def test_cold_miss(self):
        cache = small_cache()
        assert cache.lookup(0) is None
        assert cache.misses == 1

    def test_fill_then_hit(self):
        cache = small_cache()
        cache.fill(0, line(1))
        assert cache.lookup(0) == line(1)
        assert cache.hits == 1

    def test_different_offsets_same_line(self):
        cache = small_cache()
        cache.fill(0, line(2))
        assert cache.lookup(64) == line(2)  # within the same 128B line

    def test_wrong_size_fill_rejected(self):
        with pytest.raises(ConfigurationError):
            small_cache().fill(0, b"short")

    def test_capacity_shape_validated(self):
        with pytest.raises(ConfigurationError):
            BufferCache(capacity_bytes=1000, ways=3)


class TestEviction:
    def test_lru_victim_evicted(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill(0 * CACHE_LINE_BYTES, line(0))
        cache.fill(1 * CACHE_LINE_BYTES, line(1))
        cache.lookup(0)  # promote line 0
        cache.fill(2 * CACHE_LINE_BYTES, line(2))  # evicts line 1
        assert cache.lookup(0) is not None
        assert cache.lookup(1 * CACHE_LINE_BYTES) is None

    def test_clean_eviction_returns_none(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0, line(0), dirty=False)
        victim = cache.fill(CACHE_LINE_BYTES, line(1))
        assert victim is None

    def test_dirty_eviction_returns_victim(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0, line(7), dirty=True)
        victim = cache.fill(CACHE_LINE_BYTES, line(1))
        assert victim == (0, line(7))
        assert cache.writebacks == 1

    def test_victim_address_reconstruction(self):
        cache = small_cache(ways=1, sets=4)
        addr = 5 * CACHE_LINE_BYTES  # set 1, tag 1
        cache.fill(addr, line(9), dirty=True)
        conflicting = addr + 4 * CACHE_LINE_BYTES  # same set, next tag
        victim = cache.fill(conflicting, line(1))
        assert victim == (addr, line(9))


class TestWrites:
    def test_update_hit_marks_dirty(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0, line(0))
        assert cache.update(0, line(5))
        victim = cache.fill(CACHE_LINE_BYTES, line(1))
        assert victim == (0, line(5))

    def test_update_miss_returns_false(self):
        assert not small_cache().update(0, line(1))


class TestPrefetch:
    def test_next_line_candidate(self):
        cache = small_cache(prefetch=True)
        assert cache.next_line_candidate(0) == CACHE_LINE_BYTES

    def test_no_candidate_when_disabled(self):
        cache = small_cache(prefetch=False)
        assert cache.next_line_candidate(0) is None

    def test_no_candidate_when_already_cached(self):
        cache = small_cache(prefetch=True)
        cache.fill(CACHE_LINE_BYTES, line(1))
        assert cache.next_line_candidate(0) is None

    def test_prefetch_hit_accounting(self):
        cache = small_cache(prefetch=True)
        cache.fill(CACHE_LINE_BYTES, line(1))
        cache.note_prefetch(CACHE_LINE_BYTES)
        cache.lookup(CACHE_LINE_BYTES)
        assert cache.prefetches_issued == 1
        assert cache.prefetch_hits == 1

    def test_hit_rate(self):
        cache = small_cache()
        cache.fill(0, line(0))
        cache.lookup(0)
        cache.lookup(CACHE_LINE_BYTES)  # miss
        assert cache.hit_rate == pytest.approx(0.5)

    def test_default_geometry_is_16mb(self):
        cache = BufferCache()
        assert cache.capacity_bytes == 16 * MIB
        assert cache.ways == 16


class TestLazySets:
    """A set is created by its first fill; nothing else allocates one, so
    building a Centaur costs nothing per set it never touches."""

    def test_fresh_cache_holds_no_sets(self):
        assert not BufferCache()._sets

    def test_probes_of_absent_sets_create_none(self):
        cache = BufferCache()
        assert cache.lookup(0) is None
        assert not cache.update(0, line(1))
        assert cache.next_line_candidate(0) == CACHE_LINE_BYTES
        assert not cache._sets
        cache.fill(0, line(1))
        assert len(cache._sets) == 1
        assert cache.lookup(0) == line(1)


class TestLinesHeld:
    """``lines_held`` is maintained incrementally for the occupancy
    sampler; it must track the true resident count through every
    mutating operation."""

    def _true_count(self, cache):
        return sum(len(s) for s in cache._sets.values())

    def test_counts_fills_and_evictions(self):
        cache = small_cache(ways=2, sets=4)
        assert cache.lines_held == 0
        for i in range(20):  # overflow several sets to force evictions
            cache.fill(i * CACHE_LINE_BYTES, line(i), dirty=bool(i % 2))
            assert cache.lines_held == self._true_count(cache)
        assert cache.lines_held == 8  # full: 2 ways x 4 sets

    def test_update_and_drain_leave_count_unchanged(self):
        cache = small_cache(ways=2, sets=4)
        cache.fill(0, line(1))
        cache.fill(CACHE_LINE_BYTES, line(2), dirty=True)
        cache.update(0, line(3))
        assert cache.lines_held == self._true_count(cache) == 2

    def test_refill_of_resident_line_not_double_counted(self):
        cache = small_cache()
        cache.fill(0, line(1))
        cache.fill(0, line(2))
        assert cache.lines_held == self._true_count(cache) == 1
