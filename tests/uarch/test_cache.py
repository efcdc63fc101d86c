"""Cache model: hits, LRU replacement, writebacks, prefetch metadata."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.cache import Cache
from repro.uarch.params import CacheParams


def make_cache(size=4096, assoc=4, latency=4, line=64) -> Cache:
    return Cache("test", CacheParams(size, assoc, latency, line))


class TestBasicOperation:
    def test_cold_miss_then_hit_after_fill(self):
        cache = make_cache()
        assert not cache.access(0x1000)
        cache.fill(0x1000)
        assert cache.access(0x1000)

    def test_same_line_different_offsets_hit(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.access(0x1000 + 63)
        assert not cache.access(0x1000 + 64)

    def test_stats_track_hits_and_misses(self):
        cache = make_cache()
        cache.access(0)
        cache.fill(0)
        cache.access(0)
        assert cache.stats.demand_misses == 1
        assert cache.stats.demand_hits == 1
        assert cache.stats.demand_accesses == 2
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_instruction_and_data_counters_are_split(self):
        cache = make_cache()
        cache.access(0, is_instr=True)
        cache.access(64, is_instr=False)
        assert cache.stats.inst_misses == 1
        assert cache.stats.data_misses == 1

    def test_os_counters(self):
        cache = make_cache()
        cache.access(0, is_instr=True, is_os=True)
        cache.fill(0)
        cache.access(0, is_instr=True, is_os=True)
        assert cache.stats.os_inst_misses == 1
        assert cache.stats.os_inst_hits == 1


class TestLruReplacement:
    def test_eviction_follows_lru_order(self):
        cache = make_cache(size=4 * 64, assoc=4, line=64)  # one set
        for i in range(4):
            cache.fill(i * 64 * cache.num_sets)
        # Touch line 0 so line 1 becomes LRU.
        cache.access(0)
        victim = cache.fill(4 * 64 * cache.num_sets)
        assert victim is not None
        assert victim.addr == 1 * 64 * cache.num_sets

    def test_capacity_never_exceeded(self):
        cache = make_cache(size=2048, assoc=2)
        for i in range(1000):
            cache.fill(i * 64)
        assert cache.resident_lines() <= 2048 // 64

    def test_dirty_eviction_reports_writeback(self):
        cache = make_cache(size=64, assoc=1)
        cache.fill(0, dirty=True)
        victim = cache.fill(64 * cache.num_sets)
        assert victim is not None and victim.dirty
        assert cache.stats.writebacks == 1

    def test_clean_eviction_is_not_a_writeback(self):
        cache = make_cache(size=64, assoc=1)
        cache.fill(0, dirty=False)
        victim = cache.fill(64 * cache.num_sets)
        assert victim is not None and not victim.dirty
        assert cache.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=64, assoc=1)
        cache.fill(0)
        cache.access(0, is_write=True)
        victim = cache.fill(64 * cache.num_sets)
        assert victim.dirty


class TestPrefetchMetadata:
    def test_prefetched_line_counted_useful_on_demand_hit(self):
        cache = make_cache()
        cache.fill(0, prefetched=True)
        assert cache.stats.prefetch_issued == 1
        cache.access(0)
        assert cache.stats.prefetch_useful == 1

    def test_unused_prefetch_eviction_is_counted(self):
        cache = make_cache(size=64, assoc=1)
        cache.fill(0, prefetched=True)
        cache.fill(64 * cache.num_sets)
        assert cache.stats.prefetch_unused_evicted == 1

    def test_pf_penalty_consumed_once(self):
        cache = make_cache()
        cache.fill(0, prefetched=True, pf_penalty=80)
        cache.access(0)
        assert cache.consumed_pf_penalty == 80
        cache.access(0)
        assert cache.consumed_pf_penalty == 0

    def test_demand_fill_clears_prefetch_state(self):
        cache = make_cache()
        cache.fill(0, prefetched=True, pf_penalty=80)
        cache.fill(0, prefetched=False)
        cache.access(0)
        assert cache.consumed_pf_penalty == 0


class TestInvalidate:
    def test_invalidate_removes_line(self):
        cache = make_cache()
        cache.fill(0x40)
        assert cache.invalidate(0x40)
        assert not cache.contains(0x40)

    def test_invalidate_missing_line_returns_false(self):
        cache = make_cache()
        assert not cache.invalidate(0x40)

    def test_flush_empties_cache(self):
        cache = make_cache()
        for i in range(10):
            cache.fill(i * 64)
        cache.flush()
        assert cache.resident_lines() == 0

    def test_peek_state_does_not_touch_lru(self):
        cache = make_cache(size=2 * 64, assoc=2)
        cache.fill(0)
        cache.fill(64 * cache.num_sets)
        cache.peek_state(0)  # must NOT make line 0 most-recently-used
        victim = cache.fill(2 * 64 * cache.num_sets)
        assert victim.addr == 0


class ReferenceLru:
    """Oracle: per-set LRU lists maintained the slow, obvious way."""

    def __init__(self, num_sets: int, assoc: int, line: int = 64) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.line = line
        self.sets: dict[int, list[int]] = {i: [] for i in range(num_sets)}

    def _set_of(self, addr: int) -> tuple[int, int]:
        tag = addr // self.line
        return tag % self.num_sets, tag

    def access(self, addr: int) -> bool:
        index, tag = self._set_of(addr)
        lru = self.sets[index]
        if tag in lru:
            lru.remove(tag)
            lru.append(tag)
            return True
        return False

    def fill(self, addr: int) -> None:
        index, tag = self._set_of(addr)
        lru = self.sets[index]
        if tag in lru:
            return
        if len(lru) >= self.assoc:
            lru.pop(0)
        lru.append(tag)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=63)),
        min_size=1,
        max_size=300,
    )
)
def test_cache_matches_reference_lru_model(ops):
    """Property: hit/miss outcomes match an oracle LRU implementation."""
    cache = make_cache(size=8 * 64 * 2, assoc=2)  # 8 sets, 2-way
    oracle = ReferenceLru(cache.num_sets, 2)
    for is_fill, line_index in ops:
        addr = line_index * 64
        if is_fill:
            cache.fill(addr)
            oracle.fill(addr)
        else:
            assert cache.access(addr) == oracle.access(addr)
            # Model demand-fill-on-miss so both stay in sync.
            cache.fill(addr)
            oracle.fill(addr)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_resident_lines_never_exceed_capacity(seed):
    rng = random.Random(seed)
    cache = make_cache(size=4096, assoc=4)
    capacity = 4096 // 64
    for _ in range(500):
        cache.fill(rng.randrange(1 << 20) & ~63)
        assert cache.resident_lines() <= capacity


# -- bulk range installs ---------------------------------------------------

@st.composite
def _install_case(draw):
    """A cache geometry, a pre-populated state and a list of ranges."""
    line = draw(st.sampled_from([64, 128]))
    num_sets = draw(st.sampled_from([1, 2, 4, 8]))
    assoc = draw(st.integers(min_value=1, max_value=4))
    capacity = num_sets * assoc
    span = 3 * capacity  # line indices drawn from here overlap often
    prepopulate = draw(st.lists(
        st.tuples(st.integers(0, span), st.booleans(), st.booleans(),
                  st.integers(0, 90)),
        max_size=2 * capacity))
    extent = st.one_of(st.integers(0, 3 * line),
                       st.integers(0, 2 * capacity * line))
    ranges = draw(st.lists(
        st.tuples(st.integers(0, span), st.integers(0, line - 1), extent),
        max_size=8))
    spans = [(index * line + offset, nbytes)
             for index, offset, nbytes in ranges]
    if spans:
        spans += draw(st.lists(st.sampled_from(spans), max_size=3))
    return line, num_sets, assoc, prepopulate, spans


@settings(max_examples=300, deadline=None)
@given(case=_install_case())
def test_install_ranges_matches_per_address_fill(case):
    """Property: one bulk install equals filling every address of
    ``range(base, base + nbytes, line_bytes)``, range after range — the
    same keys in the same LRU order with the same packed flags in every
    set, and the same statistics."""
    line, num_sets, assoc, prepopulate, ranges = case
    bulk = make_cache(size=num_sets * assoc * line, assoc=assoc, line=line)
    walked = make_cache(size=num_sets * assoc * line, assoc=assoc, line=line)
    for cache in (bulk, walked):
        for index, dirty, prefetched, pf_penalty in prepopulate:
            cache.fill(index * line, dirty=dirty, prefetched=prefetched,
                       pf_penalty=pf_penalty)
    bulk.install_ranges(ranges)
    for base, nbytes in ranges:
        for addr in range(base, base + nbytes, line):
            walked.fill(addr)
    assert [list(s.items()) for s in bulk._sets] == \
        [list(s.items()) for s in walked._sets]
    assert vars(bulk.stats) == vars(walked.stats)


class TestInstallRanges:
    def test_unaligned_range_drops_its_last_partial_line(self):
        """A range installs ceil(nbytes / line) lines from base's line,
        so one that starts mid-line leaves the line of its last bytes
        out."""
        cache = make_cache(size=64 * 64, assoc=4, line=64)
        base, nbytes = 10 * 64 + 8, 2 * 64
        cache.install_ranges([(base, nbytes)])
        assert cache.contains(base) and cache.contains(base + 64)
        assert not cache.contains(base + nbytes - 1)
        assert cache.resident_lines() == 2

    def test_installed_lines_are_clean_and_demand_fetched(self):
        cache = make_cache(size=64 * 64, assoc=4, line=64)
        cache.fill(0, dirty=True, prefetched=True, pf_penalty=80)
        cache.install_ranges([(0, 4 * 64)])
        assert cache.peek_state(0) == 1  # dirty kept, prefetch cleared
        assert [cache.peek_state(a) for a in (64, 128, 192)] == [0, 0, 0]
        assert cache.stats.prefetch_issued == 1
