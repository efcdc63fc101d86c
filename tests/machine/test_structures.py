"""Simulated data structures: arrays, hash maps, rings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.address_space import AddressSpace
from repro.machine.codelayout import CodeLayout
from repro.machine.runtime import Runtime
from repro.machine.structures import SimArray, SimHashMap, SimRingBuffer
from repro.uarch.uop import OpKind
from tests.machine.test_runtime import (
    _PROGRAM,
    _drive,
    _fields,
    _state,
    runtime_pair,
)


@pytest.fixture()
def env():
    space = AddressSpace()
    layout = CodeLayout()
    rt = Runtime(layout, main=layout.function("m", 8192))
    return space, rt


class TestSimArray:
    def test_addresses_are_strided(self, env):
        space, _ = env
        arr = SimArray(space, 10, 128)
        assert arr.addr(1) - arr.addr(0) == 128
        assert arr.nbytes == 1280

    def test_bounds_checked(self, env):
        space, _ = env
        arr = SimArray(space, 10, 128)
        with pytest.raises(IndexError):
            arr.addr(10)
        with pytest.raises(IndexError):
            arr.addr(-1)

    def test_invalid_geometry_rejected(self, env):
        space, _ = env
        with pytest.raises(ValueError):
            SimArray(space, 0, 64)

    def test_read_record_touches_every_line(self, env):
        space, rt = env
        arr = SimArray(space, 4, 256)
        arr.read_record(rt, 2)
        loads = [u for u in rt.take() if u.kind == OpKind.LOAD]
        assert len(loads) == 4
        assert all(arr.addr(2) <= u.addr < arr.addr(3) for u in loads)

    def test_read_write_emit(self, env):
        space, rt = env
        arr = SimArray(space, 4, 64)
        arr.read(rt, 0)
        arr.write(rt, 1)
        buf = rt.take()
        assert sum(1 for u in buf if u.kind == OpKind.LOAD) == 1
        assert sum(1 for u in buf if u.kind == OpKind.STORE) == 1


class TestSimHashMap:
    def test_put_get_roundtrip(self, env):
        space, rt = env
        table = SimHashMap(space, 64)
        table.put(rt, "key", 42)
        assert table.get(rt, "key") == 42
        assert table.get(rt, "other") is None

    def test_overwrite(self, env):
        space, rt = env
        table = SimHashMap(space, 64)
        table.put(rt, "k", 1)
        table.put(rt, "k", 2)
        assert table.get(rt, "k") == 2
        assert len(table) == 1

    def test_chain_walk_emits_dependent_loads(self, env):
        space, rt = env
        table = SimHashMap(space, 1)  # everything in one bucket
        for i in range(5):
            table.put(rt, i, i)
        rt.take()
        table.get(rt, 0)  # the deepest entry (inserted first, walked last)
        loads = [u for u in rt.take() if u.kind == OpKind.LOAD]
        assert len(loads) >= 5
        for prev, cur in zip(loads, loads[1:]):
            assert prev.seq in cur.deps

    def test_contains_without_trace(self, env):
        space, rt = env
        table = SimHashMap(space, 16)
        table.put(rt, "a", 1)
        assert table.contains("a")
        assert not table.contains("b")

    @settings(max_examples=25, deadline=None)
    @given(items=st.dictionaries(st.integers(0, 10_000), st.integers(),
                                 min_size=1, max_size=60))
    def test_property_behaves_like_a_dict(self, items):
        space = AddressSpace()
        layout = CodeLayout()
        rt = Runtime(layout, main=layout.function("m", 8192))
        table = SimHashMap(space, 16)
        for key, value in items.items():
            table.put(rt, key, value)
        for key, value in items.items():
            assert table.get(rt, key) == value
        assert len(table) == len(items)


class TestPreload:
    """``preload`` against one traced ``put`` per item, with the
    emitted ops taken away."""

    @settings(max_examples=60, deadline=None)
    @given(items=st.lists(
               st.tuples(st.one_of(st.integers(0, 60),
                                   st.sampled_from(["a", "b", ("t", 1)])),
                         st.integers()),
               max_size=150),
           nbuckets=st.integers(1, 12), program=_PROGRAM)
    def test_equals_traced_puts(self, items, nbuckets, program):
        quiet, loud, fns = runtime_pair()
        scopes = {quiet: [], loud: []}
        maps = {}
        for rt in (quiet, loud):
            _drive(rt, fns, program, scopes[rt])
            rt.take()
            space = AddressSpace()
            maps[rt] = (SimHashMap(space, nbuckets), space)
        quiet_map, quiet_space = maps[quiet]
        loud_map, loud_space = maps[loud]
        quiet_map.preload(quiet, items)
        for key, value in items:
            loud_map.put(loud, key, value)
        loud.take()
        assert quiet.pending() == 0
        assert quiet_map._chains == loud_map._chains
        assert quiet_map._values == loud_map._values
        assert quiet_map.size == loud_map.size
        assert quiet_space.region("heap").cursor == \
            loud_space.region("heap").cursor
        assert _state(quiet) == _state(loud)
        for rt in (quiet, loud):
            while rt.pending() < 1_000:
                _drive(rt, fns, [("load", 1), ("alu", 6), ("site", 1)],
                       scopes[rt])
        assert _fields(quiet.take()) == _fields(loud.take())

    def test_counts_ops_by_chain_position(self):
        quiet, loud, _ = runtime_pair()
        table = SimHashMap(AddressSpace(), 1)  # one chain
        table.preload(quiet, [(1, "a"), (2, "b"), (1, "c")])
        # New keys: 6 + chain length (0, then 1); key 1 is now second.
        loud.alu(n=6 + 7 + 6)
        assert _state(quiet) == _state(loud)
        assert table.contains(1) and len(table) == 2


class TestRingBuffer:
    def test_fifo_order(self, env):
        space, rt = env
        ring = SimRingBuffer(space, 8)
        ring.push(rt, "a")
        ring.push(rt, "b")
        assert ring.pop(rt) == "a"
        assert ring.pop(rt) == "b"
        assert ring.pop(rt) is None

    def test_len(self, env):
        space, rt = env
        ring = SimRingBuffer(space, 8)
        for i in range(5):
            ring.push(rt, i)
        assert len(ring) == 5

    def test_slots_wrap(self, env):
        space, rt = env
        ring = SimRingBuffer(space, 2)
        addr0 = ring._slot_addr(0)
        assert ring._slot_addr(2) == addr0
