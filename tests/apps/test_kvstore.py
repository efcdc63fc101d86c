"""Data Serving: storage-engine semantics and request-path behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kvstore import DataServingApp
from repro.apps.kvstore.store import KeyValueStore, Memtable, SSTable
from repro.machine.address_space import AddressSpace
from repro.machine.codelayout import CodeLayout
from repro.machine.runtime import Runtime
from repro.uarch.uop import OpKind


@pytest.fixture()
def rt():
    layout = CodeLayout()
    return Runtime(layout, main=layout.function("m", 8192))


@pytest.fixture()
def space():
    return AddressSpace()


class TestMemtable:
    def test_put_get(self, space, rt):
        mt = Memtable(space, capacity=16)
        mt.put(rt, 5, 0xABC0)
        assert mt.get(rt, 5) == 0xABC0
        assert mt.get(rt, 6) is None

    def test_fills_up(self, space, rt):
        mt = Memtable(space, capacity=2)
        mt.put(rt, 1, 0x40)
        assert not mt.is_full()
        mt.put(rt, 2, 0x80)
        assert mt.is_full()
        assert sorted(mt.drain()) == [1, 2]
        assert len(mt) == 0


class TestSSTable:
    def test_find_present_key(self, space, rt):
        table = SSTable(space, 0, list(range(0, 100, 2)), 256)
        addr = table.find(rt, 42)
        assert addr == table.record_addr(42)

    def test_find_absent_key(self, space, rt):
        table = SSTable(space, 0, list(range(0, 100, 2)), 256)
        assert table.find(rt, 43) is None

    def test_bloom_never_false_negative(self, space, rt):
        table = SSTable(space, 0, list(range(50)), 256)
        for key in range(50):
            assert table.might_contain(rt, key)

    def test_bloom_mostly_rejects_absent_keys(self, space, rt):
        table = SSTable(space, 0, list(range(50)), 256)
        false_positives = sum(
            table.might_contain(rt, key) for key in range(1000, 2000)
        )
        assert false_positives < 50  # ~1% target

    def test_record_addresses_are_distinct(self, space):
        table = SSTable(space, 0, [1, 2, 3], 256)
        addresses = {table.record_addr(k) for k in (1, 2, 3)}
        assert len(addresses) == 3


class TestSSTableRank:
    """``rank`` against a dict over the run's sorted keys."""

    @staticmethod
    def _check(table, keys, probes):
        ranks = {key: i for i, key in enumerate(sorted(keys))}
        for key in list(keys) + list(probes):
            assert table.rank(key) == ranks.get(key), key

    def test_base_tables(self, space):
        """Each base table is a strided range of record ids."""
        for table_id in range(4):
            keys = list(range(table_id, 3_000, 4))
            table = SSTable(space, table_id, keys, 256)
            self._check(table, keys, range(-5, 3_005))

    @settings(max_examples=40, deadline=None)
    @given(keys=st.lists(st.integers(0, 5_000), unique=True, max_size=300),
           probes=st.lists(st.integers(-10, 5_010), max_size=60))
    def test_l0_runs(self, keys, probes):
        """An L0 run is a memtable drain: distinct keys, insertion order."""
        table = SSTable(AddressSpace(), 9, keys, 256)
        self._check(table, keys, probes)

    def test_empty_run(self, space):
        self._check(SSTable(space, 5, [], 256), [], [0, 1])


class TestKeyValueStore:
    def test_get_returns_record_address(self, space, rt):
        store = KeyValueStore(space, record_count=64, record_bytes=128)
        addr = store.get(rt, 10)
        assert addr is not None

    def test_every_key_is_resolvable(self, space, rt):
        store = KeyValueStore(space, record_count=32, record_bytes=128)
        for key in range(32):
            assert store.get(rt, key) is not None, key

    def test_put_then_get_hits_memtable(self, space, rt):
        store = KeyValueStore(space, record_count=64, record_bytes=128)
        store.put(rt, 7)
        before = store.memtable_hits
        store.get(rt, 7)
        assert store.memtable_hits == before + 1

    def test_reads_and_writes_counted(self, space, rt):
        store = KeyValueStore(space, record_count=64, record_bytes=128)
        store.get(rt, 1)
        store.put(rt, 2)
        assert store.reads == 1
        assert store.writes == 1

    def test_get_emits_dependent_index_loads(self, space, rt):
        store = KeyValueStore(space, record_count=256, record_bytes=128)
        rt.take()
        store.get(rt, 129)
        loads = [u for u in rt.take() if u.kind == OpKind.LOAD]
        assert len(loads) >= 8  # probe + blooms + index walk + record
        dependent = sum(1 for u in loads if u.deps)
        assert dependent >= len(loads) // 2


class TestDataServingApp:
    def test_serves_requests_and_produces_uops(self):
        app = DataServingApp(seed=3, record_count=2_000)
        trace = list(app.trace(0, 5_000))
        assert len(trace) >= 5_000
        assert app.requests_served > 0

    def test_mix_is_mostly_reads(self):
        app = DataServingApp(seed=3, record_count=2_000)
        list(app.trace(0, 30_000))
        total = app.client.reads_issued + app.client.updates_issued
        assert app.client.reads_issued / total > 0.9

    def test_os_component_present(self):
        app = DataServingApp(seed=3, record_count=2_000)
        trace = list(app.trace(0, 8_000))
        os_ops = sum(1 for u in trace if u.is_os)
        assert 0.02 < os_ops / len(trace) < 0.5

    def test_warm_ranges_include_hot_records(self):
        app = DataServingApp(seed=3, record_count=2_000)
        ranges = app.warm_ranges()
        assert len(ranges) > 100  # nursery + filters + hot records


class TestLsmMaintenance:
    def _full_store(self, rt, space, capacity=8):
        store = KeyValueStore(space, record_count=64, record_bytes=128,
                              memtable_capacity=capacity)
        for key in range(capacity):
            store.put(rt, key)
        return store

    def test_full_memtable_flushes_into_l0_run(self, space, rt):
        store = self._full_store(rt, space)
        assert store.memtable.is_full()
        while store.memtable.is_full() or store._flush_queue:
            store.background(rt)
        assert store.flushes == 1
        assert len(store.l0_runs) == 1
        assert len(store.memtable) == 0

    def test_keys_stay_readable_after_flush(self, space, rt):
        store = self._full_store(rt, space)
        while store.memtable.is_full() or store._flush_queue:
            store.background(rt)
        for key in range(8):
            assert store.get(rt, key) is not None, key

    def test_compaction_consumes_l0_runs(self, space, rt):
        store = KeyValueStore(space, record_count=64, record_bytes=128,
                              memtable_capacity=4)
        # Produce enough flushed runs to trigger compaction.
        for round_number in range(5):
            for key in range(4):
                store.put(rt, (round_number * 4 + key) % 64)
            while store.memtable.is_full() or store._flush_queue:
                store.background(rt)
        runs_before = len(store.l0_runs)
        assert runs_before >= store.COMPACTION_THRESHOLD
        for _ in range(200):
            store.background(rt)
            if store.compactions:
                break
        assert store.compactions >= 1
        assert len(store.l0_runs) < runs_before

    def test_keys_stay_readable_after_compaction(self, space, rt):
        store = KeyValueStore(space, record_count=32, record_bytes=128,
                              memtable_capacity=4)
        for key in range(20):
            store.put(rt, key % 32)
            store.background(rt)
        for _ in range(400):
            store.background(rt)
        for key in range(20):
            assert store.get(rt, key % 32) is not None, key

    def test_background_emits_sequential_stores(self, space, rt):
        store = self._full_store(rt, space)
        rt.take()
        store.background(rt)
        stores = [u for u in rt.take() if u.kind == OpKind.STORE]
        assert len(stores) > 8  # run construction writes


class TestSparseIndexBoundaries:
    def test_first_and_last_keys_found(self, space, rt):
        keys = list(range(3, 1003, 7))
        table = SSTable(space, 0, keys, 128)
        assert table.find(rt, keys[0]) == table.record_addr(keys[0])
        assert table.find(rt, keys[-1]) == table.record_addr(keys[-1])

    def test_keys_at_sparse_run_edges(self, space, rt):
        keys = list(range(100))
        table = SSTable(space, 0, keys, 128)
        factor = table.SPARSE_FACTOR
        for rank in (0, factor - 1, factor, 2 * factor - 1, 99):
            key = keys[rank]
            assert table.find(rt, key) == table.record_addr(key), rank

    def test_between_keys_not_found(self, space, rt):
        table = SSTable(space, 0, list(range(0, 100, 10)), 128)
        for absent in (5, 15, 95):
            assert table.find(rt, absent) is None

    def test_single_key_run(self, space, rt):
        table = SSTable(space, 0, [42], 128)
        assert table.find(rt, 42) == table.record_addr(42)
        assert table.find(rt, 41) is None
