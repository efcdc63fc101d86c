"""OLTP substrate: B+-tree, storage engine, transactions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.oltp import BPlusTree, StorageEngine, TpccApp, TpceApp
from repro.apps.oltp.engine import Table
from repro.apps.oltp.transactions import TpccDatabase
from repro.core.workloads import build_app
from repro.machine.address_space import AddressSpace
from repro.machine.codelayout import CodeLayout
from repro.machine.runtime import Runtime


@pytest.fixture()
def space():
    return AddressSpace()


@pytest.fixture()
def rt():
    layout = CodeLayout()
    return Runtime(layout, main=layout.function("m", 8192))


class TestBPlusTree:
    def test_insert_search(self, space):
        tree = BPlusTree(space)
        tree.insert(5, "five")
        tree.insert(3, "three")
        assert tree.search(5) == "five"
        assert tree.search(3) == "three"
        assert tree.search(4) is None

    def test_overwrite(self, space):
        tree = BPlusTree(space)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.search(1) == "b"
        assert len(tree) == 1

    def test_many_inserts_stay_sorted(self, space):
        tree = BPlusTree(space)
        keys = list(range(2000))
        random.Random(7).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 2)
        in_order = [k for k, _ in tree.items()]
        assert in_order == sorted(keys)
        assert tree.height > 1

    def test_range_scan(self, space):
        tree = BPlusTree(space)
        for key in range(0, 200, 2):
            tree.insert(key, key)
        scan = tree.range_scan(50, 5)
        assert [k for k, _ in scan] == [50, 52, 54, 56, 58]

    def test_range_scan_crosses_leaves(self, space):
        tree = BPlusTree(space)
        for key in range(500):
            tree.insert(key, key)
        scan = tree.range_scan(0, 100)
        assert [k for k, _ in scan] == list(range(100))

    def test_traced_search_emits_dependent_chain(self, space, rt):
        tree = BPlusTree(space)
        for key in range(1000):
            tree.insert(key, key)
        rt.take()
        tree.search(567, rt)
        loads = [u for u in rt.take() if u.kind == 1]
        assert len(loads) >= tree.height * 2
        dependent = sum(1 for u in loads if u.deps)
        assert dependent >= len(loads) - 1  # a single chain

    @settings(max_examples=25, deadline=None)
    @given(items=st.dictionaries(st.integers(0, 100_000), st.integers(),
                                 min_size=1, max_size=300))
    def test_property_behaves_like_a_dict(self, items):
        tree = BPlusTree(AddressSpace())
        for key, value in items.items():
            tree.insert(key, value)
        assert len(tree) == len(items)
        for key, value in items.items():
            assert tree.search(key) == value
        assert [k for k, _ in tree.items()] == sorted(items)


class TestStorageEngine:
    def test_table_lifecycle(self, space, rt):
        engine = StorageEngine(space)
        table = engine.create_table("t", 100, 128)
        table.insert(5, rt)
        assert table.read(5, rt) is not None
        assert table.read(6, rt) is None
        assert table.update(5, rt)
        assert not table.update(6, rt)

    def test_duplicate_table_rejected(self, space):
        engine = StorageEngine(space)
        engine.create_table("t", 10, 64)
        with pytest.raises(ValueError):
            engine.create_table("t", 10, 64)

    def test_lock_manager_acquire_release(self, space, rt):
        engine = StorageEngine(space)
        engine.locks.acquire(rt, hash(("row", 1)))
        engine.locks.acquire(rt, hash(("row", 2)))
        assert engine.locks.acquisitions == 2
        assert len(engine.locks.held) == 2
        engine.locks.release_all(rt)
        assert not engine.locks.held

    def test_log_append_advances(self, space, rt):
        engine = StorageEngine(space)
        a = engine.log_append(rt, 128)
        b = engine.log_append(rt, 128)
        assert b == a + 128
        assert engine.stats.log_records == 2


class TestTpccDatabase:
    @pytest.fixture(scope="class")
    def db(self):
        space = AddressSpace()
        engine = StorageEngine(space)
        return TpccDatabase(engine, warehouses=2, seed=1)

    @pytest.fixture()
    def db_rt(self, db):
        layout = CodeLayout()
        rt = Runtime(layout, main=layout.function("m", 8192))
        from repro.machine.os_model import OsKernel
        kernel = OsKernel(AddressSpace(), layout)
        return db, rt, kernel

    def test_population_counts(self, db):
        assert len(db.warehouse.index) == 2
        assert len(db.district.index) == 20
        assert len(db.customer.index) == 20 * 300
        assert len(db.item.index) == 10_000

    @pytest.mark.parametrize("txn", [
        "new_order", "payment", "order_status", "delivery", "stock_level",
    ])
    def test_transactions_execute_and_emit(self, db_rt, txn):
        db, rt, kernel = db_rt
        before = db.engine.stats.transactions
        getattr(db, txn)(rt, kernel)
        assert db.engine.stats.transactions == before + 1
        assert rt.take(), f"{txn} emitted nothing"

    def test_new_order_advances_order_ids(self, db_rt):
        db, rt, kernel = db_rt
        before = db._next_order_id
        db.new_order(rt, kernel)
        assert db._next_order_id == before + 1

    def test_payment_locks_warehouse_and_district(self, db_rt):
        db, rt, kernel = db_rt
        before = db.engine.locks.acquisitions
        db.payment(rt, kernel)
        assert db.engine.locks.acquisitions >= before + 2


class TestOltpApps:
    def test_tpcc_serves_transactions(self):
        app = TpccApp(seed=8)
        list(app.trace(0, 20_000))
        assert app.engine.stats.transactions > 2

    def test_tpce_serves_transactions(self):
        app = TpceApp(seed=8)
        list(app.trace(0, 20_000))
        assert app.engine.stats.transactions > 2

    def test_tpcc_mix_prefers_new_order_and_payment(self):
        app = TpccApp(seed=8)
        picks = [app._pick_txn() for _ in range(2000)]
        frequent = picks.count("new_order") + picks.count("payment")
        assert frequent / len(picks) > 0.8


class TestAborts:
    def test_some_new_orders_roll_back(self):
        space = AddressSpace()
        from repro.apps.oltp.engine import StorageEngine
        from repro.machine.os_model import OsKernel

        engine = StorageEngine(space)
        db = TpccDatabase(engine, warehouses=2, seed=3)
        layout = CodeLayout()
        rt = Runtime(layout, main=layout.function("m", 8192))
        kernel = OsKernel(AddressSpace(), layout)
        for _ in range(400):
            db.new_order(rt, kernel)
            rt.take()
        assert engine.stats.aborts > 0
        assert engine.stats.aborts < 40  # ~1%, not a flood
        assert engine.stats.transactions == 400


class TestBPlusTreeDelete:
    def test_delete_removes_key(self, space):
        tree = BPlusTree(space)
        for key in range(100):
            tree.insert(key, key)
        assert tree.delete(50)
        assert tree.search(50) is None
        assert len(tree) == 99

    def test_delete_absent_key(self, space):
        tree = BPlusTree(space)
        tree.insert(1, 1)
        assert not tree.delete(2)
        assert len(tree) == 1

    def test_order_preserved_after_deletes(self, space):
        tree = BPlusTree(space)
        for key in range(300):
            tree.insert(key, key)
        for key in range(0, 300, 3):
            assert tree.delete(key)
        remaining = [k for k, _ in tree.items()]
        assert remaining == [k for k in range(300) if k % 3]

    def test_range_scan_skips_deleted(self, space):
        tree = BPlusTree(space)
        for key in range(20):
            tree.insert(key, key)
        tree.delete(5)
        scan = [k for k, _ in tree.range_scan(4, 3)]
        assert scan == [4, 6, 7]

    def test_traced_delete_emits_store(self, space, rt):
        tree = BPlusTree(space)
        for key in range(64):
            tree.insert(key, key)
        rt.take()
        tree.delete(10, rt)
        assert any(u.kind == 2 for u in rt.take())

    @settings(max_examples=20, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(st.booleans(), st.integers(0, 200)),
            min_size=1, max_size=300,
        )
    )
    def test_property_interleaved_insert_delete_matches_dict(self, operations):
        tree = BPlusTree(AddressSpace())
        model: dict[int, int] = {}
        for is_insert, key in operations:
            if is_insert:
                tree.insert(key, key * 3)
                model[key] = key * 3
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
        assert len(tree) == len(model)
        assert [k for k, _ in tree.items()] == sorted(model)
        for key, value in model.items():
            assert tree.search(key) == value


def _tree_steps():
    """Build steps: ascending runs, stray (non-monotonic or duplicate)
    keys, deletes, and inserts that carry a runtime."""
    run = st.tuples(st.just("run"), st.integers(-500, 6_000),
                    st.integers(1, 200), st.integers(1, 3))
    single = st.tuples(st.sampled_from(["key", "delete", "traced"]),
                       st.integers(-500, 6_000), st.just(0), st.just(0))
    return st.lists(st.one_of(run, single), min_size=1, max_size=30)


def _build(steps, bulk, order=BPlusTree.ORDER):
    """Replay ``steps`` into a fresh table, the reference one key at a
    time.  With ``bulk`` each run goes through :meth:`Table.load`
    (so :meth:`BPlusTree.extend`); otherwise through one untraced
    insert per key.  A run starts above every key inserted so far, as
    ``load`` requires; stray keys, deletes and traced inserts take the
    same path either way.  The small capacity makes slots wrap, and a
    small ``order`` makes a few hundred keys split up to the root."""
    layout = CodeLayout()
    rt = Runtime(layout, main=layout.function("m", 8192))
    space = AddressSpace()
    table = Table(space, "t", capacity=700, row_bytes=64)
    table.index.ORDER = order
    top = None
    for op, key, length, stride in steps:
        if op == "delete":
            table.index.delete(key)
        elif op == "run":
            first = key if top is None or key > top else top + 1
            keys = range(first, first + length * stride, stride)
            if bulk:
                table.load(keys)
            else:
                for k in keys:
                    table.insert(k)
            top = keys[-1]
        else:
            table.insert(key, rt if op == "traced" else None)
            top = key if top is None else max(top, key)
        rt.take()
    return table, space, top


def _nodes(tree):
    """Every node, depth-first, as plain comparable fields."""
    stack, out = [tree.root], []
    while stack:
        node = stack.pop()
        out.append((node.leaf, node.addr, list(node.keys),
                    list(node.values) if node.leaf
                    else [child.addr for child in node.children],
                    node.next_leaf.addr if node.next_leaf else None))
        stack.extend(reversed(node.children))
    return out


def _shape(tree, space):
    return (_nodes(tree), tree.height, tree.size, tree.node_count,
            space.region("heap").cursor)


def _keys_before_next_split(tree, first):
    """Insert ascending keys from ``first`` one at a time; how many go
    in before one allocates a node (splits at the first one count as
    that key's own)."""
    tree.insert(first, 0)
    count = 1
    while True:
        nodes = tree.node_count
        tree.insert(first + count, 0)
        if tree.node_count != nodes:
            return count
        count += 1


class TestBulkLoad:
    """:meth:`BPlusTree.extend` and :meth:`Table.load` build exactly the
    tree one untraced insert per key builds: same nodes, addresses,
    links, height, size, node count, heap cursor and slots."""

    @settings(max_examples=60, deadline=None)
    @given(steps=_tree_steps(), order=st.sampled_from([3, 4, 32]))
    def test_load_equals_per_key_inserts(self, steps, order):
        bulk, bulk_space, _ = _build(steps, True, order)
        reference, reference_space, _ = _build(steps, False, order)
        assert _shape(bulk.index, bulk_space) == \
            _shape(reference.index, reference_space)
        assert bulk._next_slot == reference._next_slot

    @settings(max_examples=60, deadline=None)
    @given(steps=_tree_steps(), order=st.sampled_from([3, 4, 32]))
    def test_room_counts_the_keys_before_the_next_split(self, steps, order):
        table, _, top = _build(steps, False, order)
        room = table.index.room()
        assert room == _keys_before_next_split(
            table.index, 0 if top is None else top + 1)

    def test_root_splits_on_a_long_ascending_run(self):
        """Over 20,000 keys the root splits twice; a step that appended
        a full leaf's worth after a split left the root full would put
        those splits late and move every later address."""
        keys = list(range(-7, 3 * 21_000, 3))
        trees = []
        for bulk in (True, False):
            space = AddressSpace()
            tree = BPlusTree(space)
            tree.insert(10**9, "stray")  # a key above the run, deleted
            tree.delete(10**9)
            values = [f"v{k}" for k in keys]
            if bulk:
                tree.extend(keys[:5], values[:5])
                tree.extend(keys[5:], values[5:])
            else:
                for key, value in zip(keys, values):
                    tree.insert(key, value)
            trees.append(_shape(tree, space))
        assert trees[0] == trees[1]
        assert trees[0][1] == 4  # height: the root split twice

    def test_extend_rejects_keys_not_above_the_right_spine(self, space):
        tree = BPlusTree(space)
        tree.extend(range(100), range(100))
        with pytest.raises(ValueError, match="right spine"):
            tree.extend([99, 100], [0, 0])
        with pytest.raises(ValueError, match="one value per key"):
            tree.extend([100, 101], [0])
        tree.extend([], [])
        assert [k for k, _ in tree.items()] == list(range(100))

    def test_a_rejected_load_takes_no_slots(self, space):
        table = Table(space, "t", capacity=50, row_bytes=64)
        table.load(range(10))
        with pytest.raises(ValueError, match="right spine"):
            table.load(range(5, 20))
        assert table.insert(10) == 10


def _per_key_load(table, keys):
    for key in keys:
        table.insert(key)


def _per_key_tpcc_populate(db):
    """TpccDatabase.populate with one insert per key."""
    for w in range(db.warehouses):
        db.warehouse.insert(w)
    for d in range(db.districts):
        db.district.insert(d)
    for c in range(db.districts * db.customers_per_district):
        db.customer.insert(c)
        db.customer_by_name.insert((c % 997) * 1_000_000 + c, c)
    for i in range(db.items):
        db.item.insert(i)
    for s in range(db.warehouses * db.stock_per_warehouse):
        db.stock.insert(s)


def _app_trees(app):
    trees = [(name, table.index, table._next_slot)
             for name, table in app.engine.tables.items()]
    db = getattr(app, "db", None)
    if isinstance(db, TpccDatabase):
        trees.append(("customer.lastname", db.customer_by_name, None))
    return [(name, _shape(tree, app.space), slot)
            for name, tree, slot in trees]


class TestFullSizePopulates:
    """Each OLTP app's bulk populate against one insert per key."""

    @pytest.mark.parametrize("name", ["tpc-c", "tpc-e", "web-backend"])
    def test_populate_equals_per_key_inserts(self, name, monkeypatch):
        bulk = build_app(name, seed=7)
        bulk_trees = _app_trees(bulk)
        bulk_cursors = {region: r.cursor
                        for region, r in bulk.space.regions.items()}
        del bulk
        monkeypatch.setattr(Table, "load", _per_key_load)
        monkeypatch.setattr(TpccDatabase, "populate", _per_key_tpcc_populate)
        reference = build_app(name, seed=7)
        assert bulk_trees == _app_trees(reference)
        assert bulk_cursors == {region: r.cursor for region, r
                                in reference.space.regions.items()}


class TestDeliveryQueue:
    def test_delivery_drains_the_new_order_queue(self):
        space = AddressSpace()
        engine = StorageEngine(space)
        db = TpccDatabase(engine, warehouses=2, seed=5)
        layout = CodeLayout()
        rt = Runtime(layout, main=layout.function("m", 8192))
        from repro.machine.os_model import OsKernel
        kernel = OsKernel(AddressSpace(), layout)
        for _ in range(30):
            db.new_order(rt, kernel)
        queued = len(db.new_order_queue.index)
        assert queued > 0
        db.delivery(rt, kernel)
        assert len(db.new_order_queue.index) <= max(0, queued - 1)


class TestCustomerNameIndex:
    def test_secondary_index_covers_every_customer(self):
        space = AddressSpace()
        engine = StorageEngine(space)
        db = TpccDatabase(engine, warehouses=1, seed=1)
        assert len(db.customer_by_name) == len(db.customer.index)

    def test_lookup_by_name_returns_matching_customer(self):
        space = AddressSpace()
        engine = StorageEngine(space)
        db = TpccDatabase(engine, warehouses=1, seed=1)
        layout = CodeLayout()
        rt = Runtime(layout, main=layout.function("m", 8192))
        for _ in range(20):
            customer = db._customer_by_last_name(rt)
            assert 0 <= customer < db.districts * db.customers_per_district
