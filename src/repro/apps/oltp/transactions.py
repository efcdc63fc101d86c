"""TPC-C and TPC-E-style transaction implementations.

Real transaction logic against the storage engine: each transaction
acquires locks, performs its index lookups, row reads, updates, and
inserts, appends WAL records, and commits with a synchronous log write.
The hot rows (warehouses, districts, securities) are shared read-write
by every server thread — the traditional-OLTP sharing signature of
Figure 6.
"""

from __future__ import annotations

import random

from repro.apps.oltp.engine import StorageEngine
from repro.machine.os_model import OsKernel
from repro.machine.runtime import Runtime


class TpccDatabase:
    """The TPC-C schema (scaled) plus its five transactions."""

    def __init__(self, engine: StorageEngine, warehouses: int = 40,
                 seed: int = 0) -> None:
        self.engine = engine
        self.warehouses = warehouses
        self.districts = warehouses * 10
        self.customers_per_district = 300
        self.items = 10_000
        self.stock_per_warehouse = 2_500
        self.rng = random.Random(seed)
        e = engine
        self.warehouse = e.create_table("warehouse", warehouses, 256)
        self.district = e.create_table("district", self.districts, 256)
        self.customer = e.create_table(
            "customer", self.districts * self.customers_per_district, 512
        )
        self.item = e.create_table("item", self.items, 128)
        self.stock = e.create_table(
            "stock", warehouses * self.stock_per_warehouse, 256
        )
        self.orders = e.create_table("orders", 400_000, 128)
        self.order_line = e.create_table("order_line", 400_000, 128)
        self.new_order_queue = e.create_table("new_order", 100_000, 64)
        self.history = e.create_table("history", 200_000, 128)
        # Secondary index: customers by last name (TPC-C looks 60 % of
        # payment customers up by name, not id).
        from repro.apps.oltp.btree import BPlusTree
        self.customer_by_name = BPlusTree(e.space, name="customer.lastname")
        self._next_order_id = 0
        self.populate()

    def populate(self) -> None:
        self.warehouse.load(range(self.warehouses))
        self.district.load(range(self.districts))
        # Customer ids load one leaf run at a time, so every split of
        # the id index lands between the same name-index inserts as
        # with one insert per id: both trees allocate from one heap.
        customers = self.districts * self.customers_per_district
        first = 0
        while first < customers:
            run = list(range(first, min(customers,
                                        first + self.customer.index.room())))
            self.customer.load(run)
            for c in run:
                # Last names collide (the spec's syllable scheme yields
                # ~1000 distinct names); the key packs (name, id).
                self.customer_by_name.insert((c % 997) * 1_000_000 + c, c)
            first += len(run)
        self.item.load(range(self.items))
        self.stock.load(range(self.warehouses * self.stock_per_warehouse))

    # -- key helpers ------------------------------------------------------
    def _customer_key(self, district: int) -> int:
        return district * self.customers_per_district + self.rng.randrange(
            self.customers_per_district
        )

    def _customer_by_last_name(self, rt: Runtime) -> int:
        """The 60 % payment path: scan the name index for all customers
        with the drawn last name and take the middle one (per the spec)."""
        last_name = self.rng.randrange(997)
        matches = self.customer_by_name.range_scan(
            last_name * 1_000_000, 8, rt
        )
        same_name = [c for key, c in matches
                     if key // 1_000_000 == last_name]
        if not same_name:
            return self._customer_key(self.rng.randrange(self.districts))
        return same_name[len(same_name) // 2]

    def _stock_key(self, warehouse: int) -> int:
        return warehouse * self.stock_per_warehouse + self.rng.randrange(
            self.stock_per_warehouse
        )

    # -- transactions -----------------------------------------------------
    def new_order(self, rt: Runtime, kernel: OsKernel) -> None:
        e = self.engine
        rng = self.rng
        w = rng.randrange(self.warehouses)
        d = w * 10 + rng.randrange(10)
        e.locks.acquire(rt, ("district", d))
        self.warehouse.read(w, rt, lines=2)
        self.district.read(d, rt, lines=2, dep=self.warehouse.last_token)
        self.district.update(d, rt)  # next order id: the hot row
        self.customer.read(self._customer_key(d), rt, lines=3,
                           dep=self.district.last_token)
        rt.alu(n=90, chain=False)
        order_id = self._next_order_id
        self._next_order_id += 1
        self.orders.insert(order_id, rt, dep=self.customer.last_token)
        self.new_order_queue.insert(order_id, rt)
        chain = self.customer.last_token
        for line in range(10):
            item = rng.randrange(self.items)
            self.item.read(item, rt, lines=1, dep=chain)
            stock_key = self._stock_key(w)
            e.locks.acquire(rt, ("stock", stock_key))
            self.stock.read(stock_key, rt, lines=1, dep=self.item.last_token)
            self.stock.update(stock_key, rt, dep=self.stock.last_token)
            self.order_line.insert(order_id * 16 + line, rt, dep=self.stock.last_token)
            rt.alu(n=60, chain=False)
            chain = self.stock.last_token
            e.stats.rows_written += 2
        if rng.random() < 0.01:
            # ~1% of new-order transactions abort (the TPC-C spec's
            # invalid-item rollback): walk the undo log backwards and
            # reverse the writes.
            self._rollback(rt)
            e.locks.release_all(rt)
            e.stats.aborts += 1
            e.stats.transactions += 1
            return
        e.log_append(rt, 256)
        kernel.log_write(rt, 256)
        e.locks.release_all(rt)
        e.stats.transactions += 1

    def _rollback(self, rt: Runtime) -> None:
        """Undo: re-read the WAL tail and reverse each touched row."""
        e = self.engine
        tail = e.log_buffer + (e._log_cursor % e.log_buffer_bytes)
        token = 0
        for step in range(8):
            token = rt.load(max(e.log_buffer, tail - step * 128),
                            (token,) if token else ())
            rt.alu((token,), n=4)
        # Reverse the district counter bump (the guaranteed write).
        w = self.rng.randrange(self.warehouses)
        self.district.update(w * 10, rt, dep=token)

    def payment(self, rt: Runtime, kernel: OsKernel) -> None:
        e = self.engine
        rng = self.rng
        w = rng.randrange(self.warehouses)
        d = w * 10 + rng.randrange(10)
        e.locks.acquire(rt, ("warehouse", w))
        e.locks.acquire(rt, ("district", d))
        self.warehouse.update(w, rt)  # the hottest row in TPC-C
        self.district.update(d, rt, dep=self.warehouse.last_token)
        if rng.random() < 0.6:
            customer = self._customer_by_last_name(rt)
        else:
            customer = self._customer_key(d)
        self.customer.update(customer, rt, dep=self.district.last_token)
        rt.alu(n=80, chain=False)
        self.history.insert(e.stats.transactions % self.history.capacity, rt)
        e.log_append(rt, 128)
        kernel.log_write(rt, 256)
        e.locks.release_all(rt)
        e.stats.transactions += 1

    def order_status(self, rt: Runtime, kernel: OsKernel) -> None:
        d = self.rng.randrange(self.districts)
        self.customer.read(self._customer_key(d), rt, lines=3)
        start = max(0, self._next_order_id - self.rng.randrange(1, 20))
        self.orders.index.range_scan(start, 1, rt)
        self.order_line.index.range_scan(start * 16, 10, rt)
        rt.alu(n=50, chain=False)
        self.engine.stats.transactions += 1

    def delivery(self, rt: Runtime, kernel: OsKernel) -> None:
        e = self.engine
        w = self.rng.randrange(self.warehouses)
        # Consume the oldest undelivered orders from the NEW-ORDER queue.
        pending = self.new_order_queue.index.range_scan(0, 10, rt)
        for order_id, _slot in pending:
            self.new_order_queue.index.delete(order_id, rt)
        for d_offset in range(10):
            d = w * 10 + d_offset
            e.locks.acquire(rt, ("district", d))
            self.district.update(d, rt)
            start = max(0, self._next_order_id - self.rng.randrange(1, 40))
            self.orders.index.range_scan(start, 1, rt)
            self.order_line.index.range_scan(start * 16, 5, rt)
            self.customer.update(self._customer_key(d), rt)
            rt.alu(n=10, chain=False)
        e.log_append(rt, 256)
        kernel.log_write(rt, 256)
        e.locks.release_all(rt)
        e.stats.transactions += 1

    def stock_level(self, rt: Runtime, kernel: OsKernel) -> None:
        d = self.rng.randrange(self.districts)
        self.district.read(d, rt, lines=1)
        start = max(0, self._next_order_id - 20)
        lines = self.order_line.index.range_scan(start * 16, 20, rt)
        w = d // 10
        for _ in range(max(4, len(lines) // 2)):
            self.stock.read(self._stock_key(w), rt, lines=1)
        rt.alu(n=60, chain=False)
        self.engine.stats.transactions += 1


class TpceDatabase:
    """A TPC-E-flavoured brokerage schema with four transaction types."""

    def __init__(self, engine: StorageEngine, customers: int = 80_000,
                 seed: int = 0) -> None:
        self.engine = engine
        self.customers = customers
        self.securities = 12_000
        self.rng = random.Random(seed)
        e = engine
        self.customer = e.create_table("customer", customers, 512)
        self.account = e.create_table("account", customers * 2, 256)
        self.security = e.create_table("security", self.securities, 256)
        self.trade = e.create_table("trade", 600_000, 256)
        self.holding = e.create_table("holding", 300_000, 256)
        self._next_trade = 0
        self.customer.load(range(customers))
        self.account.load(range(customers * 2))
        self.security.load(range(self.securities))
        self.holding.load(range(60_000))

    def trade_order(self, rt: Runtime, kernel: OsKernel) -> None:
        e = self.engine
        rng = self.rng
        c = rng.randrange(self.customers)
        self.customer.read(c, rt, lines=3)
        self.account.read(c * 2 + rng.randrange(2), rt, lines=2,
                          dep=self.customer.last_token)
        s = rng.randrange(self.securities)
        self.security.read(s, rt, lines=2, dep=self.account.last_token)
        # Complex queries: commission/tax/margin computation.
        rt.alu(n=180, chain=False)
        trade_id = self._next_trade
        self._next_trade += 1
        e.locks.acquire(rt, ("trade", trade_id))
        self.trade.insert(trade_id, rt)
        e.log_append(rt, 192)
        kernel.log_write(rt, 256)
        e.locks.release_all(rt)
        e.stats.transactions += 1

    def trade_result(self, rt: Runtime, kernel: OsKernel) -> None:
        e = self.engine
        rng = self.rng
        trade_id = rng.randrange(max(1, self._next_trade or 1))
        self.trade.read(trade_id, rt, lines=3)
        s = rng.randrange(self.securities)
        e.locks.acquire(rt, ("security", s))
        self.security.update(s, rt, dep=self.trade.last_token)
        self.holding.read(rng.randrange(60_000), rt, lines=2,
                          dep=self.security.last_token)
        rt.alu(n=220, chain=False)
        e.log_append(rt, 192)
        kernel.log_write(rt, 256)
        e.locks.release_all(rt)
        e.stats.transactions += 1

    def trade_lookup(self, rt: Runtime, kernel: OsKernel) -> None:
        rng = self.rng
        start = rng.randrange(max(1, self._next_trade or 1))
        self.trade.index.range_scan(start, 8, rt)
        chain = 0
        for _ in range(6):
            self.trade.read(rng.randrange(max(1, self._next_trade or 1)),
                            rt, lines=2, dep=chain)
            chain = self.trade.last_token
        rt.alu(n=260, chain=False)
        self.engine.stats.transactions += 1

    def market_feed(self, rt: Runtime, kernel: OsKernel) -> None:
        e = self.engine
        for _ in range(8):
            s = self.rng.randrange(self.securities)
            e.locks.acquire(rt, ("security", s))
            self.security.update(s, rt)
            rt.alu(n=25, chain=False)
        e.log_append(rt, 128)
        e.locks.release_all(rt)
        e.stats.transactions += 1
