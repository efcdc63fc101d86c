"""Storage engine: tables, buffer manager, lock manager, write-ahead log.

Tables pair a B+-tree primary index with fixed-stride row storage.  The
lock manager's lock words and the log buffer are the actively-shared
structures that give traditional OLTP its high read-write sharing
(Figure 6): every transaction from every server thread writes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.apps.oltp.btree import BPlusTree
from repro.machine.address_space import AddressSpace
from repro.machine.hashing import stable_hash
from repro.machine.runtime import Runtime
from repro.machine.structures import SimArray

_LINE = 64


class Table:
    """A heap table with a primary B+-tree index."""

    def __init__(
        self,
        space: AddressSpace,
        name: str,
        capacity: int,
        row_bytes: int,
    ) -> None:
        self.name = name
        self.capacity = capacity
        self.row_bytes = row_bytes
        self.rows = SimArray(space, capacity, row_bytes)
        self.index = BPlusTree(space, name=f"{name}.pk")
        self._next_slot = 0
        self.last_token = 0  # dependence handle of the latest row access

    def insert(self, key: int, rt: Runtime | None = None, dep: int = 0) -> int:
        """Insert a row; returns its slot.  Appends wrap when full."""
        slot = self._next_slot % self.capacity
        self._next_slot += 1
        self.index.insert(key, slot, rt, dep=dep)
        if rt is not None:
            base = self.rows.addr(slot)
            for off in range(0, min(self.row_bytes, 4 * _LINE), _LINE):
                rt.store(base + off)
        return slot

    def load(self, keys: Sequence[int]) -> None:
        """Untraced bulk :meth:`insert` of strictly ascending ``keys``
        above every key in the table: each key gets the slot insert
        would give it, wrap included (:meth:`BPlusTree.extend`)."""
        start, stop = self._next_slot, self._next_slot + len(keys)
        first = start % self.capacity
        if first + len(keys) <= self.capacity:
            slots: Sequence[int] = range(first, first + len(keys))
        else:
            slots = [slot % self.capacity for slot in range(start, stop)]
        self.index.extend(keys, slots)
        self._next_slot = stop  # only once the index took the keys

    def read(self, key: int, rt: Runtime | None = None,
             lines: int | None = None, dep: int = 0) -> int | None:
        """Index lookup + row read; returns the slot or None.

        ``dep`` chains this statement behind an earlier one, as the
        executor's row buffer forces in real engines — the reason OLTP
        shows almost no memory-level parallelism (§4.2).  The token of
        the final row load is left in :attr:`last_token`."""
        slot = self.index.search(key, rt, dep=dep)
        if slot is None:
            return None
        if rt is not None:
            base = self.rows.addr(slot)  # type: ignore[arg-type]
            span = self.row_bytes if lines is None else lines * _LINE
            token = dep
            for off in range(0, min(span, self.row_bytes), _LINE):
                token = rt.load(base + off, (token,) if token else ())
            self.last_token = token
        return slot  # type: ignore[return-value]

    def update(self, key: int, rt: Runtime | None = None, dep: int = 0) -> bool:
        slot = self.index.search(key, rt, dep=dep)
        if slot is None:
            return False
        if rt is not None:
            base = self.rows.addr(slot)  # type: ignore[arg-type]
            token = rt.load(base, (dep,) if dep else ())
            rt.store(base, (token,))
            self.last_token = token
        return True


class LockManager:
    """A hash-partitioned lock table; lock words are actively shared."""

    def __init__(self, space: AddressSpace, partitions: int = 1024) -> None:
        self.partitions = partitions
        self.lock_words = SimArray(space, partitions, _LINE)
        self.acquisitions = 0
        self.held: list[int] = []

    def acquire(self, rt: Runtime, resource: object) -> None:
        """Lock acquisition: atomic read-modify-write of the lock word."""
        slot = stable_hash(resource) % self.partitions
        token = self.lock_words.read(rt, slot)
        rt.alu((token,), n=2)  # compare-and-swap
        self.lock_words.write(rt, slot, (token,))
        self.acquisitions += 1
        self.held.append(slot)

    def release_all(self, rt: Runtime) -> None:
        for slot in self.held:
            self.lock_words.write(rt, slot)
        self.held.clear()


@dataclass
class EngineStats:
    transactions: int = 0
    rows_read: int = 0
    rows_written: int = 0
    log_records: int = 0
    aborts: int = 0


class StorageEngine:
    """Tables + locks + WAL + buffer-manager bookkeeping."""

    def __init__(self, space: AddressSpace, log_buffer_bytes: int = 1 << 20) -> None:
        self.space = space
        self.tables: dict[str, Table] = {}
        self.locks = LockManager(space)
        self.log_buffer = space.alloc(log_buffer_bytes, "heap", align=_LINE)
        self.log_buffer_bytes = log_buffer_bytes
        self._log_cursor = 0
        # Buffer-manager control blocks (latches, LRU lists): shared.
        self.buffer_control = SimArray(space, 512, _LINE)
        self.stats = EngineStats()

    def create_table(self, name: str, capacity: int, row_bytes: int) -> Table:
        if name in self.tables:
            raise ValueError(f"table {name!r} exists")
        table = Table(self.space, name, capacity, row_bytes)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        return self.tables[name]

    def touch_buffer_manager(self, rt: Runtime) -> None:
        """Page-latch and LRU maintenance on the hot control blocks."""
        slot = self.stats.rows_read % 512
        token = self.buffer_control.read(rt, slot)
        self.buffer_control.write(rt, slot, (token,))

    def log_append(self, rt: Runtime, nbytes: int = 128) -> int:
        """Append a WAL record (sequential stores into the shared buffer)."""
        addr = self.log_buffer + (self._log_cursor % self.log_buffer_bytes)
        self._log_cursor += nbytes
        for off in range(0, min(nbytes, 2 * _LINE), _LINE):
            rt.store(addr + off)
        self.stats.log_records += 1
        return addr
