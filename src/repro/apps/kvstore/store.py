"""Log-structured storage engine (memtable + SSTables).

The read path matches Cassandra's: probe the in-memory memtable, then
consult each on-"disk" SSTable — a bloom-filter check first, then a
binary search of the sparse key index, then the data-block read.  Every
structure lives in simulated memory (the paper's setup keeps the dataset
memory-resident via the iSCSI RAM-disk rig), so the emitted loads follow
the real pointer and search dependences of an LSM read.
"""

from __future__ import annotations

import bisect

from repro.machine.address_space import AddressSpace
from repro.machine.hashing import stable_hash
from repro.machine.runtime import Runtime
from repro.machine.structures import SimArray, SimHashMap

_LINE = 64


class Memtable:
    """In-memory write buffer (Cassandra's ConcurrentSkipListMap stand-in)."""

    def __init__(self, space: AddressSpace, capacity: int = 8192) -> None:
        self.capacity = capacity
        self._map = SimHashMap(space, nbuckets=capacity, node_bytes=64)
        self._insertion_order: list[int] = []

    def put(self, rt: Runtime, key: int, record_addr: int) -> None:
        if not self._map.contains(key):
            self._insertion_order.append(key)
        self._map.put(rt, key, record_addr)

    def get(self, rt: Runtime, key: int) -> int | None:
        value = self._map.get(rt, key)
        return value if value is None else int(value)  # type: ignore[arg-type]

    def is_full(self) -> bool:
        return len(self._insertion_order) >= self.capacity

    def drain(self) -> list[int]:
        keys = self._insertion_order
        self._insertion_order = []
        return keys

    def __len__(self) -> int:
        return len(self._insertion_order)


class SSTable:
    """One sorted run: bloom filter + sparse index + data blocks."""

    BLOOM_HASHES = 3
    SPARSE_FACTOR = 4  # keys summarized per sparse-index entry

    def __init__(
        self,
        space: AddressSpace,
        table_id: int,
        keys: list[int],
        record_bytes: int,
        false_positive_permille: int = 10,
    ) -> None:
        self.table_id = table_id
        self.keys = sorted(keys)
        self.record_bytes = record_bytes
        # ~10 bits per key, the classic bloom sizing for ~1% FP rate.
        bloom_lines = max(1, len(keys) * 10 // 8 // _LINE + 1)
        self.bloom = SimArray(space, bloom_lines, _LINE)
        # Sparse index: one entry per SPARSE_FACTOR keys (Cassandra-style).
        self.index = SimArray(space, max(1, len(keys) // self.SPARSE_FACTOR + 1), 16)
        self.data = SimArray(space, max(1, len(keys)), record_bytes)
        self.false_positive_permille = false_positive_permille

    def might_contain(self, rt: Runtime, key: int) -> bool:
        """Bloom-filter check: k dependent hash+probe pairs."""
        token = rt.alu(n=2)  # hash the key
        for i in range(self.BLOOM_HASHES):
            slot = stable_hash(key, self.table_id, i) % self.bloom.count
            token = rt.load(self.bloom.addr(slot), (token,))
        if self.rank(key) is not None:
            return True
        # A real bloom filter sometimes says yes for absent keys.
        return stable_hash(key, self.table_id) % 1000 \
            < self.false_positive_permille

    def find(self, rt: Runtime, key: int) -> int | None:
        """Binary-search the sparse index, then scan the covered run."""
        lo, hi = 0, self.index.count - 1
        token = 0
        sparse = self.SPARSE_FACTOR
        while lo < hi:
            mid = (lo + hi + 1) // 2
            token = rt.load(self.index.addr(mid), (token,) if token else ())
            rt.alu((token,))  # key comparison
            anchor = mid * sparse
            anchor_key = self.keys[anchor] if anchor < len(self.keys) else None
            if anchor_key is not None and anchor_key <= key:
                lo = mid
            else:
                hi = mid - 1
        # Scan forward through the sparse run for the exact key.
        for rank in range(lo * sparse, min((lo + 1) * sparse, len(self.keys))):
            token = rt.load(self.data.addr(rank), (token,) if token else ())
            rt.alu((token,))
            if self.keys[rank] == key:
                return self.read_record(rt, rank, token)
        return None

    def read_record(self, rt: Runtime, rank: int, dep: int) -> int:
        """Load the record's data block; returns its address.

        A row is a linked list of column groups: lines form two parallel
        dependence chains (each line needs the pointer loaded two lines
        earlier), bounding the memory parallelism of a row read at ~2 —
        the scale-out MLP regime of §4.2."""
        addr = self.data.addr(rank)
        prev = [dep, dep]
        index = 0
        for off in range(0, self.record_bytes, _LINE):
            parent = prev[index & 1]
            token = rt.load(addr + off, (parent,) if parent else ())
            prev[index & 1] = token
            index += 1
        return addr

    def rank(self, key: int) -> int | None:
        """``key``'s index in the sorted run, or None when absent.  A
        run never repeats a key: base tables are ranges, and L0 runs
        drain the memtable, which holds each key once."""
        rank = bisect.bisect_left(self.keys, key)
        if rank < len(self.keys) and self.keys[rank] == key:
            return rank
        return None

    def record_addr(self, key: int) -> int | None:
        rank = self.rank(key)
        return None if rank is None else self.data.addr(rank)


class KeyValueStore:
    """The full LSM read/write path: memtable, L0 runs, base SSTables.

    Like Cassandra, writes accumulate in the memtable; a full memtable
    is flushed (incrementally, as the background flusher would) into a
    fresh level-0 run; and once enough L0 runs pile up they are
    compacted away.  Reads consult memtable -> L0 runs (newest first)
    -> base SSTables, each gated by its bloom filter.
    """

    #: L0 runs tolerated before compaction starts consuming them.
    COMPACTION_THRESHOLD = 4
    #: Keys flushed/compacted per background slice (amortized work).
    BACKGROUND_SLICE = 24

    def __init__(
        self,
        space: AddressSpace,
        record_count: int,
        record_bytes: int = 1024,
        sstables: int = 4,
        memtable_capacity: int = 8192,
    ) -> None:
        self.space = space
        self.record_count = record_count
        self.record_bytes = record_bytes
        self.memtable = Memtable(space, memtable_capacity)
        self.sstables = [
            SSTable(
                space,
                table_id,
                list(range(table_id, record_count, sstables)),
                record_bytes,
            )
            for table_id in range(sstables)
        ]
        self.l0_runs: list[SSTable] = []
        self._next_run_id = sstables
        self._flush_queue: list[int] = []
        self._compact_queue: list[int] = []
        self._compacting: SSTable | None = None
        self.flushes = 0
        self.compactions = 0
        # Commit log: appended on every write, fsynced by the caller.
        self.commit_log = space.alloc(64 << 20, "heap", align=_LINE)
        self._log_cursor = 0
        self.reads = 0
        self.writes = 0
        self.memtable_hits = 0

    def get(self, rt: Runtime, key: int) -> int | None:
        """Read path: memtable, then bloom-gated runs and SSTables."""
        self.reads += 1
        addr = self.memtable.get(rt, key)
        if addr is not None:
            self.memtable_hits += 1
            # Memtable hit still reads the record payload (independent
            # field loads behind the probe).
            for off in range(0, self.record_bytes, _LINE):
                rt.load(addr + off)
            return addr
        for run in self.l0_runs:  # newest first
            if run.might_contain(rt, key):
                found = run.find(rt, key)
                if found is not None:
                    return found
        for sstable in self.sstables:
            if sstable.might_contain(rt, key):
                found = sstable.find(rt, key)
                if found is not None:
                    return found
        return None

    # -- background maintenance (flush + compaction) ----------------------
    def background(self, rt: Runtime) -> None:
        """One slice of the background flusher/compactor."""
        if self.memtable.is_full() and not self._flush_queue:
            self._flush_queue = self.memtable.drain()
        if self._flush_queue:
            self._flush_slice(rt)
        elif self._compact_queue:
            self._compact_slice(rt)
        elif len(self.l0_runs) >= self.COMPACTION_THRESHOLD:
            self._begin_compaction()

    def _flush_slice(self, rt: Runtime) -> None:
        """Write a batch of memtable entries into the forming L0 run."""
        batch = self._flush_queue[: self.BACKGROUND_SLICE]
        del self._flush_queue[: self.BACKGROUND_SLICE]
        run = SSTable(self.space, self._next_run_id, batch, self.record_bytes)
        self._next_run_id += 1
        for rank in range(len(run.keys)):
            # Sequential run construction: data block + index entry.
            base = run.data.addr(rank)
            for off in range(0, min(self.record_bytes, 2 * _LINE), _LINE):
                rt.store(base + off)
            rt.store(run.index.addr(rank // run.SPARSE_FACTOR))
        rt.store(run.bloom.addr(0))
        self.l0_runs.insert(0, run)
        if not self._flush_queue:
            self.flushes += 1

    def _begin_compaction(self) -> None:
        victim = self.l0_runs.pop()  # the oldest run
        self._compacting = victim
        self._compact_queue = list(victim.keys)

    def _compact_slice(self, rt: Runtime) -> None:
        """Merge a batch of the victim run back into the base tables."""
        batch = self._compact_queue[: self.BACKGROUND_SLICE]
        del self._compact_queue[: self.BACKGROUND_SLICE]
        victim = self._compacting
        for key in batch:
            rank = victim.rank(key)
            token = rt.load(victim.data.addr(rank))  # sequential read...
            home = self.sstables[key % len(self.sstables)]
            target = home.record_addr(key)
            if target is not None:
                rt.store(target, (token,))  # ...rewrite in the base table
        if not self._compact_queue:
            self._compacting = None
            self.compactions += 1

    def put(self, rt: Runtime, key: int) -> int:
        """Write path: commit-log append + memtable insert."""
        self.writes += 1
        home = self.sstables[key % len(self.sstables)]
        record_addr = home.record_addr(key)
        if record_addr is None:
            record_addr = home.data.addr(0)
        # Append the mutation to the commit log (sequential stores).
        entry = self.commit_log + (self._log_cursor % (64 << 20))
        self._log_cursor += self.record_bytes
        for off in range(0, min(self.record_bytes, 4 * _LINE), _LINE):
            rt.store(entry + off)
        self.memtable.put(rt, key, record_addr)
        # Overwrite the record's first lines in place (the new version).
        token = rt.alu(n=2)
        for off in range(0, min(self.record_bytes, 4 * _LINE), _LINE):
            token = rt.store(record_addr + off, (token,))
        return record_addr
