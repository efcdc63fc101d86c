"""Generic data structures living in simulated memory.

These are *real* structures — inserts build chains, lookups walk them —
but their nodes are simulated addresses, and every operation takes a
:class:`~repro.machine.runtime.Runtime` to emit its loads/stores, so
dependence chains and working sets match the algorithm exactly.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.machine.address_space import AddressSpace
from repro.machine.hashing import stable_hash
from repro.machine.runtime import Runtime

_LINE = 64


class SimArray:
    """A fixed-stride array of records in simulated memory."""

    def __init__(
        self,
        space: AddressSpace,
        count: int,
        elem_bytes: int,
        region: str = "heap",
    ) -> None:
        if count <= 0 or elem_bytes <= 0:
            raise ValueError("SimArray needs positive count and element size")
        self.count = count
        self.elem_bytes = elem_bytes
        self.base = space.alloc(count * elem_bytes, region, align=_LINE)

    def addr(self, index: int) -> int:
        if not 0 <= index < self.count:
            raise IndexError(f"index {index} out of range 0..{self.count - 1}")
        return self.base + index * self.elem_bytes

    def read(self, rt: Runtime, index: int, deps: Iterable[int] = ()) -> int:
        return rt.load(self.addr(index), deps)

    def write(self, rt: Runtime, index: int, deps: Iterable[int] = ()) -> int:
        return rt.store(self.addr(index), deps)

    def read_record(self, rt: Runtime, index: int, deps: Iterable[int] = ()) -> int:
        """Read a whole record (one load per cache line it spans)."""
        base = self.addr(index)
        token = 0
        deps = tuple(deps)
        for off in range(0, self.elem_bytes, _LINE):
            token = rt.load(base + off, deps)
        return token

    @property
    def nbytes(self) -> int:
        return self.count * self.elem_bytes


class SimHashMap:
    """Chained hash table: bucket array of head pointers + linked nodes.

    ``get`` emits the real probe sequence: hash computation, a load of
    the bucket head, then *dependent* loads walking the chain — the
    pointer-chasing pattern that limits scale-out MLP (§4.2).
    """

    def __init__(
        self,
        space: AddressSpace,
        nbuckets: int,
        node_bytes: int = 48,
        region: str = "heap",
    ) -> None:
        self.nbuckets = nbuckets
        self.node_bytes = node_bytes
        self._space = space
        self._region = region
        self.bucket_base = space.alloc(nbuckets * 8, region, align=_LINE)
        self._chains: dict[int, list[tuple[Hashable, int]]] = {}
        self._values: dict[Hashable, object] = {}
        self.size = 0

    def _bucket(self, key: Hashable) -> int:
        return stable_hash(key) % self.nbuckets

    def _bucket_addr(self, bucket: int) -> int:
        return self.bucket_base + bucket * 8

    def put(self, rt: Runtime, key: Hashable, value: object = None) -> None:
        bucket = self._bucket(key)
        hash_token = rt.alu(n=2)  # hash the key
        head = rt.load(self._bucket_addr(bucket), (hash_token,))
        chain = self._chains.setdefault(bucket, [])
        token = head
        for existing_key, node_addr in chain:
            token = rt.load(node_addr, (token,))
            if existing_key == key:
                rt.store(node_addr + 8, (token,))  # overwrite value field
                self._values[key] = value
                return
        node_addr = self._space.alloc(self.node_bytes, self._region)
        rt.store(node_addr, (token,))  # write key/next fields
        rt.store(node_addr + 8)  # write value field
        rt.store(self._bucket_addr(bucket), ())  # link at head
        chain.insert(0, (key, node_addr))
        self._values[key] = value
        self.size += 1

    def preload(self, rt: Runtime,
                items: Iterable[tuple[Hashable, object]]) -> None:
        """:meth:`put` every ``(key, value)`` in order, untraced: an
        app's startup load.

        Chains, values, node addresses and the heap cursor end as the
        puts leave them, and ``rt`` moves past the ops they would emit
        in one :meth:`~repro.machine.runtime.Runtime.skip`: 6 plus the
        chain length for a new key, 5 plus its chain position for an
        existing one.
        """
        chains, values = self._chains, self._values
        ops = 0
        for key, value in items:
            chain = chains.setdefault(self._bucket(key), [])
            for position, (existing_key, _node) in enumerate(chain):
                if existing_key == key:
                    ops += 5 + position
                    break
            else:
                ops += 6 + len(chain)
                chain.insert(0, (key, self._space.alloc(self.node_bytes,
                                                        self._region)))
                self.size += 1
            values[key] = value
        rt.skip(ops)

    def get(self, rt: Runtime, key: Hashable) -> object | None:
        bucket = self._bucket(key)
        hash_token = rt.alu(n=2)
        token = rt.load(self._bucket_addr(bucket), (hash_token,))
        for existing_key, node_addr in self._chains.get(bucket, ()):
            token = rt.load(node_addr, (token,))
            rt.alu((token,))  # key comparison
            if existing_key == key:
                rt.load(node_addr + 8, (token,))  # read the value field
                return self._values[key]
        return None

    def contains(self, key: Hashable) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return self.size


class SimRingBuffer:
    """A fixed-size ring of line-sized slots (NIC rings, work queues)."""

    def __init__(
        self,
        space: AddressSpace,
        slots: int,
        slot_bytes: int = _LINE,
        region: str = "io",
    ) -> None:
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.base = space.alloc(slots * slot_bytes, region, align=_LINE)
        self.head = 0
        self.tail = 0
        self._items: list[object] = []

    def _slot_addr(self, index: int) -> int:
        return self.base + (index % self.slots) * self.slot_bytes

    def push(self, rt: Runtime, item: object = None) -> None:
        rt.store(self._slot_addr(self.tail))
        rt.store(self.base)  # producer index update (shared cache line)
        self.tail += 1
        self._items.append(item)

    def pop(self, rt: Runtime) -> object | None:
        if not self._items:
            return None
        token = rt.load(self._slot_addr(self.head))
        rt.load(self.base, (token,))
        self.head += 1
        return self._items.pop(0)

    def __len__(self) -> int:
        return len(self._items)
