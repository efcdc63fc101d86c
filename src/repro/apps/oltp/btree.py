"""A B+-tree with simulated-memory nodes.

A real B+-tree — sorted keys, node splits, range scans — whose every
node occupies a 512-byte block of simulated memory.  A lookup emits the
access pattern that makes OLTP so memory-bound (§4, TPC-C discussion):
a *fully dependent* chain of node-header and key-area loads from root
to leaf, followed by the row read.  There is no memory-level
parallelism to extract from an index descent, which is why traditional
transaction processing shows the lowest MLP in Figure 3.

Population is untraced: :meth:`BPlusTree.extend` bulk-loads ascending
keys into exactly the tree that one insert per key would build.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Sequence

from repro.machine.address_space import AddressSpace
from repro.machine.runtime import Runtime

_NODE_BYTES = 512
_LINE = 64


class _Node:
    __slots__ = ("leaf", "keys", "children", "values", "next_leaf", "addr")

    def __init__(self, leaf: bool, addr: int) -> None:
        self.leaf = leaf
        self.keys: list[int] = []
        self.children: list[_Node] = []
        self.values: list[object] = []
        self.next_leaf: _Node | None = None
        self.addr = addr


class BPlusTree:
    """Order-32 B+-tree keyed by ints."""

    ORDER = 32  # max keys per node

    def __init__(self, space: AddressSpace, name: str = "btree") -> None:
        self._space = space
        self.name = name
        self.node_count = 0
        self.root = self._new_node(leaf=True)
        self.height = 1
        self.size = 0

    def _new_node(self, leaf: bool) -> _Node:
        self.node_count += 1
        return _Node(leaf, self._space.alloc(_NODE_BYTES, "heap", align=_LINE))

    # -- traced access helpers -------------------------------------------
    @staticmethod
    def _touch_node(rt: Runtime | None, node: _Node, dep: int) -> int:
        """Load the node header, then a couple of key-area lines, all
        dependent (the key search needs the header; comparisons need the
        keys)."""
        if rt is None:
            return 0
        token = rt.load(node.addr, (dep,) if dep else ())
        token = rt.load(node.addr + _LINE, (token,))
        rt.alu((token,), n=4)  # binary search comparisons within the node
        token = rt.load(node.addr + 2 * _LINE, (token,))
        rt.alu((token,), n=3)
        return token

    # -- operations --------------------------------------------------------
    def search(self, key: int, rt: Runtime | None = None,
               dep: int = 0) -> object | None:
        node = self.root
        token = dep
        while not node.leaf:
            token = self._touch_node(rt, node, token)
            slot = bisect.bisect_right(node.keys, key)
            node = node.children[slot]
        token = self._touch_node(rt, node, token)
        slot = bisect.bisect_left(node.keys, key)
        if slot < len(node.keys) and node.keys[slot] == key:
            return node.values[slot]
        return None

    def insert(self, key: int, value: object, rt: Runtime | None = None,
               dep: int = 0) -> None:
        root = self.root
        if len(root.keys) >= self.ORDER:
            new_root = self._new_node(leaf=False)
            new_root.children.append(root)
            self._split_child(new_root, 0, rt)
            self.root = new_root
            self.height += 1
        self._insert_nonfull(self.root, key, value, rt, dep)

    def extend(self, keys: Sequence[int], values: Sequence[object]) -> None:
        """Untraced bulk load of ``keys``, all above every key and
        separator in the tree (``ValueError`` otherwise).  The keys
        must be strictly ascending; that is the caller's to keep, since
        only the first is checked.

        Builds exactly the tree one untraced :meth:`insert` per key
        builds: same nodes, addresses, links, height, size, node count
        and heap cursor.  Each step puts its first key through
        :meth:`insert`, which splits the full nodes on the right spine,
        then appends the rest of the :meth:`room` keys that go in
        before the next split straight to the rightmost leaf.
        """
        if len(keys) != len(values):
            raise ValueError("extend needs one value per key")
        if not keys:
            return
        node = self.root
        while True:
            if node.keys and keys[0] <= node.keys[-1]:
                raise ValueError(
                    f"extend key {keys[0]} is not above {self.name}'s "
                    f"right spine (last key {node.keys[-1]})")
            if node.leaf:
                break
            node = node.children[-1]
        start, count = 0, len(keys)
        while start < count:
            stop = min(count, start + self.room())
            self.insert(keys[start], values[start])
            leaf = self.root
            while not leaf.leaf:
                leaf = leaf.children[-1]
            leaf.keys.extend(keys[start + 1:stop])
            leaf.values.extend(values[start + 1:stop])
            self.size += stop - start - 1
            start = stop

    def room(self) -> int:
        """How many ascending keys go in before the next split: the
        first may split the full nodes on the right spine, and the rest
        fill the rightmost leaf.  While such a split leaves a spine
        node full, only that first key goes in, since the next insert
        splits that node before descending.  A caller interleaving
        another tree on the same heap loads one such run at a time."""
        order = self.ORDER
        node, parent_keys = self.root, None  # a split root gets a new one
        while True:
            keys = len(node.keys)
            if keys >= order:  # split: its right half stays on the spine
                if parent_keys is not None and parent_keys + 1 >= order:
                    return 1
                keys = order - order // 2 - (not node.leaf)
            if node.leaf:
                return order - keys
            parent_keys = keys
            node = node.children[-1]

    def _split_child(self, parent: _Node, index: int, rt: Runtime | None) -> None:
        child = parent.children[index]
        sibling = self._new_node(child.leaf)
        mid = len(child.keys) // 2
        if child.leaf:
            sibling.keys = child.keys[mid:]
            sibling.values = child.values[mid:]
            child.keys = child.keys[:mid]
            child.values = child.values[:mid]
            sibling.next_leaf = child.next_leaf
            child.next_leaf = sibling
            up_key = sibling.keys[0]
        else:
            up_key = child.keys[mid]
            sibling.keys = child.keys[mid + 1:]
            sibling.children = child.children[mid + 1:]
            child.keys = child.keys[:mid]
            child.children = child.children[: mid + 1]
        parent.keys.insert(index, up_key)
        parent.children.insert(index + 1, sibling)
        if rt is not None:
            # A split rewrites both nodes and the parent.
            rt.store(child.addr)
            rt.store(sibling.addr)
            rt.store(parent.addr)

    def _insert_nonfull(self, node: _Node, key: int, value: object,
                        rt: Runtime | None, dep: int = 0) -> None:
        token = dep
        while not node.leaf:
            if rt is not None:
                token = self._touch_node(rt, node, token)
            slot = bisect.bisect_right(node.keys, key)
            if len(node.children[slot].keys) >= self.ORDER:
                self._split_child(node, slot, rt)
                if key > node.keys[slot]:
                    slot += 1
            node = node.children[slot]
        if rt is not None:
            self._touch_node(rt, node, token)
        slot = bisect.bisect_left(node.keys, key)
        if slot < len(node.keys) and node.keys[slot] == key:
            node.values[slot] = value
        else:
            node.keys.insert(slot, key)
            node.values.insert(slot, value)
            self.size += 1
        if rt is not None:
            rt.store(node.addr + _LINE)  # the modified key/value area

    def range_scan(
        self, start_key: int, count: int, rt: Runtime | None = None
    ) -> list[tuple[int, object]]:
        """Leaf-chained scan of up to ``count`` entries from ``start_key``."""
        node = self.root
        token = 0
        while not node.leaf:
            token = self._touch_node(rt, node, token)
            slot = bisect.bisect_right(node.keys, start_key)
            node = node.children[slot]
        out: list[tuple[int, object]] = []
        slot = bisect.bisect_left(node.keys, start_key)
        while node is not None and len(out) < count:
            token = self._touch_node(rt, node, token)
            while slot < len(node.keys) and len(out) < count:
                out.append((node.keys[slot], node.values[slot]))
                slot += 1
            node = node.next_leaf
            slot = 0
        return out

    def delete(self, key: int, rt: Runtime | None = None) -> bool:
        """Remove a key; returns False if absent.

        Deletion removes the entry from its leaf without eagerly
        rebalancing — underfull leaves are tolerated (the strategy of
        engines that defer reorganization to maintenance), so search,
        ordering, and range-scan semantics remain exact while structure
        maintenance stays amortized."""
        node = self.root
        token = 0
        while not node.leaf:
            token = self._touch_node(rt, node, token)
            slot = bisect.bisect_right(node.keys, key)
            node = node.children[slot]
        self._touch_node(rt, node, token)
        slot = bisect.bisect_left(node.keys, key)
        if slot >= len(node.keys) or node.keys[slot] != key:
            return False
        node.keys.pop(slot)
        node.values.pop(slot)
        self.size -= 1
        if rt is not None:
            rt.store(node.addr + _LINE)
        return True

    def items(self) -> Iterator[tuple[int, object]]:
        """In-order iteration (untraced; used by the tests)."""
        node = self.root
        while not node.leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf

    def __len__(self) -> int:
        return self.size
