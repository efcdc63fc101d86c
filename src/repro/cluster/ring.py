"""Consistent-hash sharding with R-way replication.

Keys and nodes are placed on one hash ring (Dynamo/Cassandra style):
each node owns ``vnodes`` points, a key's *preference list* is the
first R distinct nodes clockwise from the key's point.  Placement
hashes go through :func:`~repro.machine.hashing.stable_hash`, so the
ring — and therefore every shard assignment in a figure — is identical
across processes and interpreters.

The constructor also tabulates, for every point, the distinct nodes
met walking clockwise from it, so a lookup is one ``stable_hash``, one
bisection and a table read.  Nothing is memoized per key: placement
stays a pure function of key and ring.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.machine.hashing import stable_hash


class HashRing:
    """A fixed ring of virtual node points over integer node ids."""

    def __init__(self, node_ids: list[int], vnodes: int = 48) -> None:
        if not node_ids:
            raise ValueError("a ring needs at least one node")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.node_ids = list(node_ids)
        points: list[tuple[int, int]] = []
        for node_id in self.node_ids:
            for replica in range(vnodes):
                points.append(
                    (stable_hash(("ring-point", node_id, replica)), node_id))
        # Points collide only if stable_hash collides; break ties by
        # node id so even that case stays deterministic.
        points.sort()
        self._hashes = [point_hash for point_hash, _node_id in points]
        owners = [node_id for _point_hash, node_id in points]
        # The walk from point i is its owner, then the walk from point
        # i + 1 without that owner; seed the recurrence with the walk
        # from point 0, which wraps round to close the ring.
        walk = tuple(dict.fromkeys(owners))
        walks: list[tuple[int, ...]] = [walk] * len(owners)
        for index in range(len(owners) - 1, -1, -1):
            owner = owners[index]
            walk = (owner,) + tuple(n for n in walk if n != owner)
            walks[index] = walk
        self._walks = walks

    def _start_index(self, key: int | str) -> int:
        # repro-lint: pure -- placement must be a pure function of key and ring
        target = stable_hash(("ring-key", key))
        return bisect_left(self._hashes, target) % len(self._hashes)

    def walk(self, key: int | str) -> tuple[int, ...]:
        """Every node id, in ring order from ``key``, each once."""
        return self._walks[self._start_index(key)]

    def preference_list(self, key: int | str, count: int) -> list[int]:
        """The first ``count`` distinct nodes clockwise from ``key``."""
        if count < 1:
            raise ValueError("count must be positive")
        return list(self.walk(key)[:count])

    def shard_of(self, key: int | str) -> int:
        # repro-lint: pure -- placement must be a pure function of key and ring
        """The key's home shard: the id of its primary replica."""
        return self.walk(key)[0]
