"""Consistent-hash sharding: stable placement, distinct replicas."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ring import HashRing
from repro.machine.hashing import stable_hash


def _reference_walk(node_ids: list[int], vnodes: int, key):
    """The ring walk as first written: sort the points, binary-search
    the key's hash, then scan the points one by one, yielding each node
    the first time it is met."""
    points = sorted((stable_hash(("ring-point", node_id, replica)), node_id)
                    for node_id in node_ids for replica in range(vnodes))
    target = stable_hash(("ring-key", key))
    lo, hi = 0, len(points)
    while lo < hi:
        mid = (lo + hi) // 2
        if points[mid][0] < target:
            lo = mid + 1
        else:
            hi = mid
    start = lo % len(points)
    seen: dict[int, bool] = {}
    for offset in range(len(points)):
        node_id = points[(start + offset) % len(points)][1]
        if node_id not in seen:
            seen[node_id] = True
            yield node_id


@settings(max_examples=60, deadline=None)
@given(node_ids=st.lists(st.integers(min_value=0, max_value=10_000),
                         min_size=1, max_size=9, unique=True),
       vnodes=st.integers(min_value=1, max_value=64),
       keys=st.lists(st.one_of(st.integers(min_value=-2 ** 40,
                                           max_value=2 ** 40),
                               st.text(max_size=12)),
                     min_size=1, max_size=8))
def test_walk_table_matches_the_point_by_point_walk(node_ids, vnodes, keys):
    ring = HashRing(node_ids, vnodes=vnodes)
    for key in keys:
        expected = list(_reference_walk(node_ids, vnodes, key))
        assert list(ring.walk(key)) == expected
        for count in range(1, len(node_ids) + 2):
            assert ring.preference_list(key, count) == expected[:count]
        assert ring.shard_of(key) == expected[0]


def test_preference_list_is_distinct_and_sized():
    ring = HashRing(list(range(6)))
    for key in range(200):
        pref = ring.preference_list(key, 3)
        assert len(pref) == 3
        assert len(set(pref)) == 3
        assert all(node in range(6) for node in pref)


def test_placement_is_identical_across_instances():
    a = HashRing(list(range(8)), vnodes=32)
    b = HashRing(list(range(8)), vnodes=32)
    assert all(a.preference_list(key, 3) == b.preference_list(key, 3)
               for key in range(500))


def test_walk_yields_every_node_exactly_once():
    ring = HashRing(list(range(5)))
    walked = list(ring.walk("some-key"))
    assert sorted(walked) == [0, 1, 2, 3, 4]


def test_walk_prefix_matches_preference_list():
    ring = HashRing(list(range(7)))
    for key in range(50):
        walked = list(ring.walk(key))
        assert walked[:4] == ring.preference_list(key, 4)


def test_keys_spread_over_every_shard():
    ring = HashRing(list(range(4)), vnodes=48)
    owners = {ring.shard_of(key) for key in range(2_000)}
    assert owners == {0, 1, 2, 3}


def test_adding_a_node_moves_few_keys():
    # The point of consistent hashing: growing the fleet remaps roughly
    # 1/n of the keyspace, not all of it.
    before = HashRing(list(range(4)))
    after = HashRing(list(range(5)))
    keys = range(2_000)
    moved = sum(1 for key in keys
                if before.shard_of(key) != after.shard_of(key))
    assert 0 < moved < len(keys) // 2


def test_constructor_validation():
    with pytest.raises(ValueError, match="at least one node"):
        HashRing([])
    with pytest.raises(ValueError, match="vnodes"):
        HashRing([0], vnodes=0)
    with pytest.raises(ValueError, match="count"):
        HashRing([0]).preference_list(1, 0)
