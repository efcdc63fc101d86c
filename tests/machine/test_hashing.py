"""``stable_hash``: determinism across processes and input hardening."""

from __future__ import annotations

import os
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.hashing import stable_hash


# ----------------------------------------------------------- behaviour
def test_empty_parts_is_deterministic_and_in_range():
    assert stable_hash() == stable_hash()
    assert 0 <= stable_hash() <= 0xFFFFFFFF


def test_single_int_uses_unsalted_fast_path():
    # Bucket locality of sequential integer keys is calibrated
    # behaviour: adjacent ints must stay adjacent.
    assert stable_hash(41) + 1 == stable_hash(42)
    assert stable_hash(42) >= 0


def test_negative_ints_hash_deterministically():
    for value in (-1, -2, -(2 ** 40), -(2 ** 63)):
        assert stable_hash(value) == stable_hash(value)
        assert stable_hash(value) >= 0


def test_bool_is_not_the_int_fast_path():
    # bool is an int subclass, but type(True) is not int: it takes the
    # repr path, so True/1 collisions are impossible.
    assert stable_hash(True) != stable_hash(1)


def test_unicode_surrogates_are_hashable():
    lone_surrogate = "\ud800"
    assert stable_hash(lone_surrogate) == stable_hash(lone_surrogate)
    assert stable_hash("café") != stable_hash("cafe")


def test_distinct_keys_spread():
    values = {stable_hash("key", i) for i in range(1000)}
    assert len(values) > 990


def test_multi_part_order_matters():
    assert stable_hash("a", "b") != stable_hash("b", "a")


# ----------------------------------------------------------- hardening
def test_plain_object_is_refused():
    # object.__repr__ embeds a memory address: hashing it would be the
    # exact cross-process divergence PR 2 fixed, but silent.
    with pytest.raises(TypeError, match="not guaranteed stable"):
        stable_hash(object())


@pytest.mark.parametrize("bad", [
    [1, 2],
    {"a": 1},
    {1, 2},
    ("fine", object()),
    ("nested", ("deep", object())),
])
def test_unstable_parts_are_refused(bad):
    with pytest.raises(TypeError):
        stable_hash("prefix", bad)


@pytest.mark.parametrize("good", [
    (),
    ("name", 7),
    ("nested", ("deep", b"bytes", 1.5, False, None)),
])
def test_scalar_tuples_are_accepted(good):
    assert stable_hash(good) == stable_hash(good)


def test_int_fast_path_skips_hardening_only_for_exact_int():
    # A single non-int part still goes through the checked path.
    with pytest.raises(TypeError):
        stable_hash(object())


# ------------------------------------------------------ the reference fold
class _Count(int):
    """An ``int`` subclass: accepted, hashed by its (inherited) repr."""


def _reference_hash(*parts) -> int:
    """The docstring's definition, with no fast path but the single int."""
    if len(parts) == 1 and type(parts[0]) is int:
        return hash(parts[0]) & 0x7FFFFFFFFFFFFFFF
    h = 0
    for part in parts:
        h = zlib.crc32(repr(part).encode("utf-8", "surrogatepass"), h)
    return (h * 2654435761) & 0xFFFFFFFF


_SCALARS = st.one_of(
    st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(max_value=-1), st.booleans(), st.integers().map(_Count),
    st.floats(), st.sampled_from([float("nan"), float("inf"),
                                  float("-inf"), -0.0]),
    st.text(max_size=8),
    st.text(max_size=4).map(lambda text: text + "\ud800" + text),
    st.binary(max_size=8), st.none())

_NESTED = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                       .map(tuple), max_leaves=12)

_UNSTABLE = st.sampled_from([object, list, dict, set]).map(lambda kind:
                                                            kind())


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(_NESTED, max_size=4))
def test_parts_hash_to_the_crc32_repr_fold(parts):
    assert stable_hash(*parts) == _reference_hash(*parts)


def _bury(value, path: list[int], siblings: list):
    """``value`` nested ``len(path)`` tuples deep among ``siblings``."""
    for index in path:
        items = list(siblings)
        items.insert(index % (len(items) + 1), value)
        value = tuple(items)
    return value


@settings(max_examples=100, deadline=None)
@given(bad=_UNSTABLE, path=st.lists(st.integers(0, 8), max_size=4),
       siblings=st.lists(_SCALARS, max_size=3),
       prefix=st.lists(_NESTED, max_size=2))
def test_unstable_parts_are_refused_at_any_depth(bad, path, siblings,
                                                 prefix):
    with pytest.raises(TypeError, match="not guaranteed stable"):
        stable_hash(*prefix, _bury(bad, path, siblings))


# ------------------------------------------------- process invariance
_PROBE = """
import sys
sys.path.insert(0, {path!r})
from repro.machine.hashing import stable_hash
print(stable_hash("branch", "site:loop"),
      stable_hash("key", 17),
      stable_hash(-42),
      stable_hash(("lock", "district", 3)),
      stable_hash("\\ud800"))
"""


def _probe_under_seed(seed: str) -> str:
    src_path = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONHASHSEED=seed)
    return subprocess.run(
        [sys.executable, "-c",
         _PROBE.format(path=os.path.abspath(src_path))],
        capture_output=True, text=True, env=env, check=True,
    ).stdout


def test_stable_hash_is_invariant_under_hash_seed():
    # Two interpreters with different salts — the PR-2 parallel-sweep
    # divergence scenario — must agree on every value.
    assert _probe_under_seed("1") == _probe_under_seed("4242")


def test_builtin_str_hash_actually_varies_between_the_probes():
    # Meta-check: the two subprocesses really do salt differently, so
    # the invariance test above cannot pass vacuously.
    probe = "print(hash('witness: builtin hashing is salted'))"
    runs = {
        subprocess.run([sys.executable, "-c", probe],
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed),
                       check=True).stdout
        for seed in ("1", "4242")
    }
    assert len(runs) == 2
