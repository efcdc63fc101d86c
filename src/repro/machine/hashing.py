"""Deterministic hashing for simulated layouts.

Builtin ``hash()`` of strings is salted per process (PYTHONHASHSEED),
so any simulated quantity derived from it — static branch-site PCs,
hash-table bucket choices, shuffle partitions — silently varies from
one interpreter to the next.  Serial runs masked this; a parallel sweep
fans cells out to worker *processes*, each with its own salt, and the
tables stopped being byte-identical to the serial ones.

Everything that maps a name or key to a simulated address or bucket
must go through :func:`stable_hash` instead.
"""

from __future__ import annotations

import zlib

#: Types whose ``repr`` is value-determined and process-independent.
#: (``bool`` is an ``int`` subclass; ``None`` is handled explicitly.)
_SCALAR_TYPES = (int, float, str, bytes)

#: Exact types :func:`stable_hash` accepts without calling
#: :func:`_check_part`; subclasses and nested tuples still go through it.
_PLAIN_TYPES = frozenset((int, float, str, bytes, bool, type(None)))


def _check_part(part: object) -> None:
    """Reject parts whose ``repr`` is not a stable pure function of
    their value.

    The default ``object.__repr__`` embeds a memory address
    (``<object object at 0x7f...>``), which differs on every run and
    reintroduces exactly the cross-process divergence ``stable_hash``
    exists to prevent — but *silently*, as a valid-looking hash.  Only
    int/str/bytes/float/bool/None and (recursively) tuples thereof are
    accepted; anything else raises ``TypeError`` at the call site,
    where the bad key is still in hand.
    """
    if part is None or isinstance(part, _SCALAR_TYPES):
        return
    if isinstance(part, tuple):
        for item in part:
            _check_part(item)
        return
    raise TypeError(
        f"stable_hash part {part!r} has type {type(part).__name__}, "
        "whose repr is not guaranteed stable across processes; pass "
        "int/str/bytes/float/bool/None or tuples thereof")


def stable_hash(*parts: object) -> int:
    # repro-lint: sanitizer -- the blessed hash; hashing.py is trusted by the taint pass
    """A deterministic non-negative hash of ``parts``, salt-free.

    A single integer keeps builtin hashing: CPython's int hash is
    unsalted (near-identity), and the simulator's hash-table bucket
    locality for sequentially allocated integer keys is part of the
    calibrated memory behaviour — scattering it would change measured
    off-chip traffic, not just determinism.

    Anything else — strings, or tuples mixing names with ids — is
    folded through CRC-32 of its ``repr``, which is stable across
    processes.  CRC-32 is linear, so a final multiplicative mix (Knuth)
    decorrelates the low bits for modulo bucket selection.

    Parts are restricted to value-repr types (see :func:`_check_part`);
    an ``object()`` whose repr embeds ``id()`` raises ``TypeError``
    instead of silently hashing its memory address.
    """
    if len(parts) == 1 and type(parts[0]) is int:
        return hash(parts[0]) & 0x7FFFFFFFFFFFFFFF
    h = 0
    for part in parts:
        kind = type(part)
        if kind is tuple:
            for item in part:
                if type(item) not in _PLAIN_TYPES:
                    _check_part(item)
        elif kind not in _PLAIN_TYPES:
            _check_part(part)
        h = zlib.crc32(repr(part).encode("utf-8", "surrogatepass"), h)
    return (h * 2654435761) & 0xFFFFFFFF
