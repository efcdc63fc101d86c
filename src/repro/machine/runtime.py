"""Tracing runtime: the API the mini-applications program against.

A :class:`Runtime` instance represents one software thread.  Application
code calls :meth:`load`, :meth:`store`, :meth:`alu`, :meth:`branch`,
:meth:`call`/:meth:`ret` as it executes its real algorithm; the runtime
turns those into a micro-op stream with

* PCs walked through the registered :class:`~repro.machine.codelayout.Function`
  bodies (with automatic basic-block-ending branches, so instruction
  fetch and branch prediction behave like compiled code), and
* true data dependencies expressed as micro-op sequence numbers, so the
  simulated core sees exactly the ILP/MLP the algorithm allows.

Dependency tokens: every ``load``/``alu`` returns an int token; pass
tokens as ``deps`` to later operations that consume their results.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.machine.codelayout import CodeLayout, Function
from repro.machine.hashing import stable_hash
from repro.uarch.uop import MicroOp, OpKind

_LINE = 64

#: Memoized ``stable_hash(fn.name, site) & 0x7FFFFFFF`` per static
#: branch site.  stable_hash is a pure function, so sharing the cache
#: across runs and workloads cannot change any result; the key space
#: is bounded by the static sites named in the workload sources.
_SITE_HASHES: dict[tuple[str, str], int] = {}


class Runtime:
    """Micro-op emitter for one software thread."""

    def __init__(
        self,
        layout: CodeLayout,
        tid: int = 0,
        seed: int = 0,
        main: Function | None = None,
    ) -> None:
        self.layout = layout
        self.tid = tid
        self.rng = random.Random((seed << 8) | tid)
        self._buf: list[MicroOp] = []
        self.seq = 0
        self._stack: list[tuple[Function, int]] = []
        if main is None:
            name = f"__main_t{tid}"
            main = layout.function(name, 4096, locality="loop") if name not in layout \
                else layout.get(name)
        self._fn = main
        self._offset = 0
        self._bb_left = self._sample_bb(main)
        self._os_depth = 0

    # -- internal emission ------------------------------------------------
    def _sample_bb(self, fn: Function) -> int:
        return self.rng.randrange(1, 2 * fn.bb_mean)

    def _emit(
        self,
        kind: int,
        addr: int = 0,
        deps: tuple[int, ...] = (),
        taken: bool = False,
        target: int = 0,
    ) -> int:
        fn = self._fn
        offset = self._offset
        if offset >= fn.size:
            offset = 0
        pc = fn.base + offset
        self._offset = offset + 4
        self.seq += 1
        is_os = fn.os or self._os_depth > 0
        buf = self._buf
        buf.append(MicroOp(kind, pc, addr, deps, self.seq, is_os, self.tid,
                           taken, target))
        self._bb_left -= 1
        if self._bb_left <= 0:
            pc, taken, target = self._end_basic_block()
            buf.append(MicroOp(OpKind.BRANCH, pc, 0, (), self.seq, is_os,
                               self.tid, taken, target))
        return self.seq

    def _end_basic_block(self) -> tuple[int, bool, int]:
        """Advance past the compiler-inserted branch that terminates a
        basic block; returns its ``(pc, taken, target)`` for the caller
        to emit.

        Branch behaviour mimics compiled code: every *static* branch PC
        has a deterministic bias (mostly-taken or mostly-not-taken) and a
        deterministic taken-target, so predictors can learn it; dynamic
        paths still vary because each execution draws its direction from
        the bias.  Taken targets land in the function's hot region most
        of the time and anywhere in the body otherwise, which makes the
        resident I-footprint scale with code size (Figure 2's mechanism).
        """
        fn = self._fn
        self._bb_left = self._sample_bb(fn) + 1  # +1 covers the branch itself
        offset = self._offset
        if offset >= fn.size:
            offset = 0
        pc = fn.base + offset
        self.seq += 1
        if fn.locality == "loop":
            # Walk a short window; jump back to the entry at its end.
            window = min(fn.size, 4096)
            if offset + 4 >= window:
                taken, target, new_offset = True, fn.base, 0
            else:
                taken, target, new_offset = False, pc + 4, offset + 4
        else:
            # Hash at 16-byte granularity: nearby block-ends behave as one
            # static branch site, which predictors can learn.
            h = ((pc >> 4) * 2654435761) & 0xFFFFFFFF
            p_taken = 0.9 if (h >> 8) & 1 else 0.1
            if self.rng.random() < p_taken:
                hot = min(fn.size, max(4096, int(fn.size * fn.hot_fraction)))
                span = hot if (h >> 9) & 3 else fn.size  # 75 % of targets hot
                line = ((h >> 11) * 40503) % (span >> 6)
                new_offset = line << 6
                taken, target = True, fn.base + new_offset
            else:
                taken, target, new_offset = False, pc + 4, offset + 4
        self._offset = new_offset
        return pc, taken, target

    # -- public tracing API -------------------------------------------------
    def load(self, addr: int, deps: Iterable[int] = ()) -> int:
        """A load from simulated address ``addr``; returns its token."""
        return self._emit(OpKind.LOAD, addr, tuple(deps))

    def store(self, addr: int, deps: Iterable[int] = ()) -> int:
        return self._emit(OpKind.STORE, addr, tuple(deps))

    def alu(self, deps: Iterable[int] = (), n: int = 1, chain: bool = True) -> int:
        """``n`` ALU micro-ops.  ``chain=True`` serializes them (a true
        dependence chain); ``chain=False`` makes them independent."""
        deps = tuple(deps)
        token = 0
        for _ in range(n):
            token = self._emit(OpKind.ALU, 0, deps)
            if chain:
                deps = (token,)
        return token

    def branch(self, taken: bool, deps: Iterable[int] = (),
               site: str | None = None) -> int:
        """A data-dependent conditional branch (e.g. a comparison outcome).

        ``site`` names the static branch in the source — all executions
        of the same site share one PC (and one deterministic taken-
        target), so predictors can learn whatever bias the data has.
        Without a site, the branch is emitted at the current PC.
        """
        fn = self._fn
        if site is not None:
            # One stable_hash per *static* site, not per execution: the
            # hash is a pure function of (fn, site) and this is the
            # hottest tracing path (every data-dependent branch).
            key = (fn.name, site)
            site_hash = _SITE_HASHES.get(key)
            if site_hash is None:
                site_hash = _SITE_HASHES[key] = (
                    stable_hash(fn.name, site) & 0x7FFFFFFF)
            pc = fn.base + (site_hash % (fn.size >> 2)) * 4
            target = fn.base + ((site_hash * 40503) % (fn.size >> 6)) * _LINE
            if not taken:
                target = pc + 4
            self.seq += 1
            self._buf.append(
                MicroOp(OpKind.BRANCH, pc, 0, tuple(deps), self.seq,
                        fn.os or self._os_depth > 0, self.tid, taken, target)
            )
            return self.seq
        if taken:
            target = fn.base + self.rng.randrange(0, fn.size, _LINE)
        else:
            target = fn.base + ((self._offset + 4) % fn.size)
        return self._emit(OpKind.BRANCH, 0, tuple(deps), taken, target)

    def indirect_jump(self, selector: int, deps: Iterable[int] = ()) -> int:
        """An indirect jump whose target is chosen by a data value
        (interpreter dispatch, virtual calls).  The target varies with
        ``selector``, so the BTB cannot learn a single target per PC —
        the dominant misprediction source in interpreter-style code."""
        fn = self._fn
        line_count = fn.size >> 6
        line = (selector * 2654435761) % line_count
        target = fn.base + (line << 6)
        token = self._emit(OpKind.BRANCH, 0, tuple(deps), True, target)
        self._offset = line << 6
        return token

    def call(self, fn: Function) -> None:
        """Call ``fn``: emits the call branch and switches the PC stream."""
        self._emit(OpKind.BRANCH, 0, (), True, fn.base)
        self._stack.append((self._fn, self._offset))
        self._fn = fn
        self._offset = 0
        self._bb_left = self._sample_bb(fn)

    def ret(self) -> None:
        if not self._stack:
            raise RuntimeError("ret() with an empty call stack")
        caller, offset = self._stack.pop()
        self._emit(OpKind.BRANCH, 0, (), True, caller.base + (offset % caller.size))
        self._fn = caller
        self._offset = offset
        self._bb_left = self._sample_bb(caller)

    class _Frame:
        __slots__ = ("rt",)

        def __init__(self, rt: "Runtime") -> None:
            self.rt = rt

        def __enter__(self) -> "Runtime":
            return self.rt

        def __exit__(self, *exc) -> None:
            self.rt.ret()

    def frame(self, fn: Function) -> "Runtime._Frame":
        """``with rt.frame(fn): ...`` — call on entry, return on exit."""
        self.call(fn)
        return Runtime._Frame(self)

    class _OsScope:
        __slots__ = ("rt",)

        def __init__(self, rt: "Runtime") -> None:
            self.rt = rt

        def __enter__(self) -> "Runtime":
            return self.rt

        def __exit__(self, *exc) -> None:
            self.rt._os_depth -= 1

    def os_mode(self) -> "Runtime._OsScope":
        """Tag emitted micro-ops as OS regardless of the current function."""
        self._os_depth += 1
        return Runtime._OsScope(self)

    def skip(self, n: int) -> None:
        """Advance past ``n`` plain ops (loads, stores, ALU ops) that
        are never built: an app's startup load, which nothing measures.

        ``seq``, the PC offset, the basic-block countdown and its RNG
        draws end where emitting the ops and :meth:`take`-ing them away
        would leave them, so the stream after the skip is unchanged.
        The walk goes one basic block at a time; within a block the PC
        offset wraps around the function body in closed form.
        """
        fn = self._fn
        slots = (fn.size + 3) >> 2  # 4-byte PC slots in the body
        while n > 0:
            step = min(n, self._bb_left)
            offset = self._offset
            if offset >= fn.size:
                offset = 0
            self._offset = ((offset >> 2) + step - 1) % slots * 4 + 4
            self.seq += step
            self._bb_left -= step
            n -= step
            if self._bb_left <= 0:
                self._end_basic_block()

    # -- bulk helpers --------------------------------------------------------
    def scan(
        self,
        base: int,
        nbytes: int,
        stride: int = _LINE,
        write: bool = False,
        work_per_line: int = 2,
        deps: Iterable[int] = (),
    ) -> int:
        """Sequential scan over a range (prefetcher-friendly traffic).

        Emits one memory op per ``stride`` bytes plus ``work_per_line``
        independent ALU ops; returns the last token."""
        deps = tuple(deps)
        token = 0
        emit = self._emit
        mem_kind = OpKind.STORE if write else OpKind.LOAD
        for offset in range(0, nbytes, stride):
            token = emit(mem_kind, base + offset, deps)
            if work_per_line:
                self.alu(n=work_per_line, chain=False)
        return token

    def copy(self, src: int, dst: int, nbytes: int, parallelism: int = 2) -> None:
        """Line-by-line memcpy: load src line, store dst line.

        Real copy loops bound their outstanding loads by the unrolling
        the compiler chose and the surrounding bookkeeping; ``parallelism``
        caps the number of independent load chains."""
        parallelism = max(1, parallelism)
        chains = [0] * parallelism
        index = 0
        for offset in range(0, nbytes, _LINE):
            parent = chains[index % parallelism]
            token = self._emit(OpKind.LOAD, src + offset,
                               (parent,) if parent else ())
            self._emit(OpKind.STORE, dst + offset, (token,))
            chains[index % parallelism] = token
            index += 1

    def pointer_chase(self, addrs: Iterable[int], work_per_hop: int = 1) -> int:
        """Dependent loads: each address load depends on the previous one
        (an index/list walk where the next node comes from the current)."""
        token = 0
        for addr in addrs:
            deps = (token,) if token else ()
            token = self._emit(OpKind.LOAD, addr, deps)
            if work_per_hop:
                self.alu((token,), n=work_per_hop)
        return token

    # -- trace extraction ------------------------------------------------
    def take(self) -> list[MicroOp]:
        """Return and clear the emitted micro-ops."""
        buf = self._buf
        self._buf = []
        return buf

    def pending(self) -> int:
        return len(self._buf)
