"""Tracing runtime: micro-op emission invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.codelayout import CodeLayout
from repro.machine.runtime import Runtime
from repro.uarch.uop import OpKind


def make_runtime(locality="scatter"):
    layout = CodeLayout()
    main = layout.function("main", 64 * 1024, locality=locality)
    return Runtime(layout, main=main), layout


class TestEmission:
    def test_load_returns_token_and_emits(self):
        rt, _ = make_runtime()
        token = rt.load(0x1000)
        buf = rt.take()
        assert token == buf[-1].seq or any(u.seq == token for u in buf)
        loads = [u for u in buf if u.kind == OpKind.LOAD]
        assert len(loads) == 1
        assert loads[0].addr == 0x1000

    def test_deps_are_recorded(self):
        rt, _ = make_runtime()
        a = rt.load(0x1000)
        rt.load(0x2000, (a,))
        buf = rt.take()
        dependent = [u for u in buf if u.kind == OpKind.LOAD][1]
        assert a in dependent.deps

    def test_alu_chain_serializes(self):
        rt, _ = make_runtime()
        rt.alu(n=5, chain=True)
        buf = [u for u in rt.take() if u.kind == OpKind.ALU]
        for prev, cur in zip(buf, buf[1:]):
            assert prev.seq in cur.deps

    def test_alu_unchained_is_independent(self):
        rt, _ = make_runtime()
        first = rt.load(0x40)
        rt.alu((first,), n=5, chain=False)
        buf = [u for u in rt.take() if u.kind == OpKind.ALU]
        for uop in buf:
            assert uop.deps == (first,)

    def test_seq_strictly_increases(self):
        rt, _ = make_runtime()
        for i in range(50):
            rt.load(i * 64)
        buf = rt.take()
        seqs = [u.seq for u in buf]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_take_clears_buffer(self):
        rt, _ = make_runtime()
        rt.alu(n=3)
        assert rt.pending() > 0
        rt.take()
        assert rt.pending() == 0


class TestControlFlow:
    def test_call_switches_pc_region(self):
        rt, layout = make_runtime()
        callee = layout.function("callee", 8 * 1024)
        rt.call(callee)
        rt.alu(n=4)
        rt.ret()
        buf = rt.take()
        callee_pcs = [u for u in buf
                      if callee.base <= u.pc < callee.base + callee.size]
        assert len(callee_pcs) >= 4

    def test_ret_without_call_raises(self):
        rt, _ = make_runtime()
        with pytest.raises(RuntimeError):
            rt.ret()

    def test_frame_context_manager(self):
        rt, layout = make_runtime()
        fn = layout.function("framed", 8 * 1024)
        with rt.frame(fn):
            rt.alu(n=2)
        rt.alu(n=1)
        buf = rt.take()
        last_alu = [u for u in buf if u.kind == OpKind.ALU][-1]
        assert not (fn.base <= last_alu.pc < fn.base + fn.size)

    def test_block_end_branches_inserted(self):
        rt, _ = make_runtime()
        rt.alu(n=200, chain=False)
        buf = rt.take()
        branches = [u for u in buf if u.kind == OpKind.BRANCH]
        assert len(branches) > 5  # ~1 per mean basic block

    def test_loop_functions_walk_a_window(self):
        rt, layout = make_runtime()
        loop = layout.function("loop", 64 * 1024, locality="loop")
        with rt.frame(loop):
            rt.alu(n=4000, chain=False)
        buf = rt.take()
        loop_pcs = {u.pc for u in buf
                    if loop.base <= u.pc < loop.base + loop.size}
        # Confined to the loop window (plus at most one basic block).
        assert max(loop_pcs) - loop.base < 4096 + 64 * 4

    def test_scatter_functions_cover_the_body(self):
        rt, layout = make_runtime()
        fn = layout.function("big", 256 * 1024, locality="scatter",
                             hot_fraction=0.5)
        with rt.frame(fn):
            rt.alu(n=20_000, chain=False)
        buf = rt.take()
        lines = {u.pc >> 6 for u in buf
                 if fn.base <= u.pc < fn.base + fn.size}
        assert len(lines) > 200  # far beyond a loop window

    def test_branch_site_is_stable(self):
        rt, _ = make_runtime()
        rt.branch(True, site="x")
        rt.alu(n=37)
        rt.branch(False, site="x")
        buf = [u for u in rt.take() if u.kind == OpKind.BRANCH]
        sited = [u for u in buf if u.taken or not u.taken]
        # First and the explicitly-sited later branch share one PC.
        assert buf[0].pc == [u for u in buf if u.pc == buf[0].pc][-1].pc

    def test_indirect_jump_targets_vary_with_selector(self):
        rt, _ = make_runtime()
        rt.indirect_jump(1)
        rt.indirect_jump(2)
        buf = [u for u in rt.take() if u.kind == OpKind.BRANCH]
        assert buf[0].target != buf[1].target


class TestOsTagging:
    def test_os_function_tags_uops(self):
        rt, layout = make_runtime()
        kfn = layout.function("kfn", 8 * 1024, os=True)
        with rt.frame(kfn):
            rt.alu(n=3)
        buf = rt.take()
        kernel_ops = [u for u in buf if u.is_os]
        assert len(kernel_ops) >= 3

    def test_os_mode_scope(self):
        rt, _ = make_runtime()
        with rt.os_mode():
            rt.alu(n=2)
        rt.alu(n=1)
        buf = [u for u in rt.take() if u.kind == OpKind.ALU]
        assert buf[0].is_os and buf[1].is_os
        assert not buf[-1].is_os


class TestBulkHelpers:
    def test_scan_touches_every_line(self):
        rt, _ = make_runtime()
        rt.scan(0x10000, 1024, work_per_line=0)
        buf = [u for u in rt.take() if u.kind == OpKind.LOAD]
        assert len(buf) == 16
        assert buf[0].addr == 0x10000
        assert buf[-1].addr == 0x10000 + 15 * 64

    def test_scan_write_emits_stores(self):
        rt, _ = make_runtime()
        rt.scan(0x10000, 256, write=True, work_per_line=0)
        stores = [u for u in rt.take() if u.kind == OpKind.STORE]
        assert len(stores) == 4

    def test_copy_pairs_loads_with_stores(self):
        rt, _ = make_runtime()
        rt.copy(0x10000, 0x20000, 256)
        buf = rt.take()
        loads = [u for u in buf if u.kind == OpKind.LOAD]
        stores = [u for u in buf if u.kind == OpKind.STORE]
        assert len(loads) == len(stores) == 4
        for load, store in zip(loads, stores):
            assert load.seq in store.deps

    def test_copy_parallelism_bounds_chains(self):
        rt, _ = make_runtime()
        rt.copy(0x10000, 0x20000, 64 * 8, parallelism=2)
        loads = [u for u in rt.take() if u.kind == OpKind.LOAD]
        # Loads 2..n depend on the load two positions earlier.
        for i in range(2, len(loads)):
            assert loads[i - 2].seq in loads[i].deps

    def test_pointer_chase_is_fully_dependent(self):
        rt, _ = make_runtime()
        rt.pointer_chase([0x1000, 0x2000, 0x3000], work_per_hop=0)
        loads = [u for u in rt.take() if u.kind == OpKind.LOAD]
        assert loads[0].deps == ()
        assert loads[0].seq in loads[1].deps
        assert loads[1].seq in loads[2].deps


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.sampled_from(["load", "store", "alu", "branch"]),
                    min_size=1, max_size=120))
def test_property_deps_always_point_backwards(ops):
    rt, _ = make_runtime()
    last = 0
    for op in ops:
        if op == "load":
            last = rt.load(0x1000, (last,) if last else ())
        elif op == "store":
            rt.store(0x2000, (last,) if last else ())
        elif op == "alu":
            last = rt.alu((last,) if last else ())
        else:
            rt.branch(True)
    buf = rt.take()
    for uop in buf:
        for dep in uop.deps:
            assert dep < uop.seq


@settings(max_examples=20, deadline=None)
@given(calls=st.lists(st.sampled_from(["alu", "load", "call", "branch"]),
                      min_size=5, max_size=150))
def test_property_every_pc_lies_inside_a_registered_function(calls):
    """Invariant: the runtime never emits a PC outside a function body."""
    layout = CodeLayout()
    main = layout.function("main", 32 * 1024)
    helper = layout.function("helper", 8 * 1024, os=True)
    rt = Runtime(layout, main=main)
    depth = 0
    for op in calls:
        if op == "alu":
            rt.alu(n=3, chain=False)
        elif op == "load":
            rt.load(0x1000)
        elif op == "branch":
            rt.branch(True, site="s")
        elif op == "call" and depth == 0:
            rt.call(helper)
            depth = 1
        elif depth:
            rt.ret()
            depth = 0
    ranges = [(fn.base, fn.base + fn.size) for fn in layout.functions()]
    for uop in rt.take():
        assert any(low <= uop.pc < high for low, high in ranges), hex(uop.pc)


_PROGRAM = st.lists(
    st.tuples(st.sampled_from(["load", "store", "alu", "site", "branch",
                               "indirect", "call", "ret", "os", "os_exit",
                               "scan", "copy", "chase"]),
              st.integers(0, 1_000)),
    max_size=80)


def _drive(rt, fns, program, scopes):
    """Run ``program`` on ``rt``; ``scopes`` holds its open OS scopes."""
    last = 0
    for op, arg in program:
        deps = (last,) if last else ()
        if op == "load":
            last = rt.load(0x1000 + 64 * arg, deps)
        elif op == "store":
            rt.store(0x2000 + 64 * arg, deps)
        elif op == "alu":
            last = rt.alu(deps, n=1 + arg % 12, chain=arg % 2 == 0)
        elif op == "site":
            last = rt.branch(arg % 2 == 0, deps, site=f"s{arg % 3}")
        elif op == "branch":
            last = rt.branch(arg % 3 != 0, deps)
        elif op == "indirect":
            rt.indirect_jump(arg, deps)
        elif op == "call":
            rt.call(fns[arg % len(fns)])
        elif op == "ret" and rt._stack:
            rt.ret()
        elif op == "os":
            scopes.append(rt.os_mode())
        elif op == "os_exit" and scopes:
            scopes.pop().__exit__(None, None, None)
        elif op == "scan":
            rt.scan(0x10000, 64 * (1 + arg % 8), write=arg % 2 == 1,
                    work_per_line=arg % 3)
        elif op == "copy":
            rt.copy(0x20000, 0x30000, 64 * (1 + arg % 6),
                    parallelism=1 + arg % 3)
        elif op == "chase":
            last = rt.pointer_chase(
                [0x40000 + 4096 * i for i in range(1 + arg % 5)],
                work_per_hop=arg % 2)


def _state(rt):
    return (rt.seq, rt._offset, rt._bb_left, rt.rng.getstate(), rt._fn,
            list(rt._stack), rt._os_depth)


def _fields(ops):
    return [(u.kind, u.pc, u.addr, u.deps, u.seq, u.is_os, u.tid, u.taken,
             u.target) for u in ops]


def runtime_pair():
    """Two identical runtimes and the functions ``_drive`` calls."""
    layout = CodeLayout()
    main = layout.function("main", 64 * 1024)
    fns = [layout.function("loop", 16 * 1024, locality="loop"),
           layout.function("small", 4 * 1024, bb_mean=3),
           layout.function("kernel", 8 * 1024, os=True),
           # Blocks far longer than the body: the offset wraps many
           # times inside one block.
           layout.function("long_blocks", 1024, bb_mean=3_000)]
    return (Runtime(layout, seed=5, main=main),
            Runtime(layout, seed=5, main=main), fns)


class TestSkip:
    """``skip(n)`` against ``n`` emitted plain ops taken away."""

    @settings(max_examples=60, deadline=None)
    @given(program=_PROGRAM, n=st.integers(0, 30_000))
    def test_leaves_the_state_emitting_would(self, program, n):
        quiet, loud, fns = runtime_pair()
        scopes = {quiet: [], loud: []}
        for rt in (quiet, loud):
            _drive(rt, fns, program, scopes[rt])
            rt.take()
        quiet.skip(n)
        loud.alu(n=n, chain=False)
        loud.take()
        assert quiet.pending() == 0
        assert _state(quiet) == _state(loud)
        for rt in (quiet, loud):
            while rt.pending() < 1_000:
                _drive(rt, fns, [("load", 1), ("alu", 6), ("site", 1),
                                 ("branch", 1), ("indirect", 7)], scopes[rt])
        assert _fields(quiet.take()) == _fields(loud.take())

    def test_wraps_inside_one_block(self):
        quiet, loud, fns = runtime_pair()
        for rt in (quiet, loud):
            rt.call(fns[3])
            rt._bb_left = 10_000  # one block across 39 wraps of the body
        quiet.skip(9_999)
        loud.alu(n=9_999, chain=False)
        loud.take()
        assert _state(quiet) == _state(loud)
        assert quiet._bb_left == 1

    def test_zero_is_a_no_op(self):
        rt, _ = make_runtime()
        before = _state(rt)
        rt.skip(0)
        assert _state(rt) == before
        assert rt.pending() == 0
