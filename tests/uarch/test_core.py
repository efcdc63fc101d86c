"""Out-of-order core: issue limits, dependences, stalls, SMT."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.core import Core
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import MachineParams, PrefetcherParams
from repro.uarch.uop import MicroOp, OpKind

NO_PF = PrefetcherParams(False, False, False, False)


def make_core(params=None) -> Core:
    params = params or MachineParams().with_prefetchers(NO_PF)
    return Core(params, MemoryHierarchy(params))


def alu_trace(n, deps_fn=lambda seq: (), tid=0, pc=0x400000):
    seq = 0
    for _ in range(n):
        seq += 1
        yield MicroOp(OpKind.ALU, pc, 0, deps_fn(seq), seq, tid=tid)


class TestIssueWidth:
    def test_independent_alus_reach_width_limit(self):
        core = make_core()
        res = core.run([alu_trace(4000)])
        ipc = res.instructions / res.cycles
        assert ipc > 3.0  # 4-wide core, no dependences, one hot I-line

    def test_serial_chain_limits_ipc_to_one(self):
        core = make_core()
        res = core.run([alu_trace(4000, deps_fn=lambda s: (s - 1,) if s > 1 else ())])
        ipc = res.instructions / res.cycles
        assert 0.8 < ipc <= 1.05

    def test_all_instructions_commit(self):
        core = make_core()
        res = core.run([alu_trace(1234)])
        assert res.instructions == 1234

    def test_committing_plus_stalled_equals_cycles(self):
        core = make_core()
        res = core.run([alu_trace(1000)])
        assert res.committing_cycles + res.stalled_cycles == res.cycles


class TestMemoryBehaviour:
    def _load_trace(self, n, stride, dep_chain, base=1 << 30):
        seq = 0
        last = 0
        for i in range(n):
            seq += 1
            deps = (last,) if (dep_chain and last) else ()
            yield MicroOp(OpKind.LOAD, 0x400000, base + i * stride, deps, seq)
            last = seq

    def test_dependent_cold_loads_serialize(self):
        core = make_core()
        res = core.run([self._load_trace(300, 4096, dep_chain=True)])
        assert res.mlp == pytest.approx(1.0, abs=0.05)
        cycles_per_load = res.cycles / 300
        assert cycles_per_load > 200  # each pays the full memory latency

    def test_independent_cold_loads_overlap(self):
        core = make_core()
        res = core.run([self._load_trace(300, 4096, dep_chain=False)])
        assert res.mlp > 3.0
        assert res.memory_cycles > 0.8 * res.cycles

    def test_mlp_bounded_by_mshrs(self):
        params = MachineParams().with_prefetchers(NO_PF)
        core = make_core(params)
        res = core.run([self._load_trace(400, 4096, dep_chain=False)])
        assert res.mlp <= params.mshr_entries + 0.01

    def test_warm_loads_do_not_stall(self):
        core = make_core()

        def trace(n):
            for seq in range(1, n + 1):
                yield MicroOp(OpKind.LOAD, 0x400000, 1 << 30, (), seq)

        core.run([trace(50)])  # absorb the cold-start misses
        res = core.run([trace(1000)])
        assert res.memory_cycles < 0.05 * res.cycles

    def test_stores_do_not_block_commit(self):
        seq = 0
        trace = []
        for i in range(500):
            seq += 1
            trace.append(
                MicroOp(OpKind.STORE, 0x400000, (1 << 30) + i * 4096, (), seq)
            )
        core = make_core()
        res = core.run([iter(trace)])
        # Store misses drain in the background: far faster than loads would be.
        assert res.cycles < 500 * 50

    def test_loads_and_stores_counted(self):
        seq = 0
        trace = [
            MicroOp(OpKind.LOAD, 0x400000, 1 << 30, (), 1),
            MicroOp(OpKind.STORE, 0x400000, 1 << 30, (), 2),
            MicroOp(OpKind.ALU, 0x400000, 0, (), 3),
        ]
        core = make_core()
        res = core.run([iter(trace)])
        assert res.loads == 1
        assert res.stores == 1


class TestFrontend:
    def test_icache_misses_stall_fetch(self):
        # Jump between many code lines so the L1-I misses constantly.
        def trace():
            seq = 0
            for i in range(3000):
                seq += 1
                pc = 0x400000 + (i * 8192) % (4 << 20)
                yield MicroOp(OpKind.ALU, pc, 0, (), seq)

        core = make_core()
        res = core.run([trace()])
        assert res.l1i_misses > 1000
        assert res.instructions / res.cycles < 1.0

    def test_branch_mispredicts_charge_penalty(self):
        import random

        rng = random.Random(3)

        def trace(predictable):
            seq = 0
            for i in range(2000):
                seq += 1
                if i % 4 == 0:
                    taken = True if predictable else rng.random() < 0.5
                    yield MicroOp(OpKind.BRANCH, 0x400100, 0, (), seq,
                                  taken=taken, target=0x400200)
                else:
                    yield MicroOp(OpKind.ALU, 0x400000, 0, (), seq)

        predictable = make_core().run([trace(True)])
        noisy = make_core().run([trace(False)])
        assert noisy.cycles > predictable.cycles * 1.5
        assert noisy.branch_mispredicts > predictable.branch_mispredicts

    def test_os_instructions_counted(self):
        def trace():
            for seq in range(1, 101):
                yield MicroOp(OpKind.ALU, 0x400000, 0, (), seq,
                              is_os=(seq % 2 == 0))

        res = make_core().run([trace()])
        assert res.os_instructions == 50


class TestSmt:
    def test_two_threads_all_commit(self):
        core = make_core(MachineParams().with_smt(2).with_prefetchers(NO_PF))
        res = core.run([alu_trace(1000, tid=0), alu_trace(1000, tid=1)])
        assert res.instructions == 2000
        assert res.per_thread_instructions == [1000, 1000]

    def test_smt_improves_throughput_of_stalling_threads(self):
        def memory_bound(tid):
            seq = 0
            last = 0
            base = (1 << 30) + tid * (1 << 26)
            for i in range(1500):
                seq += 1
                deps = (last,) if last else ()
                yield MicroOp(OpKind.LOAD, 0x400000, base + i * 4096, deps,
                              seq, tid=tid)
                last = seq

        single = make_core().run([memory_bound(0)])
        smt_core = make_core(MachineParams().with_smt(2).with_prefetchers(NO_PF))
        dual = smt_core.run([memory_bound(0), memory_bound(1)])
        single_ipc = single.instructions / single.cycles
        dual_ipc = dual.instructions / dual.cycles
        assert dual_ipc > 1.5 * single_ipc  # two serial chains overlap
        assert dual.mlp > 1.5 * single.mlp

    def test_smt_threads_contend_for_core_resources(self):
        single = make_core().run([alu_trace(2000)])
        smt_core = make_core(MachineParams().with_smt(2).with_prefetchers(NO_PF))
        dual = smt_core.run([alu_trace(2000, tid=0), alu_trace(2000, tid=1)])
        per_thread_ipc = dual.per_thread_instructions[0] / dual.cycles
        assert per_thread_ipc < single.instructions / single.cycles


class TestResumability:
    def test_counters_are_per_run_deltas(self):
        core = make_core()
        first = core.run([alu_trace(500)])
        second = core.run([alu_trace(500)])
        assert first.instructions == second.instructions == 500
        assert second.l1i_misses <= first.l1i_misses  # caches stay warm


class TestCycleBudget:
    def test_unbudgeted_run_still_completes(self):
        def trace():
            yield MicroOp(OpKind.LOAD, 0x400000, 1 << 30, (), 1)
            yield MicroOp(OpKind.ALU, 0x400004, 0, (1,), 2)

        core = make_core()
        res = core.run([trace()])
        assert res.instructions == 2


@settings(max_examples=20, deadline=None)
@given(
    kinds=st.lists(
        st.sampled_from([OpKind.ALU, OpKind.LOAD, OpKind.STORE]),
        min_size=1,
        max_size=200,
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_all_uops_commit_and_cycles_consistent(kinds, seed):
    """Property: every micro-op commits exactly once; cycle classification
    partitions total cycles; MLP is non-negative."""
    import random

    rng = random.Random(seed)
    trace = []
    for i, kind in enumerate(kinds, start=1):
        addr = (1 << 30) + rng.randrange(1 << 22) // 64 * 64
        deps = (rng.randrange(1, i),) if i > 1 and rng.random() < 0.4 else ()
        trace.append(MicroOp(kind, 0x400000 + (i % 64) * 4, addr, deps, i))
    core = make_core()
    res = core.run([iter(trace)])
    assert res.instructions == len(kinds)
    assert res.committing_cycles + res.stalled_cycles == res.cycles
    assert res.cycles >= (len(kinds) + 3) // 4
    assert res.mlp >= 0.0
