"""The SAT Solver workload app.

A Klee-like solver process: a stream of constraint systems (random
3-SAT instances near, but below, the hardness transition) is solved one
after another, with each instance's clause database, watch arrays, and
trail allocated fresh from the heap — as a symbolic-execution engine
allocates per-query constraint sets.  Compute-heavy with almost no OS
time; its clause-database traversals produce the highest MLP of the
scale-out class (Figure 3).
"""

from __future__ import annotations

from repro.apps.base import ServerApp
from repro.apps.satsolver.solver import DpllSolver, random_3sat
from repro.machine.runtime import Runtime


class SatSolverApp(ServerApp):
    """One solver process (the paper runs one instance per core)."""

    name = "sat-solver"
    os_intensive = False

    CODE_PLAN = [
        ("propagate", 48, "scatter", 11, 0.4),
        ("decide", 32, "loop", 12, 0.5),
        ("backtrack", 40, "scatter", 10, 0.3),
        ("clause_db", 64, "scatter", 9, 0.25),
        ("simplify", 48, "scatter", 9, 0.25),
        ("query_builder", 96, "scatter", 8, 0.2),
        ("expr_rewriter", 112, "scatter", 8, 0.15),
    ]

    def __init__(self, seed: int = 0, nvars: int = 600, clause_ratio: float = 4.2,
                 decisions_per_slice: int = 2) -> None:
        self.nvars = nvars
        self.nclauses = int(nvars * clause_ratio)
        self.decisions_per_slice = decisions_per_slice
        super().__init__(seed)

    def setup(self) -> None:
        self.fns = {
            name: self.layout.function(
                f"klee.{name}", kb * 1024, locality=loc,
                bb_mean=bb, hot_fraction=hot,
            )
            for name, kb, loc, bb, hot in self.CODE_PLAN
        }
        self.instances_solved = 0
        self.results: dict[str, int] = {"sat": 0, "unsat": 0, "unknown": 0}
        self._instance_seed = self.seed
        self._solver = self._new_instance()
        # Klee's dominant data footprint is not the clause database but
        # the symbolic-expression arena and query caches: AST nodes from
        # past queries plus a counterexample/cache map far larger than
        # the LLC.
        self.expr_arena_bytes = 96 << 20
        self.expr_arena = self.space.alloc(self.expr_arena_bytes, "heap", align=64)
        self._arena_cursor = 0
        from repro.machine.structures import SimHashMap
        self.query_cache = SimHashMap(self.space, nbuckets=1 << 14, node_bytes=64)
        self.query_cache.preload(
            self.runtime(0), ((entry, entry) for entry in range(12_000)))
        self._query_counter = 0

    def _new_instance(self) -> DpllSolver:
        self._instance_seed += 1
        clauses = random_3sat(self.nvars, self.nclauses, self._instance_seed)
        return DpllSolver(self.nvars, clauses, space=self.space,
                          seed=self._instance_seed)

    def warm_ranges(self):
        solver = self._solver
        return [
            (solver.clause_mem.base, solver.clause_mem.nbytes),
            (solver.watch_mem.base, solver.watch_mem.nbytes),
            (solver.activity_mem.base, solver.activity_mem.nbytes),
        ]

    def serve(self, rt: Runtime) -> None:
        """Advance the current instance by a bounded decision budget."""
        solver = self._solver
        with rt.frame(self.fns["query_builder"]):
            rt.alu(n=30, chain=False)
            self._build_query_expressions(rt)
        with rt.frame(self.fns["propagate"]):
            before = solver.decisions
            status = solver.solve(
                rt, max_decisions=before + self.decisions_per_slice
            )
        with rt.frame(self.fns["expr_rewriter"]):
            rt.alu(n=60, chain=False)
            span = max(4096, min(self._arena_cursor, self.expr_arena_bytes))
            probe = (self._query_counter * 127) % max(1, span - 1024)
            rt.scan(self.expr_arena + probe, 512, work_per_line=4)
        timed_out = status == "unknown" and solver.decisions >= 3000
        if status != "unknown" or timed_out:
            # Klee imposes per-query solver timeouts; so do we.
            self.results["unknown" if timed_out else status] += 1
            self.instances_solved += 1
            with rt.frame(self.fns["simplify"]):
                rt.alu(n=60, chain=False)
            self._solver = self._new_instance()

    def _build_query_expressions(self, rt: Runtime) -> None:
        """Construct the query's AST in the expression arena and consult
        the solver's query caches (Klee's CexCache/branch cache)."""
        self._query_counter += 1
        # A handful of fresh AST nodes (cold, write-allocated).
        for _ in range(8):
            node = self.expr_arena + (self._arena_cursor % self.expr_arena_bytes)
            self._arena_cursor += 64
            rt.store(node)
        # Cache probes: pointer walks over a map that long outlives the LLC.
        for probe in range(8):
            self.query_cache.get(rt, (self._query_counter * 7 + probe) % 12_000)
        # Re-traverse a previously built expression (dependent loads).
        span = max(1, min(self._arena_cursor, self.expr_arena_bytes) // 64)
        start = (self._query_counter * 2654435761) % span
        rt.pointer_chase(
            (self.expr_arena + ((start + hop * 37) % span) * 64 for hop in range(16)),
            work_per_hop=2,
        )
