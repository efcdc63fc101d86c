"""The Web Search ISN app: query handling over the in-memory shard.

Per request: receive the query, analyze it, look the terms up in the
dictionary, merge the posting lists of the rarest terms with per-entry
decode work, rank, fetch snippets from the document store, and return a
formatted response to the frontend.  Requests are completely
independent; the ISN never talks to other ISNs (§2.2).
"""

from __future__ import annotations

from repro.apps.base import ServerApp
from repro.apps.websearch.index import InvertedIndex
from repro.faults.plan import FaultEvent
from repro.load.distributions import ZipfGenerator
from repro.machine.runtime import Runtime

_LINE = 64


class WebSearchApp(ServerApp):
    """A Nutch/Lucene index serving node."""

    name = "web-search"
    os_intensive = False

    CODE_PLAN = [
        ("query_parser", 96, "scatter", 8, 0.2),
        ("analyzer", 64, "scatter", 9, 0.25),
        ("term_dictionary", 96, "scatter", 8, 0.2),
        ("postings_reader", 64, "loop", 10, 0.5),
        ("scorer", 96, "scatter", 9, 0.25),
        ("topk_collector", 48, "loop", 10, 0.4),
        ("snippet_gen", 112, "scatter", 8, 0.15),
        ("jvm_runtime", 320, "scatter", 7, 0.1),
        ("gc_code", 96, "scatter", 9, 0.2),
    ]

    #: An ISN's real degraded modes: re-routing queries to a replica
    #: shard, serving partial results under deadline pressure, and
    #: merging whatever shards answered in time.
    FAULT_CODE_PLAN = ServerApp.FAULT_CODE_PLAN + [
        ("shard_failover", 96, "scatter", 8, 0.15),
        ("degraded_ranker", 64, "scatter", 8, 0.2),
        ("partial_merge", 48, "scatter", 8, 0.2),
    ]

    #: Hand-written per-operation service costs (simulated
    #: microseconds) for the fleet layer (:mod:`repro.cluster`) — the
    #: ``--costs=static`` fallback only; measured runs derive the same
    #: classes from uarch replay of :meth:`cluster_ops`.  A query
    #: dominates (posting merge + rank + snippets); "update" is the
    #: incremental index apply an ISN replica performs when a refreshed
    #: shard segment lands; hints/repair move segment deltas between
    #: replicas.
    CLUSTER_SERVICE_COSTS = {
        "read": 1_400,
        "update": 900,
        "hint": 200,
        "repair": 350,
        "probe": 40,
    }

    def __init__(self, seed: int = 0, num_terms: int = 30_000,
                 num_docs: int = 150_000) -> None:
        self.num_terms = num_terms
        self.num_docs = num_docs
        super().__init__(seed)

    def setup(self) -> None:
        self.fns = {
            name: self.layout.function(
                f"lucene.{name}", kb * 1024, locality=loc,
                bb_mean=bb, hot_fraction=hot,
            )
            for name, kb, loc, bb, hot in self.CODE_PLAN
        }
        self.index = InvertedIndex(
            self.space, self.num_terms, self.num_docs, seed=self.seed
        )
        self.index.load_dictionary(self.runtime(0))
        self._term_popularity = ZipfGenerator(self.num_terms, theta=0.9,
                                              seed=self.seed)
        self._req_buf = self.space.alloc(2048, "heap", align=_LINE)
        self._resp_buf = self.space.alloc(16 * 1024, "heap", align=_LINE)
        self.queries_served = 0
        self.results_returned = 0

    def warm_ranges(self):
        # Hot postings: the most frequent query terms' lists.
        ranges = list(self.index.dict_extent)  # buckets + term-node slab
        ranges.append((self._resp_buf, 16 * 1024))
        for term in range(2048):
            length = min(int(self.index.dfs[term]), 64) * 4
            ranges.append((self.index.posting_addr(term, 0), length))
        return ranges

    def serve(self, rt: Runtime) -> None:
        rng = self.rng
        self.kernel.recv(rt, 160, into_base=self._req_buf,
                         sock_id=rt.tid * 131 + self.queries_served % 32)
        with rt.frame(self.fns["query_parser"]):
            token = rt.load(self._req_buf)
            rt.alu((token,), n=40, chain=False)
        num_terms = 2 + (self.queries_served % 3)
        terms = [self._term_popularity.next() for _ in range(num_terms)]
        with rt.frame(self.fns["analyzer"]):
            rt.alu(n=16 * num_terms, chain=False)
        with rt.frame(self.fns["term_dictionary"]):
            rt.alu(n=8, chain=False)
        with rt.frame(self.fns["postings_reader"]):
            with rt.frame(self.fns["scorer"]):
                if self.queries_served % 5 == 4:
                    # ~20% of queries run the (costlier) disjunctive path.
                    result = self.index.evaluate_or(rt, terms)
                else:
                    result = self.index.evaluate_and(rt, terms)
        with rt.frame(self.fns["topk_collector"]):
            rt.alu(n=50, chain=False)
        with rt.frame(self.fns["snippet_gen"]):
            for doc_id in result.doc_ids[:3]:
                self.index.snippet(rt, doc_id)
            for off in range(0, 2048, _LINE):
                rt.store(self._resp_buf + off)
        self._jvm_background(rt)
        self.kernel.send(rt, 2048, payload_base=self._resp_buf,
                         sock_id=rt.tid * 131 + self.queries_served % 32)
        self.queries_served += 1
        self.results_returned += len(result.doc_ids)

    def _jvm_background(self, rt: Runtime) -> None:
        with rt.frame(self.fns["jvm_runtime"]):
            rt.alu(n=70, chain=False)
        if self.queries_served % 128 == 0:
            with rt.frame(self.fns["gc_code"]):
                rt.scan(self._resp_buf, 8 * 1024, work_per_line=2)

    # -- cluster op classes (fleet cost calibration) -------------------------
    def cluster_ops(self):
        """The five replica request classes the fleet layer prices.

        A read is the regular query serve path; an update applies one
        refreshed index segment; a hint receives and stages a segment
        delta for a down sibling; repair merges a delta during
        anti-entropy; a probe is the frontend health check.
        """
        return {
            "read": self.serve,
            "update": lambda rt: self._cluster_apply_segment(rt, 2048),
            "hint": self._cluster_hint,
            "repair": self._cluster_repair,
            "probe": self._cluster_probe,
        }

    def _cluster_apply_segment(self, rt: Runtime, nbytes: int) -> None:
        """Apply one refreshed shard-segment delta to the live index:
        re-probe the dictionary, rewrite a posting range, commit."""
        with rt.frame(self.fns["term_dictionary"]):
            rt.alu(n=30, chain=False)
        term = self.queries_served % 2048
        with rt.frame(self.fns["postings_reader"]):
            rt.scan(self.index.posting_addr(term, 0), nbytes,
                    work_per_line=2, write=True)
        self._jvm_background(rt)
        self.kernel.log_write(rt, 512)
        self.queries_served += 1

    def _cluster_hint(self, rt: Runtime) -> None:
        """Stage a segment delta meant for a down sibling ISN: receive
        it, note the re-routing in the shard table, journal it."""
        self.kernel.recv(rt, 256)
        dict_base, dict_bytes = self.index.dict_extent[0]
        with rt.frame(self._fault_fns["shard_failover"]):
            rt.scan(dict_base, min(dict_bytes, 1024), work_per_line=1)
            rt.alu(n=30, chain=False)
        self.kernel.log_write(rt, 512)

    def _cluster_repair(self, rt: Runtime) -> None:
        """Anti-entropy: merge a buffered partial delta, then apply it."""
        with rt.frame(self._fault_fns["partial_merge"]):
            rt.alu(n=40, chain=False)
            rt.scan(self._resp_buf, 1024, work_per_line=1)
        self._cluster_apply_segment(rt, 1024)

    def _cluster_probe(self, rt: Runtime) -> None:
        """The frontend's health check: receive, account, answer."""
        self.kernel.recv(rt, 64)
        with rt.frame(self.fns["jvm_runtime"]):
            rt.alu(n=30, chain=False)
        self.kernel.send(rt, 96)

    # -- degraded paths (active only under an attached FaultInjector) -------
    def fault_replica_crash(self, rt: Runtime, event: FaultEvent) -> None:
        """A sibling ISN is down: this node re-routes its share of the
        queries — re-probe the term dictionary for the adopted shard's
        hot terms and rebuild the routing table entry."""
        fns = self._fault_fns
        dict_base, dict_bytes = self.index.dict_extent[0]
        with rt.frame(fns["shard_failover"]):
            nbytes = min(dict_bytes, 2 * 1024 + int(2 * 1024 * event.severity))
            rt.scan(dict_base, nbytes, work_per_line=1)
            rt.alu(n=40, chain=False)
        self.kernel.send(rt, 256)  # cluster-state update to the frontend
        self.kernel.recv(rt, 192)  # the frontend's re-routing directive
        self.kernel.context_switch(rt)  # adopted queries re-enter the queue

    def fault_straggler(self, rt: Runtime, event: FaultEvent) -> None:
        """Deadline pressure: fall back to the cheap ranker and merge
        only the shards that answered in time (partial results)."""
        fns = self._fault_fns
        with rt.frame(fns["degraded_ranker"]):
            rt.alu(n=50 + int(60 * event.severity), chain=False)
        with rt.frame(fns["partial_merge"]):
            rt.scan(self._resp_buf, 2 * 1024, work_per_line=1)
        self.kernel.send(rt, 512)  # partial result set to the frontend
        self.kernel.context_switch(rt)

    def fault_request_drop(self, rt: Runtime,
                           event: FaultEvent) -> tuple[int, bool, int]:
        """A query timed out at the frontend; the retried query merges
        whatever partial per-shard results were already buffered."""
        retries, ok, waited = super().fault_request_drop(rt, event)
        if ok:
            with rt.frame(self._fault_fns["partial_merge"]):
                rt.alu(n=40, chain=False)
                rt.scan(self._resp_buf, 1024, work_per_line=1)
        return retries, ok, waited

    def fault_memory_pressure(self, rt: Runtime, event: FaultEvent) -> None:
        """Reclaim evicted cold postings: re-fault a posting-list range
        on top of the generic reclaim scan."""
        super().fault_memory_pressure(rt, event)
        with rt.frame(self._fault_fns["shard_failover"]):
            term = self.queries_served % 2048
            rt.scan(self.index.posting_addr(term, 0), 1024, work_per_line=1)
