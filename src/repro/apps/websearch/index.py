"""Inverted index over a memory-resident shard.

Term document-frequencies follow a Zipfian law (term rank r has
df ∝ 1/r^0.6, capped); postings are sorted document-id arrays packed at
4 bytes per entry in one large postings region.  Posting arrays are
materialized lazily (deterministically from the seed) so a multi-hundred-
megabyte shard costs host memory only for the terms a run touches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.address_space import AddressSpace
from repro.machine.runtime import Runtime
from repro.machine.structures import SimHashMap

_LINE = 64
_ENTRY_BYTES = 4


@dataclass
class QueryResult:
    doc_ids: list[int]
    scores: list[float]
    postings_scanned: int


class InvertedIndex:
    """Term dictionary + packed postings + document store."""

    def __init__(
        self,
        space: AddressSpace,
        num_terms: int = 30_000,
        num_docs: int = 150_000,
        doc_bytes: int = 2048,
        seed: int = 0,
    ) -> None:
        self.space = space
        self.num_terms = num_terms
        self.num_docs = num_docs
        self.doc_bytes = doc_bytes
        self.seed = seed
        # Zipfian document frequencies, capped at 10% of the corpus.
        ranks = np.arange(1, num_terms + 1, dtype=np.float64)
        dfs = np.minimum(num_docs // 10, (num_docs / (ranks ** 0.6) / 8)).astype(np.int64)
        self.dfs = np.maximum(dfs, 2)
        offsets = np.zeros(num_terms + 1, dtype=np.int64)
        np.cumsum(self.dfs * _ENTRY_BYTES, out=offsets[1:])
        self.postings_bytes = int(offsets[-1])
        self.postings_base = space.alloc(self.postings_bytes, "heap", align=_LINE)
        self._offsets = offsets
        # Dictionary: term -> (posting offset, df), a real hash structure.
        self.dictionary = SimHashMap(space, nbuckets=num_terms, node_bytes=48)
        self._dict_loaded = False
        # Document store (the "data segment"): scaled from the paper's 23 GB.
        self.docstore_base = space.alloc(num_docs * doc_bytes, "heap", align=_LINE)
        self._materialized: dict[int, np.ndarray] = {}

    def load_dictionary(self, rt: Runtime) -> None:
        """Populate the term dictionary (index load at startup,
        untraced: :meth:`SimHashMap.preload`)."""
        nodes_start = self.space.region("heap").base + self.space.region("heap").cursor
        self.dictionary.preload(rt, enumerate(zip(
            self._offsets[:self.num_terms].tolist(), self.dfs.tolist())))
        self._dict_loaded = True
        nodes_end = self.space.region("heap").base + self.space.region("heap").cursor
        # Buckets + the contiguous node slab: the dictionary's footprint.
        self.dict_extent = [
            (self.dictionary.bucket_base, self.dictionary.nbuckets * 8),
            (nodes_start, nodes_end - nodes_start),
        ]

    def postings(self, term: int) -> np.ndarray:
        """The term's sorted posting array (deterministic, lazy)."""
        cached = self._materialized.get(term)
        if cached is not None:
            return cached
        df = int(self.dfs[term])
        rng = np.random.default_rng(self.seed * 1_000_003 + term)
        ids = np.sort(rng.choice(self.num_docs, size=df, replace=False))
        if len(self._materialized) > 4096:
            self._materialized.clear()  # bound host memory
        self._materialized[term] = ids
        return ids

    def posting_addr(self, term: int, position: int) -> int:
        return self.postings_base + int(self._offsets[term]) + position * _ENTRY_BYTES

    def doc_addr(self, doc_id: int) -> int:
        return self.docstore_base + (doc_id % self.num_docs) * self.doc_bytes

    # -- query evaluation ---------------------------------------------------
    def lookup_term(self, rt: Runtime, term: int) -> tuple[int, int] | None:
        value = self.dictionary.get(rt, term)
        return value  # type: ignore[return-value]

    def evaluate_and(
        self, rt: Runtime, terms: list[int], max_scan: int = 64
    ) -> QueryResult:
        """Conjunctive evaluation: merge-intersect the posting lists.

        Emits the real access pattern: sequential line-granular loads of
        each list (with per-entry decode work), dependent on the
        dictionary lookups that located them.
        """
        infos = []
        for term in terms:
            info = self.lookup_term(rt, term)
            if info is None:
                return QueryResult([], [], 0)
            infos.append((term, info))
        # Drive the merge from the two rarest terms (standard practice).
        infos.sort(key=lambda entry: entry[1][1])
        lead_term = infos[0][0]
        lead = self.postings(lead_term)[:max_scan]
        survivors = lead
        scanned = 0
        for term, (_offset, df) in infos[:2]:
            length = min(df, max_scan)
            scanned += length
            token = 0
            for position in range(0, length, _LINE // _ENTRY_BYTES):
                token = rt.load(self.posting_addr(term, position))
                rt.alu((token,), n=30, chain=False)  # v-int decode + compare
        for term, _info in infos[1:]:
            other = self.postings(term)
            survivors = np.intersect1d(survivors, other[: max_scan * 4])
        # Score the survivors (tf-idf-ish accumulation).
        scores = []
        for doc in survivors[:64]:
            rt.alu(n=3, chain=False)
            scores.append(float(1.0 / (1.0 + (doc % 97))))
        order = np.argsort(scores)[::-1][:10]
        top_docs = [int(survivors[i]) for i in order]
        top_scores = [scores[i] for i in order]
        return QueryResult(top_docs, top_scores, scanned)

    def evaluate_or(
        self, rt: Runtime, terms: list[int], max_scan: int = 48
    ) -> QueryResult:
        """Disjunctive evaluation: union-merge with accumulator scoring.

        Lucene's BooleanQuery OR path: walk every term's postings,
        accumulate per-document partial scores in a hash accumulator,
        then select the top documents."""
        import numpy as np

        infos = []
        for term in terms:
            info = self.lookup_term(rt, term)
            if info is not None:
                infos.append((term, info))
        if not infos:
            return QueryResult([], [], 0)
        accumulator: dict[int, float] = {}
        scanned = 0
        for term, (_offset, df) in infos:
            length = min(df, max_scan)
            scanned += length
            postings = self.postings(term)[:length]
            for position in range(0, length, _LINE // _ENTRY_BYTES):
                token = rt.load(self.posting_addr(term, position))
                rt.alu((token,), n=18, chain=False)  # decode + accumulate
            idf = 1.0 / (1.0 + df)
            for doc in postings:
                accumulator[int(doc)] = accumulator.get(int(doc), 0.0) + idf
        ranked = sorted(accumulator.items(), key=lambda kv: (-kv[1], kv[0]))
        top = ranked[:10]
        for _doc, _score in top:
            rt.alu(n=3, chain=False)
        return QueryResult([d for d, _ in top], [s for _, s in top], scanned)

    def snippet(self, rt: Runtime, doc_id: int, lines: int = 2) -> int:
        """Read the document's head to build the result snippet."""
        base = self.doc_addr(doc_id)
        token = 0
        for i in range(lines):
            token = rt.load(base + i * _LINE, (token,) if token else ())
            rt.alu((token,), n=6, chain=False)
        return token
