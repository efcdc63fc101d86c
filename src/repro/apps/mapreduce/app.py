"""The MapReduce workload app: Mahout Bayes classification map tasks.

One ``serve`` call processes one document from the current input split:
stream the next bytes of the split through the HDFS/page-cache path,
tokenize, look every token up in the trained model (hash probe + weight
row read), accumulate per-class scores, and emit the classification as
map output (buffered, periodically spilled).  Input streaming gives this
workload its signature sequential access pattern — the only scale-out
workload the L2 prefetchers help (Figure 5).
"""

from __future__ import annotations

from repro.apps.base import ServerApp
from repro.apps.mapreduce.classifier import CorpusGenerator, NaiveBayesModel
from repro.faults.plan import FaultEvent
from repro.machine.runtime import Runtime
from repro.machine.structures import SimArray, SimHashMap

_LINE = 64


class MapReduceApp(ServerApp):
    """Hadoop node running Bayesian classification over a text corpus."""

    name = "mapreduce"
    os_intensive = False

    #: Map tasks hand off to the reducer after this many documents.
    REDUCE_INTERVAL = 24

    CODE_PLAN = [
        ("hdfs_reader", 128, "scatter", 8, 0.2),
        ("record_reader", 64, "scatter", 9, 0.25),
        ("tokenizer", 48, "loop", 10, 0.5),
        ("classifier_map", 96, "scatter", 9, 0.25),
        ("score_accumulate", 32, "loop", 12, 0.5),
        ("output_collector", 64, "scatter", 8, 0.2),
        ("spill_sort", 96, "scatter", 8, 0.2),
        ("jvm_runtime", 288, "scatter", 7, 0.1),
        ("jit_helpers", 128, "scatter", 7, 0.1),
        ("gc_code", 96, "scatter", 9, 0.2),
    ]

    #: Hadoop's real recovery machinery: fetch-failure handling, task
    #: re-execution, and speculative execution of stragglers.
    FAULT_CODE_PLAN = ServerApp.FAULT_CODE_PLAN + [
        ("fetch_fail_handler", 96, "scatter", 8, 0.15),
        ("task_retry", 80, "scatter", 8, 0.2),
        ("speculative_task", 64, "scatter", 8, 0.2),
        ("gc_remark", 64, "scatter", 6, 0.15),
    ]

    def __init__(
        self,
        seed: int = 0,
        vocab_size: int = 24_000,
        num_classes: int = 12,
        doc_tokens: int = 96,
    ) -> None:
        self.vocab_size = vocab_size
        self.num_classes = num_classes
        self.doc_tokens = doc_tokens
        super().__init__(seed)

    def setup(self) -> None:
        self.fns = {
            name: self.layout.function(
                f"hadoop.{name}", kb * 1024, locality=loc,
                bb_mean=bb, hot_fraction=hot,
            )
            for name, kb, loc, bb, hot in self.CODE_PLAN
        }
        # Train the real classifier on a synthetic labelled corpus.
        self.corpus = CorpusGenerator(self.vocab_size, self.num_classes, self.seed)
        self.model = NaiveBayesModel(self.vocab_size, self.num_classes)
        self.model.train(self.corpus.labelled_corpus(docs_per_class=30, doc_length=100))
        # Model layout in simulated memory: term dictionary + weight rows.
        heap_before = self.space.region("heap").cursor
        self.vocab_index = SimHashMap(self.space, nbuckets=self.vocab_size, node_bytes=48)
        self.vocab_index.preload(
            self.runtime(0), ((term, term) for term in range(self.vocab_size)))
        self.weights = SimArray(
            self.space, self.vocab_size, 8 * self.num_classes
        )
        self._model_extent = (
            self.space.region("heap").base + heap_before,
            self.space.region("heap").cursor - heap_before,
        )
        # Map-output spill buffer (io.sort.mb analog).
        self.spill_buffer = self.space.alloc(1 << 20, "heap", align=_LINE)
        self._spill_cursor = 0
        self._split_offset = 0
        self._split_file = 0
        self.docs_processed = 0
        self.correct = 0
        self.split_bytes = 16 << 20  # input split size (scaled 64 MB HDFS block)
        # Reduce side: per-class partial counts (the shuffle's payload)
        # and the output "part files" written back through HDFS.
        self._partial_counts = [0] * self.num_classes
        self.reduce_rounds = 0
        self.reduced_records = 0
        self._output_cursor = 0

    def warm_ranges(self):
        base, extent = self._model_extent
        return [(base, extent), (self.spill_buffer, 1 << 20)]

    # -- the map task inner loop -----------------------------------------
    def serve(self, rt: Runtime) -> None:
        label = self.docs_processed % self.num_classes
        tokens = self.corpus.document(label, self.doc_tokens)
        # Stream the document's bytes from the input split.
        doc_bytes = self.doc_tokens * 8
        with rt.frame(self.fns["hdfs_reader"]):
            pages = self.kernel.read_file(
                rt, self._split_file, self._split_offset, doc_bytes
            )
            self._split_offset += doc_bytes
            if self._split_offset >= self.split_bytes:
                self._split_offset = 0
                self._split_file += 1
        with rt.frame(self.fns["record_reader"]):
            rt.alu(n=20, chain=False)
        scores_token = 0
        with rt.frame(self.fns["classifier_map"]):
            doc_base_offset = (self._split_offset - doc_bytes) % 4096
            for position, term in enumerate(tokens):
                with rt.frame(self.fns["tokenizer"]):
                    # Stream the document text: consecutive bytes across
                    # the pages the read returned.
                    byte_offset = doc_base_offset + position * 8
                    page = pages[min(byte_offset // 4096, len(pages) - 1)]
                    text = rt.load(page + byte_offset % 4096)
                    rt.alu((text,), n=3)
                # Term lookup: hash-probe the dictionary, read the row.
                self.vocab_index.get(rt, term)
                row = self.weights.addr(term)
                row_tok = rt.load(row)
                rt.load(row + _LINE, (row_tok,))
                with rt.frame(self.fns["score_accumulate"]):
                    scores_token = rt.alu((row_tok,), n=4, chain=False)
        predicted = self.model.classify(tokens)
        if predicted == label:
            self.correct += 1
        with rt.frame(self.fns["output_collector"]):
            rt.alu((scores_token,), n=8)
            out = self.spill_buffer + (self._spill_cursor % (1 << 20))
            rt.store(out)
            self._spill_cursor += 16
            if self._spill_cursor % (256 * 1024) == 0:
                self._spill(rt)
        self._partial_counts[predicted] += 1
        self._jvm_background(rt)
        self.docs_processed += 1
        if self.docs_processed % self.REDUCE_INTERVAL == 0:
            self._reduce_phase(rt)

    def _spill(self, rt: Runtime) -> None:
        """Sort-and-spill the output buffer; heartbeat the jobtracker."""
        with rt.frame(self.fns["spill_sort"]):
            rt.scan(self.spill_buffer, 64 * 1024, work_per_line=3)
        self.kernel.send(rt, 256)  # task heartbeat / progress report

    def _jvm_background(self, rt: Runtime) -> None:
        with rt.frame(self.fns["jvm_runtime"]):
            rt.alu(n=80, chain=False)
        with rt.frame(self.fns["jit_helpers"]):
            rt.alu(n=40, chain=False)
        if self.docs_processed % 96 == 0:
            with rt.frame(self.fns["gc_code"]):
                rt.scan(self.spill_buffer, 16 * 1024, work_per_line=1)

    def _reduce_phase(self, rt: Runtime) -> None:
        """One reduce task: merge the buffered map output by key (class)
        and write a part file back through the HDFS path."""
        self.reduce_rounds += 1
        with rt.frame(self.fns["spill_sort"]):
            # Merge-read the sorted spill (sequential, prefetch-friendly).
            rt.scan(self.spill_buffer, 32 * 1024, work_per_line=4)
        with rt.frame(self.fns["output_collector"]):
            for class_id, count in enumerate(self._partial_counts):
                token = rt.load(self.spill_buffer + class_id * 64)
                rt.alu((token,), n=6)
                self.reduced_records += count
            self._partial_counts = [0] * self.num_classes
        # Part-file write to HDFS (through the block/iSCSI path).
        self.kernel.log_write(rt, 1024, payload_base=self.spill_buffer)
        self._output_cursor += 1024

    # -- degraded paths (active only under an attached FaultInjector) -------
    def fault_replica_crash(self, rt: Runtime, event: FaultEvent) -> None:
        """A tasktracker died: reducers report fetch failures, and the
        jobtracker re-schedules the lost map — its input split streams
        again through the HDFS path."""
        fns = self._fault_fns
        with rt.frame(fns["fetch_fail_handler"]):
            rt.alu(n=30 + int(70 * event.severity), chain=False)
        with rt.frame(fns["task_retry"]):
            self.kernel.read_file(rt, self._split_file, self._split_offset,
                                  2048)
            rt.alu(n=60, chain=False)
        self.kernel.send(rt, 256)  # failure report to the jobtracker

    def fault_straggler(self, rt: Runtime, event: FaultEvent) -> None:
        """Speculative execution: a backup attempt re-reads the slow
        task's buffered output and re-scores a document slice."""
        fns = self._fault_fns
        with rt.frame(fns["speculative_task"]):
            rt.scan(self.spill_buffer, 8 * 1024, work_per_line=3)
            rt.alu(n=40, chain=False)
        self.kernel.context_switch(rt)

    def fault_gc_storm(self, rt: Runtime, event: FaultEvent) -> None:
        """A JVM collection storm: mark a spill-buffer slice beyond the
        steady-state housekeeping window, then run the scattered
        remark/reference-processing phase."""
        with rt.frame(self.fns["gc_code"]):
            nbytes = min(1 << 20, int(8 * 1024 * event.severity))
            rt.scan(self.spill_buffer, nbytes, work_per_line=1)
        with rt.frame(self._fault_fns["gc_remark"]):
            rt.alu(n=120 + int(80 * event.severity), chain=False)

    def fault_memory_pressure(self, rt: Runtime, event: FaultEvent) -> None:
        """Page-cache reclaim evicts split pages; re-fault them through
        the read path on top of the generic reclaim scan."""
        super().fault_memory_pressure(rt, event)
        with rt.frame(self._fault_fns["task_retry"]):
            self.kernel.read_file(rt, self._split_file,
                                  self._split_offset, 1024)

    @property
    def accuracy(self) -> float:
        return self.correct / self.docs_processed if self.docs_processed else 0.0
