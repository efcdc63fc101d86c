"""``taint-flow`` — interprocedural determinism taint.

A *source* is a call or expression whose value differs between runs
(wall clock, global RNG, environment, salted ``hash``, set order).
A *sink* is a write that the replay discipline requires to be
byte-identical (counter stores, fingerprint inputs, store documents,
the cluster sim clock, trace containers).  The per-file rules already
flag a source spelled inside the sink's own function; this rule covers
the laundered case — a sink function that *calls*, through any number
of edges, a function that reads a source:

    def wrapped_now():            # helper module, lints clean
        return time.time()

    def _accumulate(total, part): # hot path, lints clean per file
        total.cycles += weight()  # weight() -> wrapped_now() -> boom

Propagation is upward-only (callee to caller through return edges) and
stops at *sanitizers*: every function in a ``hashing.py`` module is
blessed, and any wrapper can be blessed explicitly with
``# repro-lint: sanitizer -- <why>`` on its ``def`` header.  Findings
carry the full witness path so the report reads as the data flows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List

from repro.lint.findings import Finding
from repro.lint.program.model import (ProgramModel, TaintSource,
                                      build_model)
from repro.lint.rules import ProjectRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

#: Functions folded into replay fingerprints are implicit sinks even
#: without a structural write: a tainted value in a fingerprint
#: invalidates every cache key derived from it.
_FINGERPRINT_NAMES = frozenset(
    {"config_fingerprint", "canonical"})


class _Taint:
    """Memoized downward taint query over the call graph."""

    def __init__(self, model: ProgramModel) -> None:
        self.model = model
        #: qualname -> (source, path of qualnames ending at the source
        #: function), or None for provably-untainted functions.
        self.memo: dict[str, tuple[TaintSource, List[str]] | None] = {}
        self._stack: set[str] = set()

    def of(self, qualname: str) -> tuple[TaintSource, List[str]] | None:
        taint, _ = self._visit(qualname)
        return taint

    def _visit(self, qualname: str
               ) -> tuple[tuple[TaintSource, List[str]] | None, bool]:
        """Returns ``(taint, blocked)``; a result computed while a call
        cycle was cut short (*blocked*) is not safe to memoize as
        clean, since the skipped edge may carry the only taint."""
        if qualname in self.memo:
            return self.memo[qualname], False
        info = self.model.functions.get(qualname)
        if info is None or info.sanitizer:
            self.memo[qualname] = None
            return None, False
        if info.sources:
            taint = (info.sources[0], [qualname])
            self.memo[qualname] = taint
            return taint, False
        if qualname in self._stack:
            return None, True
        self._stack.add(qualname)
        blocked = False
        taint = None
        try:
            for site in info.calls:
                sub, sub_blocked = self._visit(site.callee)
                blocked = blocked or sub_blocked
                if sub is not None:
                    taint = (sub[0], [qualname] + sub[1])
                    break
        finally:
            self._stack.discard(qualname)
        if taint is not None or not blocked:
            self.memo[qualname] = taint
        return taint, blocked


def _witness(model: ProgramModel, path: List[str],
             source: TaintSource) -> str:
    steps = [model.functions[q].display for q in path]
    return " -> ".join(steps + [source.display])


class TaintFlowRule(ProjectRule):
    """Nondeterminism reaching a deterministic-result sink via calls."""

    name = "taint-flow"
    severity = "error"
    description = ("nondeterministic source reaches a counter/"
                   "fingerprint/store/clock/trace sink through calls")

    def check_project(self, contexts: "List[FileContext]",
                      ) -> Iterable[Finding]:
        model = build_model(contexts)
        yield from model.annotation_findings
        taint = _Taint(model)
        for info in model.functions.values():
            if info.sanitizer:
                continue
            sinks = list(info.sinks)
            if not sinks and info.name in _FINGERPRINT_NAMES:
                sinks = [None]  # implicit fingerprint-input sink
            if not sinks:
                continue
            reported: set[tuple[str, str]] = set()
            for site in info.calls:
                found = taint.of(site.callee)
                if found is None:
                    continue
                source, path = found
                key = (site.callee, source.kind)
                if key in reported:
                    continue
                reported.add(key)
                sink = sinks[0]
                what = (sink.display if sink is not None else
                        f"fingerprint input of {info.display}")
                more = (f" (and {len(sinks) - 1} more sink(s) in "
                        f"{info.display})" if len(sinks) > 1 else "")
                witness = _witness(model, [info.qualname] + path, source)
                yield Finding(
                    self.name, info.ctx.path, site.line, 1,
                    self.severity,
                    f"{what}{more} is fed by nondeterministic "
                    f"{source.kind}: {witness}; route the value through "
                    "a blessed sanitizer (stable_hash, a seeded "
                    "random.Random) or annotate the trusted wrapper "
                    "`# repro-lint: sanitizer -- <why>`")
