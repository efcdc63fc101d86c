"""Hot-path rules.

The cycle loop reads micro-ops as columns because per-uop ``MicroOp``
construction dominated the Figure 4 wall clock: one object allocation
plus nine attribute stores per dynamic micro-op, at ~10⁵ ops per sweep
cell.  The batched front-end (:mod:`repro.trace.columns`) and the
columnar cycle loop (:mod:`repro.uarch.core`) removed that cost — and
this rule keeps it removed, by confining ``MicroOp(...)`` construction
to the few modules whose *job* is producing micro-ops.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules import Rule

#: Files (relative to the lint root) allowed to construct MicroOp
#: instances: the definition module, the codec's decode walk, live
#: generation in the machine layer, and the synthetic polluter stream.
#: Everything else — in particular ``uarch/`` timing code and the trace
#: replay path — must consume encoded columns positionally.
_ALLOWED_FILES = (
    "uarch/uop.py",
    "trace/codec.py",
    "machine/runtime.py",
    "core/polluter.py",
)


class MicroOpConstructionRule(Rule):
    """Per-uop ``MicroOp`` construction outside the sanctioned modules.

    A ``MicroOp(...)`` call creeping into the replay or timing layers
    reintroduces exactly the per-uop allocation the columnar loop was
    built to eliminate — and it does so silently, because
    :meth:`~repro.uarch.core.Core.run` still accepts ``MicroOp``
    iterators for live generation, so nothing downstream fails.
    Decode belongs to ``trace/codec.py``; generation belongs to
    ``machine/runtime.py`` and ``core/polluter.py``; replay reads
    :class:`~repro.trace.columns.ColumnBatch` lists.
    """

    name = "hot-path"
    severity = "error"
    description = ("MicroOp construction outside the sanctioned decode/"
                   "generation modules reintroduces per-uop allocation "
                   "on the replay hot path; consume ColumnBatch columns "
                   "instead")

    def _allowed(self, path: str) -> bool:
        return path.endswith(_ALLOWED_FILES)

    def check_file(self, ctx) -> Iterable[Finding]:
        if self._allowed(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name == "MicroOp":
                yield self.finding(
                    ctx, node,
                    "MicroOp() constructed outside the sanctioned "
                    "decode/generation modules; the replay hot path "
                    "consumes encoded columns (repro.trace.columns."
                    "ColumnBatch) — decode belongs in trace/codec.py, "
                    "generation in machine/runtime.py")
