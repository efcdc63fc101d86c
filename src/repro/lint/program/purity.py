"""``fingerprint-purity`` — the functions folded into fingerprints.

``config_fingerprint`` decides which cached result a config maps to;
anything it (transitively) computes from must be a pure function of
its arguments, or two runs of the same sweep silently read different
cache entries.  This rule takes the *required-pure* set — functions
named ``config_fingerprint``/``canonical`` plus
anything annotated ``# repro-lint: pure -- <why>`` — closes it over
in-tree callees, and flags every *known-impure* effect in the closure:

* ``global``/``nonlocal`` declarations and writes through module-level
  names (the memo-table pattern);
* I/O calls (``open``, ``print``, ``os.*``/``sys.*``/``subprocess.*``,
  path read/write methods, ``json.dump``/``json.load``);
* any determinism taint source (clock, RNG, environment, ...).

It deliberately does *not* try to prove purity — stdlib calls like
``json.dumps`` or ``hashlib.sha256`` would make a whitelist brittle —
it only rejects effects it positively recognises.  Module-level
``*_SCHEMA`` constants get the same treatment: they version the
on-disk formats fingerprints embed, so they must stay literal ints.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, List

from repro.lint.findings import Finding
from repro.lint.program.model import (FunctionInfo, ProgramModel,
                                      build_model)
from repro.lint.rules import ProjectRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

_REQUIRED_PURE = frozenset(
    {"config_fingerprint", "canonical"})


def _required_roots(model: ProgramModel) -> list[FunctionInfo]:
    return [info for info in model.functions.values()
            if info.name in _REQUIRED_PURE or info.pure_annotated]


class FingerprintPurityRule(ProjectRule):
    """Fingerprint-folded functions must stay effect-free."""

    name = "fingerprint-purity"
    severity = "error"
    description = ("fingerprint-folded function (or a callee) mutates "
                   "globals, does I/O, or reads a taint source")

    def check_project(self, contexts: "List[FileContext]",
                      ) -> Iterable[Finding]:
        model = build_model(contexts)
        roots = _required_roots(model)
        root_names = {info.qualname for info in roots}
        for root in roots:
            yield from self._check_root(model, root, root_names)
        yield from self._check_schema_constants(model)

    def _check_root(self, model: ProgramModel, root: FunctionInfo,
                    root_names: set[str]) -> Iterable[Finding]:
        """Flag impure effects in ``root`` and its callee closure.

        Callees that are themselves required-pure roots are skipped —
        they are checked independently, so their effects are reported
        exactly once, under the function that owns them.
        """
        seen: set[str] = set()
        stack: list[tuple[str, list[str]]] = [(root.qualname, [])]
        while stack:
            qualname, path = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            info = model.functions.get(qualname)
            if info is None or info.sanitizer:
                continue
            if qualname != root.qualname and qualname in root_names:
                continue
            via = ("" if not path else
                   " (reached via " + " -> ".join(
                       [root.display] + [model.functions[q].display
                                         for q in path]) + ")")
            flagged_lines: set[int] = set()
            problems = (
                [(e.line, e.display) for e in info.effects]
                + [(s.line, f"reads nondeterministic {s.kind} "
                    f"({s.display})") for s in info.sources])
            for line, what in sorted(problems):
                if line in flagged_lines:
                    continue
                flagged_lines.add(line)
                subject = ("it" if qualname == root.qualname
                           else info.display)
                yield Finding(
                    self.name, info.ctx.path, line, 1, self.severity,
                    f"{root.display} must stay pure — it is folded "
                    f"into replay fingerprints — but {subject} "
                    f"{what}{via}; hoist the effect out of the "
                    "fingerprint path or drop the `pure` annotation")
            for site in info.calls:
                stack.append((site.callee, path + [site.callee]))

    def _check_schema_constants(self, model: ProgramModel,
                                ) -> Iterable[Finding]:
        for module, ctx in model.modules.items():
            for stmt in ctx.tree.body:
                targets: list[ast.expr]
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                    targets, value = [stmt.target], stmt.value
                else:
                    continue
                for target in targets:
                    if not (isinstance(target, ast.Name)
                            and target.id.endswith("_SCHEMA")):
                        continue
                    if not (isinstance(value, ast.Constant)
                            and type(value.value) is int):
                        yield Finding(
                            self.name, ctx.path, stmt.lineno, 1,
                            self.severity,
                            f"schema constant {target.id} must be a "
                            "literal int — it versions the on-disk "
                            "format embedded in fingerprints; bump it "
                            "by hand, never compute it")
