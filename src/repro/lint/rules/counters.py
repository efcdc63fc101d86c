"""The counter-schema rule: static mirror of ``core/validate.py``.

The runtime validator rejects *values* that violate physical
invariants; this rule rejects *names* that cannot line up in the first
place, at lint time:

* the declarations in ``uarch/counters.py`` (``COUNTER_NAMES``) and the
  ``CoreResult`` dataclass must agree exactly — a counter field that is
  not declared is never summed across a chip's cores
  (``ChipResult.summed``), and a declared name without a field crashes
  that sum;
* every attribute stored on a ``CoreResult``-typed variable in
  ``uarch/*`` and ``machine/*`` must be a real field — a typo'd
  ``result.l1i_missess += 1`` is legal Python (dataclasses are open)
  and silently drops the event on the floor;
* every part/whole pair the validator enforces (module-level
  ``*_PAIRS`` tables of 2-string tuples) must name real fields, and a
  pair must not relate a counter to itself.

The rule is structural, not path-hard-coded: it activates whenever the
linted tree contains a ``counters.py`` declaring ``COUNTER_NAMES``, so
fixture trees exercise it the same way the real tree does.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint.findings import Finding
from repro.lint.rules import ProjectRule

#: The name of the declaration tuple looked up in ``counters.py``.
DECLARATION_NAME = "COUNTER_NAMES"

#: Annotations that mark a ``CoreResult`` field as a scalar counter.
_NUMERIC_ANNOTATIONS = frozenset({"int", "float"})


def _string_tuple(node: ast.expr) -> list[str] | None:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    names: list[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return names


def _assign_targets(node: ast.stmt) -> list[tuple[str, ast.expr]]:
    """``(name, value)`` for simple Name assignments."""
    if isinstance(node, ast.Assign):
        return [(target.id, node.value) for target in node.targets
                if isinstance(target, ast.Name)]
    if (isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.value is not None):
        return [(node.target.id, node.value)]
    return []


def _annotation_name(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value  # string annotation
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class CounterSchemaRule(ProjectRule):
    """Cross-check counter increments, declarations, and invariants."""

    name = "counter-schema"
    severity = "error"
    description = ("counter names in uarch/machine must match the "
                   "declarations in counters.py and the validator's "
                   "part/whole pairs")

    # -- discovery -----------------------------------------------------
    def _find_declarations(self, contexts):
        for ctx in contexts:
            if not ctx.path.endswith("counters.py"):
                continue
            for node in ctx.tree.body:
                for name, value in _assign_targets(node):
                    if name != DECLARATION_NAME:
                        continue
                    names = _string_tuple(value)
                    if names is not None:
                        return ctx, node, names
        return None

    def _find_core_result(self, contexts):
        for ctx in contexts:
            for node in ast.walk(ctx.tree):
                if (isinstance(node, ast.ClassDef)
                        and node.name == "CoreResult"):
                    fields: dict[str, tuple[int, str | None]] = {}
                    for stmt in node.body:
                        if (isinstance(stmt, ast.AnnAssign)
                                and isinstance(stmt.target, ast.Name)):
                            annotation = _annotation_name(stmt.annotation)
                            fields[stmt.target.id] = (stmt.lineno,
                                                      annotation)
                    return ctx, node, fields
        return None

    # -- checks --------------------------------------------------------
    def check_project(self, contexts: List) -> Iterable[Finding]:
        declaration = self._find_declarations(contexts)
        if declaration is None:
            return  # tree has no counter schema; nothing to enforce
        decl_ctx, decl_node, declared = declaration
        core = self._find_core_result(contexts)
        if core is None:
            yield self.finding(
                decl_ctx, decl_node,
                f"{DECLARATION_NAME} is declared but no CoreResult "
                "class exists in the linted tree; the schema cannot "
                "be checked")
            return
        core_ctx, core_node, fields = core

        duplicates = {name for name in declared
                      if declared.count(name) > 1}
        for name in sorted(duplicates):
            yield self.finding(
                decl_ctx, decl_node,
                f"{DECLARATION_NAME} declares {name!r} more than once")
        for name in declared:
            if name not in fields:
                yield self.finding(
                    decl_ctx, decl_node,
                    f"{DECLARATION_NAME} declares {name!r} but "
                    "CoreResult has no such field; summing a chip's "
                    "cores would raise AttributeError")
        declared_set = set(declared)
        for name, (lineno, annotation) in fields.items():
            if (annotation in _NUMERIC_ANNOTATIONS
                    and name not in declared_set):
                yield Finding(
                    self.name, core_ctx.path, lineno, 1, self.severity,
                    f"CoreResult field {name!r} is a numeric counter "
                    f"but is not declared in {DECLARATION_NAME}; it "
                    "would never be summed across a chip's cores")

        yield from self._check_pairs(contexts, fields)
        yield from self._check_stores(contexts, fields)

    def _check_pairs(self, contexts, fields) -> Iterable[Finding]:
        for ctx in contexts:
            for node in ctx.tree.body:
                for name, value in _assign_targets(node):
                    if not name.endswith("_PAIRS"):
                        continue
                    if not isinstance(value, (ast.Tuple, ast.List)):
                        continue
                    for element in value.elts:
                        pair = _string_tuple(element)
                        if pair is None or len(pair) != 2:
                            continue
                        part, whole = pair
                        for counter in pair:
                            if counter not in fields:
                                yield self.finding(
                                    ctx, element,
                                    f"{name} relates {part!r} to "
                                    f"{whole!r}, but {counter!r} is "
                                    "not a CoreResult field; the "
                                    "invariant can never be checked")
                        if part == whole:
                            yield self.finding(
                                ctx, element,
                                f"{name} relates {part!r} to itself; "
                                "a part/whole invariant needs two "
                                "distinct counters")

    def _check_stores(self, contexts, fields) -> Iterable[Finding]:
        for ctx in contexts:
            if not any(segment in ("uarch", "machine")
                       for segment in ctx.path.split("/")[:-1]):
                continue
            result_vars = self._core_result_vars(ctx.tree)
            if not result_vars:
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.AugAssign):
                    targets = [node.target]
                elif isinstance(node, ast.Assign):
                    targets = node.targets
                else:
                    continue
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in result_vars):
                        continue
                    if target.attr not in fields:
                        yield self.finding(
                            ctx, target,
                            f"{target.value.id}.{target.attr} "
                            "increments a counter CoreResult does not "
                            "declare; dataclasses accept the store "
                            "silently and the event never reaches a "
                            "figure — add the field and declare it in "
                            f"{DECLARATION_NAME}, or fix the typo")

    @staticmethod
    def _core_result_vars(tree: ast.Module) -> set[str]:
        """Names statically known to hold a ``CoreResult``."""
        names: set[str] = set()
        for node in ast.walk(tree):
            for name, value in _assign_targets(node):
                if (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id == "CoreResult"):
                    names.add(name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = (node.args.posonlyargs + node.args.args
                        + node.args.kwonlyargs)
                for arg in args:
                    if _annotation_name(arg.annotation) == "CoreResult":
                        names.add(arg.arg)
        return names
