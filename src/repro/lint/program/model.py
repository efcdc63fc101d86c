"""The shared whole-program model: symbols, imports, calls, effects.

One :class:`ProgramModel` is built per engine run (memoized on the
context list, since every project rule receives the same list object)
and answers the questions the interprocedural rules share:

* which functions exist, under which dotted qualified name;
* which module a dotted import resolves to *inside the linted tree*;
* which known function a call expression resolves to (module-level
  functions, ``self.``/``cls.`` methods, imported symbols, aliased
  modules, class instantiations);
* which determinism *sources*, *sinks*, and *effects* each function
  body contains, and which functions are blessed *sanitizers*.

Resolution is deliberately conservative: a call that cannot be
resolved statically (a callback variable, duck-typed method, external
library) simply contributes no edge.  Taint then under-approximates —
it misses exotic flows but never invents one, which is the right
trade-off for a hard CI gate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

#: ``time`` attributes that read a clock.  Broader than the file-local
#: ``wallclock`` rule on purpose: ``monotonic``/``perf_counter`` are
#: fine for harness deadlines, but a *sink* they reach is still
#: nondeterministic — the harness exemption is exactly the gap this
#: pass closes.
_CLOCK_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
})

#: Dotted call names (exact or ``.``-suffix) that are taint sources.
_SOURCE_SUFFIXES = {
    "datetime.now": "wallclock", "datetime.utcnow": "wallclock",
    "datetime.today": "wallclock", "date.today": "wallclock",
    "os.urandom": "entropy", "uuid.uuid1": "entropy",
    "uuid.uuid4": "entropy", "os.getenv": "os-environ",
}

#: Module-level ``random`` functions (mirrors the file-local rule).
_RANDOM_FUNCS = frozenset({
    "betavariate", "binomialvariate", "choice", "choices", "expovariate",
    "gammavariate", "gauss", "getrandbits", "getstate", "lognormvariate",
    "normalvariate", "paretovariate", "randbytes", "randint", "random",
    "randrange", "sample", "seed", "setstate", "shuffle", "triangular",
    "uniform", "vonmisesvariate", "weibullvariate",
})

#: Call suffixes that constitute I/O for the purity verifier.
_IO_SUFFIXES = (
    ".write_text", ".write_bytes", ".read_text", ".read_bytes",
    ".mkdir", ".unlink", ".rename", ".touch", ".rmdir", ".open",
)
_IO_NAMES = frozenset({"open", "input", "print"})
_IO_PREFIXES = ("os.", "sys.", "subprocess.", "shutil.", "socket.")
#: Exact dotted names (so ``json.dumps`` — pure — is not swept up).
_IO_DOTTED = frozenset({"json.dump", "json.load",
                        "pickle.dump", "pickle.load"})

#: Function-level annotations:
#: ``# repro-lint: sanitizer -- <why>`` and ``# repro-lint: pure -- <why>``
#: on the def's header (decorator lines included).
_ANNOTATION = re.compile(
    r"#\s*repro-lint:\s*(sanitizer|pure)\b(?:\s*--\s*(.*))?$")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_int_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


@dataclass(frozen=True)
class TaintSource:
    """One nondeterminism source observed directly in a function."""

    kind: str      # wallclock | entropy | os-environ | unseeded-random
    #                | builtin-hash | set-order
    display: str   # e.g. "time.perf_counter()"
    line: int


@dataclass(frozen=True)
class Sink:
    """One deterministic-result write observed in a function."""

    kind: str      # counter-store | fingerprint | store-document
    #                | sim-clock | trace-container
    display: str   # e.g. "counter store total.cycles"
    line: int


@dataclass(frozen=True)
class Effect:
    """One impurity (for the purity verifier; taint is tracked apart)."""

    kind: str      # global-mutation | io | global-decl
    display: str
    line: int


@dataclass(frozen=True)
class CallSite:
    callee: str    # qualified name, e.g. "trace.pipeline:materialize"
    display: str   # source spelling, e.g. "trace_pipeline.materialize"
    line: int


@dataclass
class FunctionInfo:
    """Everything the interprocedural rules know about one function."""

    qualname: str                 # "module:Class.method" / "module:<module>"
    module: str
    name: str
    ctx: "FileContext"
    lineno: int
    calls: List[CallSite] = field(default_factory=list)
    sources: List[TaintSource] = field(default_factory=list)
    sinks: List[Sink] = field(default_factory=list)
    effects: List[Effect] = field(default_factory=list)
    sanitizer: bool = False
    pure_annotated: bool = False

    @property
    def display(self) -> str:
        """Human form for witness paths: ``module.Class.method``."""
        local = self.qualname.split(":", 1)[1]
        if local == "<module>":
            return f"{self.module or '<root>'} (module level)"
        return f"{self.module}.{local}" if self.module else local


@dataclass(frozen=True)
class _Binding:
    """What one imported name refers to."""

    kind: str               # "module" | "symbol" | "ext-module" | "ext-symbol"
    module: str             # tree module name, or external dotted name
    attr: str = ""


class ProgramModel:
    """Project-wide symbol table and call graph over parsed contexts."""

    def __init__(self, contexts: Sequence["FileContext"],
                 root_name: str) -> None:
        self.root_name = root_name
        self.contexts = list(contexts)
        #: module name ("core.sweep", "" for the root package) -> ctx
        self.modules: dict[str, "FileContext"] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: (importer module, imported tree module, lineno, spelled name)
        self.import_edges: list[tuple[str, str, int, str]] = []
        #: bad/reasonless annotations, reported through the taint rule.
        self.annotation_findings: list[Finding] = []
        self._bindings: dict[str, dict[str, _Binding]] = {}
        self._classes: dict[str, dict[str, set[str]]] = {}
        self._callers: dict[str, list[tuple[str, CallSite]]] | None = None
        for ctx in self.contexts:
            self.modules[self._module_name(ctx.path)] = ctx
        for ctx in self.contexts:
            self._collect_module(ctx)
        for info in self.functions.values():
            self._resolve_calls(info)

    # -- construction --------------------------------------------------
    @staticmethod
    def _module_name(path: str) -> str:
        name = path[:-3] if path.endswith(".py") else path
        name = name.replace("/", ".")
        if name.endswith(".__init__"):
            name = name[:-len(".__init__")]
        elif name == "__init__":
            name = ""
        return name

    def package_of(self, module: str) -> str:
        """Top-level package of a module ("" for root-level files)."""
        ctx = self.modules.get(module)
        path = ctx.path if ctx is not None else module.replace(".", "/")
        return path.split("/")[0] if "/" in path else ""

    def resolve_module(self, dotted: str, importer: str = "",
                       level: int = 0) -> str | None:
        """Map a (possibly package-qualified) import to a tree module."""
        if level:  # relative import: anchor at the importer's package
            parts = importer.split(".") if importer else []
            if self.modules.get(importer) is not None and \
                    not self.modules[importer].path.endswith("__init__.py"):
                parts = parts[:-1]
            parts = parts[:len(parts) - (level - 1)] if level > 1 else parts
            dotted = ".".join(parts + ([dotted] if dotted else []))
        candidates = [dotted]
        if dotted == self.root_name:
            candidates.append("")
        if dotted.startswith(self.root_name + "."):
            candidates.append(dotted[len(self.root_name) + 1:])
        elif "." in dotted:  # fixture trees under an arbitrary dir name
            candidates.append(dotted.split(".", 1)[1])
        for cand in candidates:
            if cand in self.modules:
                return cand
        return None

    def _collect_module(self, ctx: "FileContext") -> None:
        module = self._module_name(ctx.path)
        bindings: dict[str, _Binding] = {}
        classes: dict[str, set[str]] = {}
        self._bindings[module] = bindings
        self._classes[module] = classes

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    resolved = self.resolve_module(alias.name)
                    if resolved is not None:
                        bindings[bound] = _Binding("module", resolved)
                        self.import_edges.append(
                            (module, resolved, node.lineno, alias.name))
                    else:
                        bindings[bound] = _Binding(
                            "ext-module", alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_module(node.module or "", module,
                                           node.level)
                if base is not None:
                    self.import_edges.append(
                        (module, base, node.lineno,
                         node.module or "." * node.level))
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if base is not None:
                        sub = self.resolve_module(f"{base}.{alias.name}"
                                                  if base else alias.name)
                        if sub is not None:
                            bindings[bound] = _Binding("module", sub)
                            continue
                        bindings[bound] = _Binding("symbol", base,
                                                   alias.name)
                    elif node.module:
                        bindings[bound] = _Binding("ext-symbol",
                                                   node.module, alias.name)
            elif isinstance(node, ast.ClassDef):
                methods = {stmt.name for stmt in node.body
                           if isinstance(stmt, (ast.FunctionDef,
                                                ast.AsyncFunctionDef))}
                classes.setdefault(node.name, set()).update(methods)

        toplevel = FunctionInfo(f"{module}:<module>", module, "<module>",
                                ctx, 1)
        self.functions[toplevel.qualname] = toplevel
        self._walk_body(ctx, module, ctx.tree.body, toplevel, [], [])

    def _walk_body(self, ctx, module, body, owner: FunctionInfo,
                   class_stack: list[str], func_stack: list[str]) -> None:
        """Attribute statements to ``owner``; recurse into nested defs
        and classes as their own functions."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = ".".join(class_stack + func_stack + [stmt.name])
                info = FunctionInfo(f"{module}:{local}", module, stmt.name,
                                    ctx, stmt.lineno)
                self._annotate(info, stmt)
                self.functions[info.qualname] = info
                self._walk_body(ctx, module, stmt.body, info, class_stack,
                                func_stack + [stmt.name])
                self._scan_statement(owner, stmt, signature_only=True)
            elif isinstance(stmt, ast.ClassDef):
                self._walk_body(ctx, module, stmt.body, owner,
                                class_stack + [stmt.name], func_stack)
            else:
                self._scan_statement(owner, stmt)

    def _annotate(self, info: FunctionInfo, node) -> None:
        """Parse ``# repro-lint: sanitizer/pure`` on the def header."""
        if info.ctx.path.endswith("hashing.py"):
            info.sanitizer = True  # the blessed stable_hash module
        first = min([node.lineno]
                    + [d.lineno for d in node.decorator_list])
        last = node.body[0].lineno - 1 if node.body else node.lineno
        for lineno in range(first, max(last, first) + 1):
            if lineno - 1 >= len(info.ctx.lines):
                break
            match = _ANNOTATION.search(info.ctx.lines[lineno - 1])
            if match is None:
                continue
            directive, reason = match.group(1), (match.group(2) or "").strip()
            if not reason:
                self.annotation_findings.append(Finding(
                    "bad-suppression", info.ctx.path, lineno,
                    match.start() + 1, "error",
                    f"`# repro-lint: {directive}` has no reason — append "
                    "`-- <why this wrapper is trusted>`; reasonless "
                    "annotations rot"))
            if directive == "sanitizer":
                info.sanitizer = True
            else:
                info.pure_annotated = True

    # -- per-statement effect/source/sink extraction --------------------
    def _scan_statement(self, info: FunctionInfo, stmt: ast.stmt,
                        signature_only: bool = False) -> None:
        if signature_only:
            # A nested def's decorators and defaults run in the owner.
            nodes: list[ast.AST] = list(stmt.decorator_list)  # type: ignore[attr-defined]
            args = stmt.args  # type: ignore[attr-defined]
            nodes.extend(args.defaults)
            nodes.extend(d for d in args.kw_defaults if d is not None)
            walk = [n for outer in nodes for n in ast.walk(outer)]
        else:
            walk = self._prune_nested(stmt)
        for node in walk:
            self._scan_node(info, node)

    @staticmethod
    def _prune_nested(stmt: ast.stmt) -> list[ast.AST]:
        """``ast.walk`` that does not descend into nested defs/classes."""
        out: list[ast.AST] = []
        queue: list[ast.AST] = [stmt]
        while queue:
            node = queue.pop()
            out.append(node)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                queue.append(child)
        return out

    def _scan_node(self, info: FunctionInfo, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._scan_call(info, node)
        elif isinstance(node, ast.Attribute):
            if _dotted(node) == "os.environ":
                info.sources.append(TaintSource(
                    "os-environ", "os.environ", node.lineno))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            info.effects.append(Effect(
                "global-decl",
                f"declares {', '.join(node.names)} "
                f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}",
                node.lineno))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                info.sources.append(TaintSource(
                    "set-order", "set iteration", node.iter.lineno))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expr(generator.iter):
                    info.sources.append(TaintSource(
                        "set-order", "set iteration",
                        generator.iter.lineno))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                self._scan_store(info, target, node)

    def _scan_call(self, info: FunctionInfo, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        bindings = self._bindings.get(info.module, {})
        head = dotted.split(".")[0]
        # --- taint sources -------------------------------------------
        if dotted == "hash" and not info.ctx.path.endswith("hashing.py"):
            if not (len(node.args) == 1 and not node.keywords
                    and _is_int_literal(node.args[0])):
                info.sources.append(TaintSource(
                    "builtin-hash", "builtin hash()", node.lineno))
            return
        parts = dotted.split(".")
        if len(parts) == 2 and parts[0] == "time" \
                and parts[1] in _CLOCK_ATTRS:
            info.sources.append(TaintSource(
                "wallclock", f"{dotted}()", node.lineno))
        elif len(parts) == 2 and parts[0] == "random" \
                and parts[1] in _RANDOM_FUNCS \
                and bindings.get("random", _Binding("ext-module",
                                                    "random")).kind \
                == "ext-module":
            info.sources.append(TaintSource(
                "unseeded-random", f"{dotted}()", node.lineno))
        elif dotted.startswith("secrets."):
            info.sources.append(TaintSource(
                "entropy", f"{dotted}()", node.lineno))
        else:
            for suffix, kind in _SOURCE_SUFFIXES.items():
                if dotted == suffix or dotted.endswith("." + suffix):
                    info.sources.append(TaintSource(
                        kind, f"{dotted}()", node.lineno))
                    break
            else:
                binding = bindings.get(head)
                if binding is not None and binding.kind == "ext-symbol" \
                        and len(parts) == 1:
                    origin = f"{binding.module}.{binding.attr}"
                    if binding.module == "time" \
                            and binding.attr in _CLOCK_ATTRS:
                        info.sources.append(TaintSource(
                            "wallclock", f"{origin}()", node.lineno))
                    elif binding.module == "random" \
                            and binding.attr in _RANDOM_FUNCS:
                        info.sources.append(TaintSource(
                            "unseeded-random", f"{origin}()", node.lineno))
                    elif origin in ("os.urandom", "os.getenv"):
                        info.sources.append(TaintSource(
                            "entropy" if binding.attr == "urandom"
                            else "os-environ", f"{origin}()", node.lineno))
        # --- purity: I/O calls ---------------------------------------
        if dotted in _IO_NAMES or dotted in _IO_DOTTED \
                or dotted.endswith(_IO_SUFFIXES) \
                or dotted.startswith(_IO_PREFIXES):
            info.effects.append(Effect("io", f"calls {dotted}()",
                                       node.lineno))
        # --- sinks: store documents / trace containers ---------------
        # Every persisted blob goes through the blob store's one write.
        path = info.ctx.path
        if dotted == "atomic_write" or dotted.endswith(".atomic_write"):
            info.sinks.append(Sink(
                "store-document", f"store document write {dotted}()",
                node.lineno))
        if "trace" in path.split("/")[:-1] and dotted.startswith("self.") \
                and dotted.endswith((".append", ".extend")):
            info.sinks.append(Sink(
                "trace-container", f"trace container write {dotted}()",
                node.lineno))
        # --- the raw call, kept for resolution -----------------------
        info.calls.append(CallSite("", dotted, node.lineno))

    def _scan_store(self, info: FunctionInfo, target: ast.expr,
                    stmt: ast.stmt) -> None:
        if not isinstance(target, ast.Attribute):
            return
        dotted = _dotted(target)
        if dotted is None:
            return
        root = dotted.split(".")[0]
        # cluster sim clock: `loop.now = when` inside cluster/
        if target.attr == "now" \
                and "cluster" in info.ctx.path.split("/")[:-1]:
            info.sinks.append(Sink(
                "sim-clock", f"simulated clock store {dotted}",
                stmt.lineno))
        # counter store: attribute write on a CoreResult-typed name
        if root in self._core_result_vars(info):
            info.sinks.append(Sink(
                "counter-store", f"counter store {dotted}", stmt.lineno))
        # global mutation (purity): writing through a module-level name
        if root != "self" and root in self._module_globals(info.module):
            info.effects.append(Effect(
                "global-mutation", f"mutates module global {dotted}",
                stmt.lineno))

    def _core_result_vars(self, info: FunctionInfo) -> set[str]:
        cached = getattr(info, "_core_vars", None)
        if cached is not None:
            return cached
        names: set[str] = set()
        owner = self._function_node(info)
        nodes = ast.walk(owner) if owner is not None else ()
        for node in nodes:
            if isinstance(node, ast.Assign):
                value = node.value
                if (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id == "CoreResult"):
                    names.update(t.id for t in node.targets
                                 if isinstance(t, ast.Name))
            elif isinstance(node, ast.arg):
                annotation = node.annotation
                label = None
                if isinstance(annotation, ast.Name):
                    label = annotation.id
                elif isinstance(annotation, ast.Constant) \
                        and isinstance(annotation.value, str):
                    label = annotation.value.strip("\"'")
                if label == "CoreResult":
                    names.add(node.arg)
        info._core_vars = names  # type: ignore[attr-defined]
        return names

    def _function_node(self, info: FunctionInfo):
        """The AST node of a (non-module-level) function, found lazily."""
        if info.name == "<module>":
            return info.ctx.tree
        target = info.qualname.split(":", 1)[1].split(".")[-1]
        for node in ast.walk(info.ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == target \
                    and node.lineno == info.lineno:
                return node
        return None

    def _module_globals(self, module: str) -> set[str]:
        ctx = self.modules.get(module)
        cached = self._globals_cache.get(module) \
            if hasattr(self, "_globals_cache") else None
        if cached is not None:
            return cached
        names: set[str] = set()
        if ctx is not None:
            for stmt in ctx.tree.body:
                if isinstance(stmt, ast.Assign):
                    names.update(t.id for t in stmt.targets
                                 if isinstance(t, ast.Name))
                elif isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name):
                    names.add(stmt.target.id)
        if not hasattr(self, "_globals_cache"):
            self._globals_cache: dict[str, set[str]] = {}
        self._globals_cache[module] = names
        return names

    # -- call resolution -----------------------------------------------
    def _resolve_calls(self, info: FunctionInfo) -> None:
        resolved: list[CallSite] = []
        for site in info.calls:
            callee = self._resolve_call(info, site.display)
            if callee is not None:
                resolved.append(CallSite(callee, site.display, site.line))
        info.calls = resolved

    def _resolve_call(self, info: FunctionInfo,
                      dotted: str) -> str | None:
        parts = dotted.split(".")
        module = info.module
        classes = self._classes.get(module, {})
        # self.method()/cls.method(): the enclosing class, if any.
        if parts[0] in ("self", "cls") and len(parts) == 2:
            local = info.qualname.split(":", 1)[1].split(".")
            for depth in range(len(local) - 1, 0, -1):
                cls = local[depth - 1]
                if parts[1] in classes.get(cls, ()):
                    return f"{module}:{cls}.{parts[1]}"
            return None
        # Plain name: module-level function / class instantiation.
        if len(parts) == 1:
            name = parts[0]
            if f"{module}:{name}" in self.functions:
                return f"{module}:{name}"
            if name in classes and "__init__" in classes[name]:
                return f"{module}:{name}.__init__"
            binding = self._bindings.get(module, {}).get(name)
            if binding is not None and binding.kind == "symbol":
                return self._lookup(binding.module, binding.attr)
            return None
        # Dotted: aliased module, imported class, or local class.
        binding = self._bindings.get(module, {}).get(parts[0])
        if binding is not None and binding.kind == "module":
            target = binding.module
            for i in range(1, len(parts) - 1):
                deeper = self.resolve_module(f"{target}.{parts[i]}")
                if deeper is None:
                    return self._lookup(target, ".".join(parts[i:]))
                target = deeper
            return self._lookup(target, parts[-1])
        if binding is not None and binding.kind == "symbol" \
                and len(parts) == 2:
            return self._lookup(binding.module,
                                f"{binding.attr}.{parts[1]}")
        if parts[0] in classes and len(parts) == 2:
            return self._lookup(module, dotted)
        # Absolute dotted path spelled inline (rare, but cheap to try).
        for split in range(len(parts) - 1, 0, -1):
            target = self.resolve_module(".".join(parts[:split]))
            if target is not None:
                return self._lookup(target, ".".join(parts[split:]))
        return None

    def _lookup(self, module: str, local: str) -> str | None:
        """A function/method/constructor named ``local`` in ``module``."""
        qualname = f"{module}:{local}"
        if qualname in self.functions:
            return qualname
        init = f"{module}:{local}.__init__"
        if init in self.functions:
            return init
        return None

    # -- queries ---------------------------------------------------------
    def callers(self) -> dict[str, list[tuple[str, CallSite]]]:
        """Reverse call graph: callee -> [(caller, site), ...]."""
        if self._callers is None:
            reverse: dict[str, list[tuple[str, CallSite]]] = {}
            for info in self.functions.values():
                for site in info.calls:
                    reverse.setdefault(site.callee, []).append(
                        (info.qualname, site))
            self._callers = reverse
        return self._callers


#: Memo: every project rule in one engine run receives the same list
#: object, so the model is built once per run, not once per rule.
_MEMO: tuple[int, ProgramModel] | None = None


def build_model(contexts: Sequence["FileContext"],
                root_name: str = "") -> ProgramModel:
    """Build (or reuse) the :class:`ProgramModel` for one engine run.

    Memoized on the context list so the three whole-program rules
    share a single symbol table and call graph per lint invocation.
    """
    global _MEMO
    key = id(contexts)
    if _MEMO is not None and _MEMO[0] == key \
            and _MEMO[1].contexts == list(contexts):
        return _MEMO[1]
    model = ProgramModel(contexts, root_name)
    _MEMO = (key, model)
    return model
