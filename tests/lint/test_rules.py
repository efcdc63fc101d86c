"""Per-rule unit tests: each rule fires on its bug class and stays
quiet on the deterministic/robust spelling of the same code."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.engine import run_lint


def lint_snippet(tmp_path, source, relpath="uarch/module.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source).lstrip())
    return run_lint(tmp_path)


def rules_of(findings):
    return {finding.rule for finding in findings}


# ---------------------------------------------------------------- hash
def test_builtin_hash_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        def bucket(key, n):
            return hash(key) % n
        """)
    assert rules_of(findings) == {"builtin-hash"}
    assert findings[0].line == 2


def test_builtin_hash_int_literal_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        A = hash(7)
        B = hash(-7)
        """)
    assert findings == []


def test_builtin_hash_exempt_in_hashing_module(tmp_path):
    findings = lint_snippet(tmp_path, """
        def stable_hash(*parts):
            return hash(parts[0])
        """, relpath="machine/hashing.py")
    assert findings == []


# -------------------------------------------------------------- random
def test_module_level_random_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        import random

        def jitter():
            random.seed(0)
            return random.random() + random.randint(1, 6)
        """)
    assert rules_of(findings) == {"unseeded-random"}
    assert len(findings) == 3


def test_seeded_random_instance_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        import random

        def make_rng(seed):
            rng = random.Random(seed)
            return rng.random()
        """)
    assert findings == []


def test_from_random_import_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        from random import shuffle
        """)
    assert rules_of(findings) == {"unseeded-random"}


# ----------------------------------------------------------- wallclock
@pytest.mark.parametrize("call", [
    "time.time()",
    "time.time_ns()",
    "datetime.datetime.now()",
    "datetime.date.today()",
    "os.urandom(8)",
    "uuid.uuid4()",
    "secrets.token_bytes(8)",
])
def test_wallclock_calls_flagged(tmp_path, call):
    findings = lint_snippet(tmp_path, f"""
        import datetime, os, secrets, time, uuid

        def stamp():
            return {call}
        """)
    assert rules_of(findings) == {"wallclock"}


def test_monotonic_deadlines_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        import time

        def wait(deadline):
            while time.monotonic() < deadline:
                time.sleep(0.01)
        """)
    assert findings == []


def test_from_time_import_time_flagged(tmp_path):
    findings = lint_snippet(tmp_path, "from time import time\n")
    assert rules_of(findings) == {"wallclock"}


# ------------------------------------------------------ order of sets
def test_set_iteration_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        def serialize(names):
            out = []
            for name in set(names):
                out.append(name)
            return [n for n in {"a", "b"}] + list({1, 2}) + out
        """)
    assert rules_of(findings) == {"order-dependence"}
    assert len(findings) == 3


def test_sorted_set_iteration_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        def serialize(names):
            return [name for name in sorted(set(names))]
        """)
    assert findings == []


def test_popitem_flagged_but_ordered_popitem_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        def evict(cache, lru):
            cache.popitem()
            lru.popitem(last=False)
        """)
    assert rules_of(findings) == {"order-dependence"}
    assert len(findings) == 1


# ---------------------------------------------------- stable_hash args
def test_stable_hash_container_args_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        from fixture.machine.hashing import stable_hash

        def bad(items):
            return stable_hash([i for i in items]) + stable_hash({1: 2})
        """)
    assert rules_of(findings) == {"stable-hash-args"}
    assert len(findings) == 2


def test_stable_hash_scalar_args_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        from fixture.machine.hashing import stable_hash

        def good(name, index):
            return stable_hash(name, ("slot", index))
        """)
    assert findings == []


# ----------------------------------------------------------- excepts
def test_bare_except_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        def load(path):
            try:
                return open(path).read()
            except:
                return None
        """)
    assert rules_of(findings) == {"blind-except"}


def test_swallowing_broad_except_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        def load(path):
            try:
                return open(path).read()
            except Exception:
                pass
        """)
    assert rules_of(findings) == {"blind-except"}


def test_handled_broad_except_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        def load(path, log):
            try:
                return open(path).read()
            except OSError:
                return None
            except Exception as exc:
                log.append(str(exc))
                raise
        """)
    assert findings == []


# ---------------------------------------------------- mutable defaults
def test_mutable_default_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        def collect(item, seen=[], index={}, *, extras=set()):
            seen.append(item)
            return seen, index, extras
        """)
    assert rules_of(findings) == {"mutable-default"}
    assert len(findings) == 3


def test_none_default_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        def collect(item, seen=None):
            seen = [] if seen is None else seen
            seen.append(item)
            return seen
        """)
    assert findings == []


# --------------------------------------------------------- float ==
def test_float_literal_equality_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        def check(utilization):
            return utilization == 0.95
        """)
    assert rules_of(findings) == {"float-eq"}
    assert findings[0].severity == "warning"


def test_float_inequality_bounds_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        def check(utilization):
            return utilization >= 0.95 and utilization != utilization
        """)
    assert findings == []


# --------------------------------------------------------- trace layer
def test_app_trace_drain_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        def measure(app):
            return list(app.trace(0, 1000))
        """)
    assert rules_of(findings) == {"trace-layer"}
    assert "bypasses capture" in findings[0].message


def test_raw_guard_trace_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        from repro.faults.watchdog import guard_trace

        def measure(stream):
            return guard_trace(stream, 5000, "x")
        """)
    assert rules_of(findings) == {"trace-layer"}
    assert "live_stream" in findings[0].message


def test_trace_package_is_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        def capture(app):
            return list(app.trace(0, 1000))
        """, relpath="trace/capture.py")
    assert findings == []


def test_runner_is_not_exempt(tmp_path):
    findings = lint_snippet(tmp_path, """
        def measure(app, tid, budget):
            return app.trace(tid, budget)
        """, relpath="core/runner.py")
    assert rules_of(findings) == {"trace-layer"}


def test_unrelated_trace_names_allowed(tmp_path):
    findings = lint_snippet(tmp_path, """
        import sys

        def profile():
            sys.settrace(None)
            trace = [1, 2, 3]
            return trace(0)  # a local callable, not a method drain
        """)
    assert findings == []


# ------------------------------------------------------------ hot-path
def test_microop_construction_flagged_in_uarch(tmp_path):
    findings = lint_snippet(tmp_path, """
        from repro.uarch.uop import MicroOp, OpKind

        def rebuild(batch, i):
            return MicroOp(OpKind.ALU, batch.pcs[i], 0, (), batch.seqs[i])
        """)
    assert rules_of(findings) == {"hot-path"}
    assert "ColumnBatch" in findings[0].message


def test_microop_construction_flagged_in_replay(tmp_path):
    findings = lint_snippet(tmp_path, """
        from repro.uarch import uop

        def decode_one(row):
            return uop.MicroOp(*row)
        """, relpath="trace/replay.py")
    assert rules_of(findings) == {"hot-path"}


def test_microop_construction_allowed_in_codec(tmp_path):
    findings = lint_snippet(tmp_path, """
        from repro.uarch.uop import MicroOp

        def decode(rows):
            for row in rows:
                yield MicroOp(*row)
        """, relpath="trace/codec.py")
    assert findings == []


def test_microop_construction_allowed_in_runtime(tmp_path):
    findings = lint_snippet(tmp_path, """
        from repro.uarch.uop import MicroOp, OpKind

        def emit(pc, seq):
            return MicroOp(OpKind.ALU, pc, 0, (), seq)
        """, relpath="machine/runtime.py")
    assert findings == []


def test_microop_reads_are_not_flagged(tmp_path):
    findings = lint_snippet(tmp_path, """
        def classify(uop):
            return uop.kind  # consuming a MicroOp is fine anywhere
        """)
    assert findings == []
