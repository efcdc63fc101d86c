"""The whole-program rules: taint flow, fingerprint purity, layering.

Same discipline as ``test_fixture_tree``: every test lints a mutated
copy of the clean fixture tree, so the assertions document exactly the
review scenario each rule exists to stop.
"""

from __future__ import annotations

import textwrap

from repro.lint.cli import main as lint_main
from repro.lint.engine import run_lint


def write(tree, relpath, source):
    path = tree / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source).lstrip())


def rules_of(findings):
    return {finding.rule for finding in findings}


# ---------------------------------------------------------------------
# taint-flow
# ---------------------------------------------------------------------

def _laundered_clock_tree(tree, annotation=""):
    """A clock read two call edges away from a counter write.

    ``time.monotonic`` is exempt from the file-local ``wallclock``
    rule (the harness exemption), so every file here lints clean in
    isolation — only the interprocedural pass can see the flow.
    """
    write(tree, "uarch/entropy.py", f"""
        from time import monotonic

        def jitter():{annotation}
            return monotonic()
        """)
    write(tree, "uarch/weight.py", """
        from fixture.uarch.entropy import jitter

        def weight(step):
            return int(jitter()) + step
        """)
    write(tree, "uarch/core.py", """
        from dataclasses import dataclass

        from fixture.uarch.weight import weight

        @dataclass
        class CoreResult:
            cycles: int = 0
            instructions: int = 0
            l1i_misses: int = 0

        def run(window):
            result = CoreResult()
            for step in range(window):
                result.cycles += weight(step)
            return result
        """)


def test_laundered_clock_reaches_counter_through_two_edges(fixture_tree):
    _laundered_clock_tree(fixture_tree)
    findings = run_lint(fixture_tree)
    assert rules_of(findings) == {"taint-flow"}
    [finding] = findings
    assert finding.path == "uarch/core.py"
    # The witness path reads source-to-sink, one hop per call edge.
    assert ("uarch.core.run -> uarch.weight.weight -> "
            "uarch.entropy.jitter -> time.monotonic()"
            ) in finding.message
    assert "counter store result.cycles" in finding.message


def test_laundered_clock_fails_cli_with_witness(fixture_tree, tmp_path,
                                                capsys):
    _laundered_clock_tree(fixture_tree)
    status = lint_main([f"--root={fixture_tree}",
                        f"--baseline-file={tmp_path}/b.json"])
    assert status == 1
    out = capsys.readouterr().out
    assert "taint-flow" in out
    assert "uarch.entropy.jitter -> time.monotonic()" in out


def test_sanitizer_annotation_blesses_the_wrapper(fixture_tree,
                                                  tmp_path, capsys):
    _laundered_clock_tree(
        fixture_tree,
        annotation="  # repro-lint: sanitizer -- seed material; "
                   "results derive from the logged seed")
    assert run_lint(fixture_tree) == []
    status = lint_main([f"--root={fixture_tree}",
                        f"--baseline-file={tmp_path}/b.json"])
    assert status == 0
    capsys.readouterr()


def test_reasonless_sanitizer_annotation_is_flagged(fixture_tree):
    _laundered_clock_tree(fixture_tree,
                          annotation="  # repro-lint: sanitizer")
    findings = run_lint(fixture_tree)
    # The blessing still applies (intent is clear), but the missing
    # reason is itself an error — same contract as suppressions.
    assert rules_of(findings) == {"bad-suppression"}
    assert "no reason" in findings[0].message


def test_hashing_module_is_blessed_wholesale(fixture_tree):
    # stable_hash gains an internal monotonic read; hashing.py modules
    # are sanitizers by definition, so nothing downstream is tainted.
    write(fixture_tree, "machine/hashing.py", """
        import zlib
        from time import monotonic

        def stable_hash(*parts):
            h = int(monotonic()) * 0
            for part in parts:
                h = zlib.crc32(repr(part).encode(), h)
            return (h * 2654435761) & 0xFFFFFFFF
        """)
    write(fixture_tree, "machine/patch.py", """
        from fixture.machine.hashing import stable_hash

        def apply(result: "CoreResult", key):
            result.cycles += stable_hash(key)
        """)
    assert run_lint(fixture_tree) == []


def test_same_wrapper_outside_hashing_module_is_tainted(fixture_tree):
    write(fixture_tree, "machine/mix.py", """
        import zlib
        from time import monotonic

        def loose_mix(*parts):
            h = int(monotonic()) * 0
            for part in parts:
                h = zlib.crc32(repr(part).encode(), h)
            return h
        """)
    write(fixture_tree, "machine/patch.py", """
        from fixture.machine.mix import loose_mix

        def apply(result: "CoreResult", key):
            result.cycles += loose_mix(key)
        """)
    findings = run_lint(fixture_tree)
    assert rules_of(findings) == {"taint-flow"}
    assert "machine.mix.loose_mix -> time.monotonic()" \
        in findings[0].message


def test_sim_clock_fed_by_wrapped_clock_is_flagged(fixture_tree):
    write(fixture_tree, "cluster/warp.py", """
        from time import monotonic

        def skew():
            return monotonic() * 0.001
        """)
    write(fixture_tree, "cluster/clock.py", """
        from fixture.cluster.warp import skew

        class EventLoop:
            def __init__(self):
                self.now = 0

            def advance(self, when):
                self.now = when + skew()
        """)
    findings = run_lint(fixture_tree)
    # cluster-clock flags the raw monotonic() in warp.py file-locally;
    # taint-flow adds the cross-file consequence at the sink.
    assert rules_of(findings) == {"taint-flow", "cluster-clock"}
    [taint] = [f for f in findings if f.rule == "taint-flow"]
    assert "simulated clock store self.now" in taint.message


def test_laundered_clock_reaching_a_blob_write_is_flagged(fixture_tree):
    write(fixture_tree, "blobstore.py", """
        import os

        def atomic_write(path, data):
            with open(f"{path}.tmp", "wb") as handle:
                handle.write(data)
            os.replace(f"{path}.tmp", path)
        """)
    write(fixture_tree, "core/stamp.py", """
        from time import monotonic

        def stamp():
            return monotonic()
        """)
    write(fixture_tree, "core/store.py", """
        import json

        from fixture.blobstore import atomic_write
        from fixture.core.stamp import stamp

        def save(path, document):
            document["written"] = stamp()
            atomic_write(path, json.dumps(document).encode())
        """)
    findings = run_lint(fixture_tree)
    assert rules_of(findings) == {"taint-flow"}
    [finding] = findings
    assert finding.path == "core/store.py"
    assert "store document write atomic_write()" in finding.message
    assert "core.store.save -> core.stamp.stamp -> time.monotonic()" \
        in finding.message


# ---------------------------------------------------------------------
# fingerprint-purity
# ---------------------------------------------------------------------

_PURE_SWEEP = """
    import hashlib
    import json

    def canonical(config):
        return json.dumps(config, sort_keys=True)

    def config_fingerprint(kind, name, config):
        blob = f"{kind}:{name}:" + canonical(config)
        return hashlib.sha256(blob.encode()).hexdigest()
    """


def test_pure_fingerprint_lints_clean(fixture_tree):
    write(fixture_tree, "core/sweep.py", _PURE_SWEEP)
    assert run_lint(fixture_tree) == []


def test_fingerprint_gaining_environ_read_is_caught(fixture_tree):
    write(fixture_tree, "core/sweep.py", """
        import hashlib
        import json
        import os

        def canonical(config):
            return json.dumps(config, sort_keys=True)

        def config_fingerprint(kind, name, config):
            salt = os.environ.get("REPRO_SALT", "")
            blob = f"{kind}:{name}:{salt}:" + canonical(config)
            return hashlib.sha256(blob.encode()).hexdigest()
        """)
    findings = run_lint(fixture_tree)
    assert "fingerprint-purity" in rules_of(findings)
    messages = " ".join(f.message for f in findings)
    assert "must stay pure" in messages
    assert "os.environ" in messages


def test_impure_helper_in_fingerprint_closure_is_caught(fixture_tree):
    write(fixture_tree, "core/sweep.py", """
        import hashlib
        import os

        def _salt():
            return os.environ.get("REPRO_SALT", "")

        def config_fingerprint(kind, name, config):
            blob = f"{kind}:{name}:" + _salt() + repr(config)
            return hashlib.sha256(blob.encode()).hexdigest()
        """)
    findings = run_lint(fixture_tree)
    purity = [f for f in findings if f.rule == "fingerprint-purity"]
    assert purity, rules_of(findings)
    assert any("reached via" in f.message
               and "core.sweep._salt" in f.message for f in purity)


def test_pure_annotation_enrols_a_function(fixture_tree):
    write(fixture_tree, "core/labels.py", """
        def tabulate(rows):  # repro-lint: pure -- folded into figure captions
            out = open("/tmp/labels.txt", "w")
            out.write(str(rows))
            return rows
        """)
    findings = run_lint(fixture_tree)
    assert "fingerprint-purity" in rules_of(findings)
    assert any("calls open()" in f.message for f in findings)


def test_computed_schema_constant_is_flagged(fixture_tree):
    write(fixture_tree, "core/codec.py", """
        TRACE_SCHEMA = 1
        PACK_SCHEMA = 1 + 0
        """)
    findings = run_lint(fixture_tree)
    assert rules_of(findings) == {"fingerprint-purity"}
    [finding] = findings
    assert "PACK_SCHEMA" in finding.message
    assert "literal int" in finding.message


# ---------------------------------------------------------------------
# import-layering
# ---------------------------------------------------------------------

def test_uarch_importing_cluster_is_flagged(fixture_tree):
    write(fixture_tree, "uarch/sched.py", """
        from fixture.cluster.clock import EventLoop

        def make_loop():
            return EventLoop()
        """)
    findings = run_lint(fixture_tree)
    assert rules_of(findings) == {"import-layering"}
    [finding] = findings
    assert finding.path == "uarch/sched.py"
    assert "`uarch` must not import `cluster`" in finding.message


def test_machine_importing_uarch_is_allowed(fixture_tree):
    write(fixture_tree, "machine/widths.py", """
        from fixture.uarch.counters import COUNTER_NAMES

        def width():
            return len(COUNTER_NAMES)
        """)
    assert run_lint(fixture_tree) == []


def test_lint_package_imports_nothing(fixture_tree):
    write(fixture_tree, "lint/extra.py", """
        from fixture.machine.hashing import stable_hash

        def key(finding):
            return stable_hash(finding)
        """)
    findings = run_lint(fixture_tree)
    assert rules_of(findings) == {"import-layering"}
    assert "`lint` must not import `machine`" in findings[0].message


def test_function_local_import_is_still_an_edge(fixture_tree):
    write(fixture_tree, "uarch/lazy.py", """
        def loop():
            from fixture.cluster.clock import EventLoop
            return EventLoop()
        """)
    findings = run_lint(fixture_tree)
    assert rules_of(findings) == {"import-layering"}


def test_layering_suppression_with_reason_is_honoured(fixture_tree):
    write(fixture_tree, "uarch/sched.py", """
        from fixture.cluster.clock import EventLoop  # repro-lint: disable=import-layering -- transitional shim, tracked in ROADMAP
        """)
    assert run_lint(fixture_tree) == []
