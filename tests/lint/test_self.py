"""The linter gates this repository: the live tree must lint clean.

These are the same checks CI runs, kept in the suite so a finding
fails the fastest feedback loop first.
"""

from __future__ import annotations

import json
import pathlib

import repro
from repro.lint.baseline import Baseline
from repro.lint.engine import LintEngine, run_lint
from repro.lint.program.model import build_model

PACKAGE_ROOT = pathlib.Path(repro.__file__).resolve().parent
BASELINE = PACKAGE_ROOT.parent.parent / "lint-baseline.json"

#: Directories whose measurements the figures depend on directly; the
#: acceptance bar is an *empty* baseline here — findings must be fixed
#: or carry an inline reason, never grandfathered.
STRICT_PREFIXES = ("core/", "uarch/", "machine/", "lint/")


def test_live_tree_has_no_new_findings():
    findings = run_lint(PACKAGE_ROOT)
    baseline = Baseline.load(BASELINE)
    new, _ = baseline.partition(findings)
    new.extend(baseline.audit(findings))
    assert new == [], "\n".join(f.format_text() for f in new)


def test_baseline_is_empty_for_strict_directories():
    document = json.loads(BASELINE.read_text())
    offenders = [entry for entry in document["entries"]
                 if entry["path"].startswith(STRICT_PREFIXES)]
    assert offenders == [], (
        "grandfathered findings are not allowed in core/, uarch/, "
        f"machine/, or the linter itself: {offenders}")


def test_baseline_entries_carry_reasons():
    document = json.loads(BASELINE.read_text())
    missing = [entry for entry in document["entries"]
               if not entry.get("reason", "").strip()]
    assert missing == []


def test_live_tree_has_store_document_sinks():
    """taint-flow guards what the stores write only if the live tree
    has a store-document sink for it to guard."""
    contexts, _ = LintEngine().load(PACKAGE_ROOT)
    model = build_model(contexts, "repro")
    sinks = [info.qualname for info in model.functions.values()
             for sink in info.sinks if sink.kind == "store-document"]
    assert {"core.store:ResultStore._put",
            "core.supervise:SweepCheckpoint.put",
            "trace.store:TraceStore.put"} <= set(sinks)
