#!/usr/bin/env python3
"""Regenerate the paper's entire evaluation as one markdown report.

Builds every committed table (Table 1, Figures 1-9 and the five
§4-implications ablations, each at its own window scale) on one sweep
engine, checks the claims-as-code against them, and writes everything
to a single markdown file (default: ``report.md``).

Usage:
    python examples/full_report.py [output.md] [window_uops]

At the default 60k window this takes several minutes — it is the whole
evaluation.  Pass a smaller window (e.g. 20000) for a quick draft.
"""

import sys
import time

from repro import RunConfig
from repro.core.paper import TABLES, build, check
from repro.core.sweep import SweepEngine


def main() -> None:
    output = sys.argv[1] if len(sys.argv) > 1 else "report.md"
    window = int(sys.argv[2]) if len(sys.argv) > 2 else 60_000
    config = RunConfig(window_uops=window, warm_uops=window // 3)

    sections = ["# Clearing the Clouds — regenerated evaluation", ""]
    sections.append(f"*window: {window:,} micro-ops per measurement*")
    sections.append("")

    started = time.time()
    engine = SweepEngine()
    tables = {}
    for name in TABLES:
        print(f"[{time.time() - started:6.0f}s] {name} ...")
        tables[name] = build(name, config, engine)
        sections.append(tables[name].to_markdown())
        sections.append("")

    print(f"[{time.time() - started:6.0f}s] verification ...")
    sections.append(check(tables).to_markdown())
    sections.append("")

    with open(output, "w") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {output} in {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
