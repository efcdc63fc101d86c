#!/usr/bin/env python3
"""Figure 4 on demand: LLC-capacity sensitivity for chosen workloads.

Sweeps the LLC from 4 to 11 MB and reports user-IPC normalized to the
12 MB baseline.  Demonstrates both methodologies: direct LLC resizing
(default) and the paper's cache-polluter threads (§3.1), which occupy
part of the 12 MB LLC with pseudo-random array walks.

Usage:
    python examples/llc_sweep.py [workload ...]
        default workloads: web-search specint-mcf
"""

import sys
from dataclasses import replace

from repro import RunConfig, analysis, run_workload
from repro.core.polluter import polluter_array_bytes, warm_polluter
from repro.trace.capture import TraceKey
from repro.trace.columns import batch_for
from repro.trace.pipeline import materialize
from repro.trace.replay import fill_lines, functional_replay_batch
from repro.uarch.core import Core
from repro.uarch.hierarchy import MemoryHierarchy

SIZES_MB = (4, 6, 8, 10, 11, 12)


def resize_method(name: str, config: RunConfig) -> dict[int, float]:
    """Shrink the LLC directly (exact).

    `run_workload` captures the workload's trace on the first size and
    replays it for the other five — the capture-once/replay-many split
    of docs/methodology.md §9.
    """
    curve = {}
    for size in SIZES_MB:
        params = config.params.with_llc_mb(size)
        run = run_workload(name, replace(config, params=params))
        curve[size] = analysis.application_ipc(run.result)
    return curve


def polluter_method(name: str, config: RunConfig) -> dict[int, float]:
    """Occupy LLC capacity with the §3.1 polluter working set.

    A custom harness over the same pipeline: one captured trace,
    replayed into a hand-prepared hierarchy per polluter size.
    """
    captured = materialize(TraceKey.from_config(name, config))
    curve = {}
    for size in SIZES_MB:
        hierarchy = MemoryHierarchy(config.params)
        array_bytes = polluter_array_bytes(config.params, size)
        if array_bytes:
            warm_polluter(hierarchy.llc, array_bytes)
        fill_lines(hierarchy, captured.fill_ranges)
        functional_replay_batch(hierarchy, batch_for(captured.warm))
        # Re-assert the polluters' residency (they run continuously on
        # their own cores, §3.1, so their array never leaves the LLC).
        if array_bytes:
            warm_polluter(hierarchy.llc, array_bytes)
        core = Core(config.params, hierarchy)
        result = core.run([stream.decode() for stream in captured.streams])
        curve[size] = analysis.application_ipc(result)
    return curve


def main() -> None:
    workloads = sys.argv[1:] or ["web-search", "specint-mcf"]
    config = RunConfig(window_uops=60_000, warm_uops=20_000)
    print(f"{'LLC (MB)':>8}", end="")
    curves = {}
    for name in workloads:
        print(f"  {name + ' (resize)':>24}  {name + ' (polluter)':>24}", end="")
        curves[name] = (resize_method(name, config),
                        polluter_method(name, config))
    print()
    for size in SIZES_MB:
        print(f"{size:>8}", end="")
        for name in workloads:
            resized, polluted = curves[name]
            base_r, base_p = resized[12], polluted[12]
            print(f"  {resized[size] / base_r:>24.3f}"
                  f"  {polluted[size] / base_p:>24.3f}", end="")
        print()
    print("\n(user-IPC, normalized to the 12 MB baseline; the two methods "
          "should agree — the paper could only use polluters)")


if __name__ == "__main__":
    main()
