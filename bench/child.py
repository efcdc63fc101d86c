"""One benchmark pass in a fresh process.

``python -m bench.child --workload NAME --seed N --trace 0|1`` runs one
pass of a workload and prints one JSON line; the harness
(:mod:`bench.harness`) starts it with ``PYTHONPATH`` at ``src`` and
``REPRO_CACHE_DIR`` at an empty temporary directory.  ``--preflight``
only imports the program and checks that every traced site resolves.

``ready`` is ``time.monotonic()`` when set-up ends.  On Linux that
clock is system-wide, so the harness subtracts its own spawn timestamp
from it to get the pass's set-up time.  The child times the reference
kernel (:mod:`bench.reference`) between set-up and the timed call, and
again after it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import resource
import sys
import time


def _pass(workload_name: str, seed: int, traced: bool) -> dict:
    from bench import reference, tracing
    from bench.workloads import WORKLOADS
    from repro.core.store import default_cache_dir

    workload = WORKLOADS[workload_name]
    sandbox = pathlib.Path(os.environ["REPRO_CACHE_DIR"]).resolve()
    cache_isolated = default_cache_dir().resolve() == sandbox
    run = workload.prepare(seed)
    tracer = tracing.Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        ready = time.monotonic()
        kernel = [reference.kernel_s() for _ in range(reference.SAMPLES)]
        start = time.perf_counter()
        output = run()
        end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel += [reference.kernel_s() for _ in range(reference.SAMPLES)]
    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "ready": ready,
        "kernel_s": min(kernel),
        "wall_s": end - start,
        "output_sha256": hashlib.sha256(output.encode("utf-8")).hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "cache_isolated": cache_isolated,
    }
    if tracer is not None:
        spans = tracer.spans
        result.update(
            uops=tracing.timed_uops(spans),
            metrics=tracing.layer_metrics(spans, start, end),
            missing_spans=[name for name in workload.spans
                           if not any(s[0] == name for s in spans)],
            self_time_error=tracing.check_self_time_sum(spans, start, end),
            span_tree=tracing.span_tree(spans),
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preflight", action="store_true")
    args = parser.parse_args(argv)
    if args.preflight:
        from bench.tracing import check_sites

        problems = check_sites()
        for problem in problems:
            print(f"error: traced site does not resolve: {problem}",
                  file=sys.stderr)
        return 1 if problems else 0
    print(json.dumps(_pass(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
