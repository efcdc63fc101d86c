"""Passes in fresh processes, their checks, and the two run modes.

Every pass runs in its own subprocess (:mod:`bench.child`) with its own
empty ``REPRO_CACHE_DIR`` and ``TMPDIR`` under ``.bench_tmp/`` at the
repository root, removed when the pass ends, so no pass reuses another's
traces or results and the user's own cache is never touched.

* :func:`measure` runs one workload for a time budget and reports the
  medians: end-to-end metrics from untraced passes, per-layer metrics
  from traced ones.
* :func:`run_suite` runs every workload for a fixed number of rounds,
  rotating their order each round, then a few traced passes each, and
  returns the whole result as one JSON document.

Host times are rescaled by each pass's reference-kernel time
(:mod:`bench.reference`); the raw host times are kept beside them.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from bench import reference
from bench.stats import describe

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: A pass that takes longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 120.0
#: ``measure`` starts no pass after this much time and kills any pass
#: still running at :data:`MEASURE_LIMIT_S`, so it exits inside three
#: minutes whatever ``--seconds`` asks.
MEASURE_CUTOFF_S = 120.0
MEASURE_LIMIT_S = 165.0
#: Rounds of ``run``, and passes per workload in each round (and traced).
ROUNDS = 5
PASSES_PER_ROUND = 3


class PreflightError(RuntimeError):
    """The program cannot be imported or traced from this checkout."""


def load_spec(path: pathlib.Path = SPEC_PATH) -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads(path.read_text(encoding="utf-8"))


def _child(args: list[str], sandbox: pathlib.Path, timeout: float):
    (sandbox / "tmp").mkdir(parents=True, exist_ok=True)
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "XDG_CACHE_HOME")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(sandbox / "cache"),
        TMPDIR=str(sandbox / "tmp"),
        # Fixed string hashing: the program's output never depends on
        # it, but set and dict layouts change the host time of a pass.
        PYTHONHASHSEED="0",
    )
    return subprocess.run(
        [sys.executable, "-m", "bench.child", *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=timeout)


def preflight(tmp_root: pathlib.Path = TMP_ROOT) -> None:
    """Import the program and resolve every traced site, or raise."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise PreflightError(f"no program source at {SRC.name}/repro")
    tmp_root.mkdir(parents=True, exist_ok=True)
    sandbox = pathlib.Path(tempfile.mkdtemp(prefix="preflight-",
                                            dir=tmp_root))
    try:
        proc = _child(["--preflight"], sandbox, PASS_TIMEOUT_S)
    finally:
        shutil.rmtree(sandbox, ignore_errors=True)
    if proc.returncode != 0:
        raise PreflightError(proc.stderr.strip()[-2000:]
                             or f"exit status {proc.returncode}")


def run_pass(workload: str, seed: int, traced: bool,
             tmp_root: pathlib.Path = TMP_ROOT,
             timeout: float = PASS_TIMEOUT_S) -> dict:
    """One pass in a fresh subprocess; the child's JSON plus ``ok``,
    ``error``, ``setup_s`` and ``temp_removed``."""
    tmp_root.mkdir(parents=True, exist_ok=True)
    sandbox = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                            dir=tmp_root))
    args = ["--workload", workload, "--seed", str(seed),
            "--trace", "1" if traced else "0"]
    result: dict = {"workload": workload, "traced": traced, "ok": False}
    try:
        spawn = time.monotonic()
        proc = _child(args, sandbox, timeout)
        if proc.returncode != 0:
            result["error"] = (f"exit status {proc.returncode}: "
                               + proc.stderr.strip()[-2000:])
        else:
            result.update(json.loads(proc.stdout.strip().splitlines()[-1]))
            result["setup_s"] = result["ready"] - spawn
            result["ok"] = True
    except subprocess.TimeoutExpired:
        result["error"] = f"timed out after {timeout:.0f} s"
    except (IndexError, ValueError) as exc:
        result["error"] = f"unreadable pass result: {exc}"
    finally:
        shutil.rmtree(sandbox, ignore_errors=True)
    result["temp_removed"] = not sandbox.exists()
    return result


def summarize(rounds: list[list[dict]], traced: list[dict],
              spec: dict) -> dict:
    """End-to-end and per-layer metrics of one workload's passes, with
    every self-check; ``checks`` maps a check to None (passed) or the
    reason it failed.

    ``rounds`` groups the untraced passes; each end-to-end sample is the
    median of one round's passes, rescaled pass by pass.  A pass's
    kernel time is a noisier estimate of host speed than a median of a
    few, so rounds of several passes keep the quartiles of a ``run``
    document within the bounds ``compare`` judges by.
    """
    untraced = [p for passes in rounds for p in passes]
    good_rounds = [[p for p in passes if p["ok"]] for passes in rounds]
    good_rounds = [passes for passes in good_rounds if passes]
    good = [p for passes in good_rounds for p in passes]
    good_traced = [p for p in traced if p["ok"]]
    failures = [p["error"] for p in untraced + traced if not p["ok"]]
    digests = sorted({p["output_sha256"] for p in good + good_traced})
    uops = sorted({p["uops"] for p in good_traced})

    def rescaled(p: dict, value: float, unit: str) -> float:
        return reference.rescale(value, unit, p["kernel_s"])

    def by_round(value) -> dict:
        return describe([statistics.median(value(p) for p in passes)
                         for passes in good_rounds])

    end_to_end, host = {}, {}
    if good and good_traced:
        end_to_end = {
            "wall_s": by_round(lambda p: rescaled(p, p["wall_s"], "s")),
            "uops_per_s": by_round(
                lambda p: rescaled(p, uops[0] / p["wall_s"], "uops/s")),
            "setup_s": by_round(lambda p: rescaled(p, p["setup_s"], "s")),
            "peak_rss_mb": by_round(lambda p: p["peak_rss_mb"]),
        }
        host = {name: by_round(lambda p, name=name: p[name])
                for name in ("wall_s", "setup_s", "kernel_s")}
    per_layer = {}
    if good_traced:
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name in good_traced[0]["metrics"]:
                per_layer[name] = statistics.median(
                    rescaled(p, p["metrics"][name], metric["unit"])
                    for p in good_traced)
        if good:
            per_layer["tracing.overhead"] = statistics.median(
                rescaled(p, p["wall_s"], "s") for p in good_traced) \
                / end_to_end["wall_s"]["median"] - 1.0

    def first(problems) -> str | None:
        problems = [p for p in problems if p]
        return problems[0] if problems else None

    checks = {
        "passes_completed": first(failures),
        "untraced_and_traced_ran": None if good and good_traced
        else "need at least one untraced and one traced pass",
        "output_digests_agree": None if len(digests) <= 1
        else f"{len(digests)} different output digests",
        "timed_uops_repeat": None if len(uops) <= 1
        else f"timed uops differ between traced passes: {uops}",
        "span_coverage": first(
            f"spans never fired: {', '.join(p['missing_spans'])}"
            for p in good_traced if p["missing_spans"]),
        "self_time_sum": first(p["self_time_error"] for p in good_traced),
        "cache_isolated": first(
            "REPRO_CACHE_DIR was not the cache" for p in good + good_traced
            if not p["cache_isolated"]),
        "temp_removed": first(
            "a pass's temporary directory survived"
            for p in untraced + traced if not p["temp_removed"]),
    }
    return {
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "timed_uops": uops[0] if uops else None,
        "attempted": len(untraced) + len(traced),
        "failed": len(failures),
        "end_to_end": end_to_end,
        "host": host,
        "per_layer": per_layer,
        "span_tree": good_traced[0]["span_tree"] if good_traced else [],
        "checks": checks,
    }


def print_summary(workload: str, summary: dict, spec: dict) -> None:
    """Every metric by name with its unit, then every check."""
    for metric in spec["end_to_end"]:
        stats = summary["end_to_end"].get(metric["name"])
        if stats:
            print(f"{workload:<15} {metric['name']:<34} "
                  f"{stats['median']:>14.6g} {metric['unit']:<9} "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"n {stats['n']}")
    for name, stats in summary["host"].items():
        print(f"{workload:<15} host {name:<29} {stats['median']:>14.6g} s"
              f"{'':<9}q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}")
    for metric in spec["per_layer"]:
        value = summary["per_layer"].get(metric["name"])
        if value is not None:
            print(f"{workload:<15} {metric['name']:<34} {value:>14.6g} "
                  f"{metric['unit']}")
    for check, problem in summary["checks"].items():
        print(f"{workload:<15} check {check:<28} "
              f"{'ok' if problem is None else 'FAILED: ' + problem}")


def _cleanup(tmp_root: pathlib.Path) -> None:
    try:
        tmp_root.rmdir()  # only if every pass cleaned up after itself
    except OSError:
        pass


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict, tmp_root: pathlib.Path = TMP_ROOT) -> dict:
    """Run ``workload`` for about ``seconds`` and return its summary.

    The first pass is traced: it supplies the deterministic count of
    micro-ops the core model timed (the numerator of ``uops_per_s``),
    checks span coverage, and its output digest must equal every
    untraced pass's.  With ``trace`` the remaining passes alternate
    traced and untraced, so the per-layer medians rest on several
    passes and ``tracing.overhead`` compares like with like.
    """
    preflight(tmp_root)
    started = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []

    def one(traced_pass: bool) -> None:
        timeout = min(PASS_TIMEOUT_S,
                      MEASURE_LIMIT_S - (time.monotonic() - started))
        (traced if traced_pass else untraced).append(
            run_pass(workload, seed, traced_pass, tmp_root, timeout))

    one(True)
    while not untraced or (
            time.monotonic() - started < min(seconds, MEASURE_CUTOFF_S)):
        one(trace and len(traced) <= len(untraced))
    _cleanup(tmp_root)
    return summarize([[p] for p in untraced], traced, spec)


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_suite(seed: int, workloads: list[str], spec: dict,
              tmp_root: pathlib.Path = TMP_ROOT) -> dict:
    """Every workload for :data:`ROUNDS` untraced rounds of
    :data:`PASSES_PER_ROUND` passes, in an order that rotates each
    round, then as many traced passes each; the ``bench run`` document."""
    preflight(tmp_root)
    untraced: dict[str, list[list[dict]]] = {name: [] for name in workloads}
    for round_index in range(ROUNDS):
        shift = round_index % len(workloads)
        for name in workloads[shift:] + workloads[:shift]:
            untraced[name].append(_passes(
                name, seed, False, tmp_root, f"round {round_index + 1}"))
    results, kernel = {}, []
    for name in workloads:
        traced = _passes(name, seed, True, tmp_root, "traced")
        results[name] = summarize(untraced[name], traced, spec)
        kernel.extend(p["kernel_s"] for passes in untraced[name] + [traced]
                      for p in passes if p["ok"])
    _cleanup(tmp_root)
    return {
        "schema": 1,
        "env": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "rounds": ROUNDS,
            "passes_per_round": PASSES_PER_ROUND,
            "ref_kernel_s": statistics.median(kernel) if kernel else None,
            "ref_kernel_nominal_s": reference.NOMINAL_S,
        },
        "workloads": results,
    }


def _passes(workload: str, seed: int, traced: bool,
            tmp_root: pathlib.Path, label: str) -> list[dict]:
    passes = []
    for _ in range(PASSES_PER_ROUND):
        passes.append(run_pass(workload, seed, traced, tmp_root))
        print(f"{label:<9} {workload:<15} {_pass_line(passes[-1])}",
              file=sys.stderr)
    return passes


def _pass_line(result: dict) -> str:
    if not result["ok"]:
        return f"FAILED {result['error'].splitlines()[0]}"
    return (f"wall {result['wall_s']:.3f} s  setup {result['setup_s']:.3f} s"
            f"  kernel {result['kernel_s'] * 1e3:.1f} ms"
            f"  rss {result['peak_rss_mb']:.0f} MB")
