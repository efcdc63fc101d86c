"""Command-line interface: ``python -m repro <command>``.

Commands:

    list                      list the registered workloads
    run <workload> [N]        characterize one workload (N window micro-ops)
    trace <workload> [N]      dump N micro-ops of a workload's trace
    trace capture <workload>  capture a workload's trace into the store
    trace ls                  list the captured traces in the store
    trace rm <prefix|all>     remove captured traces by fingerprint prefix
    trace stats               trace-store totals and pipeline taps
    table1                    print Table 1
    figure1 .. figure9        regenerate one figure's table
    ablation_<name>           one ablation table (see `ablations`)
    faults [workload...]      healthy vs. degraded-mode table (Figure 8)
    cluster [workload]        simulated-fleet sweep (Figure 9): replicated
                              sharding, health-checked balancing, hedged
                              requests, CO-safe tail latency
    cluster calibrate [workload]
                              derive per-op service-cost quantiles from
                              uarch replay (both fleet workloads when
                              no workload is named)
    ablations                 the five §4-implications ablation tables
    verify                    check every claim against fresh tables
    all [--out DIR]           build every committed table and check every
                              claim; --out also writes DIR/<table>.txt
                              and DIR/verification.txt
    cache [stats|clear]       inspect or empty the on-disk result store
    doctor [--check]          scan/validate the store; quarantine defects
    lint [paths...]           static determinism & invariant linter
                              (own flags; see `python -m repro lint -h`)

Options:

    --window N    measurement window in micro-ops   (default 80000)
    --warm N      functional-warming replay budget  (default window/3)
    --seed N      deterministic run seed            (default 7)
    --jobs N      worker processes for figure, faults and cluster
                  sweeps (default 1)
    --timeout S   per-cell wall-clock deadline in seconds (default none)
    --retries N   re-executions of a failed/crashed/timed-out cell
                  before the sweep reports it (default 2)
    --resume      rerun only the cells missing from an interrupted
                  sweep's checkpoint journal
    --fleet N     cluster only: sweep only this fleet size (`figure9`
                  is the committed table: every fleet, static costs)
    --replication R  cluster only: replicas per shard (default 2)
    --costs M     cluster only: service-cost source — static
                  (hand-written tables, the default), measured
                  (uarch-replay-calibrated quantile tables), or delta
                  (both, with a static-vs-measured comparison table)
    --no-cache    bypass the in-process and on-disk result caches
    --bars        render figures as ASCII bar charts instead of tables
    --check       doctor only: report defects without quarantining
    --out DIR     all only: write the tables and the claim report here
    -h, --help    print this usage (anywhere on the line) and exit

Each table runs at its ``repro.core.paper.TABLES`` scale of the window.
``all --out benchmarks/results --warm 30000 --jobs 2`` writes the
committed tables.  verify and all exit 1 when a claim is not OK.

Figure, faults, cluster, verify and all sweeps persist results under
``~/.cache/repro/`` (override with ``REPRO_CACHE_DIR``), keyed by a
full-configuration fingerprint, so regenerating a figure is incremental
across invocations.  Sweeps run supervised: a crashed or hung worker
costs only the cells in flight, completed cells are journaled
crash-safely (``--resume`` picks an interrupted sweep back up), and
every result is validated against physical invariants before it
reaches the store or a figure — ``doctor`` audits the store the same
way.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.core.runner import RunConfig

#: Flags that consume the following token as an integer value.
_VALUE_FLAGS = ("--window", "--warm", "--seed", "--jobs", "--retries",
                "--fleet", "--replication")
#: Flags that consume the following token as a float value.
_FLOAT_FLAGS = ("--timeout",)
#: Boolean switches.
_SWITCH_FLAGS = ("--bars", "--no-cache", "--resume", "--check")
#: Flags that consume the following token from a fixed choice set.
_CHOICE_FLAGS = {"--costs": ("static", "measured", "delta")}


@dataclass
class CliOptions:
    """Parsed switches that tune *how* a command runs."""

    bars: bool = False
    jobs: int = 1
    no_cache: bool = False
    timeout: float | None = None
    retries: int = 2
    resume: bool = False
    check: bool = False
    fleet: int | None = None
    replication: int = 2
    costs: str = "static"
    out: str | None = None


def _usage_error(message: str) -> None:
    """Print a one-line usage error and exit with status 2."""
    print(f"error: {message}", file=sys.stderr)
    print("try `python -m repro help` for usage", file=sys.stderr)
    raise SystemExit(2)


def _parse_config(args: list[str]) -> tuple[list[str], RunConfig, CliOptions]:
    """Split ``args`` into (commands, config, options).

    Malformed flag values and unknown ``--flags`` are usage errors:
    they print a diagnostic and exit with status 2 rather than leaking
    a raw ``StopIteration``/``ValueError`` traceback.
    """
    values = {"--window": 80_000, "--warm": None, "--seed": 7, "--jobs": 1,
              "--retries": 2, "--fleet": None, "--replication": 2}
    floats: dict[str, float | None] = {"--timeout": None}
    choices = {"--costs": "static"}
    out = None
    switches = {name: False for name in _SWITCH_FLAGS}
    rest: list[str] = []
    it = iter(args)
    for arg in it:
        if arg in _CHOICE_FLAGS or \
                ("=" in arg and arg.split("=", 1)[0] in _CHOICE_FLAGS):
            if "=" in arg:
                name, raw = arg.split("=", 1)
            else:
                name, raw = arg, next(it, None)
            allowed = _CHOICE_FLAGS[name]
            if raw is None or raw not in allowed:
                _usage_error(f"{name} requires one of "
                             f"{', '.join(allowed)}; got {raw!r}")
            choices[name] = raw
        elif arg in _VALUE_FLAGS:
            raw = next(it, None)
            if raw is None:
                _usage_error(f"{arg} requires an integer value")
            try:
                values[arg] = int(raw)
            except ValueError:
                _usage_error(f"{arg} requires an integer value, got {raw!r}")
        elif arg in _FLOAT_FLAGS:
            raw = next(it, None)
            if raw is None:
                _usage_error(f"{arg} requires a numeric value")
            try:
                floats[arg] = float(raw)
            except ValueError:
                _usage_error(f"{arg} requires a numeric value, got {raw!r}")
        elif arg == "--out":
            out = next(it, None)
            if out is None:
                _usage_error("--out requires a path")
        elif arg in _SWITCH_FLAGS:
            switches[arg] = True
        elif arg.startswith("-"):
            _usage_error(f"unknown flag {arg!r}")
        else:
            rest.append(arg)
    if values["--jobs"] < 1:
        _usage_error(f"--jobs must be >= 1, got {values['--jobs']}")
    if values["--retries"] < 0:
        _usage_error(f"--retries must be >= 0, got {values['--retries']}")
    timeout = floats["--timeout"]
    if timeout is not None and timeout <= 0:
        _usage_error(f"--timeout must be positive, got {timeout:g}")
    if values["--fleet"] is not None and values["--fleet"] < 1:
        _usage_error(f"--fleet must be >= 1, got {values['--fleet']}")
    if values["--replication"] < 1:
        _usage_error(
            f"--replication must be >= 1, got {values['--replication']}")
    window = values["--window"]
    warm = values["--warm"]
    config = RunConfig(window_uops=window,
                       warm_uops=warm if warm is not None else window // 3,
                       seed=values["--seed"])
    options = CliOptions(bars=switches["--bars"], jobs=values["--jobs"],
                         no_cache=switches["--no-cache"],
                         timeout=timeout, retries=values["--retries"],
                         resume=switches["--resume"],
                         check=switches["--check"],
                         fleet=values["--fleet"],
                         replication=values["--replication"],
                         costs=choices["--costs"], out=out)
    return rest, config, options


def _build_engine(options: CliOptions):
    """The sweep engine the figure, faults and fleet commands share:
    supervised and parallel when asked, backed by the persistent store
    unless ``--no-cache`` (the crash-safe checkpoint journal is kept
    either way, so ``--resume`` works even for uncached sweeps)."""
    from repro.core.store import ResultStore, default_cache_dir
    from repro.core.sweep import SweepEngine
    from repro.faults.retry import RetryPolicy

    store = None if options.no_cache else ResultStore()
    policy = RetryPolicy.for_harness(timeout=options.timeout,
                                     retries=options.retries)
    return SweepEngine(
        jobs=options.jobs, use_cache=not options.no_cache, store=store,
        retry=policy, checkpoint_dir=default_cache_dir() / "checkpoints",
        resume=options.resume)


def _report_trace_taps() -> None:
    """One trace-pipeline progress line per sweep, on stderr.

    Stderr keeps figure tables byte-comparable across invocations with
    different cache temperatures (CI diffs captured stdout).
    """
    from repro.trace.pipeline import TAPS

    if TAPS.captures or TAPS.replays or TAPS.store_hits or TAPS.worker_cells:
        print(TAPS.summary(), file=sys.stderr)


def _run_workload_command(args: list[str], config: RunConfig) -> None:
    from repro.core import analysis
    from repro.core.breakdown import compute_breakdown
    from repro.core.runner import run_workload

    if not args:
        print("usage: python -m repro run <workload> [--window N]")
        raise SystemExit(2)
    try:
        run = run_workload(args[0], config)
    except KeyError as exc:
        _usage_error(str(exc.args[0]))
    r = run.result
    b = compute_breakdown(r)
    print(f"{args[0]}: IPC={analysis.ipc(r):.2f} MLP={r.mlp:.2f} "
          f"stalled={b.stalled:.0%} memory={b.memory:.0%} "
          f"L1I-MPKI={analysis.instruction_mpki(r):.1f} "
          f"bw={run.bandwidth_utilization():.1%}")


#: Per-store wording of the report blocks: the doctor heading, what one
#: blob is called, and what a stale schema directory holds.
_STORE_WORDING = {
    "results": ("store", "document", "older schema versions"),
    "traces": ("traces", "container", "older trace schemas"),
}


def _report_stores(stores, check: bool | None = None) -> bool:
    """Print one block per store: its stats when ``check`` is None
    (``cache``, ``trace stats``), else its doctor scan, which moves
    defects into ``corrupt/`` unless ``check``.  True on any defect."""
    defective = False
    for store in stores:
        heading, noun, stale_note = _STORE_WORDING[store.name]
        if check is None:
            report, width = store.stats(), 9
            print(f"store:   {report['path']}")
            print(f"entries: {report['entries']}")
            print(f"bytes:   {report['bytes']}")
            corrupt = (f"corrupt: {report['corrupt_entries']} quarantined "
                       f"{noun}(s) (see `python -m repro doctor`)")
        else:
            report, width = store.doctor(repair=not check), 11
            print(f"{heading + ':':<11}{report['path']}")
            print(f"scanned:   {report['scanned']}")
            print(f"healthy:   {report['healthy']}")
            print(f"{'defective' if check else 'quarantined'}: "
                  f"{len(report['defects'])}")
            for fingerprint, reason in report["defects"]:
                print(f"  {fingerprint[:16]}…: {reason}")
            corrupt = (f"corrupt/:  {report['corrupt_entries']} {noun}(s) "
                       f"under {store.corrupt_directory}")
            defective = defective or bool(report["defects"])
        if report["corrupt_entries"]:
            print(corrupt)
        if report["stale_versions"]:
            print(f"{'stale:':<{width}}"
                  f"{', '.join(report['stale_versions'])} "
                  f"({stale_note}; safe to delete)")
    return defective


def _cache_command(args: list[str]) -> int:
    from repro.core.store import ResultStore

    store = ResultStore()
    action = args[0] if args else "stats"
    if action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.directory}")
        return 0
    if action != "stats":
        _usage_error(f"unknown cache action {action!r}; "
                     "expected 'stats' or 'clear'")
    _report_stores([store])
    return 0


def _doctor_command(options: CliOptions) -> int:
    """Scan and validate the result *and* trace stores.

    Exit status 0 means every document and trace container is healthy;
    1 means defects were found (and, unless ``--check``, moved into
    ``corrupt/``).
    """
    from repro.core.store import ResultStore, default_cache_dir
    from repro.trace.store import TraceStore

    defective = _report_stores([ResultStore(), TraceStore()],
                               check=options.check)
    journals = sorted((default_cache_dir() / "checkpoints")
                      .glob("sweep-*.json"))
    if journals:
        print(f"journals:  {len(journals)} interrupted sweep(s) can be "
              "picked up with --resume")
    return 1 if defective else 0


def _trace_dump(args: list[str]) -> int:
    """``trace <workload> [N]`` — the legacy listing dump."""
    from repro.tools import dump_trace

    count = 200
    if len(args) > 1:
        try:
            count = int(args[1])
        except ValueError:
            _usage_error(f"trace count must be an integer, got {args[1]!r}")
    try:
        text, _summary = dump_trace(args[0], count)
    except KeyError as exc:
        _usage_error(str(exc.args[0]))
    try:
        print(text, end="")
    except BrokenPipeError:
        pass
    return 0


def _trace_command(args: list[str], config: RunConfig,
                   options: CliOptions) -> int:
    """Dispatch the ``trace`` subcommands (see the module doc)."""
    from repro.trace.pipeline import TAPS, materialize
    from repro.trace.capture import TraceKey
    from repro.trace.store import TraceStore

    if not args:
        print("usage: python -m repro trace "
              "<workload> [N] | capture <workload> | ls | rm <prefix|all> "
              "| stats")
        return 2
    action = args[0]
    if action == "capture":
        if len(args) < 2:
            _usage_error("trace capture requires a workload name")
        key = TraceKey.from_config(args[1], config)
        try:
            captured, _app = materialize(key,
                                         use_store=not options.no_cache)
        except KeyError as exc:
            _usage_error(str(exc.args[0]))
        source = "store hit" if TAPS.store_hits else "captured"
        print(f"{source}: {captured.label} "
              f"fingerprint={captured.fingerprint[:16]}… "
              f"uops={captured.total_uops()} bytes={captured.nbytes()}")
        print(TAPS.summary())
        return 0
    if action == "ls":
        store = TraceStore()
        entries = store.entries()
        for entry in entries:
            meta = entry["meta"]
            print(f"{entry['fingerprint'][:16]}  {entry['label']:<24} "
                  f"window={meta.get('window_uops', '?'):<7} "
                  f"seed={meta.get('seed', '?'):<3} "
                  f"uops={entry['uops']:<8} bytes={entry['bytes']}")
        print(f"{len(entries)} trace(s) in {store.directory}")
        return 0
    if action == "rm":
        if len(args) < 2:
            _usage_error("trace rm requires a fingerprint prefix or 'all'")
        store = TraceStore()
        prefix = "" if args[1] == "all" else args[1]
        removed = store.remove(prefix)
        print(f"removed {removed} trace(s) from {store.directory}")
        return 0
    if action == "stats":
        _report_stores([TraceStore()])
        print(TAPS.summary())
        return 0
    return _trace_dump(args)


def _calibrate_command(args: list[str], config: RunConfig,
                       options: CliOptions) -> int:
    """``cluster calibrate [workload]`` — print measured cost tables.

    Calibrates every fleet workload when none is named; each model is
    derived from uarch replay of the per-op-class traces and persisted
    in the result store (unless ``--no-cache``).
    """
    from repro.cluster.calibrate import (CalibrationConfig, FLEET_WORKLOADS,
                                         calibrate)
    from repro.cluster.costs import QUANTILE_POINTS

    workloads = args or list(FLEET_WORKLOADS)
    for workload in workloads:
        calibration = CalibrationConfig(
            workload=workload, params=config.params,
            window_uops=config.window_uops, warm_uops=config.warm_uops,
            seed=config.seed)
        try:
            model = calibrate(calibration,
                              use_store=not options.no_cache)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(f"{workload}: measured service costs (ns) at "
              f"{model.blade_mhz:.0f} MHz, uarch {model.uarch[:16]}…")
        header = "  ".join(f"{name:>6}" for name, _rank in QUANTILE_POINTS)
        print(f"  {'op':<8}{header}")
        for op, cost in model.ops:
            row = "  ".join(f"{getattr(cost, name):>6}"
                            for name, _rank in QUANTILE_POINTS)
            print(f"  {op:<8}{row}")
    _report_trace_taps()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch a CLI command; returns the exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # The linter owns its flag grammar (--format, --baseline, ...);
        # dispatch before the figure-sweep flag parser can reject it.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0
    args, config, options = _parse_config(argv)
    if not args or args[0] == "help":
        print(__doc__)
        return 0
    command = args[0]
    if command == "list":
        from repro.core.workloads import REGISTRY

        try:
            for name, spec in sorted(REGISTRY.items()):
                print(f"{name:<18} {spec.group:<10} {spec.display_name}")
        except BrokenPipeError:  # piped into head etc.
            pass
        return 0
    if command == "run":
        _run_workload_command(args[1:], config)
        return 0
    if command == "cache":
        return _cache_command(args[1:])
    if command == "doctor":
        return _doctor_command(options)
    if command == "trace":
        return _trace_command(args[1:], config, options)
    from repro.core.supervise import SweepCellError

    try:
        return _sweep_command(command, args, config, options)
    except SweepCellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _sweep_command(command: str, args: list[str], config: RunConfig,
                   options: CliOptions) -> int:
    """Dispatch the commands that run sweeps; a cell that fails for
    good surfaces as :class:`~repro.core.supervise.SweepCellError`."""
    if command == "faults":
        from repro.core.experiments import figure8_faults

        try:
            table = figure8_faults.run(config, workloads=args[1:] or None,
                                       engine=_build_engine(options))
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(table.to_text())
        return 0
    if command == "cluster":
        from repro.core.experiments import figure9_cluster

        engine = _build_engine(options)
        if len(args) > 1 and args[1] == "calibrate":
            return _calibrate_command(args[2:], config, options)
        workload = args[1] if len(args) > 1 else "data-serving"
        fleets = [options.fleet] if options.fleet is not None else None
        try:
            if options.costs == "delta":
                table = figure9_cluster.delta_table(
                    config, engine=engine, workload=workload, fleets=fleets,
                    replication=options.replication)
            else:
                table = figure9_cluster.run(
                    config, engine=engine, workload=workload, fleets=fleets,
                    replication=options.replication, costs=options.costs)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(table.to_text())
        _report_trace_taps()
        return 0
    from repro.core import paper

    if command == "verify":
        report = paper.verify(config, engine=_build_engine(options))
        print(report.to_text())
        return 0 if all(row["OK"] == "yes" for row in report.rows) else 1
    if command == "all":
        names = list(paper.TABLES)
    elif command == "ablations":
        names = [name for name in paper.TABLES if name.startswith("ablation")]
    elif command in paper.TABLES:
        names = [command]
    else:
        print(f"unknown command {command!r}; try `python -m repro help`")
        return 2
    engine = _build_engine(options)
    tables = {name: paper.build(name, config, engine) for name in names}
    for name, table in tables.items():
        if options.bars and name != "table1":
            numeric = [c for c in table.columns[1:]
                       if all(isinstance(r.get(c), (int, float))
                              for r in table.rows)]
            print(table.to_bars(table.columns[0], numeric[:2]))
        else:
            print(table.to_text())
        if len(names) > 1:
            print()
    _report_trace_taps()
    if command != "all":
        return 0
    report = paper.check(tables)
    print(report.to_text())
    if options.out is not None:
        out = Path(options.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, table in {**tables, "verification": report}.items():
            (out / f"{name}.txt").write_text(table.to_text() + "\n")
    return 0 if all(row["OK"] == "yes" for row in report.rows) else 1


def _entry() -> int:
    try:
        return main()
    except BrokenPipeError:
        # `python -m repro trace ls | head` closes our stdout early;
        # follow the Unix convention (die quietly) instead of dumping a
        # traceback.  Detach stdout so interpreter shutdown does not
        # raise the same error again while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    raise SystemExit(_entry())
