"""Measurement runner (§3.1 methodology).

The paper measures 180 s of steady state after ramp-up; the simulated
equivalent is a functional warmup (steady-state LLC contents plus a
short execution replay) followed by a fixed micro-op measurement
window.  ``run_workload`` executes one hardware context; SMT and
multi-core variants build on it.

Results are cached per (workload, configuration) within the process —
bounded by a small LRU — so the benchmark harness can assemble several
figures without re-running identical configurations.

Resilience: a :class:`~repro.faults.plan.FaultPlan` in the
configuration routes every run through the fault injector (degraded
modes), and each live trace is wrapped in a watchdog budget guard so a
wedged serve loop raises instead of hanging a sweep.

Single-core runs (``run_workload`` and non-SMT group members) are
trace-driven: the measurement stream is captured once per
``(workload, member, seed, window, fault_plan)`` through
:mod:`repro.trace.pipeline` and replayed against each machine
configuration.  SMT and chip runs interleave thread generation with
core timing, so their stream content depends on the configuration
under test — they keep live generation through
:class:`repro.trace.live.LiveSource`, behind the same source protocol.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.apps.base import ServerApp
from repro.core.sweep import config_fingerprint
from repro.core.workloads import build_app
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import RunawayTraceError
from repro.trace import pipeline as trace_pipeline
from repro.trace.capture import TraceKey
from repro.trace.live import LiveSource, live_stream
from repro.uarch.chip import Chip, ChipResult
from repro.uarch.core import Core, CoreResult
from repro.uarch.dram import per_core_utilization
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import MachineParams

__all__ = [
    "RunConfig",
    "WorkloadRun",
    "ChipRun",
    "RunawayTraceError",
    "run_workload",
    "run_workload_smt",
    "run_workload_members",
    "run_workload_chip",
    "guarded_trace",
    "metric_mean",
    "metric_range",
    "clear_cache",
]


@dataclass(frozen=True)
class RunConfig:
    """One measurement configuration."""

    params: MachineParams = field(default_factory=MachineParams)
    window_uops: int = 100_000
    warm_uops: int = 40_000
    seed: int = 7
    #: Optional degraded-mode schedule; ``None`` (or an empty plan,
    #: which normalizes to ``None``) measures healthy steady state.
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        # An empty plan is semantically identical to no plan; normalize
        # so the two configurations share one cache entry and one
        # (byte-identical) execution path.
        if self.fault_plan is not None and self.fault_plan.is_empty():
            object.__setattr__(self, "fault_plan", None)

    def scaled(self, factor: float) -> "RunConfig":
        """A copy with the measurement window scaled by ``factor``."""
        return replace(
            self,
            window_uops=max(2_000, int(self.window_uops * factor)),
            warm_uops=max(1_000, int(self.warm_uops * factor)),
        )


@dataclass
class WorkloadRun:
    """A finished measurement.

    ``app`` is the live server instance for in-process runs, and
    ``None`` for runs restored from the on-disk store or a worker
    process — every figure consumes only ``config`` and ``result``.
    """

    name: str
    config: RunConfig
    result: CoreResult
    app: ServerApp | None

    @property
    def freq_hz(self) -> float:
        return self.config.params.freq_hz

    def bandwidth_utilization(self, active_cores: int = 4) -> float:
        r = self.result
        return per_core_utilization(
            r.offchip_bytes, r.cycles, self.freq_hz,
            self.config.params.peak_bandwidth_bytes_per_s, active_cores,
        )

    def os_bandwidth_fraction(self) -> float:
        r = self.result
        return r.offchip_bytes_os / r.offchip_bytes if r.offchip_bytes else 0.0


#: Bounded measurement cache: least-recently-used entries are evicted
#: once the cap is reached, so long sessions (or embedding processes)
#: cannot grow the cache without bound.
_CACHE: OrderedDict[str, WorkloadRun] = OrderedDict()
_CACHE_CAPACITY = 128


def clear_cache() -> None:
    """Drop every cached measurement, the trace memo, and the pipeline
    taps (tests use this for isolation)."""
    _CACHE.clear()
    trace_pipeline.reset()


def _cache_get(key: str):
    hit = _CACHE.get(key)
    if hit is not None:
        _CACHE.move_to_end(key)
    return hit


def _cache_put(key: str, run) -> None:
    _CACHE[key] = run
    _CACHE.move_to_end(key)
    while len(_CACHE) > _CACHE_CAPACITY:
        _CACHE.popitem(last=False)


def _cache_key(kind: str, name: str, config: RunConfig) -> str:
    # The key is the canonical fingerprint over *every* configuration
    # field.  The previous hand-picked tuple omitted the memory
    # subsystem (latency, channels, peak bandwidth, MSHRs, buffers,
    # TLBs, ...), so sweeps over those dimensions silently returned the
    # first-seen configuration's results.
    return config_fingerprint(kind, name, config)


def _attach_faults(app: ServerApp, config: RunConfig) -> None:
    """Attach a fresh injector when the config schedules faults."""
    if config.fault_plan is not None:
        app.attach_faults(FaultInjector(config.fault_plan))


def guarded_trace(app: ServerApp, tid: int, budget: int, label: str):
    """A live app trace wrapped in the runaway-trace watchdog.

    Every live-generation path that feeds a core must come through
    here (the ablation experiments included), so a wedged serve loop
    raises :class:`RunawayTraceError` instead of hanging the sweep.
    Replayed traces were bounded at capture time and skip the guard.
    """
    return live_stream(app, tid, budget, label)


def run_workload(name: str, config: RunConfig | None = None,
                 use_cache: bool = True,
                 require_app: bool = False) -> WorkloadRun:
    """Measure one workload on one core (the Figures 1/2/5/7 setup).

    Trace-driven: the measurement stream is materialized through the
    capture/replay pipeline (captured at most once per trace key, then
    replayed per machine configuration).  ``require_app=True`` forces a
    run whose ``app`` is the live instance that produced the trace —
    the faults figure reads its service metrics, which a store-restored
    trace cannot supply.
    """
    config = config or RunConfig()
    key = _cache_key("single", name, config)
    if use_cache and (hit := _cache_get(key)) is not None \
            and not (require_app and hit.app is None):
        return hit
    trace_key = TraceKey.from_config(name, config)
    captured, app = trace_pipeline.materialize(
        trace_key, use_store=use_cache, require_app=require_app)
    result = trace_pipeline.replay(captured, config.params)
    run = WorkloadRun(name, config, result, app)
    if use_cache:
        _cache_put(key, run)
    return run


def run_workload_smt(name: str, config: RunConfig | None = None,
                     use_cache: bool = True) -> WorkloadRun:
    """Measure one workload with two threads on one SMT core (Fig. 3).

    SMT streams are pulled in core-interleaved order from one shared
    app, so their content depends on the timing configuration — the
    run stays live (guarded) behind a :class:`LiveSource`.
    """
    config = config or RunConfig()
    smt_params = config.params.with_smt(2)
    config = replace(config, params=smt_params)
    key = _cache_key("smt", name, config)
    if use_cache and (hit := _cache_get(key)) is not None:
        return hit
    app = build_app(name, seed=config.seed)
    _attach_faults(app, config)
    half = config.window_uops // 2
    source = LiveSource(app, budgets=(half, half), label=name,
                        warm_uops=config.warm_uops)
    hierarchy = MemoryHierarchy(smt_params)
    source.warm_into(hierarchy)
    core = Core(smt_params, hierarchy)
    result = core.run(source.streams())
    run = WorkloadRun(name, config, result, app)
    if use_cache:
        _cache_put(key, run)
    return run


#: Synth groups whose members the paper measures separately and averages.
_GROUP_MEMBERS: dict[str, list[str]] = {
    "parsec-cpu": ["blackscholes", "swaptions"],
    "parsec-mem": ["streamcluster", "canneal"],
    "specint-cpu": ["h264ref", "perlbench"],
    "specint-mem": ["mcf", "libquantum"],
}


def run_workload_members(name: str, config: RunConfig | None = None,
                         smt: bool = False,
                         use_cache: bool = True) -> list[WorkloadRun]:
    """Measure a workload as the paper reports it: synthetic benchmark
    groups (PARSEC/SPECint cpu/mem) run one member at a time — their
    metrics are averaged and their spread gives Figure 3's range bars —
    while every other workload is a single run."""
    config = config or RunConfig()
    members = _GROUP_MEMBERS.get(name)
    runner = run_workload_smt if smt else run_workload
    if members is None:
        return [runner(name, config, use_cache)]
    runs = []
    for member in members:
        member_config = replace(config, window_uops=config.window_uops // 2,
                                warm_uops=config.warm_uops // 2)
        runs.append(_run_member(name, member, member_config, smt, use_cache))
    return runs


def _run_member(group: str, member: str, config: RunConfig,
                smt: bool, use_cache: bool = True) -> WorkloadRun:
    from repro.core.workloads import REGISTRY

    params = config.params.with_smt(2) if smt else config.params
    key = _cache_key("smt-member" if smt else "member", f"{group}:{member}",
                     replace(config, params=params))
    if use_cache and (hit := _cache_get(key)) is not None:
        return hit
    label = f"{group}:{member}"
    if smt:
        app = REGISTRY[group].app_cls(seed=config.seed, member=member)
        _attach_faults(app, config)
        half = config.window_uops // 2
        source = LiveSource(app, budgets=(half, half), label=label,
                            warm_uops=config.warm_uops)
        hierarchy = MemoryHierarchy(params)
        source.warm_into(hierarchy)
        core = Core(params, hierarchy)
        result = core.run(source.streams())
    else:
        trace_key = TraceKey.from_config(group, config, member=member)
        captured, app = trace_pipeline.materialize(trace_key,
                                                   use_store=use_cache)
        result = trace_pipeline.replay(captured, params)
    run = WorkloadRun(label, replace(config, params=params), result, app)
    if use_cache:
        _cache_put(key, run)
    return run


def metric_mean(runs: list[WorkloadRun], metric) -> float:
    """Average a per-run metric across group members."""
    values = [metric(run.result) for run in runs]
    return sum(values) / len(values) if values else 0.0


def metric_range(runs: list[WorkloadRun], metric) -> tuple[float, float]:
    """Min/max of a per-run metric (the Figure 3 range bars)."""
    values = [metric(run.result) for run in runs]
    return (min(values), max(values)) if values else (0.0, 0.0)


@dataclass
class ChipRun:
    """A multi-core measurement (the Figure 6 two-socket setup)."""

    name: str
    config: RunConfig
    chip: Chip
    result: ChipResult
    app: ServerApp

    @property
    def summed(self) -> CoreResult:
        return self.result.summed()


def run_workload_chip(
    name: str,
    config: RunConfig | None = None,
    num_cores: int = 4,
    segments: int = 8,
    use_cache: bool = True,
) -> ChipRun:
    """Run one app across ``num_cores`` cores of a shared-LLC chip,
    with threads split across two sockets (cores 0..n/2-1 on socket 0)."""
    from repro.core.workloads import REGISTRY

    config = config or RunConfig()
    key = _cache_key(f"chip{num_cores}x{segments}", name, config)
    if use_cache and (hit := _cache_get(key)) is not None:
        return hit  # type: ignore[return-value]
    spec = REGISTRY[name]
    if spec.multithreaded:
        # One server process: its threads share the dataset and kernel.
        apps = [build_app(name, seed=config.seed)] * num_cores
        tids = list(range(num_cores))
        _attach_faults(apps[0], config)
    else:
        # One independent process per core (SAT Solver, PARSEC, SPECint
        # run one instance per core, §3.2/§3.3): disjoint address spaces.
        from repro.machine.address_space import set_default_asid

        apps = []
        for i in range(num_cores):
            set_default_asid(i)
            apps.append(build_app(name, seed=config.seed + i))
            _attach_faults(apps[-1], config)
        set_default_asid(0)
        tids = [0] * num_cores
    from repro.trace.live import live_segments, warm_app

    chip = Chip(config.params, num_cores=num_cores)
    for core, app in zip(chip.cores, apps):
        warm_app(app, core.hierarchy,
                 trace_uops=max(2_000, config.warm_uops // 8))
    # Measurement starts now: forget who wrote what during warmup/setup.
    chip.directory.clear()
    chip.directory.stats.__init__()
    per_core_budget = config.window_uops // num_cores
    per_core_segments = [
        live_segments(app, tid, per_core_budget, segments)
        for app, tid in zip(apps, tids)
    ]
    result = chip.run_segments(per_core_segments)
    run = ChipRun(name, config, chip, result, apps[0])
    if use_cache:
        _cache_put(key, run)  # type: ignore[arg-type]
    return run
