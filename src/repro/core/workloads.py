"""The workload registry: CloudSuite (§3.2) + traditional (§3.3).

Names, display order, and grouping follow the paper's figures: the six
scale-out workloads on the left, the traditional benchmarks on the
right.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import ServerApp
from repro.apps.kvstore import DataServingApp
from repro.apps.mapreduce import MapReduceApp
from repro.apps.oltp import TpccApp, TpceApp
from repro.apps.satsolver import SatSolverApp
from repro.apps.specweb import SpecWebApp
from repro.apps.streaming import MediaStreamingApp
from repro.apps.synth import (
    McfApp,
    ParsecCpuApp,
    ParsecMemApp,
    SpecIntCpuApp,
    SpecIntMemApp,
)
from repro.apps.webbackend import WebBackendApp
from repro.apps.websearch import WebSearchApp
from repro.apps.webstack import WebFrontendApp


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry for one benchmark configuration."""

    name: str
    display_name: str
    app_cls: type[ServerApp]  # built as ``app_cls(seed=...)``
    group: str  # 'scale-out', 'desktop', 'parallel', 'web', 'oltp'
    multithreaded: bool = True  # server apps share one instance per chip


SCALE_OUT: list[WorkloadSpec] = [
    WorkloadSpec("data-serving", "Data Serving", DataServingApp, "scale-out"),
    WorkloadSpec("mapreduce", "MapReduce", MapReduceApp, "scale-out"),
    WorkloadSpec("media-streaming", "Media Streaming", MediaStreamingApp, "scale-out"),
    WorkloadSpec("sat-solver", "SAT Solver", SatSolverApp, "scale-out",
                 multithreaded=False),
    WorkloadSpec("web-frontend", "Web Frontend", WebFrontendApp, "scale-out"),
    WorkloadSpec("web-search", "Web Search", WebSearchApp, "scale-out"),
]

TRADITIONAL: list[WorkloadSpec] = [
    WorkloadSpec("parsec-cpu", "PARSEC (cpu)", ParsecCpuApp, "parallel",
                 multithreaded=False),
    WorkloadSpec("parsec-mem", "PARSEC (mem)", ParsecMemApp, "parallel",
                 multithreaded=False),
    WorkloadSpec("specint-cpu", "SPECint (cpu)", SpecIntCpuApp, "desktop",
                 multithreaded=False),
    WorkloadSpec("specint-mem", "SPECint (mem)", SpecIntMemApp, "desktop",
                 multithreaded=False),
    WorkloadSpec("specweb09", "SPECweb09", SpecWebApp, "web"),
    WorkloadSpec("tpc-c", "TPC-C", TpccApp, "oltp"),
    WorkloadSpec("tpc-e", "TPC-E", TpceApp, "oltp"),
    WorkloadSpec("web-backend", "Web Backend", WebBackendApp, "oltp"),
]

#: The mcf reference used by Figure 4 (not part of the 14 suite bars).
MCF = WorkloadSpec("specint-mcf", "SPECint (mcf)", McfApp, "desktop",
                   multithreaded=False)

ALL_WORKLOADS: list[WorkloadSpec] = SCALE_OUT + TRADITIONAL

REGISTRY: dict[str, WorkloadSpec] = {
    spec.name: spec for spec in ALL_WORKLOADS + [MCF]
}

#: The workloads the paper averages as "Server" in Figure 4.
SERVER_GROUP = ["tpc-c", "tpc-e", "web-backend"]


def build_app(name: str, seed: int = 0) -> ServerApp:
    """Instantiate a registered workload application."""
    spec = REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown workload {name!r}; known: {known}")
    return spec.app_cls(seed=seed)


def workload_names(include_mcf: bool = False) -> list[str]:
    """The registered workload names in the figures' display order."""
    names = [spec.name for spec in ALL_WORKLOADS]
    if include_mcf:
        names.append(MCF.name)
    return names
