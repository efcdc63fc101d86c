"""Figure 8 (extension): healthy vs. degraded-mode characterization."""

from benchmarks.conftest import emit
from repro.core.experiments import figure8_faults


def test_figure8_degraded_modes(benchmark, harness_config, results_dir):
    table = benchmark.pedantic(
        figure8_faults.run,
        args=(harness_config,),
        rounds=1, iterations=1,
    )
    emit(results_dir, "figure8", table)

    # Degraded operation executes real extra error-handling code: the
    # L1-I instruction-miss rate must rise for every serving workload
    # (the paper's Figure 2 footprint argument, extended to faults).
    for workload in ("Data Serving", "MapReduce", "Media Streaming",
                     "Web Search"):
        assert figure8_faults.mpki_delta(table, workload) > 0.0, workload

    # Clients ride through the faults: retries happen, yet goodput
    # loss stays bounded for every degraded row.
    degraded = [row for row in table.rows if row["Mode"] == "degraded"]
    assert all(float(row["Goodput"]) >= 0.9 for row in degraded)
    assert sum(float(row["Retry rate"]) for row in degraded) > 0.0
    assert all(int(row["Faults"]) > 0 for row in degraded)
