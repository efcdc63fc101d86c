"""The result-validation layer: physical invariants, loud failures."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.runner import RunConfig, run_workload
from repro.core.validate import (
    ValidationError,
    check_fault_row,
    check_result,
    validate_fault_rows,
    validate_result,
    validate_runs,
)
from repro.uarch.params import MachineParams

WEE = RunConfig(window_uops=6_000, warm_uops=2_000)


@pytest.fixture(scope="module")
def healthy():
    return run_workload("sat-solver", WEE)


class TestHealthyResults:
    def test_real_run_has_no_violations(self, healthy):
        assert check_result(healthy.result, healthy.config.params) == []

    def test_validate_result_passes_silently(self, healthy):
        validate_result(healthy.result, healthy.config.params)

    def test_validate_runs_passes_a_run_list(self, healthy):
        validate_runs([healthy, healthy])


class TestViolations:
    """Each mutation must be caught and named in the diagnostic."""

    @pytest.mark.parametrize("mutation,needle", [
        (dict(cycles=0), "cycles"),
        (dict(instructions=0), "instructions"),
        (dict(llc_misses=-4), "negative"),
        (dict(mlp=float("nan")), "NaN"),
        (dict(branches=0), "branch_mispredicts"),
        (dict(memory_cycles=10 ** 12), "memory_cycles"),
        (dict(os_instructions=10 ** 12), "os_instructions"),
        (dict(offchip_bytes_os=10 ** 15), "offchip_bytes_os"),
        (dict(l2_demand_hits=10 ** 12), "l2_demand_hits"),
        (dict(l2i_misses=10 ** 12), "l2i_misses"),
        (dict(loads=10 ** 12), "loads"),
        (dict(per_thread_instructions=[100, -1]), "per_thread"),
    ])
    def test_mutation_is_caught(self, healthy, mutation, needle):
        broken = dataclasses.replace(healthy.result, **mutation)
        violations = check_result(broken, healthy.config.params)
        assert violations, mutation
        assert any(needle in v for v in violations), violations

    def test_partition_must_be_exact(self, healthy):
        broken = dataclasses.replace(
            healthy.result, committing_cycles=healthy.result.cycles,
            stalled_cycles=healthy.result.cycles)
        violations = check_result(broken)
        assert any("committing + stalled" in v for v in violations)

    def test_ipc_bounded_by_issue_width(self, healthy):
        r = healthy.result
        broken = dataclasses.replace(
            r, instructions=r.cycles * healthy.config.params.width + 1,
            loads=0, stores=0, os_instructions=0)
        violations = check_result(broken, healthy.config.params)
        assert any("issue-width" in v for v in violations)

    def test_mlp_bounded_by_superqueue(self, healthy):
        broken = dataclasses.replace(
            healthy.result,
            mlp=float(healthy.config.params.mshr_entries + 1))
        violations = check_result(broken, healthy.config.params)
        assert any("super-queue" in v for v in violations)

    def test_machine_bounds_need_params(self, healthy):
        broken = dataclasses.replace(
            healthy.result,
            mlp=float(healthy.config.params.mshr_entries + 1))
        assert check_result(broken) == []  # no params, no width/MLP bound

    def test_smt_widens_the_ipc_bound(self):
        params = MachineParams().with_smt(2)
        run = run_workload("sat-solver", WEE)
        near_double = dataclasses.replace(
            run.result,
            instructions=run.result.cycles * params.width * 2,
            loads=0, stores=0, os_instructions=0,
            branch_mispredicts=0, branches=0,
            l1i_misses=run.result.l1i_misses)
        violations = [v for v in check_result(near_double, params)
                      if "issue-width" in v]
        assert violations == []


class TestValidationError:
    def test_carries_context_and_violations(self, healthy):
        broken = dataclasses.replace(healthy.result, cycles=0,
                                     committing_cycles=0, stalled_cycles=0)
        with pytest.raises(ValidationError) as exc:
            validate_result(broken, context="cell single:sat-solver")
        assert "cell single:sat-solver" in str(exc.value)
        assert exc.value.violations
        assert exc.value.context == "cell single:sat-solver"

    def test_validate_runs_names_the_offending_run(self, healthy):
        broken = dataclasses.replace(healthy, result=dataclasses.replace(
            healthy.result, llc_misses=-1))
        with pytest.raises(ValidationError) as exc:
            validate_runs([healthy, broken], context="sweep")
        assert "sat-solver" in str(exc.value)

    def test_is_a_value_error(self):
        assert issubclass(ValidationError, ValueError)


#: A plausible Figure 8 row (the data-serving degraded row at 8k uops).
ROW = {"ipc": 0.294, "l1i_mpki": 57.26, "l2i_mpki": 27.8, "code_kb": 2036.0,
       "goodput": 1.0, "retry_rate": 0.286, "p99": 6404, "faults_fired": 3}


class TestFaultRows:
    def test_plausible_row_passes(self):
        assert check_fault_row(dict(ROW)) == []
        validate_fault_rows([dict(ROW)], context="cell x")

    @pytest.mark.parametrize("edit, fragment", [
        ({"ipc": float("nan")}, "ipc is not a finite number"),
        ({"l1i_mpki": float("inf")}, "l1i_mpki is not a finite number"),
        ({"retry_rate": True}, "retry_rate is not a finite number"),
        ({"code_kb": "1428"}, "code_kb is not a finite number"),
        ({"ipc": 0.0}, "ipc must be positive"),
        ({"goodput": 3.0}, "goodput must be in [0, 1]"),
        ({"p99": -1}, "p99 must be a non-negative integer"),
        ({"faults_fired": 2.5}, "faults_fired must be a non-negative"),
    ])
    def test_each_invariant_is_checked(self, edit, fragment):
        violations = check_fault_row(dict(ROW, **edit))
        assert any(fragment in violation for violation in violations)

    def test_missing_field_and_non_object_rows(self):
        row = dict(ROW)
        del row["p99"]
        assert check_fault_row(row) == ["p99 is not a finite number: None"]
        assert check_fault_row([1]) == ["row is not an object: [1]"]

    def test_validate_names_the_row_and_context(self):
        with pytest.raises(ValidationError, match="cell x: row 1"):
            validate_fault_rows([dict(ROW), dict(ROW, ipc=-7.5)],
                                context="cell x")
