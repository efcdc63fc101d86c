"""The CLI entry point and experiment-module smoke tests."""

import pytest

import repro.__main__
from repro.__main__ import _parse_config, main
from repro.core import paper
from repro.core.experiments import ablations, table1
from repro.core.report import ExperimentTable
from repro.core.runner import RunConfig


class TestCliParsing:
    def test_defaults(self):
        args, config, options = _parse_config(["figure1"])
        assert args == ["figure1"]
        assert config.window_uops == 80_000
        assert config.warm_uops == 80_000 // 3
        assert not options.bars
        assert options.jobs == 1
        assert not options.no_cache

    def test_window_and_warm_flags(self):
        args, config, options = _parse_config(
            ["run", "tpc-c", "--window", "5000",
             "--warm", "1000", "--bars"])
        assert args == ["run", "tpc-c"]
        assert config.window_uops == 5000
        assert config.warm_uops == 1000
        assert options.bars

    def test_seed_and_fresh_flags(self):
        args, config, _options = _parse_config(["faults", "--seed", "11"])
        assert args == ["faults"]
        assert config.seed == 11
        # --fresh is gone: faults discards a stale journal unless
        # --resume, like every other sweep.
        with pytest.raises(SystemExit) as exc:
            _parse_config(["faults", "--fresh"])
        assert exc.value.code == 2

    def test_jobs_and_no_cache_flags(self):
        args, _config, options = _parse_config(
            ["figure4", "--jobs", "4", "--no-cache"])
        assert args == ["figure4"]
        assert options.jobs == 4
        assert options.no_cache

    def test_supervision_flags(self):
        args, _config, options = _parse_config(
            ["figure4", "--timeout", "2.5", "--retries", "0", "--resume"])
        assert args == ["figure4"]
        assert options.timeout == 2.5
        assert options.retries == 0
        assert options.resume

    def test_supervision_defaults(self):
        _args, _config, options = _parse_config(["figure4"])
        assert options.timeout is None
        assert options.retries == 2
        assert not options.resume
        assert not options.check

    @pytest.mark.parametrize("argv", [
        ["figure1", "--window"],            # missing value
        ["figure1", "--window", "abc"],     # non-integer value
        ["figure1", "--warm"],
        ["figure1", "--warm", "2.5"],
        ["figure1", "--seed", "x"],
        ["figure4", "--jobs"],
        ["figure4", "--jobs", "two"],
        ["figure4", "--jobs", "0"],         # must be >= 1
        ["figure4", "--timeout"],           # missing value
        ["figure4", "--timeout", "soon"],   # non-numeric value
        ["figure4", "--timeout", "0"],      # must be positive
        ["figure4", "--timeout", "-3"],
        ["figure4", "--retries", "-1"],     # must be >= 0
        ["figure4", "--retries", "1.5"],
        ["--bogus"],                        # unknown flag
        ["-x", "figure1"],
        ["all", "--out"],                   # missing path
    ])
    def test_malformed_flags_exit_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse_config(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestCliCommands:
    def test_help(self, capsys):
        assert main(["help"]) == 0
        assert "figure1" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "data-serving" in out
        assert "tpc-e" in out

    def test_unknown_command(self, capsys):
        assert main(["figure99"]) == 2

    def test_run_requires_workload(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_workload(self, capsys):
        assert main(["run", "sat-solver", "--window", "6000"]) == 0
        out = capsys.readouterr().out
        assert "IPC=" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        assert "Reorder buffer" in capsys.readouterr().out

    def test_faults_rejects_unknown_workload(self, capsys):
        assert main(["faults", "no-such-workload"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_run_rejects_unknown_workload(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "no-such-workload"])
        assert exc.value.code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_trace_rejects_unknown_workload(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "no-such-workload"])
        assert exc.value.code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_trace_rejects_non_integer_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "sat-solver", "abc"])
        assert exc.value.code == 2
        assert "trace count" in capsys.readouterr().err

    def test_trace_accepts_integer_count(self, capsys):
        assert main(["trace", "sat-solver", "5"]) == 0
        assert capsys.readouterr().out

    def test_cache_stats_and_clear(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_cache_rejects_unknown_action(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["cache", "prune"])
        assert exc.value.code == 2
        assert "unknown cache action" in capsys.readouterr().err

    def test_malformed_flag_exits_via_main(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure1", "--window", "many"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["-h"],
        ["--help"],
        ["list", "--help"],
        ["verify", "--help"],
        ["all", "-h", "--out", "never-written"],
        ["figure1", "--window", "many", "--help"],
        ["--jobs", "2", "faults", "-h"],
    ])
    def test_help_anywhere_prints_usage_and_runs_nothing(
            self, argv, monkeypatch, capsys):
        monkeypatch.setattr(repro.__main__, "_build_engine",
                            lambda options: pytest.fail("a command ran"))
        assert main(argv) == 0
        assert capsys.readouterr().out == repro.__main__.__doc__ + "\n"

    @pytest.mark.parametrize("second_holds, status", [(True, 0), (False, 1)])
    def test_all_writes_every_table_and_the_claim_report(
            self, second_holds, status, monkeypatch, tmp_path):
        """``all --out`` over a two-table registry: both tables built on
        one engine at their own scales, every file written, and the
        exit status set by the claims."""
        built = []

        def table(config, engine=None):
            built.append((config.window_uops, engine))
            result = ExperimentTable(f"Table {len(built)}.", ["Value"])
            result.add_row(Value=1.0)
            return result

        monkeypatch.setattr(paper, "TABLES", {"first": (table, 1),
                                              "second": (table, 0.5)})
        monkeypatch.setattr(paper, "CLAIMS", [
            paper.Claim("first", "first holds", lambda tables: True),
            paper.Claim("second", "second holds",
                        lambda tables: second_holds),
            paper.Claim("absent", "never built", lambda tables: False),
        ])
        out = tmp_path / "results"
        assert main(["all", "--out", str(out), "--window", "8000"]) == status
        assert sorted(path.name for path in out.iterdir()) == [
            "first.txt", "second.txt", "verification.txt"]
        assert (out / "second.txt").read_text().startswith("Table 2.\n")
        report = (out / "verification.txt").read_text()
        assert "second holds" in report and "never built" not in report
        assert ("NO" in report) == (not second_holds)
        assert [window for window, _engine in built] == [8000, 4000]
        assert built[0][1] is built[1][1] is not None


class TestDoctorCommand:
    @staticmethod
    def _seed_store(tmp_path, monkeypatch, poison=False):
        import json

        from repro.core.runner import run_workload
        from repro.core.store import ResultStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = ResultStore()
        run = run_workload("sat-solver",
                           RunConfig(window_uops=6_000, warm_uops=2_000))
        store.put("a" * 64, [run])
        if poison:
            path = store.path_for("a" * 64)
            document = json.loads(path.read_text())
            document["runs"][0]["result"]["llc_misses"] = -9
            path.write_text(json.dumps(document))
        return store

    def test_doctor_clean_store_exits_zero(self, tmp_path, monkeypatch,
                                           capsys):
        self._seed_store(tmp_path, monkeypatch)
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "healthy:   1" in out

    def test_doctor_quarantines_and_exits_one(self, tmp_path, monkeypatch,
                                              capsys):
        store = self._seed_store(tmp_path, monkeypatch, poison=True)
        assert main(["doctor"]) == 1
        out = capsys.readouterr().out
        assert "quarantined: 1" in out
        assert "negative" in out
        assert not store.path_for("a" * 64).exists()
        assert (store.corrupt_directory / f"{'a' * 64}.json").exists()

    def test_doctor_check_mode_leaves_the_store_alone(
            self, tmp_path, monkeypatch, capsys):
        store = self._seed_store(tmp_path, monkeypatch, poison=True)
        assert main(["doctor", "--check"]) == 1
        out = capsys.readouterr().out
        assert "defective: 1" in out
        assert store.path_for("a" * 64).exists()


class TestExperimentRegistry:
    def test_every_figure_registered(self):
        scales = {name: scale for name, (_run, scale) in paper.TABLES.items()}
        assert scales == {
            "table1": 1, **{f"figure{i}": 1 for i in range(1, 10)},
            "figure4": 0.6, "figure6": 1.5,
            "ablation_narrow_cores": 0.75, "ablation_window_size": 0.75,
            "ablation_llc_latency": 0.75, "ablation_instruction_fetch": 0.75,
            "ablation_core_aggressiveness": 0.6,
        }

    def test_every_module_has_run(self):
        import inspect

        for name, (run, _scale) in paper.TABLES.items():
            assert "engine" in inspect.signature(run).parameters, name

    def test_build_at_scale_one_keeps_the_config(self, monkeypatch):
        """``scaled(1)`` would lift a tiny window to its floors."""
        monkeypatch.setattr(paper, "TABLES", {
            "t": (lambda config, engine=None: config, 1)})
        config = RunConfig(window_uops=1_000, warm_uops=300)
        assert paper.build("t", config) is config


class TestExperimentSmoke:
    """Cheap experiments run end-to-end at a tiny window."""

    def test_table1(self, tiny_config):
        table = table1.run(tiny_config)
        assert len(table.rows) == 10
        values = {row["Parameter"]: row["Value"] for row in table.rows}
        assert values["Core width"] == "4-wide issue and retire"
        assert values["Reorder buffer"] == "128 entries"
        assert "12MB" in values["LLC (L3 cache)"]
        assert any("self-check passed" in note for note in table.notes)

    def test_figure2_rows_cover_the_suite(self, tiny_config):
        from repro.core.experiments import figure2

        table = figure2.run(tiny_config)
        assert len(table.rows) == 14
        for row in table.rows:
            assert float(row["L1-I (App)"]) >= 0.0
            assert float(row["L1-I (OS)"]) >= 0.0

    def test_figure7_rows_cover_the_suite(self, tiny_config):
        from repro.core.experiments import figure7

        table = figure7.run(tiny_config)
        assert len(table.rows) == 14
        for row in table.rows:
            assert 0.0 <= float(row["Application"]) + float(row["OS"]) <= 1.2


class TestAblationSmoke:
    def test_window_size_table_shape(self, tiny_config):
        table = ablations.window_size(
            tiny_config, rob_sizes=(32, 128), workloads=["sat-solver"]
        )
        row = table.rows[0]
        assert "ROB 32" in row and "ROB 128" in row

    def test_llc_latency_table_shape(self, tiny_config):
        table = ablations.llc_latency(tiny_config, workloads=["mapreduce"])
        assert float(table.rows[0]["Speedup"]) > 0.0


class TestCliTrace:
    def test_trace_command_prints_summary(self, capsys):
        assert main(["trace", "sat-solver", "100"]) == 0
        out = capsys.readouterr().out
        assert "# workload=sat-solver" in out
        assert "memory_fraction=" in out

    def test_trace_requires_workload(self, capsys):
        assert main(["trace"]) == 2
