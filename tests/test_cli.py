"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main
from repro.scenarios import scenario_names


class TestRun:
    def test_table1(self, capsys):
        assert main(["scenario", "run", "table1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "hard" in out

    def test_table2_quick_uses_advertised_values(self, capsys):
        assert main(["scenario", "run", "table2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "CONTROL" in out and "1048575" in out

    def test_table4(self, capsys):
        assert main(["scenario", "run", "table4", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Round_no" in out
        assert "k=0.5" in out

    @pytest.mark.slow
    def test_fig9_quick(self, capsys):
        assert main(["scenario", "run", "fig9", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "emf" in out and "titfortat" in out

    def test_sweep_runs_grid(self, capsys):
        assert main([
            "sweep",
            "--schemes", "titfortat,elastic0.5",
            "--ratios", "0.1,0.4",
            "--reps", "2",
            "--rounds", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "8 games" in out
        assert "titfortat" in out and "elastic0.5" in out
        assert "0.4" in out

    @pytest.mark.slow
    def test_sweep_workers_output_matches_serial(self, capsys):
        argv = [
            "sweep",
            "--schemes", "titfortat",
            "--ratios", "0.2",
            "--reps", "2",
            "--rounds", "3",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out.replace("workers=1", "workers=*")
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out.replace("workers=2", "workers=*")
        assert serial == parallel

    def test_sweep_rejects_bad_ratio_list(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--ratios", "abc"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--schemes", "bogus"],
            ["sweep", "--datasets", "bogus"],
            ["sweep", "--workers", "0"],
        ],
    )
    def test_sweep_reports_input_errors_cleanly(self, argv, capsys):
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("repro sweep: error:")

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestScenarioCLI:
    def test_scenario_list_names_everything(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_then_warm_run_byte_identical_zero_games(self, tmp_path, capsys):
        argv = ["scenario", "run", "table4", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "0 loaded from store" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "0 played" in warm.err

    def test_run_report_round_trip(self, tmp_path, capsys):
        assert main(
            ["scenario", "run", "table4", "--cache-dir", str(tmp_path)]
        ) == 0
        run_out = capsys.readouterr().out
        assert main(
            ["scenario", "report", "table4", "--cache-dir", str(tmp_path)]
        ) == 0
        report_out = capsys.readouterr().out
        assert report_out == run_out

    def test_stats_json_reports_cache_behaviour(self, tmp_path, capsys):
        import json

        cache = tmp_path / "cache"
        cold_path = tmp_path / "cold.json"
        warm_path = tmp_path / "warm.json"
        argv = ["scenario", "run", "table4", "--cache-dir", str(cache)]
        assert main(argv + ["--stats-json", str(cold_path)]) == 0
        assert main(argv + ["--stats-json", str(warm_path)]) == 0
        capsys.readouterr()

        cold = json.loads(cold_path.read_text())
        warm = json.loads(warm_path.read_text())
        assert cold["format"] == 1
        (cold_entry,) = cold["scenarios"]
        (warm_entry,) = warm["scenarios"]
        assert cold_entry["scenario"] == "table4"
        assert cold_entry["played"] == cold_entry["total"] > 0
        assert cold_entry["cached"] == 0
        assert warm_entry["played"] == 0
        assert warm_entry["cached"] == warm_entry["total"]
        assert warm_entry["seconds"] >= 0.0
        assert warm["total_seconds"] >= 0.0

    def test_stats_json_works_without_store(self, tmp_path, capsys):
        import json

        path = tmp_path / "stats.json"
        assert main(
            [
                "scenario", "run", "table4", "--no-cache",
                "--stats-json", str(path),
            ]
        ) == 0
        capsys.readouterr()
        (entry,) = json.loads(path.read_text())["scenarios"]
        assert entry["played"] == entry["total"] > 0
        assert entry["cached"] == 0

    def test_report_before_run_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["scenario", "report", "table4", "--cache-dir", str(tmp_path)]
        ) == 2
        assert "no stored run" in capsys.readouterr().out

    def test_no_cache_runs_without_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "run", "table4", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "Table IV" in captured.out
        assert captured.err == ""  # no store, no stats line
        assert not (tmp_path / ".repro-cache").exists()

    def test_resume_with_no_cache_is_an_error(self, tmp_path, capsys):
        assert main(
            ["scenario", "run", "table4", "--no-cache", "--resume"]
        ) == 2
        assert "contradictory" in capsys.readouterr().out

    def test_param_override(self, tmp_path, capsys):
        assert main(
            [
                "scenario", "run", "table3",
                "--cache-dir", str(tmp_path),
                "--param", "repetitions=1",
                "-p", "p_values=0.0,1.0",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_param_with_all_rejected_up_front(self, tmp_path, capsys):
        assert main(
            [
                "scenario", "run", "all",
                "--cache-dir", str(tmp_path),
                "--param", "repetitions=1",
            ]
        ) == 2
        out = capsys.readouterr().out
        assert "cannot be combined with 'all'" in out
        assert "Table" not in out  # nothing ran before the rejection

    def test_bad_param_fails_cleanly(self, tmp_path, capsys):
        assert main(
            [
                "scenario", "run", "table4",
                "--cache-dir", str(tmp_path),
                "--param", "bogus=1",
            ]
        ) == 2
        assert "error" in capsys.readouterr().out

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["scenario", "run", "fig99", "--cache-dir", str(tmp_path)]
        ) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_cache_dir_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main(["scenario", "run", "table4"]) == 0
        capsys.readouterr()
        assert (tmp_path / "env-cache" / "manifests" / "table4.json").exists()
