from __future__ import annotations

import json
from dataclasses import replace

import pytest

from dinersim.cli import main
from dinersim.config_io import load_config, save_config
from dinersim.model import BackendConfig, paper_preset


@pytest.fixture()
def oracle_config_path(tmp_path):
    config = paper_preset(1, "6:1", seed=11, backend=BackendConfig(kind="oracle"))
    path = tmp_path / "config.json"
    save_config(config, path)
    return path


class TestSimulate:
    def test_happy_path_writes_three_files(self, oracle_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "simulate", "--config", str(oracle_config_path),
            "--backend", "oracle", "--out", str(out),
        ])
        assert code == 0
        for name in ("events.jsonl", "census.csv", "trend.svg"):
            assert (out / name).exists()
        assert "final census:" in capsys.readouterr().out

    def test_backend_decided_with_oracle_is_config_error(self, tmp_path, capsys):
        config = paper_preset(1, None, seed=1)
        path = tmp_path / "config.json"
        save_config(config, path)
        code = main([
            "simulate", "--config", str(path),
            "--backend", "oracle", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "backend" in capsys.readouterr().err.lower()

    def test_missing_config_path(self, tmp_path, capsys):
        code = main([
            "simulate", "--config", str(tmp_path / "absent.json"),
            "--backend", "oracle", "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_seed_override_changes_run(self, oracle_config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(oracle_config_path),
                     "--backend", "oracle", "--seed", "1", "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(oracle_config_path),
                     "--backend", "oracle", "--seed", "2", "--out", str(out_b)]) == 0
        assert (out_a / "events.jsonl").read_text() != (out_b / "events.jsonl").read_text()

    def test_non_finite_number_in_config_file_is_config_error(self, oracle_config_path, tmp_path, capsys):
        text = oracle_config_path.read_text().replace('"beta": 1.0', '"beta": NaN')
        assert "NaN" in text
        oracle_config_path.write_text(text)
        code = main([
            "simulate", "--config", str(oracle_config_path),
            "--backend", "oracle", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "imitation.beta" in capsys.readouterr().err

    def test_negative_repair_retries_is_config_error(self, oracle_config_path, tmp_path, capsys):
        config = load_config(oracle_config_path)
        save_config(replace(config, backend=replace(config.backend, repair_retries=-1)), oracle_config_path)
        code = main([
            "simulate", "--config", str(oracle_config_path),
            "--backend", "llm", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "backend.repair_retries" in capsys.readouterr().err

    def test_early_stop_flag_accepted(self, oracle_config_path, tmp_path):
        assert main(["simulate", "--config", str(oracle_config_path),
                     "--backend", "oracle", "--out", str(tmp_path / "out"),
                     "--early-stop"]) == 0

    def test_cli_is_a_thin_shell_over_the_library(self, oracle_config_path, tmp_path):
        from dinersim.backends.oracle import RuleOracle
        from dinersim.reporting import event_log_lines
        from dinersim.runner import run_simulation

        out = tmp_path / "out"
        assert main(["simulate", "--config", str(oracle_config_path),
                     "--backend", "oracle", "--out", str(out)]) == 0
        library_result = run_simulation(load_config(oracle_config_path), RuleOracle())
        library_log = "\n".join(event_log_lines(library_result)) + "\n"
        assert (out / "events.jsonl").read_text() == library_log


class TestPreset:
    def test_writes_loadable_config(self, tmp_path):
        path = tmp_path / "preset.json"
        assert main(["preset", "--combination", "2", "--punishment", "3:1",
                     "--seed", "9", "--backend", "oracle", "--out", str(path)]) == 0
        config = load_config(path)
        assert config.seed == 9
        assert config.punishment.p == 3.0

    def test_none_punishment_with_oracle_rejected(self, tmp_path, capsys):
        code = main(["preset", "--combination", "1", "--punishment", "none",
                     "--backend", "oracle", "--out", str(tmp_path / "preset.json")])
        assert code == 2


class TestReplicate:
    def test_five_runs_write_dirs_and_summary(self, tmp_path):
        out = tmp_path / "batch"
        code = main(["replicate", "--combination", "1", "--punishment", "6:1",
                     "--backend", "oracle", "--seeds", "5", "--out", str(out)])
        assert code == 0
        summary_lines = (out / "batch_summary.csv").read_text().splitlines()
        assert len(summary_lines) == 6  # header + 5 rows
        run_dirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(run_dirs) == 5
        for run_dir in run_dirs:
            assert (run_dir / "events.jsonl").exists()
        assert (out / "aggregate_stats.json").exists()

    def test_combination_two_initial_census_row(self, tmp_path):
        out = tmp_path / "batch"
        code = main(["replicate", "--combination", "2", "--punishment", "3:1",
                     "--backend", "oracle", "--seeds", "1", "--out", str(out)])
        assert code == 0
        run_dir = next(p for p in out.iterdir() if p.is_dir())
        first_row = (run_dir / "census.csv").read_text().splitlines()[1]
        assert first_row == "0,0.250000,0.250000,0.125000,0.375000"

    def test_none_punishment_with_oracle_rejected(self, tmp_path):
        code = main(["replicate", "--combination", "1", "--punishment", "none",
                     "--backend", "oracle", "--seeds", "2", "--out", str(tmp_path / "b")])
        assert code == 2

    def test_seed_list_file(self, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("3\n14\n159\n")
        out = tmp_path / "batch"
        code = main(["replicate", "--combination", "1", "--punishment", "6:1",
                     "--backend", "oracle", "--seed-list", str(seeds), "--out", str(out)])
        assert code == 0
        rows = (out / "batch_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["3", "14", "159"]


class TestEvalBackend:
    def test_oracle_reports_perfect_accuracy(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["eval-backend", "--backend", "oracle", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["accuracy"] == 1.0
        assert all(cell["accuracy"] == 1.0 for cell in report["by_kind"].values())
        assert "100.0%" in capsys.readouterr().out

    def test_suite_roundtrip_via_flags(self, tmp_path):
        suite_path = tmp_path / "suite.json"
        report_path = tmp_path / "report.json"
        assert main(["eval-backend", "--backend", "oracle", "--out", str(report_path),
                     "--save-suite", str(suite_path)]) == 0
        assert suite_path.exists()
        assert main(["eval-backend", "--backend", "oracle", "--out", str(report_path),
                     "--suite", str(suite_path)]) == 0

    @pytest.mark.parametrize("text", ["[{\"scenario_id\": \"x\", \"extra\": 1}]", "not json"])
    def test_malformed_suite_is_config_error(self, tmp_path, text):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(text)
        code = main(["eval-backend", "--backend", "oracle", "--out", str(tmp_path / "r.json"),
                     "--suite", str(suite_path)])
        assert code == 2

    def test_every_scenario_rejected_by_transport_is_backend_failure(self, tmp_path, monkeypatch):
        from dinersim.backends.accuracy import build_scenario_suite
        from llm_fixture import FixtureServer

        with FixtureServer(mode="oracle") as server:
            server.fail_next([401] * len(build_scenario_suite()))
            monkeypatch.setenv("LLM_BASE_URL", server.base_url)
            monkeypatch.setenv("LLM_MODEL", "fixture-model")
            code = main(["eval-backend", "--backend", "llm", "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "HTTP 401" in json.loads((tmp_path / "r.json").read_text())["failures"][0]

    def test_config_backend_settings_reach_the_backend(self, tmp_path, monkeypatch):
        from llm_fixture import FixtureServer

        settings = BackendConfig(kind="llm", repair_retries=0, backoff_base=0.001, timeout=5.0)
        config_path = tmp_path / "config.json"
        save_config(paper_preset(1, "6:1", seed=1, backend=settings), config_path)
        with FixtureServer(mode="garbage") as server:
            monkeypatch.setenv("LLM_BASE_URL", server.base_url)
            monkeypatch.setenv("LLM_MODEL", "fixture-model")
            code = main(["eval-backend", "--backend", "llm", "--config", str(config_path),
                         "--out", str(tmp_path / "r.json")])
            sent = len(server.requests)
        report = json.loads((tmp_path / "r.json").read_text())
        assert code == 0
        assert (report["total"], report["matched"], len(report["failures"])) == (60, 0, 60)
        assert sent == 60  # one request per scenario; the default two repairs would send 180

    def test_invalid_config_is_config_error(self, oracle_config_path, tmp_path):
        config = load_config(oracle_config_path)
        save_config(replace(config, backend=replace(config.backend, max_concurrency=0)), oracle_config_path)
        code = main(["eval-backend", "--backend", "oracle", "--config", str(oracle_config_path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert not (tmp_path / "r.json").exists()

    def test_llm_without_endpoint_is_backend_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("LLM_BASE_URL", raising=False)
        monkeypatch.delenv("LLM_MODEL", raising=False)
        code = main(["eval-backend", "--backend", "llm", "--out", str(tmp_path / "r.json")])
        assert code == 3


class TestReport:
    def test_rebuilds_outputs_from_log(self, oracle_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(oracle_config_path),
                     "--backend", "oracle", "--out", str(out)]) == 0
        rebuilt = tmp_path / "rebuilt"
        assert main(["report", "--log", str(out / "events.jsonl"),
                     "--out", str(rebuilt)]) == 0
        assert (rebuilt / "census.csv").read_text() == (out / "census.csv").read_text()
        assert (rebuilt / "trend.svg").read_text() == (out / "trend.svg").read_text()

    def test_missing_log_is_io_error(self, tmp_path):
        code = main(["report", "--log", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "rebuilt")])
        assert code == 1


class TestParser:
    def test_help_available_everywhere(self, capsys):
        for args in (["--help"], ["simulate", "--help"], ["preset", "--help"],
                     ["replicate", "--help"], ["eval-backend", "--help"], ["report", "--help"]):
            with pytest.raises(SystemExit) as exc_info:
                main(args)
            assert exc_info.value.code == 0
            assert capsys.readouterr().out

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--nonsense"])
        assert exc_info.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2
