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

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_two(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc_info:
            main(["replicate", "--combination", "1", "--punishment", "3:1", "--backend", "oracle",
                  "--seeds", "2", "--out", str(tmp_path / "batch"), "--jobs", jobs])
        assert exc_info.value.code == 2
        assert "--jobs: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "batch").exists()

    def test_seed_list_file(self, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("3\n14\n159\n")
        out = tmp_path / "batch"
        code = main(["replicate", "--combination", "1", "--punishment", "6:1",
                     "--backend", "oracle", "--seed-list", str(seeds), "--out", str(out)])
        assert code == 0
        rows = (out / "batch_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["3", "14", "159"]

    @pytest.mark.parametrize("content, problem", [
        (b"3\nabc\n", "line 2: 'abc' is not an integer"),
        (b"3\n14\n-5\n", "line 3: seed -5 must fit"),
        (b"3\n\xff\n", "not UTF-8 text"),
    ])
    def test_bad_seed_list_runs_nothing(self, tmp_path, capsys, content, problem):
        seeds = tmp_path / "seeds.txt"
        seeds.write_bytes(content)
        out = tmp_path / "batch"
        code = main(["replicate", "--combination", "1", "--punishment", "6:1",
                     "--backend", "oracle", "--seed-list", str(seeds), "--out", str(out)])
        assert code == 2
        assert problem in capsys.readouterr().err
        assert not any(path.is_dir() for path in out.glob("*"))


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


def orders_line(group: str, *agents: str) -> bytes:
    return json.dumps({
        "kind": "orders", "iteration": 1, "group": group, "location": "l",
        "choices": {a: "budget" for a in agents}, "bill_total": 1.0,
        "meal_payoffs": {a: 0.5 for a in agents},
    }).encode() + b"\n"


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

    def test_options_do_not_leak_into_the_next_call(self, oracle_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(oracle_config_path),
                     "--backend", "oracle", "--out", str(out)]) == 0
        log = str(out / "events.jsonl")
        assert main(["report", "--log", log, "--out", str(tmp_path / "titled"), "--title", "X"]) == 0
        assert main(["report", "--log", log, "--out", str(tmp_path / "default")]) == 0
        assert ">X</text>" in (tmp_path / "titled" / "trend.svg").read_text()
        assert (tmp_path / "default" / "trend.svg").read_text() == (out / "trend.svg").read_text()

    HEADER = json.dumps({"kind": "header", "schema": 1, "run_id": "r", "initial_census": {"M": 1}})
    SCOLD = (b'{"kind": "punishment", "iteration": 1, "punisher": "a1", "target": "%s", '
             b'"level": "defection", "cost_to_punisher": 1.0, "cost_to_target": 6.0}\n')

    UTILITIES = b'{"kind": "utilities", "iteration": 1, "values": {"a1": 0.5}}\n'
    CENSUS = b'{"kind": "census", "iteration": 1, "counts": {"M": 1, "P": 0, "E": 0, "R1": 0}}\n'
    IMITATE = (b'{"kind": "imitation", "iteration": 1, "focal": "a1", "role_model": "a1", '
               b'"payoff_diff": 0.0, "probability": 0.5, "uniform_draw": 0.5, "adopted": false}\n')
    # A header saying three iterations ran, and the lines of iterations 1-3.
    RAN_3 = HEADER.replace('"run_id": "r"', '"run_id": "r", "iterations_executed": 3').encode() + b"\n"
    ITERATION_1 = orders_line("g1", "a1") + UTILITIES + CENSUS
    ITERATION_2 = ITERATION_1.replace(b'"iteration": 1', b'"iteration": 2')
    ITERATION_3 = ITERATION_1.replace(b'"iteration": 1', b'"iteration": 3')

    @pytest.mark.parametrize("content, where, problem", [
        (b"", "line 1", "empty file"),
        (HEADER.encode() + b"\n{not json\n", "line 2", "not JSON"),
        (HEADER.replace('"schema": 1', '"schema": 9').encode(), "line 1", "schema 9"),
        (HEADER.encode() + b'\n{"kind": "orders", "group": "g1"}\n', "line 2", "missing key 'iteration'"),
        (HEADER.encode() + b'\n{"kind": "dessert", "iteration": 1}\n', "line 2", "unknown event kind 'dessert'"),
        (HEADER.encode() + b"\n\xff\xfe\n", "line 2", "not UTF-8"),
        (HEADER.replace('"M": 1', '"M": "x"').encode(), "line 1", "census counts"),
        (HEADER.encode() + b'\n{"kind": "orders", "iteration": 1, "group": "g1", "location": "l", '
         b'"choices": {"a1": "budget"}, "bill_total": 1.0, "meal_payoffs": {"a1": 0.5}}\n',
         "line 2", "iteration 1 has no census line"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a2") + SCOLD % b"a2",
         "line 3", "punisher 'a1' and target 'a2' did not order in one group of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + orders_line("g2", "a2") + SCOLD % b"a2",
         "line 4", "punisher 'a1' and target 'a2' did not order in one group of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + orders_line("g2", "a2", "a1"),
         "line 3", "agent 'a1' orders in two groups of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1", "a2")
         + b'{"kind": "utilities", "iteration": 1, "values": {"a1": 0.5}}\n',
         "line 3", "utilities keys differ from the orders of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1")
         + b'{"kind": "utilities", "iteration": 1, "values": {"a1": 0.5}}\n' + orders_line("g2", "a2"),
         "line 4", "orders after the utilities line of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1", "a2") + orders_line("g2", "a3", "a4")
         + SCOLD.replace(b'"a1"', b'"a3"') % b"a4" + SCOLD % b"a2",
         "line 5", "punishment in group 'g1' after one in group 'g2' of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + CENSUS,
         "line 3", "census before the utilities line of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + UTILITIES + UTILITIES,
         "line 4", "second utilities line of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + IMITATE + UTILITIES + CENSUS,
         "line 3", "imitation before the utilities line of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + UTILITIES + CENSUS + CENSUS,
         "line 5", "census line of iteration 1 after the census line of iteration 1"),
        (HEADER.encode() + b"\n"
         + (orders_line("g1", "a1") + UTILITIES + CENSUS).replace(b'"iteration": 1', b'"iteration": 2')
         + orders_line("g1", "a1") + UTILITIES + CENSUS,
         "line 5", "orders line of iteration 1 after the census line of iteration 2"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1", "a2")
         + b'{"kind": "utilities", "iteration": 1, "values": {"a2": 0.5, "a1": 0.5}}\n',
         "line 3", "utilities keys are not in the seat order of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + UTILITIES
         + CENSUS.replace(b'"M": 1, "P": 0', b'"P": 0, "M": 1'),
         "line 4", "census labels must be M, P, E, R1 in that order"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + UTILITIES
         + CENSUS.replace(b'"iteration": 1', b'"iteration": 1.0'),
         "line 4", "iteration must be an integer, not 1.0"),
        (RAN_3 + ITERATION_1 + ITERATION_2,
         "line 7", "iterations are not 1..iterations_executed (3 in the header)"),
        (RAN_3, "line 1", "iterations are not 1..iterations_executed (3 in the header)"),
        (RAN_3 + ITERATION_1 + ITERATION_3,
         "line 7", "iterations are not 1..iterations_executed (3 in the header)"),
    ], ids=["empty", "not-json", "wrong-schema", "missing-key", "unknown-kind", "not-utf8",
            "bad-census", "truncated", "punisher-ordered-nowhere", "punisher-and-target-apart",
            "orders-in-two-groups", "utilities-keys-differ", "orders-after-utilities",
            "punishment-out-of-group-order", "utilities-missing", "second-utilities",
            "imitation-before-utilities", "second-census", "iterations-not-ascending",
            "utilities-not-in-seat-order", "census-labels-out-of-order", "iteration-not-int",
            "cut-after-an-iteration", "header-only", "iteration-removed"])
    def test_malformed_log_is_one_line_and_exit_two(self, tmp_path, capsys, content, where, problem):
        log = tmp_path / "events.jsonl"
        log.write_bytes(content)
        code = main(["report", "--log", str(log), "--out", str(tmp_path / "rebuilt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(log) in err and where in err and problem in err
        assert not (tmp_path / "rebuilt").exists()

    def test_missing_log_is_io_error(self, tmp_path):
        code = main(["report", "--log", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "rebuilt")])
        assert code == 1


class TestCommandsAgree:
    def test_simulate_replicate_and_report_write_the_same_files(self, tmp_path):
        config = tmp_path / "preset.json"
        assert main(["preset", "--combination", "2", "--punishment", "3:1", "--seed", "5",
                     "--backend", "oracle", "--out", str(config)]) == 0
        assert main(["simulate", "--config", str(config), "--backend", "oracle",
                     "--out", str(tmp_path / "sim")]) == 0
        assert main(["replicate", "--combination", "2", "--punishment", "3:1", "--backend", "oracle",
                     "--seeds", "8", "--jobs", "2", "--out", str(tmp_path / "batch")]) == 0
        (run_dir,) = (tmp_path / "batch").glob("*-s5")
        for name in ("events.jsonl", "census.csv", "trend.svg"):
            assert (tmp_path / "sim" / name).read_bytes() == (run_dir / name).read_bytes(), name
        assert main(["report", "--log", str(run_dir / "events.jsonl"),
                     "--out", str(tmp_path / "rebuilt")]) == 0
        for name in ("census.csv", "trend.svg"):
            assert (tmp_path / "rebuilt" / name).read_bytes() == (run_dir / name).read_bytes(), name


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
