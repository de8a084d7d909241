from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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

    @pytest.mark.parametrize("command", [["simulate"], ["replicate", "--seeds", "2"]])
    @pytest.mark.parametrize("key", ["name", "agent_id"])
    def test_lone_surrogate_in_config_exits_two_and_writes_nothing(
        self, oracle_config_path, tmp_path, capsys, command, key
    ):
        # Valid JSON that no UTF-8 file can hold.
        text = oracle_config_path.read_text().replace(f'"{key}": "', f'"{key}": "\\ud800', 1)
        assert "\\ud800" in text
        oracle_config_path.write_text(text)
        out = tmp_path / "out"
        code = main([*command, "--config", str(oracle_config_path),
                     "--backend", "oracle", "--out", str(out)])
        assert code == 2
        assert f"config.agents[0].{key} cannot be written as UTF-8" in capsys.readouterr().err
        assert not out.exists()

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

    def test_config_file_writes_the_same_tree_as_the_preset_flags(self, tmp_path):
        config = tmp_path / "preset.json"
        assert main(["preset", "--combination", "1", "--punishment", "6:1", "--backend", "oracle",
                     "--out", str(config)]) == 0
        # Two directories: the batch summary names each log relative to its batch.
        from_file, from_flags = tmp_path / "from-file", tmp_path / "nested" / "from-flags"

        def tree(batch):
            return {p.relative_to(batch).as_posix(): p.read_bytes() for p in batch.rglob("*") if p.is_file()}

        assert main(["replicate", "--config", str(config), "--backend", "oracle",
                     "--seeds", "3", "--out", str(from_file)]) == 0
        assert main(["replicate", "--combination", "1", "--punishment", "6:1", "--backend", "oracle",
                     "--seeds", "3", "--out", str(from_flags)]) == 0
        assert len(tree(from_file)) == 2 + 3 * 3  # batch summary and stats, three files per run
        assert tree(from_file) == tree(from_flags)
        rows = (from_file / "batch_summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == [
            f"{row.split(',')[1]}/events.jsonl" for row in rows
        ]

    @pytest.mark.parametrize("flags", [
        ["--combination", "1", "--punishment", "6:1", "--config", "CONFIG"],
        ["--combination", "1", "--config", "CONFIG"],
        ["--punishment", "6:1", "--config", "CONFIG"],
        ["--combination", "1"],
        ["--punishment", "6:1"],
        [],
    ])
    def test_config_file_or_preset_flags_exactly_one(self, oracle_config_path, tmp_path, capsys, flags):
        flags = [str(oracle_config_path) if flag == "CONFIG" else flag for flag in flags]
        code = main(["replicate", *flags, "--backend", "oracle", "--seeds", "2",
                     "--out", str(tmp_path / "batch")])
        assert code == 2
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "batch").exists()

    def test_config_file_backend_settings_reach_the_backend(self, tmp_path, monkeypatch):
        from llm_fixture import FixtureServer

        settings = BackendConfig(kind="llm", repair_retries=0, backoff_base=0.001, timeout=5.0)
        config_path = tmp_path / "config.json"
        save_config(paper_preset(1, "6:1", seed=1, backend=settings), config_path)
        with FixtureServer(mode="garbage") as server:
            monkeypatch.setenv("LLM_BASE_URL", server.base_url)
            monkeypatch.setenv("LLM_MODEL", "fixture-model")
            code = main(["replicate", "--config", str(config_path), "--backend", "llm",
                         "--seeds", "1", "--out", str(tmp_path / "batch")])
            sent = len(server.requests)
        assert code == 3  # the only run aborts on its first unusable reply
        assert sent == 1  # no repair round-trip; the default two repairs would send 3

    @pytest.mark.parametrize("content, problem", [
        (b"3\nabc\n", "line 2: 'abc' is not an integer"),
        (b"3\n14\n-5\n", "line 3: seed -5 must fit"),
        (b"3\n\xff\n", "not UTF-8 text"),
        # int() takes each of these; a seed is ASCII digits after an optional minus sign.
        (b"1_000\n", "line 1: '1_000' is not an integer"),
        (b"3\n+5\n", "line 2: '+5' is not an integer"),
        ("3 \uff17\n".encode(), "line 1: '\uff17' is not an integer"),
        # Lines end at \n only, as in an event log: U+2028 separates tokens.
        ("3\u2028x\n".encode(), "line 1: 'x' is not an integer"),
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

    @pytest.mark.parametrize("command", [
        ["replicate", "--combination", "1", "--punishment", "6:1", "--backend", "oracle", "--seeds", "\uff17"],
        ["simulate", "--config", "CONFIG", "--backend", "oracle", "--seed", "\uff17"],
        ["preset", "--combination", "1", "--punishment", "6:1", "--seed", "+5"],
    ], ids=["replicate-seeds", "simulate-seed", "preset-seed"])
    def test_seed_option_not_ascii_digits_exits_two_and_writes_nothing(
        self, oracle_config_path, tmp_path, capsys, command
    ):
        out = tmp_path / "out"
        command = [str(oracle_config_path) if arg == "CONFIG" else arg for arg in command]
        with pytest.raises(SystemExit) as exc_info:
            main([*command, "--out", str(out)])
        assert exc_info.value.code == 2
        assert "invalid integer value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", [["--seeds", "0"], ["--seed-list", "EMPTY"]])
    def test_no_seeds_exits_two_and_writes_nothing(self, tmp_path, capsys, seeds):
        empty = tmp_path / "seeds.txt"
        empty.write_bytes(b"\n \n")
        seeds = [str(empty) if flag == "EMPTY" else flag for flag in seeds]
        out = tmp_path / "batch"
        code = main(["replicate", "--combination", "1", "--punishment", "6:1",
                     "--backend", "oracle", *seeds, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: no seeds to run\n"
        assert not out.exists()


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

    def test_lone_surrogate_in_suite_is_config_error(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        assert main(["eval-backend", "--backend", "oracle", "--out", str(tmp_path / "first.json"),
                     "--save-suite", str(suite_path)]) == 0
        text = suite_path.read_text().replace('"scenario_id": "', '"scenario_id": "\\ud800', 1)
        suite_path.write_text(text)
        code = main(["eval-backend", "--backend", "oracle", "--out", str(tmp_path / "r.json"),
                     "--suite", str(suite_path)])
        assert code == 2
        assert "suite[0].scenario_id cannot be written as UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_empty_suite_is_config_error(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text("[]\n")
        code = main(["eval-backend", "--backend", "oracle", "--out", str(tmp_path / "r.json"),
                     "--suite", str(suite_path)])
        assert code == 2
        assert "holds no scenarios" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

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


def imitate_line(focal: str, role_model: str) -> bytes:
    return json.dumps({
        "kind": "imitation", "iteration": 1, "focal": focal, "role_model": role_model,
        "payoff_diff": 0.0, "probability": 0.5, "uniform_draw": 0.5, "adopted": False,
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

    def test_title_that_cannot_be_utf8_exits_two_and_writes_nothing(self, oracle_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(oracle_config_path),
                     "--backend", "oracle", "--out", str(out)]) == 0
        rebuilt = tmp_path / "rebuilt"
        # How Python decodes the argument byte 0xff on a UTF-8 system.
        title = b"bad\xff".decode("utf-8", "surrogateescape")
        with pytest.raises(SystemExit) as exc_info:
            main(["report", "--log", str(out / "events.jsonl"), "--out", str(rebuilt), "--title", title])
        assert exc_info.value.code == 2
        assert "--title: not UTF-8 text" in capsys.readouterr().err
        assert not rebuilt.exists()

    @pytest.mark.parametrize("title", ["a\x01b", "\x00", "tab\x0bvertical", "\x1f", "a\ufffeb", "\uffff"],
                             ids=["soh", "nul", "vertical-tab", "unit-separator", "u+fffe", "u+ffff"])
    def test_title_that_xml_cannot_hold_exits_two_and_writes_nothing(
        self, oracle_config_path, tmp_path, capsys, title
    ):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(oracle_config_path),
                     "--backend", "oracle", "--out", str(out)]) == 0
        rebuilt = tmp_path / "rebuilt"
        with pytest.raises(SystemExit) as exc_info:
            main(["report", "--log", str(out / "events.jsonl"), "--out", str(rebuilt), "--title", title])
        assert exc_info.value.code == 2
        assert "--title: holds a character XML cannot hold" in capsys.readouterr().err
        assert not rebuilt.exists()

    def test_title_with_tab_newline_and_markup_is_well_formed_svg(self, oracle_config_path, tmp_path):
        from xml.dom import minidom

        out = tmp_path / "out"
        assert main(["simulate", "--config", str(oracle_config_path),
                     "--backend", "oracle", "--out", str(out)]) == 0
        title = "a\tb\nc\rd <&> \u00e9\ud7ff\ufffd"
        assert main(["report", "--log", str(out / "events.jsonl"), "--out", str(tmp_path / "rebuilt"),
                     "--title", title]) == 0
        minidom.parse(str(tmp_path / "rebuilt" / "trend.svg"))

    # The header of a run of two moralists that ran one iteration.
    HEADER = json.dumps({"kind": "header", "schema": 1, "run_id": "r-s0", "seed": 0, "status": "converged",
                         "iterations_executed": 1, "initial_census": {"M": 2}, "config": {"seed": 0}})
    SCOLD = (b'{"kind": "punishment", "iteration": 1, "punisher": "a1", "target": "%s", '
             b'"level": "defection", "cost_to_punisher": 1.0, "cost_to_target": 6.0}\n')

    UTILITIES = b'{"kind": "utilities", "iteration": 1, "values": {"a1": 0.5}}\n'
    CENSUS = b'{"kind": "census", "iteration": 1, "counts": {"M": 2, "P": 0, "E": 0, "R1": 0}}\n'
    # A header saying three iterations ran, and the lines of iterations 1-3.
    RAN_3 = HEADER.replace('"iterations_executed": 1', '"iterations_executed": 3').encode() + b"\n"
    # Two agents, each imitating the other: the smallest iteration that can be.
    ORDERS_2 = (orders_line("g1", "a1", "a2")
                + b'{"kind": "utilities", "iteration": 1, "values": {"a1": 0.5, "a2": 0.5}}\n')
    ITERATION_1 = ORDERS_2 + imitate_line("a1", "a2") + imitate_line("a2", "a1") + CENSUS
    ITERATION_2 = ITERATION_1.replace(b'"iteration": 1', b'"iteration": 2')
    ITERATION_3 = ITERATION_1.replace(b'"iteration": 1', b'"iteration": 3')

    @pytest.mark.parametrize("content, where, problem", [
        (b"", "line 1", "empty file"),
        (HEADER.encode() + b"\n{not json\n", "line 2", "not JSON"),
        (HEADER.replace('"schema": 1', '"schema": 9').encode(), "line 1", "schema 9"),
        (HEADER.encode() + b'\n{"kind": "orders", "group": "g1"}\n', "line 2", "missing key 'iteration'"),
        (HEADER.encode() + b'\n{"kind": "dessert", "iteration": 1}\n', "line 2", "unknown event kind 'dessert'"),
        (HEADER.encode() + b"\n\xff\xfe\n", "line 2", "not UTF-8"),
        (HEADER.replace('"M": 2', '"M": "x"').encode(), "line 1", "census counts"),
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
         "line 3", "census after the orders line of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + UTILITIES + UTILITIES,
         "line 4", "utilities after the utilities line of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + imitate_line("a1", "a2") + UTILITIES + CENSUS,
         "line 3", "imitation after the orders line of iteration 1"),
        (HEADER.encode() + b"\n" + ITERATION_1 + CENSUS,
         "line 7", "census after the census line of iteration 1"),
        (HEADER.encode() + b"\n" + ITERATION_2 + ITERATION_1,
         "line 2", "orders line of iteration 2 where iteration 1 is due"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1", "a2")
         + b'{"kind": "utilities", "iteration": 1, "values": {"a2": 0.5, "a1": 0.5}}\n',
         "line 3", "utilities keys are not in the seat order of iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + UTILITIES
         + CENSUS.replace(b'"M": 2, "P": 0', b'"P": 0, "M": 2'),
         "line 4", "census labels must be M, P, E, R1 in that order"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1") + UTILITIES
         + CENSUS.replace(b'"iteration": 1', b'"iteration": 1.0'),
         "line 4", "iteration must be an integer, not 1.0"),
        (RAN_3 + ITERATION_1 + ITERATION_2,
         "line 11", "iterations are not 1..iterations_executed (3 in the header)"),
        (RAN_3, "line 1", "iterations are not 1..iterations_executed (3 in the header)"),
        (RAN_3 + ITERATION_1 + ITERATION_3,
         "line 7", "orders line of iteration 3 where iteration 2 is due"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"M": 2', b'"M": 13'),
         "line 6", "census counts total 13, not the 2 agents of the header's initial census"),
        (HEADER.encode() + b"\n" + ORDERS_2 + imitate_line("a1", "a2") + CENSUS,
         "line 5", "no imitation line for agent 'a2' in iteration 1"),
        (HEADER.encode() + b"\n" + ORDERS_2 + imitate_line("ghost", "a1"),
         "line 4", "focal 'ghost' did not order in iteration 1"),
        (HEADER.encode() + b"\n" + ORDERS_2 + imitate_line("a1", "a2") + imitate_line("a1", "a2"),
         "line 5", "second imitation line for focal 'a1' in iteration 1"),
        (HEADER.encode() + b"\n" + ORDERS_2 + imitate_line("a1", "a1"),
         "line 4", "role model 'a1' is not another agent that ordered in iteration 1"),
        (HEADER.encode() + b"\n" + ORDERS_2 + imitate_line("a1", "ghost"),
         "line 4", "role model 'ghost' is not another agent that ordered in iteration 1"),
        # One JSON value of the wrong type or out of its range, in a log otherwise valid.
        (HEADER.encode() + b"\n" + orders_line("g1", "a1", "a2")
         + (SCOLD % b"a2").replace(b'"cost_to_target": 6.0', b'"cost_to_target": "abc"'),
         "line 3", "cost_to_target must be a number, not 'abc'"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1", "a2")
         + (SCOLD % b"a2").replace(b'"cost_to_punisher": 1.0', b'"cost_to_punisher": true'),
         "line 3", "cost_to_punisher must be a number, not True"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"adopted": false', b'"adopted": 0', 1),
         "line 4", "adopted must be true or false, not 0"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"uniform_draw": 0.5', b'"uniform_draw": 7.5', 1),
         "line 4", "uniform_draw must be in [0, 1), not 7.5"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"probability": 0.5', b'"probability": null', 1),
         "line 4", "probability must be a number, not None"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"probability": 0.5', b'"probability": 1.5', 1),
         "line 4", "probability must be in [0, 1], not 1.5"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"adopted": false', b'"adopted": true', 1),
         "line 4", "adopted is true, but uniform_draw < probability is false"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"payoff_diff": 0.0', b'"payoff_diff": "0"', 1),
         "line 4", "payoff_diff must be a number, not '0'"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"values": {"a1": 0.5, "a2": 0.5}', b'"values": {"a1": 0.5, "a2": "x"}'),
         "line 3", "values['a2'] must be a number, not 'x'"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"meal_payoffs": {"a1": 0.5', b'"meal_payoffs": {"a1": null', 1),
         "line 2", "meal_payoffs['a1'] must be a number, not None"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"bill_total": 1.0', b'"bill_total": [1]', 1),
         "line 2", "bill_total must be a number, not [1]"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"location": "l"', b'"location": 5', 1),
         "line 2", "location must be a string, not 5"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"group": "g1"', b'"group": ["g1"]', 1),
         "line 2", "group must be a string, not ['g1']"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"uniform_draw": 0.5', b'"uniform_draw": 1.0', 1),
         "line 4", "uniform_draw must be in [0, 1), not 1.0"),
        (HEADER.replace('"status": "converged"', '"status": "banana"').encode(),
         "line 1", "'banana' is not a valid RunStatus"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1", "a2", "a3", "a4").replace(
            b'"meal_payoffs": {"a1"', b'"meal_payoffs": {"zz"'),
         "line 2", "meal_payoffs keys differ from the choices of group 'g1' in iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1", "a2", "a3", "a4").replace(b', "a4": 0.5}', b"}"),
         "line 2", "meal_payoffs keys differ from the choices of group 'g1' in iteration 1"),
        (HEADER.encode() + b"\n" + orders_line("g1", "a1", "a2").replace(
            b'"meal_payoffs": {"a1": 0.5, "a2": 0.5}', b'"meal_payoffs": {"a2": 0.5, "a1": 0.5}'),
         "line 2", "meal_payoffs keys are not in the seat order of the choices of group 'g1' in iteration 1"),
        (HEADER.replace('"run_id": "r-s0"', '"run_id": 5').encode(), "line 1", "run_id must be a string, not 5"),
        (HEADER.replace('"seed": 0', '"seed": 18446744073709551616').encode(),
         "line 1", "seed must be an integer in [0, 2**64), not 18446744073709551616"),
        (HEADER.replace('"iterations_executed": 1', '"iterations_executed": -1').encode(),
         "line 1", "iterations_executed must be a non-negative integer, not -1"),
        (HEADER.replace('"status": "converged"', '"status": "running"').encode(),
         "line 1", "'running' is not a valid RunStatus"),
        (HEADER.replace('"status": "converged"', '"status": "completed"').encode() + b"\n" + ITERATION_1,
         "line 6", "status is completed, but the last census says converged"),
        (HEADER.encode() + b"\n" + ITERATION_1.replace(b'"M": 2, "P": 0', b'"M": 1, "P": 1'),
         "line 6", "status is converged, but the last census says completed"),
        (HEADER.replace('"config": {"seed": 0}', '"config": {"seed": 99}').encode(),
         "line 1", "seed 0 differs from the config's seed 99"),
        (HEADER.replace('"run_id": "r-s0"', '"run_id": "r-s7"').encode(),
         "line 1", "run_id 'r-s7' does not end in the seed's suffix '-s0'"),
        # The default chart title holds the run_id.
        (HEADER.replace('"run_id": "r-s0"', '"run_id": "r\\u0001-s0"').encode(),
         "line 1", "run_id 'r\\x01-s0' holds a character XML cannot hold"),
        (HEADER.encode() + b"\n" + ITERATION_1 + HEADER.encode() + b"\n",
         "line 7", "header after the census line of iteration 1"),
        (HEADER.encode() + b"\n" + SCOLD % b"a2", "line 2", "punishment after the header line"),
        (HEADER.encode() + b"\n" + ORDERS_2 + imitate_line("a1", "a2") + imitate_line("a2", "a1")
         + CENSUS.replace(b'"iteration": 1', b'"iteration": 2'),
         "line 6", "census line of iteration 2 where iteration 1 is due"),
    ], ids=["empty", "not-json", "wrong-schema", "missing-key", "unknown-kind", "not-utf8",
            "bad-census", "truncated", "punisher-ordered-nowhere", "punisher-and-target-apart",
            "orders-in-two-groups", "utilities-keys-differ", "orders-after-utilities",
            "punishment-out-of-group-order", "utilities-missing", "second-utilities",
            "imitation-before-utilities", "second-census", "iterations-not-ascending",
            "utilities-not-in-seat-order", "census-labels-out-of-order", "iteration-not-int",
            "cut-after-an-iteration", "header-only", "iteration-removed", "census-total-differs",
            "imitation-line-dropped", "ghost-focal", "second-imitation", "self-role-model",
            "ghost-role-model", "cost-not-number", "cost-is-bool", "adopted-not-bool",
            "draw-out-of-range", "probability-null", "probability-out-of-range", "adopted-flipped",
            "payoff-diff-not-number", "utility-not-number", "meal-payoff-not-number",
            "bill-total-not-number", "location-not-string", "group-not-string", "draw-equals-one", "status-unknown",
            "meal-payoff-key-renamed", "meal-payoff-key-dropped", "meal-payoffs-not-in-seat-order",
            "run-id-not-string", "seed-out-of-range", "iterations-executed-negative", "status-running",
            "completed-but-homogeneous", "converged-but-mixed", "seed-differs-from-config",
            "run-id-suffix-differs-from-seed", "run-id-not-xml", "second-header",
            "punishment-after-header", "census-iteration-not-due"])
    def test_malformed_log_is_one_line_and_exit_two(self, tmp_path, capsys, content, where, problem):
        log = tmp_path / "events.jsonl"
        log.write_bytes(content)
        code = main(["report", "--log", str(log), "--out", str(tmp_path / "rebuilt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(log) in err and where in err and problem in err
        assert not (tmp_path / "rebuilt").exists()

    def test_header_fixture_is_a_valid_log(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_bytes(self.HEADER.encode() + b"\n" + self.ITERATION_1)
        assert main(["report", "--log", str(log), "--out", str(tmp_path / "rebuilt")]) == 0


def put_byte_on_line_2(path: Path, byte: bytes = b"\xff") -> None:
    lines = path.read_bytes().split(b"\n")
    lines[1] = byte + lines[1]
    path.write_bytes(b"\n".join(lines))


def llm_config_with_templates(tmp_path: Path) -> Path:
    """A config whose LLM backend reads the packaged templates from a copy,
    with a 0xff byte on line 2 of the order template."""
    from dinersim.backends import llm

    templates = tmp_path / "templates"
    templates.mkdir()
    for filename in llm.TEMPLATE_FILES.values():
        shipped = Path(llm.__file__).parent / "templates" / filename
        (templates / filename).write_bytes(shipped.read_bytes())
    put_byte_on_line_2(templates / "order.txt")
    config = tmp_path / "config.json"
    save_config(paper_preset(1, "6:1", seed=1, backend=BackendConfig(kind="llm", template_dir=str(templates))),
                config)
    return templates / "order.txt"


class TestInputFiles:
    """Every file the package reads goes through one reader: a missing file,
    or a byte that is not UTF-8, is one ``error:`` line naming the file, and
    exit 2."""

    NAMES = ["config", "suite", "seed-list", "event-log", "template"]
    WHAT = {"config": "config file", "suite": "suite file", "seed-list": "seed list",
            "event-log": "event log", "template": "template"}

    @staticmethod
    def input_file(name, oracle_config_path, tmp_path, monkeypatch, out):
        """The input file of kind ``name`` and a command line that reads it
        and writes ``out``; a template has a 0xff byte on line 2 already."""
        if name == "config":
            bad = oracle_config_path
            argv = ["simulate", "--config", str(bad), "--backend", "oracle", "--out", str(out)]
        elif name == "suite":
            bad = tmp_path / "suite.json"
            assert main(["eval-backend", "--backend", "oracle", "--save-suite", str(bad),
                         "--out", str(tmp_path / "first.json")]) == 0
            argv = ["eval-backend", "--backend", "oracle", "--suite", str(bad), "--out", str(out)]
        elif name == "seed-list":
            bad = tmp_path / "seeds.txt"
            bad.write_bytes(b"3\n14\n159\n")
            argv = ["replicate", "--combination", "1", "--punishment", "6:1", "--backend", "oracle",
                    "--seed-list", str(bad), "--out", str(out)]
        elif name == "event-log":
            assert main(["simulate", "--config", str(oracle_config_path), "--backend", "oracle",
                         "--out", str(tmp_path / "sim")]) == 0
            bad = tmp_path / "sim" / "events.jsonl"
            argv = ["report", "--log", str(bad), "--out", str(out)]
        else:
            bad = llm_config_with_templates(tmp_path)
            # The backend fails when it is built, so nothing is sent to the discard port.
            monkeypatch.setenv("LLM_BASE_URL", "http://127.0.0.1:9/v1")
            monkeypatch.setenv("LLM_MODEL", "m")
            argv = ["simulate", "--config", str(tmp_path / "config.json"), "--backend", "llm",
                    "--out", str(out)]
        return bad, argv

    @pytest.mark.parametrize("name", NAMES)
    def test_byte_that_is_not_utf8_exits_two_and_writes_nothing(
        self, oracle_config_path, tmp_path, monkeypatch, capsys, name
    ):
        out = tmp_path / "out"
        bad, argv = self.input_file(name, oracle_config_path, tmp_path, monkeypatch, out)
        if name != "template":
            put_byte_on_line_2(bad)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {self.WHAT[name]} {bad}, line 2: not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", NAMES)
    def test_missing_file_exits_two_and_writes_nothing(
        self, oracle_config_path, tmp_path, monkeypatch, capsys, name
    ):
        out = tmp_path / "out"
        missing, argv = self.input_file(name, oracle_config_path, tmp_path, monkeypatch, out)
        missing.unlink()
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {self.WHAT[name]} {missing}: not found\n"
        assert not out.exists()

    def test_json_syntax_error_names_its_line(self, oracle_config_path, tmp_path, capsys):
        lines = oracle_config_path.read_text().split("\n")
        lines[2] = "!" + lines[2]
        oracle_config_path.write_text("\n".join(lines))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(oracle_config_path), "--backend", "oracle",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {oracle_config_path}, line 3: not valid JSON "
            "(Expecting value)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval-backend"])
    def test_duplicate_key_exits_two_and_writes_nothing(self, oracle_config_path, tmp_path, capsys, command):
        if command == "simulate":
            bad = oracle_config_path
            text = bad.read_text().replace('"seed": 11\n', '"seed": 5,\n  "seed": 7\n', 1)
            argv = ["simulate", "--config", str(bad), "--backend", "oracle"]
            what, key = "config file", "seed"
        else:
            bad = tmp_path / "suite.json"
            assert main(["eval-backend", "--backend", "oracle", "--save-suite", str(bad),
                         "--out", str(tmp_path / "first.json")]) == 0
            text = bad.read_text().replace('"iteration": 1,', '"iteration": 1, "iteration": 2,', 1)
            argv = ["eval-backend", "--backend", "oracle", "--suite", str(bad)]
            what, key = "suite file", "iteration"
        assert text != bad.read_text()
        bad.write_text(text)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {what} {bad}: repeats the key {key!r} in one object\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["preset-out", "save-suite", "eval-backend-out"])
    def test_failed_write_exits_one_and_leaves_no_file(self, tmp_path, monkeypatch, capsys, name):
        """A write that fails after some bytes reached the file leaves no file."""
        import dinersim.config_io as config_io

        target = tmp_path / "target.json"
        argv = {
            "preset-out": ["preset", "--combination", "1", "--punishment", "6:1", "--backend", "oracle",
                           "--out", str(target)],
            "save-suite": ["eval-backend", "--backend", "oracle", "--save-suite", str(target),
                           "--out", str(tmp_path / "accuracy.json")],
            "eval-backend-out": ["eval-backend", "--backend", "oracle", "--out", str(target)],
        }[name]
        real_open = open

        def full_disk(path, mode):
            handle = real_open(path, mode)

            def write(data):
                handle.raw.write(data[:10])
                raise OSError("disk full")

            handle.write = write
            return handle

        monkeypatch.setattr(config_io, "open", full_disk, raising=False)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert not target.exists()


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


# Run in a fresh interpreter: the test process has long since loaded the HTTP stack.
ORACLE_COMMANDS_WITHOUT_HTTP = """
import sys
from pathlib import Path

import dinersim
import dinersim.cli as cli

out = Path(sys.argv[1])
assert cli.main(["preset", "--combination", "1", "--punishment", "6:1", "--backend", "oracle",
                 "--out", str(out / "cfg.json")]) == 0
assert cli.main(["simulate", "--config", str(out / "cfg.json"), "--backend", "oracle",
                 "--out", str(out / "sim")]) == 0
assert cli.main(["replicate", "--combination", "1", "--punishment", "6:1", "--backend", "oracle",
                 "--seeds", "2", "--out", str(out / "batch")]) == 0
assert cli.main(["report", "--log", str(out / "sim" / "events.jsonl"), "--out", str(out / "rebuilt")]) == 0
assert cli.main(["eval-backend", "--backend", "oracle", "--out", str(out / "accuracy.json")]) == 0
loaded = sorted(name for name in ("urllib.request", "http.client", "numpy") if name in sys.modules)
assert not loaded, f"oracle commands loaded {loaded}"

dinersim.LlmBackend(base_url="http://127.0.0.1:9", model="m")
assert "urllib.request" in sys.modules, "building an LlmBackend did not load urllib.request"
assert "requests" not in sys.modules, "building an LlmBackend loaded requests"
assert "numpy" not in sys.modules, "building an LlmBackend loaded numpy"
"""


class TestStartup:
    def test_oracle_commands_never_load_the_http_client(self, tmp_path):
        import dinersim

        env = dict(os.environ)
        package_root = str(Path(dinersim.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", ORACLE_COMMANDS_WITHOUT_HTTP, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


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
