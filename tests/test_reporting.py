from __future__ import annotations

import json
import math
from dataclasses import replace
from itertools import cycle

import numpy as np
import pytest

from dinersim.model import (
    BackendConfig,
    ImitationOutcome,
    PunishmentEvent,
    PunishmentLevel,
    PunishmentParams,
    Strategy,
    paper_preset,
)
from dinersim.reporting import (
    EmptySeries,
    EventLogError,
    census_series,
    convergence_stats,
    event_log_lines,
    load_event_log,
    render_trend_svg,
    svg_y,
    write_batch_summary_csv,
    write_census_csv,
    write_event_log,
)
from dinersim.runner import BatchRow, RunStatus, run_replications, run_simulation

from conftest import make_config


def oracle_preset(combination=1, punishment="6:1", seed=0):
    return paper_preset(combination, punishment, seed, backend=BackendConfig(kind="oracle"))


@pytest.fixture(scope="module")
def preset_run():
    from dinersim.backends.oracle import RuleOracle

    return run_simulation(oracle_preset(seed=3), RuleOracle())


# Configs by group count; every group punishes someone in some iteration.
ROUND_TRIP_CONFIGS = {
    1: make_config([["M", "P", "E", "R1"]], seed=3),
    2: oracle_preset(seed=3),
    3: make_config([["M", "P", "E", "R1"], ["R1", "R1", "E", "M"], ["R1", "P", "P", "M"]], seed=3),
}


class TestEventLog:
    @pytest.mark.parametrize("groups", sorted(ROUND_TRIP_CONFIGS))
    def test_round_trip_is_lossless(self, oracle, tmp_path, groups):
        result = run_simulation(ROUND_TRIP_CONFIGS[groups], oracle)
        punishing = {g.group_id for r in result.records for g in r.groups if g.punishment_events}
        assert len(punishing) == groups
        path = write_event_log(result, tmp_path / "events.jsonl")
        loaded = load_event_log(path)
        assert loaded.records == result.records
        assert loaded.initial_census == result.initial_census
        assert loaded.header["run_id"] == result.handle.run_id
        rewritten = event_log_lines(replace(result, records=loaded.records))
        assert "".join(line + "\n" for line in rewritten) == path.read_text()

    @pytest.mark.parametrize("groups", [2, 3])
    def test_mutated_log_is_rejected_or_reproduced(self, oracle, tmp_path, groups):
        """Every adjacent swap, deletion and duplication of a non-header line
        either raises EventLogError or reloads to records that write the
        mutated file back exactly."""
        result = run_simulation(ROUND_TRIP_CONFIGS[groups], oracle)
        header, *body = event_log_lines(result)
        mutations = [body[:i] + [body[i + 1], body[i]] + body[i + 2:] for i in range(len(body) - 1)]
        for i in range(len(body)):
            mutations += [body[:i] + body[i + 1:], body[:i + 1] + body[i:]]
        path = tmp_path / "events.jsonl"
        accepted = 0
        for lines in mutations:
            text = "".join(f"{line}\n" for line in [header, *lines])
            path.write_text(text, encoding="utf-8")
            try:
                loaded = load_event_log(path)
            except EventLogError:
                continue
            accepted += 1
            rewritten = event_log_lines(replace(result, records=loaded.records))
            assert "".join(f"{line}\n" for line in rewritten) == text
        # Swapping or dropping punishment lines of one group, or imitation
        # lines, gives another log that is valid.
        assert 0 < accepted < len(mutations)

    def test_templated_lines_equal_json_dumps(self, preset_run):
        params = PunishmentParams(p=3, k=1)
        ids = ("zoë", 'say "hi"', "back\\slash", "名前")
        numbers = (params.k, params.p, math.nan, math.inf, -math.inf, np.float64(-2.5),
                   np.float64(math.nan), 0.1, -0.0, 1e-7, 1e22, 7)
        count = len(numbers)
        events = tuple(
            PunishmentEvent(
                iteration=1, punisher_id=ids[i % 4], target_id=ids[(i + 1) % 4], level=level,
                cost_to_punisher=numbers[i], cost_to_target=numbers[count - 1 - i],
            )
            for i, level in zip(range(count), cycle(PunishmentLevel))
        )
        outcomes = tuple(
            ImitationOutcome(
                focal_id=ids[i % 4], role_model_id=ids[(i + 2) % 4], payoff_diff=numbers[i],
                probability=numbers[i - 1], uniform_draw=numbers[i - 2], adopted=i % 2 == 0,
            )
            for i in range(count)
        )
        first = preset_run.records[0]
        record = replace(
            first,
            groups=(replace(first.groups[0], punishment_events=events),),
            imitation_outcomes=outcomes,
        )
        lines = list(event_log_lines(replace(preset_run, records=[record])))

        def dumps(fields: dict) -> str:
            return json.dumps(fields, separators=(",", ":"), ensure_ascii=False)

        assert [line for line in lines if line.startswith('{"kind":"punishment"')] == [
            dumps({
                "kind": "punishment",
                "iteration": e.iteration,
                "punisher": e.punisher_id,
                "target": e.target_id,
                "level": e.level.value,
                "cost_to_punisher": e.cost_to_punisher,
                "cost_to_target": e.cost_to_target,
            })
            for e in events
        ]
        assert [line for line in lines if line.startswith('{"kind":"imitation"')] == [
            dumps({
                "kind": "imitation",
                "iteration": record.iteration,
                "focal": o.focal_id,
                "role_model": o.role_model_id,
                "payoff_diff": o.payoff_diff,
                "probability": o.probability,
                "uniform_draw": o.uniform_draw,
                "adopted": o.adopted,
            })
            for o in outcomes
        ]

    def test_unreadable_line_raises_event_log_error(self, preset_run, tmp_path):
        path = write_event_log(preset_run, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        lines[5] = json.dumps({k: v for k, v in json.loads(lines[5]).items() if k != "iteration"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc_info:
            load_event_log(path)
        assert isinstance(exc_info.value, EventLogError)
        assert (exc_info.value.path, exc_info.value.line) == (str(path), 6)

    def test_empty_run_is_header_only(self, oracle, tmp_path):
        config = replace(oracle_preset(), iterations=0)
        result = run_simulation(config, oracle)
        path = write_event_log(result, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "header"

    def test_group_one_iteration_one_punishment_lines(self, preset_run):
        lines = [json.loads(line) for line in event_log_lines(preset_run)]
        group1_agents = {"a1", "a2", "a3", "a4"}
        punishments = [
            item
            for item in lines
            if item["kind"] == "punishment"
            and item["iteration"] == 1
            and item["punisher"] in group1_agents
        ]
        assert {(p["punisher"], p["target"], p["level"]) for p in punishments} == {
            ("a1", "a4", "defection"),
            ("a2", "a4", "defection"),
            ("a1", "a3", "non_punisher"),
            ("a1", "a2", "meta_non_punisher"),
        }

    def test_canonical_ordering_and_field_stability(self, preset_run):
        lines = list(event_log_lines(preset_run))
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds[0] == "header"
        # per-iteration blocks follow orders -> punishment -> utilities -> imitation -> census
        first_census = kinds.index("census")
        assert kinds[1] == "orders"
        assert kinds[first_census - 1] == "imitation"

    def test_failed_write_removes_partial_file(self, preset_run, tmp_path, monkeypatch):
        import dinersim.reporting as reporting

        def exploding_lines(result):
            yield '{"kind":"header"}'
            raise OSError("disk full")

        monkeypatch.setattr(reporting, "event_log_lines", exploding_lines)
        target = tmp_path / "events.jsonl"
        with pytest.raises(OSError, match="disk full"):
            write_event_log(preset_run, target)
        assert not target.exists()


class TestCensusCsv:
    def test_preset_one_initial_row(self, preset_run, tmp_path):
        path = write_census_csv(
            preset_run.initial_census, preset_run.records, tmp_path / "census.csv"
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,M,P,E,R1"
        assert lines[1] == "0,0.375000,0.250000,0.125000,0.250000"
        assert len(lines) == 12  # header + iteration 0..10

    def test_preset_two_initial_row(self, oracle, tmp_path):
        result = run_simulation(oracle_preset(combination=2, punishment="3:1"), oracle)
        path = write_census_csv(
            result.initial_census, result.records, tmp_path / "census.csv"
        )
        assert path.read_text().splitlines()[1] == "0,0.250000,0.250000,0.125000,0.375000"

    def test_homogeneous_population_rows(self, oracle, tmp_path):
        config = make_config([["M", "M", "M", "M"], ["M", "M", "M", "M"]])
        result = run_simulation(config, oracle)
        path = write_census_csv(
            result.initial_census, result.records, tmp_path / "census.csv"
        )
        for line in path.read_text().splitlines()[1:]:
            assert line.endswith(",1.000000,0.000000,0.000000,0.000000")

    def test_fractions_sum_to_one(self, preset_run):
        for row in census_series(preset_run.initial_census, preset_run.records):
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


class TestTrendSvg:
    def constant_series(self, value=0.25, length=5):
        return [
            {s: value for s in Strategy} for _ in range(length)
        ]

    def test_constant_series_gives_horizontal_polylines(self):
        svg = render_trend_svg(self.constant_series(), "flat")
        polylines = [line for line in svg.splitlines() if line.startswith("<polyline")]
        assert len(polylines) == 4
        for line in polylines:
            points = line.split('points="')[1].split('"')[0].split()
            ys = {point.split(",")[1] for point in points}
            assert len(ys) == 1  # horizontal

    def test_full_share_maps_to_plot_top(self, preset_run):
        series = census_series(preset_run.initial_census, preset_run.records)
        series[-1] = {
            Strategy.MORALIST: 1.0,
            Strategy.COOPERATOR_PUNISHER: 0.0,
            Strategy.EASY_GOING_COOPERATOR: 0.0,
            Strategy.RELUCTANT_COOPERATOR: 0.0,
        }
        assert svg_y(1.0) == 40.0
        svg = render_trend_svg(series, "rising M")
        moralist_line = next(
            line for line in svg.splitlines() if line.startswith('<polyline') and "#1f77b4" in line
        )
        last_point = moralist_line.split('points="')[1].split('"')[0].split()[-1]
        assert last_point.endswith(",40.00")

    def test_byte_identical_for_identical_inputs(self):
        series = self.constant_series(0.25, 11)
        assert render_trend_svg(series, "same") == render_trend_svg(series, "same")

    def test_empty_series_raises(self):
        with pytest.raises(EmptySeries):
            render_trend_svg([], "empty")

    def test_color_mapping_documented_in_header(self):
        svg = render_trend_svg(self.constant_series(), "flat")
        head = "\n".join(svg.splitlines()[:3])
        for fragment in ("M=#1f77b4", "P=#2ca02c", "E=#ff7f0e", "R1=#d62728"):
            assert fragment in head
        assert "mapping: x(t)" in head


class TestConvergenceStats:
    def row(self, census, convergence=None, seed=0):
        return BatchRow(
            seed=seed,
            run_id=f"r{seed}",
            status=RunStatus.CONVERGED if convergence else RunStatus.COMPLETED,
            iterations_executed=10,
            convergence_iteration=convergence,
            final_census=census,
        )

    def homogeneous(self, strategy):
        census = {s: 0 for s in Strategy}
        census[strategy] = 8
        return census

    def test_single_homogeneous_run(self):
        stats = convergence_stats([self.row(self.homogeneous(Strategy.MORALIST), convergence=4)])
        assert stats["per_strategy"]["M"]["converged_fraction"] == 1.0
        assert stats["converged_fraction"] == 1.0
        assert stats["mean_convergence_iteration"] == 4.0

    def test_half_converged(self):
        mixed = {
            Strategy.MORALIST: 4,
            Strategy.COOPERATOR_PUNISHER: 4,
            Strategy.EASY_GOING_COOPERATOR: 0,
            Strategy.RELUCTANT_COOPERATOR: 0,
        }
        stats = convergence_stats(
            [
                self.row(self.homogeneous(Strategy.MORALIST), convergence=5, seed=1),
                self.row(mixed, seed=2),
            ]
        )
        assert stats["per_strategy"]["M"]["converged_fraction"] == 0.5
        assert stats["converged_fraction"] == 0.5
        assert stats["per_strategy"]["M"]["mean_final_share"] == pytest.approx(0.75)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            convergence_stats([])


class TestBatchSummaryCsv:
    def test_summary_rows_and_fractions(self, oracle, tmp_path):
        summary = run_replications(oracle_preset(), oracle, [0, 1, 2])
        path = write_batch_summary_csv(summary.rows, tmp_path / "batch.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "seed,run_id,status,iterations_executed,convergence_iteration,"
            "final_M,final_P,final_E,final_R1,log_path"
        )
        assert len(lines) == 4
        for line in lines[1:]:
            fractions = [float(x) for x in line.split(",")[5:9]]
            assert sum(fractions) == pytest.approx(1.0, abs=1e-9)

    def test_on_run_return_value_is_the_log_path(self, oracle, tmp_path):
        summary = run_replications(
            oracle_preset(), oracle, [0, 1], on_run=lambda result: f"{result.handle.run_id}/events.jsonl"
        )
        assert [row.log_path for row in summary.rows] == [f"{row.run_id}/events.jsonl" for row in summary.rows]
        lines = write_batch_summary_csv(summary.rows, tmp_path / "batch.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [row.log_path for row in summary.rows]
        assert all(row.log_path is None for row in run_replications(oracle_preset(), oracle, [0]).rows)
