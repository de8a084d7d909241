from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dinersim.config_io as config_io
import dinersim.reporting as reporting
from dinersim.backends.base import DecisionBackend, TransportError
from dinersim.backends.oracle import oracle_decide
from dinersim.config_io import config_to_dict
from dinersim.model import (
    STRATEGY_ORDER,
    BackendConfig,
    GroupRound,
    ImitationOutcome,
    IterationRecord,
    MealChoice,
    MenuConfig,
    PunishmentEvent,
    PunishmentLevel,
    PunishmentMode,
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
from dinersim.runner import (
    BatchRow,
    RunHandle,
    RunResult,
    RunStatus,
    run_id_for,
    run_replications,
    run_simulation,
)

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


def header_line(config) -> str:
    """The header line of a run of ``config`` that ran no iteration."""
    handle = RunHandle(run_id_for(config), config.seed, RunStatus.COMPLETED, 0)
    return next(event_log_lines(RunResult(handle, config, [])))


class TestHeaderConfig:
    def test_header_config_is_config_to_dict(self):
        """The cached config text equals a fresh ``config_to_dict`` for a
        config whose p and k are None (left out) and for two that alternate."""
        explicit = oracle_preset(seed=1)
        decided = replace(
            oracle_preset(seed=1),
            punishment=PunishmentParams(mode=PunishmentMode.BACKEND_DECIDED),
            backend=BackendConfig(kind="llm"),
        )
        assert "p" not in config_to_dict(decided)["punishment"]
        for config in (explicit, decided, replace(explicit, seed=2), replace(decided, seed=3),
                       replace(decided, seed=2**64 - 1), explicit):
            text = json.dumps(config_to_dict(config), separators=(",", ":"), ensure_ascii=False)
            assert header_line(config).endswith(f',"config":{text}}}')

    def test_config_is_serialised_once_per_batch(self, monkeypatch):
        calls = []

        def counted(config):
            calls.append(config.seed)
            return config_to_dict(config)

        monkeypatch.setattr(reporting, "config_to_dict", counted)
        base = oracle_preset(punishment="3:1")
        for seed in range(5):
            header_line(replace(base, seed=seed))
        assert calls == [0]


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
        assert loaded.handle == result.handle
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
        imitation_lines = sum(line.startswith('{"kind":"imitation"') for line in body)
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
            # Each agent imitates once an iteration: a dropped or repeated
            # imitation line is rejected.
            assert sum(line.startswith('{"kind":"imitation"') for line in lines) == imitation_lines
            rewritten = event_log_lines(replace(result, records=loaded.records))
            assert "".join(f"{line}\n" for line in rewritten) == text
        # Swapping or dropping punishment lines of one group, or swapping
        # imitation lines, gives another log that is valid.
        assert 0 < accepted < len(mutations)

    def test_each_line_must_be_one_json_value(self, preset_run, tmp_path):
        """A header split in two and the last two lines joined into one keep
        the line count, and the lines joined as one JSON array decode to the
        log's values; the loader still rejects the file at line 1."""
        header, *body = event_log_lines(preset_run)
        split = header.index("},{", header.index('"agents":[')) + 1
        lines = [header[:split], header[split + 1:], *body[:-2], f"{body[-2]},{body[-1]}"]
        assert len(lines) == len(body) + 1
        assert json.loads("[" + ",".join(lines) + "]") == [json.loads(line) for line in [header, *body]]
        path = tmp_path / "events.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        with pytest.raises(EventLogError) as exc_info:
            load_event_log(path)
        assert exc_info.value.line == 1

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

    def test_ids_holding_unicode_line_breaks_round_trip(self, preset_run, tmp_path):
        """The writer leaves U+2028 and U+0085 unescaped, as ``json`` does, and
        the loader splits lines at newlines only."""
        text = "".join(f"{line}\n" for line in event_log_lines(preset_run))
        text = text.replace('"a1"', '"a1\u2028"').replace('"a2"', '"a2\x85"')
        path = tmp_path / "events.jsonl"
        path.write_text(text, encoding="utf-8")
        loaded = load_event_log(path)
        assert any("a1\u2028" in g.orders for r in loaded.records for g in r.groups)
        _, *body = event_log_lines(replace(preset_run, records=loaded.records))
        assert "".join(f"{line}\n" for line in body) == text.split("\n", 1)[1]

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

    @pytest.mark.parametrize("existing", [None, b"old bytes"])
    def test_text_that_cannot_be_utf8_writes_nothing(self, tmp_path, existing):
        target = tmp_path / "trend.svg"
        if existing is not None:
            target.write_bytes(existing)
        with pytest.raises(UnicodeEncodeError):
            reporting.write_trend_svg([{s: 0.25 for s in Strategy}], "bad\udcff", target)
        if existing is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == existing

    @pytest.mark.parametrize("writer", ["events.jsonl", "census.csv", "trend.svg"])
    def test_failed_disk_write_removes_partial_file(self, preset_run, tmp_path, monkeypatch, writer):
        """A write that fails after some bytes reached the file leaves no file."""
        real_open = open

        def full_disk(path, mode):
            handle = real_open(path, mode)

            def write(data):
                handle.raw.write(data[:10])
                raise OSError("disk full")

            handle.write = write
            return handle

        monkeypatch.setattr(config_io, "open", full_disk, raising=False)
        target = tmp_path / writer
        series = census_series(preset_run.initial_census, preset_run.records)
        write = {
            "events.jsonl": lambda: write_event_log(preset_run, target),
            "census.csv": lambda: write_census_csv(series, target),
            "trend.svg": lambda: reporting.write_trend_svg(series, "t", target),
        }[writer]
        with pytest.raises(OSError, match="disk full"):
            write()
        assert not target.exists()

    @pytest.mark.parametrize("name", ["batch_summary.csv", "aggregate_stats.json"])
    def test_failed_batch_file_write_removes_partial_file(self, tmp_path, monkeypatch, capsys, name):
        """``replicate`` writes each batch file in one call: a write that fails
        after some bytes reached the file exits 1 and leaves no file."""
        from dinersim.cli import main

        real_open = open

        def full_disk(path, mode):
            handle = real_open(path, mode)
            if Path(path).name == name:
                def write(data):
                    handle.raw.write(data[:10])
                    raise OSError("disk full")

                handle.write = write
            return handle

        monkeypatch.setattr(config_io, "open", full_disk, raising=False)
        out = tmp_path / "batch"
        code = main(["replicate", "--combination", "1", "--punishment", "6:1", "--backend", "oracle",
                     "--seeds", "2", "--out", str(out)])
        assert code == 1
        assert "disk full" in capsys.readouterr().err
        assert not (out / name).exists()


class FailsInIteration3(DecisionBackend):
    """The oracle's rule, until a transport failure in iteration 3."""

    name = "fails-in-iteration-3"

    def decide(self, ctx):
        if ctx.iteration == 3:
            raise TransportError("injected fault")
        return oracle_decide(ctx)


class TestAbortedAndStoppedLogs:
    """Logs of runs that end before their last iteration load back to the
    run, and ``report`` rebuilds their census files byte for byte."""

    @pytest.mark.parametrize("case", ["aborted", "early-stop"])
    def test_log_reloads_to_the_run(self, oracle, tmp_path, case):
        from dinersim.cli import main, write_run_outputs

        if case == "aborted":
            result = run_simulation(oracle_preset(seed=3), FailsInIteration3())
            assert (result.handle.status, len(result.records)) == (RunStatus.ABORTED, 2)
        else:
            result = run_simulation(oracle_preset(1, "3:1", seed=3), oracle, early_stop=True)
            assert (result.handle.status, len(result.records)) == (RunStatus.CONVERGED, 3)
        run_dir = tmp_path / "run"
        loaded = load_event_log(write_run_outputs(result, run_dir))
        assert loaded.handle == result.handle
        assert loaded.records == result.records
        assert loaded.final_census == result.final_census
        rebuilt = tmp_path / "rebuilt"
        assert main(["report", "--log", str(run_dir / "events.jsonl"), "--out", str(rebuilt)]) == 0
        for name in ("census.csv", "trend.svg"):
            assert (rebuilt / name).read_bytes() == (run_dir / name).read_bytes(), name


def reference_lines(result) -> list[str]:
    """The event log of ``result`` with each line's fields as a dict, through
    ``json.dumps``: the writer's templates must give the same text."""

    def dumps(fields: dict) -> str:
        return json.dumps(fields, separators=(",", ":"), ensure_ascii=False)

    def counts(census: dict) -> dict:
        return {s.value: census.get(s, 0) for s in STRATEGY_ORDER}

    handle = result.handle
    lines = [dumps({
        "kind": "header", "schema": 1, "run_id": handle.run_id, "seed": handle.seed,
        "status": handle.status.value, "iterations_executed": handle.iterations_executed,
        "initial_census": counts(result.initial_census), "config": config_to_dict(result.config),
    })]
    for record in result.records:
        lines += [
            dumps({
                "kind": "orders", "iteration": record.iteration, "group": g.group_id, "location": g.location,
                "choices": {a: c.value for a, c in g.orders.items()}, "bill_total": g.bill_total,
                "meal_payoffs": g.meal_payoffs,
            })
            for g in record.groups
        ]
        lines += [
            dumps({
                "kind": "punishment", "iteration": e.iteration, "punisher": e.punisher_id,
                "target": e.target_id, "level": e.level.value, "cost_to_punisher": e.cost_to_punisher,
                "cost_to_target": e.cost_to_target,
            })
            for e in record.punishment_events
        ]
        lines.append(dumps({"kind": "utilities", "iteration": record.iteration, "values": record.iteration_utilities}))
        lines += [
            dumps({
                "kind": "imitation", "iteration": record.iteration, "focal": o.focal_id,
                "role_model": o.role_model_id, "payoff_diff": o.payoff_diff, "probability": o.probability,
                "uniform_draw": o.uniform_draw, "adopted": o.adopted,
            })
            for o in record.imitation_outcomes
        ]
        lines.append(dumps({"kind": "census", "iteration": record.iteration, "counts": counts(record.strategy_census)}))
    return lines


# Values as the writer may meet them: ints past 2**53, floats at the edges of
# their range and not finite, float subclasses and bools.
ODD_NUMBERS = st.one_of(
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf, 2**53 + 1]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.booleans(),
)
ODD_IDS = st.one_of(
    st.text(min_size=1, max_size=6),
    st.sampled_from(['"', "\\", 'say "hi"', "back\\slash", "\x00", "\x1f", "\x7f", "\u2028", "\x85", "zoë", "名前"]),
)


@st.composite
def odd_records(draw):
    """One iteration record of one or two groups, with odd ids and values."""
    agent_ids = draw(st.lists(ODD_IDS, min_size=2, max_size=7, unique=True))
    cut = draw(st.integers(1, len(agent_ids) - 1))
    groups = tuple(
        GroupRound(
            draw(ODD_IDS), draw(ODD_IDS),
            {a: draw(st.sampled_from(MealChoice)) for a in members},
            draw(ODD_NUMBERS),
            {a: draw(ODD_NUMBERS) for a in members},
            tuple(
                PunishmentEvent(draw(st.integers(0, 2**60)), draw(st.sampled_from(members)),
                                draw(st.sampled_from(members)), draw(st.sampled_from(PunishmentLevel)),
                                draw(ODD_NUMBERS), draw(ODD_NUMBERS))
                for _ in range(draw(st.integers(0, 2)))
            ),
            {a: draw(ODD_NUMBERS) for a in members},
        )
        for members in (agent_ids[:cut], agent_ids[cut:])[:draw(st.integers(1, 2))]
    )
    outcomes = tuple(
        ImitationOutcome(a, draw(st.sampled_from(agent_ids)), draw(ODD_NUMBERS), draw(ODD_NUMBERS),
                         draw(ODD_NUMBERS), draw(st.booleans()))
        for a in agent_ids
    )
    census = {s: draw(ODD_NUMBERS) for s in draw(st.lists(st.sampled_from(Strategy), unique=True))}
    return IterationRecord(draw(st.integers(0, 2**64)), groups, outcomes, census)


class TestTemplatedLines:
    @given(record=odd_records(), run_id=ODD_IDS, seed=st.integers(0, 2**64 - 1),
           status=st.sampled_from(RunStatus), executed=st.integers(0, 2**60))
    @settings(max_examples=300, deadline=None)
    def test_every_line_equals_json_dumps(self, record, run_id, seed, status, executed):
        config = replace(oracle_preset(), seed=seed)
        result = RunResult(RunHandle(run_id, seed, status, executed), config, [record])
        assert list(event_log_lines(result)) == reference_lines(result)

    @given(number=st.sampled_from([int, float]), punishment=st.sampled_from([(3, 1), (6, 1), (6.0, 1.5)]),
           seed=st.integers(0, 2**64 - 1), early_stop=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_int_and_float_menus(self, number, punishment, seed, early_stop):
        """Whole logs of runs whose menu and (p, k) are ints or floats."""
        from dinersim.backends.oracle import RuleOracle

        p, k = punishment
        config = make_config(
            [["M", "P", "E", "R1"], ["R1", "R1", "E", "M"]], p=p, k=k, seed=seed, iterations=4
        )
        config = replace(config, menu=MenuConfig(*map(number, (10, 12, 30, 22))))
        result = run_simulation(config, RuleOracle(), early_stop=early_stop)
        assert list(event_log_lines(result)) == reference_lines(result)


class TestCensusCsv:
    def test_preset_one_initial_row(self, preset_run, tmp_path):
        path = write_census_csv(
            census_series(preset_run.initial_census, preset_run.records), tmp_path / "census.csv"
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,M,P,E,R1"
        assert lines[1] == "0,0.375000,0.250000,0.125000,0.250000"
        assert len(lines) == 12  # header + iteration 0..10

    def test_preset_two_initial_row(self, oracle, tmp_path):
        result = run_simulation(oracle_preset(combination=2, punishment="3:1"), oracle)
        path = write_census_csv(census_series(result.initial_census, result.records), tmp_path / "census.csv")
        assert path.read_text().splitlines()[1] == "0,0.250000,0.250000,0.125000,0.375000"

    def test_homogeneous_population_rows(self, oracle, tmp_path):
        config = make_config([["M", "M", "M", "M"], ["M", "M", "M", "M"]])
        result = run_simulation(config, oracle)
        path = write_census_csv(census_series(result.initial_census, result.records), tmp_path / "census.csv")
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


def census_file_runs(oracle, case: str):
    """(run, title) of each run of a byte-pin case."""
    if case.startswith("paper"):
        return [
            (run_simulation(oracle_preset(c, p, seed), oracle, early_stop=case == "paper-early-stop"), None)
            for c, p in ((1, "3:1"), (1, "6:1"), (2, "3:1"), (2, "6:1"))
            for seed in range(8)
        ]
    config = {
        "T0": replace(oracle_preset(seed=3), iterations=0),
        "T1": replace(oracle_preset(seed=3), iterations=1),
        # Twelve agents give shares such as 1/12, and 25 iterations thin the ticks.
        "T25": replace(ROUND_TRIP_CONFIGS[3], iterations=25),
        "title": oracle_preset(seed=3),
    }[case]
    title = 'R&D <"shares"> & more' if case == "title" else None
    return [(run_simulation(config, oracle), title)]


class TestCensusFileBytes:
    # sha256 over census.csv then trend.svg of each run of a case, as
    # ``write_census_files`` writes them, recorded before the writers were
    # rewritten from templates. Equal runs must keep giving equal bytes.
    DIGESTS = {
        "paper": "a9c111fd7fd3836d71193fb3f2dfafb6310784a975ff2d5ddc0dc2736e591c12",
        "paper-early-stop": "9755021a5d4cfa6034c803b0ef1f27ce37bd3f351b2c37d0e2aed598f2d00d2f",
        "T0": "473e407c41db405b50c66f3c2dba1f6bf2cde6880512a0cffb9f68b4b0ff3d7d",
        "T1": "2900cd5095c8e7fe818dece5fd4490a04cbe5b22fe34da9634cc9c859e406432",
        "T25": "1a4e5c0e190419b073aaa6c27b0e5eaa0e1d46115e75588113f18ae6a9a5be97",
        "title": "39002a6bfdc6e296ee908ee82e6629e1697dc978b14ad7a76de2847a043c911d",
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_census_files_match_their_digest(self, oracle, tmp_path, case):
        from dinersim.cli import write_census_files

        h = hashlib.sha256()
        for run, title in census_file_runs(oracle, case):
            write_census_files(tmp_path, run, title)
            h.update((tmp_path / "census.csv").read_bytes())
            h.update((tmp_path / "trend.svg").read_bytes())
        assert h.hexdigest() == self.DIGESTS[case]


class TestConvergenceStats:
    def row(self, census, convergence=None, seed=0):
        status = RunStatus.CONVERGED if convergence else RunStatus.COMPLETED
        return BatchRow(RunHandle(f"r{seed}", seed, status, 10), convergence, census)

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
        rows = run_replications(oracle_preset(), oracle, [0, 1, 2])
        path = write_batch_summary_csv(rows, tmp_path / "batch.csv")
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
        rows = run_replications(
            oracle_preset(), oracle, [0, 1], on_run=lambda result: f"{result.handle.run_id}/events.jsonl"
        )
        assert [row.log_path for row in rows] == [f"{row.handle.run_id}/events.jsonl" for row in rows]
        lines = write_batch_summary_csv(rows, tmp_path / "batch.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [row.log_path for row in rows]
        assert all(row.log_path is None for row in run_replications(oracle_preset(), oracle, [0]))
