"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import layers  # noqa: E402
from spans import Tracer, reduce_spans  # noqa: E402
from stub import PROSE_EVERY, PROSE_REPLY, UNAVAILABLE_EVERY, FaultSchedule, oracle_reply  # noqa: E402

from dinersim.backends.accuracy import build_scenario_suite  # noqa: E402
from dinersim.backends.llm import load_templates, render_prompt  # noqa: E402
from dinersim.backends.oracle import RuleOracle  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def suite_prompts() -> list[str]:
    templates = load_templates()
    return [render_prompt(s.ctx, templates) for s in build_scenario_suite()]


def bodies() -> list[dict]:
    """Every suite prompt as a first turn, plus lifestyle variants for volume."""
    out = []
    for i, prompt in enumerate(suite_prompts() * 20):
        out.append({"messages": [{"role": "user", "content": f"{prompt}\n(variant {i})"}]})
    return out


def test_fault_schedule_is_deterministic():
    requests = bodies()
    first, second = FaultSchedule(), FaultSchedule()
    assert [first.answer(b) for b in requests] == [second.answer(b) for b in requests]
    assert first.stats == second.stats


def test_fault_mix_rates_and_retry_pattern():
    schedule = FaultSchedule()
    requests = bodies()
    answers = [schedule.answer(b) for b in requests]
    n = len(requests)
    unavailable = [b for b, (status, _) in zip(requests, answers) if status == 503]
    prose = sum(content == PROSE_REPLY for _, content in answers)
    assert abs(len(unavailable) / n - 1 / UNAVAILABLE_EVERY) < 0.02
    assert abs(prose / n - 1 / PROSE_EVERY) < 0.03
    # A 503-scheduled body fails on every odd attempt and succeeds on the even ones.
    body = unavailable[0]
    assert [schedule.answer(body)[0] for _ in range(4)] == [200, 503, 200, 503]


def test_stub_answers_like_the_oracle():
    for scenario, prompt in zip(build_scenario_suite(), suite_prompts()):
        assert oracle_reply(prompt)["decision"] == scenario.expected_choice


def test_trace_wrappers_restore_module_attributes():
    owners = [layers.cli, layers.runner, layers.engine, layers.reporting, layers.config_io,
              layers.accuracy, layers.llm, layers.requests, layers.DecisionBackend, layers.LlmBackend]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    layers.instrument(tracer)
    assert layers.runner.run_group_round is not before[1]["run_group_round"]
    tracer.restore()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved), owner
        changed = [k for k in saved if now[k] is not saved[k]]
        assert not changed, (owner, changed)


def test_class_wrap_refuses_inherited_attribute():
    # RuleOracle inherits decide_many; wrapping it there would shadow the base.
    with pytest.raises(ValueError):
        Tracer().wrap(RuleOracle, "decide_many", "backend.decide_many")


def test_self_time_subtracts_direct_children():
    spans = [
        (0, "outer", 0.0, 10.0, -1),
        (1, "inner", 1.0, 4.0, 0),
        (2, "inner", 5.0, 6.0, 0),
        (3, "leaf", 1.5, 2.0, 1),
    ]
    stats = reduce_spans(spans)
    assert stats["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert stats["inner"] == {"calls": 2, "s": 4.0, "self_s": 3.5}


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    emitted = layers.layer_metrics(Tracer(), cycles=1, runs=1, max_concurrency=1, overhead_pct=0.0)
    assert list(emitted) == [name for name, _, _ in layers.PER_LAYER]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    names = list(emitted) + [m["name"] for m in spec["end_to_end"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
