from __future__ import annotations

import json

import pytest

from dinersim.backends.accuracy import (
    build_scenario_suite,
    evaluate_accuracy,
    load_suite,
    save_suite,
)
from dinersim.backends.base import DecisionKind
from dinersim.backends.llm import LlmBackend
from dinersim.backends.oracle import RuleOracle
from dinersim.config_io import ConfigFormatError, to_data
from dinersim.model import BackendConfig, Strategy

from llm_fixture import FixtureServer


def fixture_backend(server: FixtureServer, max_concurrency: int = 1) -> LlmBackend:
    return LlmBackend(
        settings=BackendConfig(kind="llm", backoff_base=0.001, timeout=5.0, max_concurrency=max_concurrency),
        base_url=server.base_url,
        model="fixture-model",
        api_key="test-key",
    )


def test_suite_shape():
    suite = build_scenario_suite()
    # 4 kinds x (3 strategies x 1 flag + R1 x 2 flags) x 3 lifestyles
    assert len(suite) == 4 * 5 * 3
    assert len({s.scenario_id for s in suite}) == len(suite)


def test_oracle_self_evaluation_is_perfect():
    report = evaluate_accuracy(RuleOracle(), build_scenario_suite())
    assert report.accuracy == 1.0
    for table in (report.by_kind, report.by_strategy, report.by_lifestyle):
        assert all(cell.accuracy == 1.0 for cell in table.values())
    assert report.failures == []


def test_mock_llm_replaying_oracle_answers_is_perfect():
    suite = build_scenario_suite()
    with FixtureServer(mode="oracle") as server:
        report = evaluate_accuracy(fixture_backend(server), suite)
    assert report.matched == report.total == len(suite)
    assert report.accuracy == 1.0


@pytest.mark.parametrize("mode", ["oracle", "always-premium"])
def test_concurrent_report_equals_serial_report(mode):
    suite = build_scenario_suite()
    with FixtureServer(mode=mode) as server:
        serial = evaluate_accuracy(fixture_backend(server), suite)
        concurrent = evaluate_accuracy(fixture_backend(server, max_concurrency=4), suite)
    # always-premium fails every punish scenario, so this also pins the failure order
    assert concurrent.to_dict() == serial.to_dict()
    assert concurrent.transport_failures == serial.transport_failures == 0


def test_always_premium_matches_suite_fraction():
    suite = build_scenario_suite()
    with FixtureServer(mode="always-premium") as server:
        report = evaluate_accuracy(fixture_backend(server), suite)
    order_scenarios = [s for s in suite if s.ctx.kind is DecisionKind.ORDER]
    expected = sum(s.expected_choice == "premium" for s in order_scenarios) / len(order_scenarios)
    assert report.by_kind["order"].accuracy == pytest.approx(expected)
    # per the oracle, only the fresh reluctant cooperator orders premium
    assert expected == pytest.approx(3 / 15)
    # punish scenarios all got "premium", an enum violation: zero accuracy there
    assert report.by_kind["punish_defector"].accuracy == 0.0


def test_always_abstain_matches_abstain_fraction():
    suite = build_scenario_suite()
    with FixtureServer(mode="always-abstain") as server:
        report = evaluate_accuracy(fixture_backend(server), suite)
    defector_scenarios = [s for s in suite if s.ctx.kind is DecisionKind.PUNISH_DEFECTOR]
    expected = sum(s.expected_choice == "abstain" for s in defector_scenarios) / len(
        defector_scenarios
    )
    assert report.by_kind["punish_defector"].accuracy == pytest.approx(expected)
    # P and M punish defectors; E and both R1 variants abstain
    assert expected == pytest.approx(9 / 15)


def test_backend_error_counts_as_mismatch():
    suite = build_scenario_suite()[:5]
    with FixtureServer(mode="oracle") as server:
        backend = fixture_backend(server)
        server.fail_next([500] * 12)  # enough to exhaust retries for the first scenario
        report = evaluate_accuracy(backend, suite)
    assert report.total == 5
    assert report.matched < 5
    assert any("unreachable" in failure for failure in report.failures)


def test_lifestyle_rows_reported_separately():
    report = evaluate_accuracy(RuleOracle(), build_scenario_suite())
    assert set(report.by_lifestyle) == {"morning_runner", "newspaper_reader", "photographer"}
    assert all(cell.total == 20 for cell in report.by_lifestyle.values())


def test_suite_save_load_round_trip(tmp_path):
    suite = build_scenario_suite()
    path = tmp_path / "suite.json"
    save_suite(suite, path)
    assert load_suite(path) == suite
    assert "null" not in path.read_text()


def test_suite_with_explicit_nulls_still_loads(tmp_path):
    # The writer leaves out None fields; a suite that spells them as null loads the same.
    data = to_data(build_scenario_suite())
    for item in data:
        for key in ("punishment_p", "punishment_k", "menu", "target_name"):
            item["ctx"].setdefault(key, None)
        for entry in item["ctx"]["roster"]:
            entry.setdefault("order", None)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(data, indent=2))
    assert load_suite(path) == build_scenario_suite()


# The ctx and roster keys after "mood" and "age" held prompt prose in suites
# written before contexts became structural; such a suite must be regenerated.
@pytest.mark.parametrize("where, key", [
    ("", "difficulty"),
    ("ctx", "mood"),
    ("roster", "age"),
    ("ctx", "evidence"),
    ("ctx", "menu_description"),
    ("ctx", "actor_strategy_description"),
    ("roster", "visible_action"),
])
def test_suite_unknown_key_rejected(tmp_path, where, key):
    data = to_data(build_scenario_suite()[:3])
    target = {"": data[1], "ctx": data[1]["ctx"], "roster": data[1]["ctx"]["roster"][0]}[where]
    target[key] = 1
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigFormatError, match=key) as exc_info:
        load_suite(path)
    assert "suite[1]" in str(exc_info.value)


def test_report_to_dict_is_json_ready():
    report = evaluate_accuracy(RuleOracle(), build_scenario_suite())
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["accuracy"] == 1.0
    assert payload["by_strategy"][Strategy.MORALIST.value]["total"] == 12
