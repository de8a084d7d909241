from __future__ import annotations

from dataclasses import replace

import pytest

from dinersim.backends.accuracy import build_scenario_suite
from dinersim.backends.base import (
    DecisionKind,
    ParseError,
    PromptRenderError,
    SchemaError,
    TransportError,
)
from dinersim.backends.llm import LlmBackend, load_templates, parse_reply, render_prompt
from dinersim.model import BackendConfig, PunishmentMode

from llm_fixture import FixtureServer


def fast_settings(**overrides) -> BackendConfig:
    base = dict(kind="llm", backoff_base=0.001, timeout=5.0)
    base.update(overrides)
    return BackendConfig(**base)


def make_backend(server: FixtureServer, **overrides) -> LlmBackend:
    return LlmBackend(
        settings=fast_settings(**overrides),
        base_url=server.base_url,
        model="fixture-model",
        api_key="test-key",
    )


@pytest.fixture()
def suite():
    return build_scenario_suite()


@pytest.fixture()
def order_ctx(suite):
    return next(s.ctx for s in suite if s.ctx.kind is DecisionKind.ORDER)


@pytest.fixture()
def punish_ctx(suite):
    return next(s.ctx for s in suite if s.ctx.kind is DecisionKind.PUNISH_DEFECTOR)


class TestParseReply:
    def test_plain_reply(self, order_ctx):
        decision = parse_reply('{"decision": "Budget", "reasoning": "cheap"}', order_ctx)
        assert decision.choice == "budget"
        assert decision.rationale == "cheap"

    def test_fenced_reply(self, order_ctx):
        text = '```json\n{"decision": "premium", "reasoning": "treat"}\n```'
        assert parse_reply(text, order_ctx).choice == "premium"

    def test_prose_is_parse_error(self, order_ctx):
        with pytest.raises(ParseError):
            parse_reply("I will go with the budget meal.", order_ctx)

    def test_enum_violation_is_schema_error(self, order_ctx):
        with pytest.raises(SchemaError):
            parse_reply('{"decision": "soup"}', order_ctx)

    def test_unexpected_keys_rejected(self, order_ctx):
        with pytest.raises(SchemaError):
            parse_reply('{"decision": "budget", "mood": "hungry"}', order_ctx)

    def test_severity_in_explicit_mode_rejected(self, punish_ctx):
        text = '{"decision": "punish", "severity": {"p": 3, "k": 1}}'
        with pytest.raises(SchemaError):
            parse_reply(text, punish_ctx)

    def test_severity_required_in_backend_decided_mode(self, punish_ctx):
        ctx = replace(
            punish_ctx,
            punishment_mode=PunishmentMode.BACKEND_DECIDED,
            punishment_p=None,
            punishment_k=None,
        )
        with pytest.raises(SchemaError):
            parse_reply('{"decision": "punish"}', ctx)
        decision = parse_reply(
            '{"decision": "punish", "severity": {"p": 4, "k": 1}, "reasoning": "x"}', ctx
        )
        assert decision.severity == (4.0, 1.0)


class TestPromptRendering:
    def test_every_kind_renders_fully(self, suite):
        templates = load_templates()
        for scenario in suite:
            prompt = render_prompt(scenario.ctx, templates)
            assert "$" not in prompt  # no unbound placeholders slipped through
            assert scenario.ctx.actor_name in prompt
            assert f"[{scenario.ctx.actor_strategy.value}]" in prompt

    def test_unbound_placeholder_fails_before_network(self, tmp_path, order_ctx):
        for name in ("order", "punish_defector", "punish_non_punisher", "punish_meta_non_punisher"):
            (tmp_path / f"{name}.txt").write_text("Hello $actor_name, you owe $made_up_thing\n")
        templates = load_templates(str(tmp_path))
        with pytest.raises(PromptRenderError, match="made_up_thing"):
            render_prompt(order_ctx, templates)


class TestLlmDecide:
    def test_echo_fixture(self, order_ctx):
        with FixtureServer(mode="oracle") as server:
            backend = make_backend(server)
            decision = backend.decide(order_ctx)
        assert decision.choice in ("budget", "premium")
        assert decision.rationale == "scripted oracle replay"

    def test_repair_path_retries_once(self, order_ctx):
        with FixtureServer(mode="repair-then-oracle") as server:
            backend = make_backend(server)
            decision = backend.decide(order_ctx)
            assert len(server.requests) == 2  # prose, then repaired reply
            repair_msgs = server.requests[1]["messages"]
        assert decision.choice in ("budget", "premium")
        # the repair conversation carries the failed reply and the parse error
        assert len(repair_msgs) == 3
        assert "could not be used" in repair_msgs[2]["content"]

    def test_parse_error_after_exhausted_repairs(self, order_ctx):
        with FixtureServer(mode="garbage") as server:
            backend = make_backend(server, repair_retries=2)
            with pytest.raises(ParseError):
                backend.decide(order_ctx)
            assert len(server.requests) == 3  # initial + 2 repairs

    def test_schema_error_surfaces(self, order_ctx):
        with FixtureServer(mode="bad-enum") as server:
            backend = make_backend(server, repair_retries=1)
            with pytest.raises(SchemaError):
                backend.decide(order_ctx)

    def test_severity_fixture_in_backend_decided_mode(self, punish_ctx):
        ctx = replace(
            punish_ctx,
            punishment_mode=PunishmentMode.BACKEND_DECIDED,
            punishment_p=None,
            punishment_k=None,
        )
        with FixtureServer(mode="severity") as server:
            decision = make_backend(server).decide(ctx)
        assert decision.choice == "punish"
        assert decision.severity == (4.0, 1.0)

    def test_transport_retry_then_success(self, order_ctx):
        with FixtureServer(mode="oracle") as server:
            server.fail_next([500])
            backend = make_backend(server, transport_retries=2)
            decision = backend.decide(order_ctx)
            assert len(server.requests) == 2
        assert decision.choice in ("budget", "premium")

    def test_transport_error_after_bounded_retries(self, order_ctx):
        with FixtureServer(mode="oracle") as server:
            server.fail_next([500] * 10)
            backend = make_backend(server, transport_retries=2)
            with pytest.raises(TransportError):
                backend.decide(order_ctx)
            assert len(server.requests) == 3  # initial + 2 retries

    def test_non_retryable_http_error_raises_immediately(self, order_ctx):
        with FixtureServer(mode="oracle") as server:
            server.fail_next([401])
            backend = make_backend(server, transport_retries=3)
            with pytest.raises(TransportError, match="401"):
                backend.decide(order_ctx)
            assert len(server.requests) == 1

    def test_missing_endpoint_configuration(self, monkeypatch):
        monkeypatch.delenv("LLM_BASE_URL", raising=False)
        monkeypatch.delenv("LLM_MODEL", raising=False)
        with pytest.raises(TransportError, match="LLM_BASE_URL"):
            LlmBackend(settings=fast_settings())

    def test_decide_many_preserves_order(self, suite):
        contexts = [s.ctx for s in suite[:12]]
        with FixtureServer(mode="oracle") as server:
            sequential = make_backend(server).decide_many(contexts)
            concurrent = make_backend(server, max_concurrency=4).decide_many(contexts)
        assert [d.choice for d in concurrent] == [d.choice for d in sequential]

    def test_decide_each_concurrent_matches_serial(self, suite):
        contexts = [s.ctx for s in suite]
        with FixtureServer(mode="oracle") as server:
            serial = make_backend(server).decide_each(contexts)
            concurrent = make_backend(server, max_concurrency=4).decide_each(contexts)
        assert [d.choice for d in concurrent] == [d.choice for d in serial]
        assert [d.choice for d in serial] == [s.expected_choice for s in suite]

    def test_decide_each_keeps_every_failure_in_its_slot(self, suite):
        contexts = [s.ctx for s in suite[:12]]
        with FixtureServer(mode="garbage") as server:
            results = make_backend(server, max_concurrency=4, repair_retries=0).decide_each(contexts)
            assert len(server.requests) == len(contexts)
        assert len(results) == len(contexts)
        assert all(isinstance(r, ParseError) for r in results)

    def test_backend_decided_simulation_records_chosen_severities(self):
        from dinersim.model import paper_preset, validate_config
        from dinersim.runner import run_simulation

        settings = fast_settings(max_concurrency=4)
        config = paper_preset(1, None, seed=3, backend=settings)
        validate_config(config)
        with FixtureServer(mode="severity") as server:
            backend = LlmBackend(settings=settings, base_url=server.base_url,
                                 model="fixture-model", api_key="k")
            result = run_simulation(config, backend)
        events = result.records[0].punishment_events
        assert len(events) == 6  # every non-defector punishes each group's R1
        assert {(e.cost_to_target, e.cost_to_punisher) for e in events} == {(4.0, 1.0)}

    def test_explicit_mode_llm_run_matches_oracle_run(self):
        from dinersim.backends.oracle import RuleOracle
        from dinersim.model import paper_preset, validate_config
        from dinersim.runner import run_simulation

        settings = fast_settings()
        config = paper_preset(1, "6:1", seed=3, backend=settings)
        validate_config(config)
        with FixtureServer(mode="oracle") as server:
            backend = LlmBackend(settings=settings, base_url=server.base_url,
                                 model="fixture-model", api_key="k")
            llm_result = run_simulation(config, backend)
        oracle_config = paper_preset(1, "6:1", seed=3, backend=BackendConfig(kind="oracle"))
        oracle_result = run_simulation(oracle_config, RuleOracle())
        assert [r.strategy_census for r in llm_result.records] == [
            r.strategy_census for r in oracle_result.records
        ]

    def test_api_key_never_logged(self, order_ctx, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="dinersim.backends.llm"):
            with FixtureServer(mode="oracle") as server:
                backend = LlmBackend(
                    settings=fast_settings(),
                    base_url=server.base_url,
                    model="fixture-model",
                    api_key="super-secret-token",
                    trace=True,
                )
                backend.decide(order_ctx)
        assert "super-secret-token" not in caplog.text
        assert "Bearer ***" in caplog.text
