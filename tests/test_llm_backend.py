from __future__ import annotations

import hashlib
import json
import socket
import ssl
import sys
import threading
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from dinersim.backends.accuracy import build_scenario_suite
from dinersim.backends.base import (
    Decision,
    DecisionBackend,
    DecisionContext,
    DecisionKind,
    ParseError,
    PromptRenderError,
    RosterEntry,
    SchemaError,
    TransportError,
)
from dinersim.backends import llm
from dinersim.backends.llm import LlmBackend, load_templates, parse_reply, render_prompt
from dinersim.backends.oracle import oracle_decide
from dinersim.cli import main
from dinersim.config_io import read_text
from dinersim.model import BackendConfig, MealChoice, PunishmentMode, paper_preset
from dinersim.runner import run_simulation
from dinersim.streams import Stream

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

    @pytest.mark.parametrize("bad", ["-1", "NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
    def test_negative_or_non_finite_severity_rejected(self, punish_ctx, bad):
        ctx = replace(
            punish_ctx,
            punishment_mode=PunishmentMode.BACKEND_DECIDED,
            punishment_p=None,
            punishment_k=None,
        )
        for severity in (f'{{"p": {bad}, "k": 1}}', f'{{"p": 4, "k": {bad}}}'):
            with pytest.raises(SchemaError):
                parse_reply(f'{{"decision": "punish", "severity": {severity}}}', ctx)

    def test_integer_past_the_digit_limit_is_a_backend_error(self, order_ctx):
        # ParseError where json enforces the int digit limit (Python >= 3.10.7),
        # SchemaError (reasoning is not a string) where it does not.
        with pytest.raises((ParseError, SchemaError)):
            parse_reply('{"decision": "budget", "reasoning": ' + "9" * 5000 + "}", order_ctx)


class TestPromptRendering:
    def test_every_kind_renders_fully(self, suite):
        templates = load_templates()
        for scenario in suite:
            prompt = render_prompt(scenario.ctx, templates)
            assert "$" not in prompt  # no unbound placeholders slipped through
            assert scenario.ctx.actor_name in prompt
            assert f"[{scenario.ctx.actor_strategy.value}]" in prompt

    def test_roster_line_lists_the_order_then_each_scold(self, punish_ctx):
        entry = RosterEntry(name="Bo Lindqvist", order=MealChoice.BUDGET,
                            scolded=("Farid Khan", "Carmen Diaz"))
        prompt = render_prompt(replace(punish_ctx, roster=(entry,)), load_templates())
        assert "\n- Bo Lindqvist: ordered the budget meal; scolded Farid Khan; scolded Carmen Diaz\n" in prompt

    @pytest.mark.parametrize("spared, joined", [
        (("Bo Lindqvist",), "Bo Lindqvist"),
        (("Bo Lindqvist", "Carmen Diaz"), "Bo Lindqvist and Carmen Diaz"),
        (("Ann Ito", "Bo Lindqvist", "Carmen Diaz"), "Ann Ito, Bo Lindqvist and Carmen Diaz"),
    ])
    def test_spared_names_are_joined(self, suite, spared, joined):
        templates = load_templates()
        evidence = {
            DecisionKind.PUNISH_NON_PUNISHER: f"Farid Khan saw {joined} order premium and did not scold them.",
            DecisionKind.PUNISH_META_NON_PUNISHER: (
                f"Farid Khan let {joined} off without a scolding for ignoring defection."
            ),
        }
        for kind, sentence in evidence.items():
            ctx = next(s.ctx for s in suite if s.ctx.kind is kind)
            assert f"\n{sentence}\n" in render_prompt(replace(ctx, spared=spared), templates)

    def test_backend_decided_punishment_note(self, punish_ctx):
        ctx = replace(punish_ctx, punishment_mode=PunishmentMode.BACKEND_DECIDED,
                      punishment_p=None, punishment_k=None)
        prompt = render_prompt(ctx, load_templates())
        assert (
            "\nThere is no fixed penalty scale here: if you scold someone, you choose "
            "how costly it is for them (p) and for you (k).\n"
        ) in prompt
        assert "House rule" not in prompt
        assert '"severity": {"p": number, "k": number} (required when punishing)' in prompt

    def test_unbound_placeholder_fails_before_network(self, tmp_path, order_ctx):
        for name in ("order", "punish_defector", "punish_non_punisher", "punish_meta_non_punisher"):
            (tmp_path / f"{name}.txt").write_text("Hello $actor_name, you owe $made_up_thing\n")
        templates = load_templates(str(tmp_path))
        with pytest.raises(PromptRenderError, match="made_up_thing"):
            render_prompt(order_ctx, templates)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_template_dir_newlines_read_as_the_packaged_ones(self, tmp_path, newline):
        shipped = load_templates()
        for filename in llm.TEMPLATE_FILES.values():
            data = (Path(llm.__file__).parent / "templates" / filename).read_bytes()
            (tmp_path / filename).write_bytes(data.replace(b"\n", newline))
        loaded = load_templates(str(tmp_path))
        assert {kind: t.template for kind, t in loaded.items()} == {kind: t.template for kind, t in shipped.items()}

    def test_packaged_templates_are_read_through_the_package_reader(self, monkeypatch):
        calls = []

        def counting_read_text(path, what):
            calls.append((Path(path).name, what))
            return read_text(path, what)

        monkeypatch.setattr(llm, "read_text", counting_read_text)
        LlmBackend(base_url="http://127.0.0.1:9/v1", model="m")
        assert sorted(calls) == sorted((name, "template") for name in llm.TEMPLATE_FILES.values())


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

    def test_concurrent_backoffs_take_one_jitter_draw_each(self, monkeypatch):
        """Pool threads back off on one run's stream, which takes no lock of
        its own: every backoff gets its own draw, none is lost or repeated."""
        delays = []
        monkeypatch.setattr(llm.time, "sleep", delays.append)
        backend = LlmBackend(settings=fast_settings(backoff_base=1.0), base_url="http://127.0.0.1:9/v1",
                             model="m").for_run(HandOverStream(3, 1))
        threads, calls = 8, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=lambda: [backend._sleep(1) for _ in range(calls)])
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        reference = Stream(3, 1)
        want = [1.0 + reference.random() for _ in range(threads * calls)]
        assert sorted(delays) == sorted(want)
        assert backend.rng.random() == reference.random()  # advanced by exactly threads * calls draws

    def test_each_run_gets_its_own_jitter_lock(self):
        backend = LlmBackend(settings=fast_settings(), base_url="http://127.0.0.1:9/v1", model="m")
        first, second = backend.for_run(Stream(1, 1)), backend.for_run(Stream(2, 1))
        assert first._rng_lock is not second._rng_lock


class HandOverStream(Stream):
    """A ``Stream`` whose ``random`` hands the interpreter to another thread
    between reading its state and storing it, as an interpreter may between
    any two bytecodes: unguarded concurrent draws then lose steps."""

    __slots__ = ()
    _pause = time.sleep  # the real one, taken before a test patches it

    def random(self) -> float:
        state = self._state
        HandOverStream._pause(0)
        self._state = state
        return Stream.random(self)


def closed_port() -> int:
    """A loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture()
def no_proxy_env(monkeypatch):
    for name in ("HTTP_PROXY", "http_proxy", "HTTPS_PROXY", "https_proxy", "NO_PROXY", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


@pytest.fixture()
def ssl_contexts(monkeypatch):
    """Every SSL context ``ssl.create_default_context`` builds during the test."""
    built = []
    create = ssl.create_default_context

    def counting_create(*args, **kwargs):
        built.append(create(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ssl, "create_default_context", counting_create)
    return built


@pytest.fixture()
def attempts(monkeypatch):
    """The URL of every ``llm.http_post`` call during the test."""
    urls = []
    post = llm.http_post

    def counting_post(*args):
        urls.append(args[1])
        return post(*args)

    monkeypatch.setattr(llm, "http_post", counting_post)
    return urls


class TestTransport:
    def test_nothing_listening_fails_after_every_attempt(self, order_ctx, attempts):
        backend = LlmBackend(settings=fast_settings(transport_retries=2),
                             base_url=f"http://127.0.0.1:{closed_port()}/v1", model="m")
        with pytest.raises(TransportError, match="unreachable after 3 attempts"):
            backend.decide(order_ctx)
        assert len(attempts) == 3

    def test_reply_slower_than_timeout_is_retried(self, order_ctx):
        with FixtureServer(mode="oracle") as server:
            server.stall_next([1.0])
            decision = make_backend(server, timeout=0.2, transport_retries=1).decide(order_ctx)
            assert len(server.requests) == 2
        assert decision.rationale == "scripted oracle replay"

    @pytest.mark.parametrize("reply, problem", [
        (b"<html>busy</html>", "malformed completion payload"),
        (b'{"id": "x"}', "malformed completion payload"),
        (b'{"choices": []}', "malformed completion payload"),
        (b'{"choices": [{"message": {"content": 7}}]}', "completion content is not text"),
    ], ids=["not-json", "no-choices", "empty-choices", "content-not-string"])
    def test_malformed_200_reply_is_transport_error(self, order_ctx, reply, problem):
        with FixtureServer(mode="oracle") as server:
            server.reply_next([(200, reply)])
            with pytest.raises(TransportError, match=problem):
                make_backend(server, transport_retries=3).decide(order_ctx)
            assert len(server.requests) == 1

    @pytest.mark.parametrize("base_url", [
        "file:///etc", "ftp://127.0.0.1/v1", "localhost:8080/v1", "127.0.0.1:8080/v1", "http:///v1",
    ])
    def test_endpoint_that_is_not_http_is_rejected_when_built(self, base_url):
        with pytest.raises(TransportError, match="is not an http:// or https:// URL"):
            LlmBackend(settings=fast_settings(), base_url=base_url, model="m")

    @pytest.mark.parametrize("api_key", ["abc\n", "k\u20acy", "a\x00b", "a\rb", "a\x85b"],
                             ids=["newline", "not-latin-1", "nul", "carriage-return", "c1-control"])
    def test_key_that_cannot_be_sent_is_rejected_when_built(self, api_key):
        with FixtureServer(mode="oracle") as server:
            with pytest.raises(TransportError, match="API key holds a character outside printable Latin-1") as err:
                LlmBackend(settings=fast_settings(), base_url=server.base_url, model="m", api_key=api_key)
            assert server.requests == []
        assert api_key not in str(err.value)

    @pytest.mark.parametrize("base_url", [
        "{server}/v\u00e91", "{server}/v 1", "{server}/v1 ", "{server}/v\t1", "{server}/v1\n", "{server}/v\x7f1",
        "{server}/v1?q=\u00e9", "{server}/v1#\u00e9", "{server}/v\u30001",
        "http://exa mple.org/v1", "http://\u00fcser@example.org/v1",
    ], ids=["non-ascii-path", "space", "trailing-space", "tab", "newline", "del", "non-ascii-query",
            "non-ascii-fragment", "ideographic-space", "space-in-host", "non-ascii-user"])
    def test_url_that_cannot_be_sent_is_rejected_when_built(self, base_url):
        with FixtureServer(mode="oracle") as server:
            base_url = base_url.format(server=server.base_url.removesuffix("/v1"))
            with pytest.raises(TransportError, match="holds whitespace, a control character or a non-ASCII"):
                LlmBackend(settings=fast_settings(), base_url=base_url, model="m")
            assert server.requests == []

    def test_internationalised_host_is_accepted_when_built(self):
        backend = LlmBackend(settings=fast_settings(), base_url="https://b\u00fccher.example/v1", model="m")
        assert backend.base_url == "https://b\u00fccher.example/v1"

    @pytest.mark.parametrize("base_url, request_line", [
        ("http://b\u00fccher.example/v1", "POST http://xn--bcher-kva.example/v1/chat/completions HTTP/1.1"),
        ("http://B\u00dcCHER.example:8080/v1", "POST http://xn--bcher-kva.example:8080/v1/chat/completions HTTP/1.1"),
    ], ids=["host", "host-and-port"])
    def test_internationalised_host_goes_through_a_proxy_idna_encoded(self, order_ctx, no_proxy_env,
                                                                      base_url, request_line):
        with FixtureServer(mode="oracle") as proxy:
            no_proxy_env.setenv("HTTP_PROXY", proxy.base_url.removesuffix("/v1"))
            decision = LlmBackend(settings=fast_settings(), base_url=base_url, model="m").decide(order_ctx)
            assert proxy.request_lines == [request_line]
        assert decision.rationale == "scripted oracle replay"

    @pytest.mark.parametrize("host", ["\u00fc" * 64 + ".example", "b\ufffcx.example"],
                             ids=["label-too-long", "prohibited-character"])
    def test_host_that_idna_cannot_encode_is_rejected_when_built(self, host):
        with pytest.raises(TransportError, match="cannot be IDNA-encoded"):
            LlmBackend(settings=fast_settings(), base_url=f"http://{host}/v1", model="m")

    @pytest.mark.parametrize("api_key, authorization", [("test-key", "Bearer test-key"), ("cl\u00e9", "Bearer cl\u00e9"), ("", None)])
    def test_headers_and_body_bytes(self, order_ctx, api_key, authorization):
        with FixtureServer(mode="oracle") as server:
            LlmBackend(settings=fast_settings(), base_url=server.base_url,
                       model="fixture-model", api_key=api_key).decide(order_ctx)
        (headers,) = server.headers
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == authorization
        body = {
            "model": "fixture-model",
            "messages": [{"role": "user", "content": render_prompt(order_ctx, load_templates())}],
            "temperature": 0.2,
            "top_p": 0.9,
        }
        assert server.bodies == [json.dumps(body, allow_nan=False).encode("utf-8")]

    def test_proxy_is_used_unless_no_proxy_covers_the_host(self, order_ctx, no_proxy_env, ssl_contexts):
        no_proxy_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port()}")
        with FixtureServer(mode="oracle") as server:
            with pytest.raises(TransportError, match="unreachable after 2 attempts"):
                make_backend(server, transport_retries=1).decide(order_ctx)
            assert server.requests == []
            no_proxy_env.setenv("NO_PROXY", "127.0.0.1")
            make_backend(server).decide(order_ctx)
            assert len(server.requests) == 1
        assert ssl_contexts == []  # an http endpoint behind an http proxy needs no TLS

    def test_proxy_urllib_cannot_parse_is_a_transport_error_when_built(self, tmp_path, no_proxy_env, capsys):
        no_proxy_env.setenv("HTTP_PROXY", "https:/x")
        no_proxy_env.setenv("LLM_BASE_URL", f"http://127.0.0.1:{closed_port()}/v1")
        no_proxy_env.setenv("LLM_MODEL", "m")
        code = main(["eval-backend", "--backend", "llm", "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: the http proxy cannot be used: proxy URL with no authority: 'https:/x'\n"
        assert not (tmp_path / "r.json").exists()

    def test_proxy_urllib_cannot_parse_is_unused_when_no_proxy_covers_the_host(self, order_ctx, no_proxy_env):
        no_proxy_env.setenv("HTTP_PROXY", "https:/x")
        no_proxy_env.setenv("NO_PROXY", "127.0.0.1")
        with FixtureServer(mode="oracle") as server:
            decision = make_backend(server).decide(order_ctx)
            assert len(server.requests) == 1
        assert decision.rationale == "scripted oracle replay"

    def test_http_endpoint_builds_no_ssl_context(self, suite, no_proxy_env, ssl_contexts):
        contexts = [s.ctx for s in suite[:4]]
        with FixtureServer(mode="oracle") as server:
            backend = make_backend(server, max_concurrency=2).for_run(Stream(1, 1))
            decisions = backend.decide_each(contexts)
            assert len(server.requests) == len(contexts)
        assert [d.choice for d in decisions] == [s.expected_choice for s in suite[:4]]
        assert ssl_contexts == []

    def test_https_endpoint_builds_one_verifying_ssl_context_when_built(self, order_ctx, no_proxy_env,
                                                                       ssl_contexts):
        backend = LlmBackend(settings=fast_settings(transport_retries=1),
                             base_url=f"https://127.0.0.1:{closed_port()}/v1", model="m")
        (context,) = ssl_contexts
        assert context.verify_mode is ssl.CERT_REQUIRED and context.check_hostname
        with pytest.raises(TransportError, match="unreachable after 2 attempts"):
            backend.for_run(Stream(1, 1)).decide(order_ctx)
        assert ssl_contexts == [context]

    @pytest.mark.parametrize("scheme", ["https", "HTTPS"])
    def test_http_endpoint_behind_an_https_proxy_builds_one_ssl_context(self, order_ctx, no_proxy_env,
                                                                        ssl_contexts, scheme):
        no_proxy_env.setenv("HTTP_PROXY", f"{scheme}://127.0.0.1:{closed_port()}")
        backend = LlmBackend(settings=fast_settings(transport_retries=1), base_url="http://llm.example/v1", model="m")
        assert len(ssl_contexts) == 1
        with pytest.raises(TransportError, match="unreachable after 2 attempts") as err:
            backend.decide(order_ctx)
        assert "unknown url type" not in str(err.value)
        assert len(ssl_contexts) == 1

    @pytest.mark.parametrize("tls_to", ["endpoint", "proxy"])
    def test_tls_to_a_plain_http_port_fails_every_attempt(self, order_ctx, no_proxy_env, attempts, tls_to):
        with FixtureServer(mode="oracle") as server:
            plain = server.base_url.removeprefix("http://")
            if tls_to == "endpoint":
                base_url = f"https://{plain}"
            else:
                base_url = "http://llm.example/v1"
                no_proxy_env.setenv("HTTP_PROXY", f"https://{plain.removesuffix('/v1')}")
            backend = LlmBackend(settings=fast_settings(transport_retries=2), base_url=base_url, model="m")
            with pytest.raises(TransportError, match="unreachable after 3 attempts: .*WRONG_VERSION_NUMBER"):
                backend.decide(order_ctx)
            assert server.requests == [] and server.request_lines == []
        assert len(attempts) == 3

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, order_ctx, status):
        with FixtureServer(mode="oracle") as server, FixtureServer(mode="oracle") as elsewhere:
            server.reply_next([(status, b"moved")], headers={"Location": f"{elsewhere.base_url}/chat/completions"})
            with pytest.raises(TransportError, match=f"HTTP {status} from "):
                make_backend(server, transport_retries=3).decide(order_ctx)
            assert len(server.requests) == 1
        assert elsewhere.headers == []


# sha256 of the prompts rendered with the default templates, concatenated in
# the order they were rendered: over the scenario suite, and over every
# decision of the preset runs in test_run_prompts_match_the_recorded_digest.
# Recorded while the engine still wrote the prompt sentences into each
# context; moving that prose into the LLM backend must not change a byte.
SUITE_PROMPTS_DIGEST = "973cc9517e3c03e3a3948805fd36ae514aae9e31fb5da27bbbc02e22783a0b1d"
RUN_PROMPTS_DIGEST = "f193f1addb9b20d58f9d382be21d5e0ae831d11d926056dff2a79d94d0413a8e"


class PromptRecorder(DecisionBackend):
    """Renders every context it is asked and answers like the rule oracle;
    in backend-decided mode it punishes with severity (2.5, 1.0)."""

    name = "prompt-recorder"

    def __init__(self):
        self.templates = load_templates()
        self.prompts: list[str] = []

    def decide(self, ctx: DecisionContext) -> Decision:
        self.prompts.append(render_prompt(ctx, self.templates))
        if ctx.punishment_mode is PunishmentMode.EXPLICIT:
            return oracle_decide(ctx)
        choice = oracle_decide(replace(ctx, punishment_mode=PunishmentMode.EXPLICIT)).choice
        return Decision(choice=choice, severity=(2.5, 1.0) if choice == "punish" else None)


def prompts_digest(prompts: list[str]) -> str:
    return hashlib.sha256("".join(prompts).encode("utf-8")).hexdigest()


def test_suite_prompts_match_the_recorded_digest():
    templates = load_templates()
    prompts = [render_prompt(scenario.ctx, templates) for scenario in build_scenario_suite()]
    assert len(prompts) == 60
    assert prompts_digest(prompts) == SUITE_PROMPTS_DIGEST


def test_run_prompts_match_the_recorded_digest():
    recorder = PromptRecorder()
    for combination, punishment, seed in product((1, 2), ("3:1", "6:1", None), range(8)):
        config = paper_preset(combination, punishment, seed, backend=BackendConfig(kind="llm"))
        run_simulation(config, recorder)
    assert len(recorder.prompts) == 5233
    assert prompts_digest(recorder.prompts) == RUN_PROMPTS_DIGEST
