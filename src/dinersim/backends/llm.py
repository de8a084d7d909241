"""HTTP decision backend for a chat-completions style endpoint.

The client renders a stage-specific prompt, sends one chat request, and
parses a strict JSON reply of the shape::

    {"decision": "<enum string>", "severity": {"p": n, "k": n}?, "reasoning": "..."}

Transport failures are retried with exponential backoff plus jitter; parse
and schema failures trigger bounded "repair" retries that feed the error back
to the model. The client never fabricates a decision: when retries are
exhausted it raises, and the engine's error policy decides what happens.
"""

from __future__ import annotations

import copy
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from string import Template
from typing import Callable, Sequence, TypeVar

from ..config_io import read_text
from ..model import BackendConfig, MenuConfig, PunishmentMode, Strategy
from ..streams import Stream
from .base import (
    BackendError,
    Decision,
    DecisionBackend,
    DecisionContext,
    DecisionKind,
    ParseError,
    PromptRenderError,
    RosterEntry,
    SchemaError,
    TransportError,
    check_decision,
)

log = logging.getLogger(__name__)

T = TypeVar("T")

ENV_BASE_URL = "LLM_BASE_URL"
ENV_MODEL = "LLM_MODEL"
ENV_API_KEY = "LLM_API_KEY"

TEMPLATE_FILES = {
    DecisionKind.ORDER: "order.txt",
    DecisionKind.PUNISH_DEFECTOR: "punish_defector.txt",
    DecisionKind.PUNISH_NON_PUNISHER: "punish_non_punisher.txt",
    DecisionKind.PUNISH_META_NON_PUNISHER: "punish_meta_non_punisher.txt",
}

_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

# What a request cannot carry. ``http.client`` encodes header values as
# Latin-1 and refuses line breaks in them, and sends the URL as ASCII,
# refusing whitespace and control characters; only the host may be non-ASCII,
# since the backend IDNA-encodes it.
_UNSENDABLE_IN_KEY = re.compile(r"[^\x20-\x7e\xa0-\xff]")
_UNSENDABLE_IN_URL = re.compile(r"[\s\x00-\x1f\x7f-\x9f]")

# Each strategy's behavioural contract, as the prompts state it; the rule
# oracle implements the same contracts.
STRATEGY_DESCRIPTIONS: dict[Strategy, str] = {
    Strategy.COOPERATOR_PUNISHER: (
        "You always order the budget meal. Whenever another diner orders the "
        "premium meal, you scold them for pushing their cost onto the table. "
        "You do not scold anyone for anything other than ordering premium."
    ),
    Strategy.RELUCTANT_COOPERATOR: (
        "You order the premium meal to maximise your own enjoyment, until the "
        "first time you are scolded for it. From then on you always order the "
        "budget meal. You never scold anyone yourself."
    ),
    Strategy.EASY_GOING_COOPERATOR: (
        "You always order the budget meal, and you never scold anyone, no "
        "matter what they do."
    ),
    Strategy.MORALIST: (
        "You always order the budget meal. You scold diners who order the "
        "premium meal, you scold diners who failed to scold a premium "
        "orderer, and you scold diners who failed to scold those bystanders "
        "in turn."
    ),
}


def menu_description(menu: MenuConfig) -> str:
    return (
        f"budget meal (price {menu.budget_cost:g}, worth {menu.budget_value:g} to you) or "
        f"premium meal (price {menu.premium_cost:g}, worth {menu.premium_value:g} to you); "
        "the table has agreed to split the total bill equally"
    )


def _join(names: Sequence[str]) -> str:
    if not names:
        return "nobody"
    if len(names) == 1:
        return names[0]
    return ", ".join(names[:-1]) + " and " + names[-1]


def _roster_line(entry: RosterEntry) -> str:
    seen = [f"ordered the {entry.order.value} meal"] if entry.order else []
    seen += [f"scolded {name}" for name in entry.scolded]
    return f"- {entry.name}: " + "; ".join(seen) if seen else f"- {entry.name}"


# What the target of each punish kind did, as its prompt states it.
_EVIDENCE = {
    DecisionKind.PUNISH_DEFECTOR: "{target} ordered the premium meal and pushed part of its cost onto the table.",
    DecisionKind.PUNISH_NON_PUNISHER: "{target} saw {spared} order premium and did not scold them.",
    DecisionKind.PUNISH_META_NON_PUNISHER: "{target} let {spared} off without a scolding for ignoring defection.",
}


def load_templates(template_dir: str | None = None) -> dict[DecisionKind, Template]:
    """Load the four stage templates from a directory or the shipped
    defaults, with CRLF and CR line ends read as LF."""
    directory = Path(__file__).parent / "templates" if template_dir is None else Path(template_dir)
    templates = {}
    for kind, filename in TEMPLATE_FILES.items():
        text = read_text(directory / filename, "template")
        templates[kind] = Template(text.replace("\r\n", "\n").replace("\r", "\n"))
    return templates


def render_prompt(ctx: DecisionContext, templates: dict[DecisionKind, Template]) -> str:
    """Bind every placeholder or fail before any network traffic."""
    roster_lines = [_roster_line(entry) for entry in ctx.roster]
    if ctx.punishment_mode is PunishmentMode.EXPLICIT:
        punishment_note = (
            f"House rule: scolding someone costs you {ctx.punishment_k:g} and costs "
            f"the scolded diner {ctx.punishment_p:g}."
        )
    else:
        punishment_note = (
            "There is no fixed penalty scale here: if you scold someone, you choose "
            "how costly it is for them (p) and for you (k)."
        )
    if ctx.kind is DecisionKind.ORDER:
        reply_format = '{"decision": "budget" or "premium", "reasoning": "one short sentence"}'
    elif ctx.punishment_mode is PunishmentMode.BACKEND_DECIDED:
        reply_format = (
            '{"decision": "punish" or "abstain", '
            '"severity": {"p": number, "k": number} (required when punishing), '
            '"reasoning": "one short sentence"}'
        )
    else:
        reply_format = '{"decision": "punish" or "abstain", "reasoning": "one short sentence"}'

    values = {
        "actor_name": ctx.actor_name,
        "location": ctx.location,
        "iteration": str(ctx.iteration),
        "lifestyle": ctx.actor_lifestyle or "(none given)",
        "strategy_label": ctx.actor_strategy.value,
        "strategy_description": STRATEGY_DESCRIPTIONS[ctx.actor_strategy],
        "punished_note": (
            "You have been scolded for ordering premium before."
            if ctx.actor_r1_punished
            else "You have never been scolded for your orders."
        ),
        "roster": "\n".join(roster_lines) if roster_lines else "- (nobody else)",
        "menu": menu_description(ctx.menu) if ctx.menu else "",
        "punishment_note": punishment_note,
        "target_name": ctx.target_name or "",
        "evidence": _EVIDENCE.get(ctx.kind, "").format(target=ctx.target_name, spared=_join(ctx.spared)),
        "reply_format": reply_format,
    }
    try:
        return templates[ctx.kind].substitute(values)
    except (KeyError, ValueError) as exc:
        raise PromptRenderError(f"template for {ctx.kind.value} has an unbound placeholder: {exc}") from exc


def parse_reply(content: str, ctx: DecisionContext) -> Decision:
    """Strictly parse a model reply into a Decision; no guessing."""
    text = content.strip()
    if text.startswith("```"):
        text = text.strip("`")
        if text.startswith("json"):
            text = text[4:]
        text = text.strip()
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        raise ParseError(f"reply is not a JSON object: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"reply must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"decision", "severity", "reasoning"}
    if unknown:
        raise SchemaError(f"unexpected keys in reply: {sorted(unknown)}")
    raw_choice = data.get("decision")
    if not isinstance(raw_choice, str):
        raise SchemaError("reply must carry a 'decision' string")
    choice = raw_choice.strip().lower()

    severity = None
    if "severity" in data and data["severity"] is not None:
        raw = data["severity"]
        if (
            not isinstance(raw, dict)
            or set(raw) != {"p", "k"}
            or not all(isinstance(raw[key], (int, float)) and not isinstance(raw[key], bool) for key in ("p", "k"))
        ):
            raise SchemaError('severity must be an object {"p": number, "k": number}')
        try:
            severity = (float(raw["p"]), float(raw["k"]))
        except OverflowError as exc:  # an integer literal beyond float range
            raise SchemaError(f"severity values must be finite: {exc}") from exc

    rationale = data.get("reasoning", "")
    if not isinstance(rationale, str):
        raise SchemaError("'reasoning' must be a string")
    return check_decision(Decision(choice=choice, severity=severity, rationale=rationale), ctx)


class LlmBackend(DecisionBackend):
    """Chat-completions client bound to endpoint/model/key configuration.

    Endpoint settings default to the LLM_BASE_URL, LLM_MODEL and LLM_API_KEY
    environment variables. Up to ``settings.max_concurrency`` requests may be
    in flight at once in :meth:`decide_many` and :meth:`decide_each`; results
    always come back in input order.
    """

    name = "llm"

    def __init__(
        self,
        settings: BackendConfig | None = None,
        *,
        base_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        trace: bool = False,
    ):
        self.settings = settings or BackendConfig(kind="llm")
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL, "")).rstrip("/")
        self.model = model or os.environ.get(ENV_MODEL, "")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY)
        if not self.base_url:
            raise TransportError(f"no endpoint configured; set {ENV_BASE_URL}")
        if not self.model:
            raise TransportError(f"no model configured; set {ENV_MODEL}")
        if self.api_key and _UNSENDABLE_IN_KEY.search(self.api_key):
            raise TransportError("API key holds a character outside printable Latin-1")
        self.rng: Stream | None = None  # bound per run by for_run, with its own lock
        self._rng_lock = threading.Lock()
        self.trace = trace
        self.templates = load_templates(self.settings.template_dir)
        # The HTTP stack loads with the first LLM backend, not with the
        # package: oracle-only commands start without it, and an LLM run
        # pays for it here in set-up rather than in its first request.
        import ssl
        from urllib import parse, request

        parts = parse.urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise TransportError(f"endpoint {self.base_url!r} is not an http:// or https:// URL")
        userinfo, _, host_and_port = parts.netloc.rpartition("@")
        host, _, port = host_and_port.partition(":")
        outside_host = userinfo + port + parts.path + parts.query + parts.fragment
        if _UNSENDABLE_IN_URL.search(self.base_url) or not outside_host.isascii():
            raise TransportError(
                f"endpoint {self.base_url!r} holds whitespace, a control character"
                " or a non-ASCII character outside its host"
            )
        # Through a proxy the whole URL goes into the request line, which
        # http.client sends as ASCII, so the host is IDNA-encoded here for
        # every connection. Everything before the host is ASCII, so its first
        # occurrence is the host.
        endpoint = self.base_url
        if not host.isascii():
            try:
                endpoint = endpoint.replace(host, host.encode("idna").decode("ascii"), 1)
            except UnicodeError as exc:
                raise TransportError(f"endpoint host {host!r} cannot be IDNA-encoded: {exc}") from None
        self._url = f"{endpoint}/chat/completions"
        # Transport handlers only: no redirect or error handler, so every
        # reply comes back as it is and a 3xx is a failed request, never a
        # second request carrying the API key. The endpoint, or the proxy
        # for its scheme unless no_proxy bypasses the endpoint's host, is
        # thus the only URL the opener opens, and the SSL context (a load of
        # the CA store) is built only when one of them is https. urllib
        # parses that proxy at every request, so one it cannot parse fails
        # here, once. The opener serves every clone and thread.
        proxy = request.getproxies().get(parts.scheme, "")
        if proxy and request.proxy_bypass(request.Request(self._url).host):
            proxy = ""
        handlers = [request.HTTPHandler()]
        if proxy:
            try:
                request._parse_proxy(proxy)  # what ProxyHandler runs per request
            except ValueError as exc:
                raise TransportError(f"the {parts.scheme} proxy cannot be used: {exc}") from None
            handlers.append(request.ProxyHandler({parts.scheme: proxy}))
        if parts.scheme == "https" or proxy.lower().startswith("https://"):
            handlers.append(request.HTTPSHandler(context=ssl.create_default_context()))
        self._opener = request.OpenerDirector()
        for handler in handlers:
            self._opener.add_handler(handler)

    def for_run(self, rng: Stream) -> "LlmBackend":
        clone = copy.copy(self)
        clone.rng = rng
        clone._rng_lock = threading.Lock()
        return clone

    def decide(self, ctx: DecisionContext) -> Decision:
        prompt = render_prompt(ctx, self.templates)
        messages = [{"role": "user", "content": prompt}]
        last_error: Exception | None = None
        for attempt in range(self.settings.repair_retries + 1):
            content = self._complete(messages)
            try:
                decision = parse_reply(content, ctx)
            except (ParseError, SchemaError) as exc:
                last_error = exc
                if attempt < self.settings.repair_retries:
                    log.info(
                        "repairing %s reply for %s (attempt %d): %s",
                        ctx.kind.value, ctx.actor_name, attempt + 1, exc,
                    )
                    messages = messages + [
                        {"role": "assistant", "content": content},
                        {
                            "role": "user",
                            "content": (
                                f"Your reply could not be used: {exc}. Reply again with "
                                "only the JSON object in the requested shape."
                            ),
                        },
                    ]
                continue
            return decision
        assert last_error is not None
        raise last_error

    def decide_many(self, contexts: Sequence[DecisionContext]) -> list[Decision]:
        return self._pooled(self.decide, contexts)

    def decide_each(self, contexts: Sequence[DecisionContext]) -> list[Decision | BackendError]:
        return self._pooled(self._decide_or_error, contexts)

    def _pooled(self, answer: Callable[[DecisionContext], T], contexts: Sequence[DecisionContext]) -> list[T]:
        """``answer`` every context with up to ``max_concurrency`` in flight, in input order."""
        if self.settings.max_concurrency <= 1 or len(contexts) <= 1:
            return [answer(ctx) for ctx in contexts]
        workers = min(self.settings.max_concurrency, len(contexts))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(answer, contexts))

    def _complete(self, messages: list[dict[str, str]]) -> str:
        """One chat completion with bounded transport retries."""
        import http.client  # loaded with urllib.request by __init__

        url = self._url
        body = {
            "model": self.model,
            "messages": messages,
            "temperature": self.settings.temperature,
            "top_p": self.settings.top_p,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        if self.trace:
            log.info("llm request %s: %s", _redact(headers), json.dumps(body)[:2000])
        data = json.dumps(body, allow_nan=False).encode("utf-8")

        last_error: Exception | None = None
        for attempt in range(self.settings.transport_retries + 1):
            if attempt:
                self._sleep(attempt)
            try:
                # Looked up per call, so that a wrapper on ``llm.http_post`` sees it.
                status, reply = http_post(self._opener, url, data, headers, self.settings.timeout)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status in _RETRYABLE_STATUS:
                last_error = TransportError(f"HTTP {status} from {url}")
                continue
            if status != 200:
                raise TransportError(
                    f"HTTP {status} from {url}: {reply.decode('utf-8', 'replace')[:200]}"
                )
            try:
                content = json.loads(reply)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed completion payload from {url}: {exc}") from exc
            if not isinstance(content, str):
                raise TransportError("completion content is not text")
            if self.trace:
                log.info("llm response: %s", content[:2000])
            return content
        raise TransportError(
            f"endpoint {url} unreachable after {self.settings.transport_retries + 1} attempts: "
            f"{last_error}"
        )

    def _sleep(self, attempt: int) -> None:
        # Pool threads share the run's stream, which takes no lock itself.
        with self._rng_lock:
            jitter = self.rng.random() if self.rng is not None else 0.0
        time.sleep(self.settings.backoff_base * (2 ** (attempt - 1)) * (1.0 + jitter))


def http_post(opener, url: str, data: bytes, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
    """POST ``data`` to ``url`` once through ``opener``, an
    ``urllib.request.OpenerDirector`` without error handlers: the reply's
    status and body, whatever the status.

    Raises ``OSError`` or ``http.client.HTTPException`` when no whole reply
    arrives.
    """
    from urllib.request import Request  # loaded by LlmBackend

    with opener.open(Request(url, data, headers), timeout=timeout) as response:
        return response.status, response.read()


def _redact(headers: dict[str, str]) -> dict[str, str]:
    return {
        key: ("Bearer ***" if key.lower() == "authorization" else value)
        for key, value in headers.items()
    }
