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
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path
from string import Template
from typing import Callable, Sequence, TypeVar

import numpy as np
import requests

from ..model import BackendConfig, PunishmentMode
from .base import (
    BackendError,
    Decision,
    DecisionBackend,
    DecisionContext,
    DecisionKind,
    ORDER_CHOICES,
    ParseError,
    PromptRenderError,
    PUNISH_CHOICES,
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


def load_templates(template_dir: str | None = None) -> dict[DecisionKind, Template]:
    """Load the four stage templates from a directory or the shipped defaults."""
    templates = {}
    for kind, filename in TEMPLATE_FILES.items():
        if template_dir is not None:
            text = (Path(template_dir) / filename).read_text(encoding="utf-8")
        else:
            text = (resources.files(__package__) / "templates" / filename).read_text(
                encoding="utf-8"
            )
        templates[kind] = Template(text)
    return templates


def render_prompt(ctx: DecisionContext, templates: dict[DecisionKind, Template]) -> str:
    """Bind every placeholder or fail before any network traffic."""
    roster_lines = [
        f"- {entry.name}" + (f": {entry.visible_action}" if entry.visible_action else "")
        for entry in ctx.roster
    ]
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
        "strategy_description": ctx.actor_strategy_description,
        "punished_note": (
            "You have been scolded for ordering premium before."
            if ctx.actor_r1_punished
            else "You have never been scolded for your orders."
        ),
        "roster": "\n".join(roster_lines) if roster_lines else "- (nobody else)",
        "menu": ctx.menu_description or "",
        "punishment_note": punishment_note,
        "target_name": ctx.target_name or "",
        "evidence": ctx.evidence or "",
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
    except json.JSONDecodeError as exc:
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
    allowed = ORDER_CHOICES if ctx.kind is DecisionKind.ORDER else PUNISH_CHOICES
    if choice not in allowed:
        raise SchemaError(f"decision {raw_choice!r} is outside the enum {list(allowed)}")

    severity = None
    if "severity" in data and data["severity"] is not None:
        raw = data["severity"]
        if (
            not isinstance(raw, dict)
            or set(raw) != {"p", "k"}
            or not all(isinstance(raw[key], (int, float)) and not isinstance(raw[key], bool) for key in ("p", "k"))
        ):
            raise SchemaError('severity must be an object {"p": number, "k": number}')
        severity = (float(raw["p"]), float(raw["k"]))

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
        rng: np.random.Generator | None = None,
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
        self.rng = rng
        self.trace = trace
        self.templates = load_templates(self.settings.template_dir)

    def for_run(self, rng: np.random.Generator) -> "LlmBackend":
        clone = copy.copy(self)
        clone.rng = rng
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
        url = f"{self.base_url}/chat/completions"
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

        last_error: Exception | None = None
        for attempt in range(self.settings.transport_retries + 1):
            if attempt:
                self._sleep(attempt)
            try:
                response = requests.post(url, json=body, headers=headers, timeout=self.settings.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code in _RETRYABLE_STATUS:
                last_error = TransportError(f"HTTP {response.status_code} from {url}")
                continue
            if response.status_code != 200:
                raise TransportError(
                    f"HTTP {response.status_code} from {url}: {response.text[:200]}"
                )
            try:
                payload = response.json()
                content = payload["choices"][0]["message"]["content"]
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
        jitter = float(self.rng.random()) if self.rng is not None else 0.0
        time.sleep(self.settings.backoff_base * (2 ** (attempt - 1)) * (1.0 + jitter))


def _redact(headers: dict[str, str]) -> dict[str, str]:
    return {
        key: ("Bearer ***" if key.lower() == "authorization" else value)
        for key, value in headers.items()
    }
