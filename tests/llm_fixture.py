"""Local chat-completions fixture server for LLM backend tests.

The handler scripts replies by ``mode``. Oracle replay parses the rendered
prompt for the strategy label, punished flag, and decision kind, then answers
with the rule oracle's choice, mimicking a perfectly accurate model.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_STRATEGY_RE = re.compile(r"Your strategy \[(P|R1|E|M)\]")


def oracle_reply(prompt: str) -> dict:
    strategy = _STRATEGY_RE.search(prompt).group(1)
    if '"budget" or "premium"' in prompt:
        punished = "You have been scolded for ordering premium before." in prompt
        decision = "premium" if strategy == "R1" and not punished else "budget"
    elif "off without a scolding" in prompt or "did not scold them" in prompt:
        decision = "punish" if strategy == "M" else "abstain"
    elif "pushed part of its cost" in prompt:
        decision = "punish" if strategy in ("P", "M") else "abstain"
    else:
        raise AssertionError(f"fixture could not classify prompt:\n{prompt}")
    return {"decision": decision, "reasoning": "scripted oracle replay"}


class FixtureServer:
    """Threaded HTTP server answering /chat/completions per the active mode."""

    def __init__(self, mode: str = "oracle"):
        self.mode = mode
        self.requests: list[dict] = []
        self.headers: list = []  # each request's headers, looked up case-insensitively
        self.bodies: list[bytes] = []  # each request's body as sent
        self.request_lines: list[str] = []  # each request's first line, as a proxy sees the full URL
        self._lock = threading.Lock()
        self._scripted: list[tuple[int, bytes, dict[str, str]]] = []  # pending (status, body, headers) replies to serve first
        self._stalls: list[float] = []  # pending seconds to wait before closing without a reply

        fixture = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # keep test output quiet
                pass

            def do_GET(self):  # only a followed redirect would send one
                with fixture._lock:
                    fixture.headers.append(self.headers)
                self.send_error(405)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length)
                body = json.loads(raw or b"{}")
                with fixture._lock:
                    fixture.requests.append(body)
                    fixture.headers.append(self.headers)
                    fixture.bodies.append(raw)
                    fixture.request_lines.append(self.requestline)
                    stall = fixture._stalls.pop(0) if fixture._stalls else None
                    pending = fixture._scripted.pop(0) if stall is None and fixture._scripted else None
                if stall is not None:
                    time.sleep(stall)
                    return
                if pending is not None:
                    status, reply, headers = pending
                    self.send_response(status)
                    for name, value in headers.items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(reply)
                    return
                content = fixture.reply_for(body)
                payload = json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": content}}]}
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    def reply_for(self, body: dict) -> str:
        messages = body.get("messages", [])
        prompt = messages[0]["content"] if messages else ""
        mode = self.mode
        if mode == "oracle":
            return json.dumps(oracle_reply(prompt))
        if mode == "repair-then-oracle":
            # Prose first; the repaired conversation carries extra messages.
            if len(messages) == 1:
                return "Hmm, tricky one. Let me think it through step by step."
            return json.dumps(oracle_reply(prompt))
        if mode == "always-premium":
            return json.dumps({"decision": "Premium", "reasoning": "scripted"})
        if mode == "always-abstain":
            if '"budget" or "premium"' in prompt:
                return json.dumps({"decision": "budget", "reasoning": "scripted"})
            return json.dumps({"decision": "Abstain", "reasoning": "scripted"})
        if mode == "severity":
            if '"budget" or "premium"' in prompt:
                return json.dumps(oracle_reply(prompt))
            return json.dumps(
                {"decision": "Punish", "severity": {"p": 4, "k": 1}, "reasoning": "scripted"}
            )
        if mode == "bad-enum":
            return json.dumps({"decision": "maybe", "reasoning": "scripted"})
        if mode == "garbage":
            return "I would rather write a poem about dinner."
        raise AssertionError(f"unknown fixture mode {mode!r}")

    def fail_next(self, statuses: list[int]) -> None:
        self.reply_next([(status, b"scripted failure") for status in statuses])

    def reply_next(self, replies: list[tuple[int, bytes]], headers: dict[str, str] | None = None) -> None:
        """Answer the next requests with these (status, body) pairs, in order,
        each with ``headers``."""
        with self._lock:
            self._scripted.extend((status, body, headers or {}) for status, body in replies)

    def stall_next(self, seconds: list[float]) -> None:
        """Hold each of the next requests this long, then close without a reply."""
        with self._lock:
            self._stalls.extend(seconds)

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}/v1"

    def __enter__(self) -> "FixtureServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
