"""Chat-completions stub for the llm-fixture workload.

Answers POST /v1/chat/completions like the rule oracle after a fixed
latency, with a deterministic fault mix:

- about 1 in 10 first-turn prompts is answered with prose first, which sends
  the client down its repair path;
- about 1 in 20 requests is answered 503 on its odd-numbered attempts, so the
  client's first try fails and its immediate transport retry succeeds.

Both faults are chosen from a hash of the request, never from a clock or a
random stream, so the same requests always cost the same number of round
trips. GET /stats returns the counters as JSON.

Run it as its own process (``python3 perfbench/stub.py``): it
prints ``port <n>`` once it listens and exits when its standard input closes,
so it never outlives the benchmark that started it.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LATENCY_S = 0.020  # added to every POST before it is answered
PROSE_EVERY = 10
UNAVAILABLE_EVERY = 20
PROSE_REPLY = "Let me think about the table first. The bill is split, so it depends."

_STRATEGY_RE = re.compile(r"Your strategy \[(P|R1|E|M)\]")


def oracle_reply(prompt: str) -> dict:
    """The rule oracle's answer, read back from a rendered prompt."""
    match = _STRATEGY_RE.search(prompt)
    if match is None:
        raise ValueError("prompt carries no strategy label")
    strategy = match.group(1)
    if '"budget" or "premium"' in prompt:
        punished = "You have been scolded for ordering premium before." in prompt
        decision = "premium" if strategy == "R1" and not punished else "budget"
    elif "off without a scolding" in prompt or "did not scold them" in prompt:
        decision = "punish" if strategy == "M" else "abstain"
    elif "pushed part of its cost" in prompt:
        decision = "punish" if strategy in ("P", "M") else "abstain"
    else:
        raise ValueError("prompt matches no decision kind")
    return {"decision": decision, "reasoning": "oracle replay"}


def _bucket(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class FaultSchedule:
    """Maps each request body to (HTTP status, reply content), deterministically.

    The only state is an attempt counter per distinct body, which makes the
    503 fault hit every odd attempt: a logical request always costs exactly
    two round trips, however often the same prompt recurs.
    """

    def __init__(self) -> None:
        self._attempts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self.stats: Counter[str] = Counter(requests=0, unavailable=0, prose=0)

    def answer(self, body: dict) -> tuple[int, str]:
        messages = body.get("messages") or [{"content": ""}]
        key = json.dumps(messages, sort_keys=True)
        with self._lock:
            self._attempts[key] += 1
            attempt = self._attempts[key]
            self.stats["requests"] += 1
            if _bucket("503" + key) % UNAVAILABLE_EVERY == 0 and attempt % 2 == 1:
                self.stats["unavailable"] += 1
                return 503, ""
            prompt = messages[0]["content"]
            if len(messages) == 1 and _bucket(prompt) % PROSE_EVERY == 0:
                self.stats["prose"] += 1
                return 200, PROSE_REPLY
        return 200, json.dumps(oracle_reply(prompt))


def make_server() -> ThreadingHTTPServer:
    schedule = FaultSchedule()

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args) -> None:
            pass

        def _send(self, status: int, payload: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self) -> None:
            if self.path != "/stats":
                self._send(404, b"{}")
                return
            with schedule._lock:
                payload = json.dumps(dict(schedule.stats)).encode("utf-8")
            self._send(200, payload)

        def do_POST(self) -> None:
            if self.path != "/v1/chat/completions":
                self._send(404, b"{}")
                return
            length = int(self.headers.get("Content-Length", "0"))
            try:
                body = json.loads(self.rfile.read(length))
                status, content = schedule.answer(body)
            except (ValueError, KeyError, TypeError) as exc:
                self._send(400, json.dumps({"error": str(exc)}).encode("utf-8"))
                return
            time.sleep(LATENCY_S)
            if status != 200:
                self._send(status, b'{"error": "unavailable"}')
                return
            reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
            self._send(200, json.dumps(reply).encode("utf-8"))

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> int:
    server = make_server()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns at EOF, when the parent closes the pipe or exits
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
