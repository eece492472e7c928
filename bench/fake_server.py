"""Scripted OpenAI-compatible chat-completion server for the benchmark.

Run as its own process on loopback; it prints ``PORT <n>`` once listening.

* A populate prompt is answered by its prompt hash from the script that
  ``cdmgen.dryrun.build_population_script`` produced. Hashes listed under
  ``broken`` get a deliberately faulty first reply (missing key, extra key,
  wrong type) or a reply wrapped in prose.
* A repair prompt is the original prompt plus a validation report, so it is
  mapped back to its original by the repair marker that starts the report,
  and always gets the correct reply.
* A coverage prompt is recognised by its system text and gets three
  deterministic lists.

Each reply is delayed by ``base_ms + prompt_ms_per_char * prompt chars +
completion_ms_per_char * completion chars``. The server never answers 429
or 5xx; an unscripted prompt gets 400, which the client treats as fatal.
``GET /stats`` returns the counters and ``POST /reset`` zeroes them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from cdmgen.gateway import PromptBundle
from cdmgen.gateway import prompt_hash as bundle_hash

COUNTERS = (
    "requests", "populate", "repair", "coverage", "prompt_chars",
    "completion_chars", "max_concurrent",
)


def prompt_hash(system_text: str, user_text: str) -> str:
    return bundle_hash(PromptBundle(system_text=system_text, user_text=user_text))


def break_reply(text: str, kind: str) -> str:
    """A faulty variant of a correct JSON reply."""
    if kind == "prose":
        return f"Here is the populated structure:\n{text}\nAll values come from the contract."
    payload = json.loads(text)
    if kind == "missing_key":
        payload.pop(next(iter(payload)))
    elif kind == "extra_key":
        payload["unexpectedNote"] = "see the term sheet"
    elif kind == "wrong_type":
        _retype_first_leaf(payload)
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return json.dumps(payload, ensure_ascii=False)


def _retype_first_leaf(node) -> bool:
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            if _retype_first_leaf(value):
                return True
            continue
        node[key] = "n/a" if isinstance(value, (bool, int, float)) else 0
        return True
    return False


def coverage_reply(user_text: str) -> str:
    tag = hashlib.sha256(user_text.encode("utf-8")).hexdigest()[:8]
    return json.dumps(
        {
            "captured": [f"term {tag}-{i}" for i in range(3)],
            "uncaptured": [f"missing {tag}"],
            "extraneous": [f"extra {tag}"],
        }
    )


class ScriptedModel:
    def __init__(self, config: dict):
        self.replies: dict[str, str] = config["replies"]
        self.broken: dict[str, str] = config["broken"]
        self.repair_marker: str = config["repair_marker"]
        self.coverage_system: str = config["coverage_system"]
        latency = config["latency"]
        self.base_s = latency["base_ms"] / 1000.0
        self.prompt_s = latency["prompt_ms_per_char"] / 1000.0
        self.completion_s = latency["completion_ms_per_char"] / 1000.0
        self.lock = threading.Lock()
        self.inflight = 0
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.counts = dict.fromkeys(COUNTERS, 0)

    def count(self, **deltas) -> None:
        with self.lock:
            for name, delta in deltas.items():
                self.counts[name] += delta

    def answer(self, system_text: str, user_text: str) -> tuple[str, str] | None:
        """(kind, reply) for a prompt, or None when it is not scripted."""
        if system_text == self.coverage_system:
            return "coverage", coverage_reply(user_text)
        key = prompt_hash(system_text, user_text)
        if key in self.replies:
            fault = self.broken.get(key)
            reply = self.replies[key]
            return "populate", break_reply(reply, fault) if fault else reply
        cut = user_text.find(self.repair_marker)
        if cut > 0:
            original = prompt_hash(system_text, user_text[:cut])
            if original in self.replies:
                return "repair", self.replies[original]
        return None

    def delay(self, prompt_chars: int, completion_chars: int) -> float:
        return self.base_s + self.prompt_s * prompt_chars + self.completion_s * completion_chars


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; without TCP_NODELAY the
    # second one waits for a delayed ACK (~40 ms on Linux).
    disable_nagle_algorithm = True
    model: ScriptedModel

    def log_message(self, format, *args):  # noqa: A002 - signature of the base class
        pass

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.model.lock:
            counts = dict(self.model.counts)
        self._send(200, counts)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        if self.path == "/reset":
            self.model.reset()
            self._send(200, {})
            return
        model = self.model
        body = json.loads(raw)
        messages = {m["role"]: m["content"] for m in body["messages"]}
        system_text, user_text = messages.get("system", ""), messages.get("user", "")
        with model.lock:
            model.inflight += 1
            model.counts["max_concurrent"] = max(model.counts["max_concurrent"], model.inflight)
        try:
            answered = model.answer(system_text, user_text)
            prompt_chars = len(system_text) + len(user_text)
            if answered is None:
                model.count(requests=1, prompt_chars=prompt_chars)
                self._send(400, {"error": {"message": "unscripted prompt"}})
                return
            kind, text = answered
            model.count(**{"requests": 1, kind: 1, "prompt_chars": prompt_chars, "completion_chars": len(text)})
            time.sleep(model.delay(prompt_chars, len(text)))
            self._send(
                200,
                {
                    "object": "chat.completion",
                    "choices": [
                        {
                            "index": 0,
                            "message": {"role": "assistant", "content": text},
                            "finish_reason": "stop",
                        }
                    ],
                    "usage": {"prompt_tokens": prompt_chars // 4, "completion_tokens": len(text) // 4},
                },
            )
        finally:
            with model.lock:
                model.inflight -= 1


def _exit_with(parent: int) -> None:
    """End the server when the benchmark that started it is gone."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="JSON file with replies, faults and latency")
    args = parser.parse_args(argv)
    Handler.model = ScriptedModel(json.loads(Path(args.config).read_text(encoding="utf-8")))
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=_exit_with, args=(os.getppid(),), daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
