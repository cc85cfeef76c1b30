"""Loopback stub of the LLM generation endpoint, for the ``llm`` workload.

It serves the contract ``HttpLlmClient`` speaks: ``POST /generate`` with
``{"prompt": str, "max_tokens": int}`` returns ``{"text": str}``. The reply is
a pure function of the prompt, chosen by prompt kind (keyword list, summary,
answer, judge scores), and is sent without any added delay. ``GET /stats``
returns the requests served and the TCP connections accepted so far.

Run: ``python3 perfbench/stub_llm.py``. It listens on 127.0.0.1 at a free
port, prints that port on one line of stdout, and shuts down when its stdin
closes, so it never outlives the benchmark that started it.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_WORD = re.compile(r"[a-z]+")


def _between(prompt: str, start: str, end: str | None = None) -> str:
    head = prompt.find(start)
    if head < 0:
        return ""
    head += len(start)
    tail = prompt.find(end, head) if end else -1
    return prompt[head:tail] if tail >= 0 else prompt[head:]


def _first_sentence(text: str) -> str:
    text = text.strip()
    stop = text.find(". ")
    return text[:stop + 1] if stop >= 0 else text


def reply(prompt: str) -> str | None:
    """Canned reply for a prompt, or None for a prompt of unknown kind."""
    if "keyword extractor" in prompt:
        section = _between(prompt, "**Beginning of text**", "**End of text**")
        words = list(dict.fromkeys(_WORD.findall(section.lower())))[:12]
        return json.dumps(words)
    if "summarization assistant" in prompt:
        section = _between(prompt, "**Section Text**:")
        return " ".join(section.split()[:60])
    if "question answering assistant" in prompt:
        return _first_sentence(_between(prompt, "**Contents**:", "**Question**"))
    if "evaluating answers" in prompt:
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        scores = {"answer_1_score": str(digest[0] % 11), "answer_2_score": str(digest[1] % 11)}
        return "Both answers were compared with the ground truth.\n" + json.dumps(scores)
    return None


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), Handler)
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)


class Handler(BaseHTTPRequestHandler):
    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "unknown path"})
            return
        with self.server.lock:
            stats = {"requests": self.server.requests, "connections": self.server.connections}
        self._send(200, stats)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        try:
            prompt = json.loads(self.rfile.read(length))["prompt"]
        except (ValueError, KeyError, TypeError):
            self._send(400, {"error": "body must be JSON with a prompt"})
            return
        text = reply(prompt) if self.path == "/generate" else None
        with self.server.lock:
            self.server.requests += 1
        if text is None:
            self._send(400, {"error": "unknown prompt kind"})
        else:
            self._send(200, {"text": text})

    def log_message(self, *args):
        pass


def main() -> None:
    server = StubServer()
    print(server.server_address[1], flush=True)

    def stop_on_eof():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
