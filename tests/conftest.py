from __future__ import annotations

import json
import socketserver
import string
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import strategies as st

from mcidx.corpus import build_document
from mcidx.providers import LlmClient


class ScriptedLlm(LlmClient):
    """Returns queued responses (or a handler's output) and records prompts."""

    def __init__(self, responses=None, handler=None):
        self.responses = list(responses or [])
        self.handler = handler
        self.prompts: list[str] = []

    def generate(self, prompt: str, max_tokens: int = 1024) -> str:
        self.prompts.append(prompt)
        if self.handler is not None:
            return self.handler(prompt)
        if not self.responses:
            raise AssertionError("ScriptedLlm ran out of responses")
        return self.responses.pop(0)


class RefusingLlm(LlmClient):
    """Fails the test if any call reaches it."""

    def generate(self, prompt: str, max_tokens: int = 1024) -> str:
        raise AssertionError("LLM was called but no call was expected")


class StubServer:
    """Tiny JSON-over-POST endpoint with a scriptable response queue.

    Responses come from ``responder(path, payload)`` when set, else from the
    ``queue``, else ``default``. A body is sent as is if it is bytes or str,
    else as JSON; a status of None closes the connection without a reply.
    ``bodies`` holds the raw bytes of each request body.
    """

    def __init__(self):
        self.requests: list[tuple[str, dict, dict]] = []
        self.bodies: list[bytes] = []
        self.queue: list[tuple[int, object]] = []
        self.default: tuple[int, object] = (200, {"text": "ok"})
        self.responder = None
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                payload = json.loads(raw or b"{}")
                outer.bodies.append(raw)
                outer.requests.append((self.path, payload, dict(self.headers)))
                if outer.responder is not None:
                    status, body = outer.responder(self.path, payload)
                else:
                    status, body = outer.queue.pop(0) if outer.queue else outer.default
                if status is None:
                    return
                if isinstance(body, str):
                    body = body.encode()
                data = body if isinstance(body, bytes) else json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll interval lets ``stop`` return at once instead of after 0.5 s.
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,), daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub():
    server = StubServer()
    yield server
    server.stop()


class RawStub:
    """A loopback JSON-over-POST endpoint that writes its replies on the raw socket.

    Each connection is served in its own thread: the request is read, its
    payload appended to ``requests``, then ``reply(conn, payload)`` sends
    whatever bytes it likes, at whatever pace. An ``OSError`` from it (the
    client hung up) ends the connection quietly. With ``reply`` None, each
    connection is closed as soon as it is accepted, before anything is read.
    """

    def __init__(self, reply):
        self.requests: list[dict] = []
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            timeout = 10  # a connection the client never ends does not hold ``stop`` for longer

            def handle(self):
                if reply is None:
                    return
                headers = {}
                while (line := self.rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                outer.requests.append(json.loads(self.rfile.read(int(headers.get("content-length", 0)))))
                try:
                    reply(self.connection, outer.requests[-1])
                except OSError:
                    pass

        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,), daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def stop(self):
        """Stop accepting and wait for every connection's reply to end."""
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def raw_stub():
    """``raw_stub(reply)`` starts a ``RawStub``; each is stopped after the test."""
    started = []

    def start(reply):
        started.append(RawStub(reply))
        return started[-1]

    yield start
    for server in started:
        server.stop()


@pytest.fixture
def scripted_llm():
    return ScriptedLlm


def make_doc(section_texts, doc_id="doc", headings=None, levels=None):
    """Document from bare section texts, ids s0000, s0001, ..."""
    sections = []
    for i, text in enumerate(section_texts):
        heading = headings[i] if headings else f"Heading {i}"
        level = levels[i] if levels else 1
        sections.append((f"s{i:04d}", heading, level, text))
    return build_document(doc_id, f"Title of {doc_id}", sections)


def words(n, stem="w"):
    """n distinct filler words."""
    return " ".join(f"{stem}{i}" for i in range(n))


# Section texts for documents whose chunks and term tables are checked against
# oracles. Tokens mix cased letters ("Σ" lowercases by context, "İ" to two
# characters), a digit and every edge-punctuation character spelled out here,
# so tokens strip, vanish (pure punctuation) and end or open sentences; ASCII
# and Unicode whitespace (U+3000, \x1c, \x85, \xa0) separates them. Sections
# may be empty, whitespace only, or carry edge whitespace.
_TOKEN = st.text(alphabet="aZéÉßΣ日İ1" + string.punctuation + "‘’“”«»–—", min_size=1, max_size=5)
_SPACE = st.text(alphabet=" \t\n\x1c\x85\u3000\xa0", min_size=1, max_size=2)
_SECTION_TEXT = st.one_of(
    st.builds(lambda lead, parts: lead + "".join(token + space for token, space in parts),
              st.sampled_from(["", " ", "\n\u3000"]), st.lists(st.tuples(_TOKEN, _SPACE), max_size=12)),
    st.sampled_from(["", " ", "\t\n", "\u3000\xa0"]),
)
SECTION_TEXTS = st.lists(st.one_of(_SECTION_TEXT, _SECTION_TEXT.map(str.strip)), min_size=1, max_size=5)
