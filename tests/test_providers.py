from __future__ import annotations

import json
import os
import ssl
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcidx import providers, text
from mcidx.errors import DimensionMismatch, ProviderError
from mcidx.providers import (
    MOCK_EMBED_DIM,
    HttpEmbeddingProvider,
    HttpLlmClient,
    MockEmbeddingProvider,
)
from mcidx.retrieval import DENSE_TOKEN_LIMIT, build_dense_index, embed
from oracles import oracle_mock_embed

# Repeated, Unicode, edge-punctuated and punctuation-only tokens.
_TOKENS = ["cat", "Cat", "cat,", "(cat)", "naïve", "«Naïve»", "straße", "ΣΊΣΥΦΟΣ", "日本語",
           "x-y", "—", "...", "“”", "🙂", "a\u0301"]
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join),
    st.text(max_size=40),
)


def _row_bytes(rows) -> tuple[tuple[int, ...], bytes]:
    matrix = np.asarray(rows, dtype=np.float64).reshape(-1, MOCK_EMBED_DIM)
    return matrix.shape, matrix.tobytes()


@pytest.fixture(autouse=True)
def _short_backoff(monkeypatch):
    monkeypatch.setattr(providers, "BACKOFF_S", 0.01)


def _client(stub):
    return HttpLlmClient(stub.url, api_key="sekrit")


class TestHttpLlmClient:
    def test_request_shape_and_auth_header(self, stub):
        stub.default = (200, {"text": "generated"})
        out = _client(stub).generate("hello prompt", max_tokens=77)
        assert out == "generated"
        path, payload, headers = stub.requests[0]
        assert path == "/generate"
        assert payload == {"prompt": "hello prompt", "max_tokens": 77}
        assert headers["Authorization"] == "Bearer sekrit"

    def test_retries_transient_errors_then_succeeds(self, stub, monkeypatch):
        monkeypatch.setattr(providers, "MAX_RETRIES", 3)
        stub.queue = [(500, "boom"), (429, "slow down"), (200, {"text": "fine"})]
        assert _client(stub).generate("p") == "fine"
        assert len(stub.requests) == 3

    def test_retry_budget_exhausted(self, stub, monkeypatch):
        monkeypatch.setattr(providers, "MAX_RETRIES", 2)
        stub.default = (503, "down")
        with pytest.raises(ProviderError, match="retries exhausted"):
            _client(stub).generate("p")
        assert len(stub.requests) == 3  # initial try + 2 retries

    def test_non_retryable_status_fails_fast(self, stub):
        stub.default = (403, "forbidden")
        with pytest.raises(ProviderError, match="403"):
            _client(stub).generate("p")
        assert len(stub.requests) == 1

    def test_missing_text_field(self, stub):
        stub.default = (200, {"output": "nope"})
        with pytest.raises(ProviderError, match="text"):
            _client(stub).generate("p")

    def test_from_env(self, stub, monkeypatch):
        monkeypatch.setenv("MCIDX_LLM_URL", stub.url)
        monkeypatch.setenv("MCIDX_LLM_API_KEY", "envkey")
        stub.default = (200, {"text": "enviro"})
        assert HttpLlmClient.from_env().generate("p") == "enviro"
        assert stub.requests[0][2]["Authorization"] == "Bearer envkey"

    def test_from_env_requires_url(self, monkeypatch):
        monkeypatch.delenv("MCIDX_LLM_URL", raising=False)
        with pytest.raises(ProviderError, match="MCIDX_LLM_URL"):
            HttpLlmClient.from_env()

    def test_dropped_connection_is_retried(self, stub, monkeypatch):
        monkeypatch.setattr(providers, "MAX_RETRIES", 2)
        stub.default = (None, None)  # close the socket without a reply
        with pytest.raises(ProviderError, match="retries exhausted .*request failed"):
            _client(stub).generate("p")
        assert len(stub.requests) == 3

    def test_other_success_status_fails_fast(self, stub):
        stub.default = (201, {"text": "created"})
        with pytest.raises(ProviderError, match="HTTP 201"):
            _client(stub).generate("p")
        assert len(stub.requests) == 1

    def test_200_body_not_utf8_is_provider_error(self, stub):
        stub.default = (200, b'{"text": "caf\xe9"}')
        with pytest.raises(ProviderError, match="non-JSON response"):
            _client(stub).generate("p")
        assert len(stub.requests) == 1

    def test_body_bytes_are_json_dumps(self, stub):
        payload = {"prompt": 'naïve 🙂 "quoted"\n', "max_tokens": 5}
        _client(stub).generate(payload["prompt"], max_tokens=5)
        assert stub.bodies == [json.dumps(payload, allow_nan=False).encode()]
        headers = {key.lower(): value for key, value in stub.requests[0][2].items()}
        assert headers["content-type"] == "application/json"


def _no_sleep(seconds):
    raise AssertionError("a bad endpoint URL must fail before any request is retried")


_BAD_URLS = ["localhost:8000", "ftp://h/", "file:///tmp", "http://", "data:,x", "http://h:port/",
             "http://h:0/", "http://[::1/", "http://h/a b", "http://h/é"]


@pytest.mark.parametrize("url", _BAD_URLS)
@pytest.mark.parametrize("variable, make", [
    ("MCIDX_LLM_URL", HttpLlmClient.from_env),
    ("MCIDX_EMBED_URL", lambda: HttpEmbeddingProvider.from_env(name="stub")),
], ids=["llm", "embedding"])
def test_from_env_rejects_url_that_is_not_http(url, variable, make, monkeypatch):
    monkeypatch.setattr(providers.time, "sleep", _no_sleep)
    monkeypatch.setenv(variable, url)
    with pytest.raises(ProviderError, match=variable):
        make()


@pytest.mark.parametrize("key", ["key\n", "k€y", "two words"], ids=["newline", "non-ascii", "space"])
def test_from_env_rejects_api_key_that_http_cannot_send(key, stub, monkeypatch):
    monkeypatch.setattr(providers.time, "sleep", _no_sleep)
    monkeypatch.setenv("MCIDX_LLM_URL", stub.url)
    monkeypatch.setenv("MCIDX_LLM_API_KEY", key)
    with pytest.raises(ProviderError, match="MCIDX_LLM_API_KEY"):
        HttpLlmClient.from_env()


class TestDeadline:
    """Each attempt has its whole reply by ``TIMEOUT_S`` after it starts, or fails and is retried."""

    @pytest.fixture(autouse=True)
    def _short_timeout(self, monkeypatch):
        monkeypatch.setattr(providers, "TIMEOUT_S", 0.25)

    def _every_attempt_times_out(self, server):
        start = time.monotonic()
        with pytest.raises(ProviderError, match="retries exhausted .*request failed"):
            HttpLlmClient(server.url).generate("p")
        elapsed = time.monotonic() - start
        attempts = providers.MAX_RETRIES + 1
        backoff = sum(providers.BACKOFF_S * 2 ** i for i in range(providers.MAX_RETRIES))
        assert len(server.requests) == attempts
        # 0.3 s of slack for thread scheduling on a busy machine.
        assert elapsed < attempts * providers.TIMEOUT_S + backoff + 0.3

    def test_trickled_body(self, raw_stub):
        # 40 bytes at one per 0.05 s: each byte comes well within a socket timeout, the body in 2 s.
        def reply(conn, payload):
            body = json.dumps({"text": "x" * 28}).encode()
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body))
            for byte in body:
                time.sleep(0.05)
                conn.sendall(bytes([byte]))

        self._every_attempt_times_out(raw_stub(reply))

    def test_body_stalls_after_late_headers(self, raw_stub):
        # The headers take 4/5 of the deadline, so the body has only the rest of it.
        def reply(conn, payload):
            time.sleep(0.2)
            conn.sendall(b'HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{"te')
            conn.recv(1)  # until the client hangs up

        self._every_attempt_times_out(raw_stub(reply))


class TestTlsContext:
    """Every HTTPS request of a process goes out on one TLS context, built on the first of them."""

    def test_one_context_for_every_attempt(self, raw_stub, monkeypatch):
        built, create = [], ssl._create_default_https_context
        monkeypatch.setattr(ssl, "_create_default_https_context", lambda: built.append(create()) or built[-1])
        monkeypatch.setattr(providers, "_TLS_CONTEXT", None)
        monkeypatch.setattr(providers, "BACKOFF_S", 0)
        server = raw_stub(None)  # closes each connection before the handshake ends
        monkeypatch.setenv("MCIDX_EMBED_URL", server.url.replace("http://", "https://"))
        provider = HttpEmbeddingProvider.from_env(name="stub")
        for _ in range(2):
            with pytest.raises(ProviderError, match="retries exhausted .*request failed"):
                provider.embed(["text"])
        assert len(built) == 1

    def test_threads_racing_to_the_first_request_build_one(self, monkeypatch):
        # build_views sends from --jobs threads at once; a slow build widens the race.
        built, create = [], ssl._create_default_https_context
        monkeypatch.setattr(ssl, "_create_default_https_context",
                            lambda: time.sleep(0.01) or built.append(create()) or built[-1])
        monkeypatch.setattr(providers, "_TLS_CONTEXT", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                contexts = list(pool.map(lambda _: providers._tls_context(), range(8), timeout=10))
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 1 and all(context is built[0] for context in contexts)


@pytest.mark.parametrize("url", ["http://127.0.0.1:8000", "https://example.com/v1/", "http://[::1]:9/",
                                 "HTTP://Host"])
def test_http_urls_naming_a_host_are_accepted(url):
    HttpLlmClient(url)
    HttpEmbeddingProvider(url, name="stub")


# numpy is the only runtime dependency. With the installed packages it could
# lean on blocked, an offline pipeline runs end to end, so a lazy import of
# one of them fails too. It builds no TLS context either, not even at import.
_WITHOUT_OPTIONAL_PACKAGES = """
import ssl, sys, tempfile
from pathlib import Path
for name in ("requests", "scipy", "orjson"):
    sys.modules[name] = None
def no_tls_context():
    raise AssertionError("an offline run built a TLS context")
ssl._create_default_https_context = no_tls_context
import mcidx.cli
from mcidx import (MockEmbeddingProvider, build_dense_index, build_sparse_index, eval_recall,
                   load_index, save_index, synthetic_corpus)
docs, qa = synthetic_corpus(n_docs=2)
for retriever in ("tfidf", "bm25", "dense:mock"):
    assert eval_recall(docs, qa, "content", retriever, "mc", [1.5, 3]).rows
units = [(section.section_id, section.text) for section in docs[0].sections]
with tempfile.TemporaryDirectory() as tmp:
    for name, index in (("bm25", build_sparse_index(units, "bm25")),
                        ("dense", build_dense_index(units, MockEmbeddingProvider()))):
        save_index(index, Path(tmp) / name)
        assert load_index(Path(tmp) / name).unit_ids == index.unit_ids
"""


def test_package_imports_without_requests():
    src = Path(providers.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", _WITHOUT_OPTIONAL_PACKAGES], env=env).returncode == 0


class TestHttpEmbeddingProvider:
    def test_request_and_response(self, stub):
        stub.default = (200, {"vectors": [[1.0, 0.0], [0.0, 1.0]], "model": "stub-model"})
        provider = HttpEmbeddingProvider(stub.url, name="stub")
        vectors = provider.embed(["a", "b"])
        assert vectors == [[1.0, 0.0], [0.0, 1.0]]
        path, payload, _ = stub.requests[0]
        assert path == "/embed"
        assert payload == {"texts": ["a", "b"]}

    def test_wrong_vector_count(self, stub):
        # The provider returns the reply's vectors unchecked; retrieval.embed,
        # its one caller, rejects them (tests/test_cli.py has each malformed reply).
        stub.default = (200, {"vectors": [[1.0]], "model": "stub"})
        provider = HttpEmbeddingProvider(stub.url, name="stub")
        with pytest.raises(DimensionMismatch, match=r"shape \(1, 1\) for 2 texts"):
            embed(["a", "b"], provider)


@pytest.mark.parametrize("call", [
    lambda url: HttpLlmClient(url).generate("p"),
    lambda url: HttpEmbeddingProvider(url, name="stub").embed(["a", "b"]),
], ids=["llm", "embedding"])
def test_non_object_json_is_provider_error(call, stub):
    stub.default = (200, [1, 2])
    with pytest.raises(ProviderError, match="not a JSON object"):
        call(stub.url)
    assert len(stub.requests) == 1


class TestMockEmbeddingProvider:
    def test_deterministic(self):
        provider = MockEmbeddingProvider()
        assert np.array_equal(provider.embed(["cat sat"]), provider.embed(["cat sat"]))

    def test_dimension(self):
        provider = MockEmbeddingProvider()
        assert all(len(row) == 256 for row in provider.embed(["a", "b c"]))

    def test_term_counts_accumulate(self):
        provider = MockEmbeddingProvider()
        (single,) = provider.embed(["cat"])
        (double,) = provider.embed(["cat cat"])
        assert sum(double) == 2 * sum(single)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_TEXTS, max_size=8), st.lists(_TEXTS, max_size=8))
    @example([], [])
    @example(["cat cat"], ["", "  ", "... —"])  # texts without a single term are zero rows
    # Lowercasing that depends on context ("Σ") or lengthens a token ("İ"), and mixed case.
    @example(["ΑΣ ΣΑΣ.", "İstanbul", "Cat CAT cAt"], ["“” naïve, (Naïve) NAÏVE!"])
    def test_equals_per_occurrence_oracle(self, first, second):
        # Rows depend on neither the instance nor what any instance embedded before.
        warm = MockEmbeddingProvider()
        calls = [(first, warm.embed(first)), (second, warm.embed(second)),
                 (second, MockEmbeddingProvider().embed(second))]
        for texts, rows in calls:
            assert rows.dtype == np.float64
            assert rows.shape == (len(texts), MOCK_EMBED_DIM)
            assert _row_bytes(rows) == _row_bytes(oracle_mock_embed(texts))

    @pytest.mark.parametrize("size", [1, 2, 31, 32, 33, 65])
    def test_batches_through_retrieval_embed(self, size):
        # retrieval.embed sends EMBED_BATCH_SIZE texts a call; every row of every batch is the oracle's.
        provider = _Recording()
        texts = [" ".join(_TOKENS[(i + j) % len(_TOKENS)] for j in range(i % 9)) for i in range(size)]
        embed(texts, provider)
        assert [len(batch) for batch, _ in provider.calls] == [min(32, size - s) for s in range(0, size, 32)]
        for batch, rows in provider.calls:
            assert _row_bytes(rows) == _row_bytes(oracle_mock_embed(batch))

    def test_long_text_is_truncated_before_embedding(self):
        provider = _Recording()
        words = [f"w{i % 700}" for i in range(DENSE_TOKEN_LIMIT + 100)]
        build_dense_index([("u0", " ".join(words)), ("u1", "short text")], provider)
        ((batch, rows),) = provider.calls
        assert batch[0].split() == words[:DENSE_TOKEN_LIMIT]
        assert _row_bytes(rows) == _row_bytes(oracle_mock_embed([" ".join(batch[0].split()), "short text"]))

    def test_memo_cleared_within_a_batch(self, monkeypatch):
        # Four entries at most: the token memo clears several times inside this one batch.
        monkeypatch.setattr(text, "TERM_MEMO_MAX", 4)
        providers._BUCKETS.clear()
        texts = ["alpha Beta gamma, delta", "epsilon zeta alpha ALPHA", "eta theta iota kappa lambda"]
        rows = MockEmbeddingProvider().embed(texts)
        assert _row_bytes(rows) == _row_bytes(oracle_mock_embed(texts))
        assert len(providers._BUCKETS) <= 4


class _Recording(MockEmbeddingProvider):
    """A mock provider that keeps each batch it was sent with the rows it returned."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def embed(self, texts):
        rows = super().embed(texts)
        self.calls.append((list(texts), rows))
        return rows
