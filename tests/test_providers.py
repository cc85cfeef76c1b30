from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcidx import providers
from mcidx.errors import ProviderError
from mcidx.providers import (
    MOCK_EMBED_DIM,
    HttpEmbeddingProvider,
    HttpLlmClient,
    MockEmbeddingProvider,
)
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
    return HttpLlmClient(stub.url, api_key="sekrit", max_in_flight=1)


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
        assert HttpLlmClient.from_env(max_in_flight=1).generate("p") == "enviro"
        assert stub.requests[0][2]["Authorization"] == "Bearer envkey"

    def test_from_env_requires_url(self, monkeypatch):
        monkeypatch.delenv("MCIDX_LLM_URL", raising=False)
        with pytest.raises(ProviderError, match="MCIDX_LLM_URL"):
            HttpLlmClient.from_env(max_in_flight=1)


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
        stub.default = (200, {"vectors": [[1.0]], "model": "stub"})
        provider = HttpEmbeddingProvider(stub.url, name="stub")
        with pytest.raises(ProviderError, match="one vector per input"):
            provider.embed(["a", "b"])


@pytest.mark.parametrize("call", [
    lambda url: HttpLlmClient(url, max_in_flight=1).generate("p"),
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
    def test_equals_per_occurrence_oracle(self, first, second):
        # Rows depend on neither the instance nor what any instance embedded before.
        warm = MockEmbeddingProvider()
        calls = [(first, warm.embed(first)), (second, warm.embed(second)),
                 (second, MockEmbeddingProvider().embed(second))]
        for texts, rows in calls:
            assert rows.dtype == np.float64
            assert rows.shape == (len(texts), MOCK_EMBED_DIM)
            assert _row_bytes(rows) == _row_bytes(oracle_mock_embed(texts))
