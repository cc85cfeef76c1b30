"""Clients for generation and embedding endpoints.

Both HTTP contracts are tiny JSON-over-POST surfaces:

* ``POST {MCIDX_LLM_URL}/generate`` with ``{"prompt": str, "max_tokens": int}``
  returns ``{"text": str}``; authenticated with a bearer token.
* ``POST {MCIDX_EMBED_URL}/embed`` with ``{"texts": [str]}`` returns
  ``{"vectors": [[float]], "model": str}``.

Transient failures (connection errors, 429, 5xx) are retried with exponential
backoff up to a retry budget; anything else is a ProviderError. A semaphore
bounds in-flight calls per client so parallel view generation stays polite.
"""

from __future__ import annotations

import hashlib
import logging
import os
import threading
import time

import numpy as np
import requests

from .errors import ProviderError
from .text import index_terms

logger = logging.getLogger(__name__)

LLM_URL_ENV = "MCIDX_LLM_URL"
LLM_API_KEY_ENV = "MCIDX_LLM_API_KEY"
EMBED_URL_ENV = "MCIDX_EMBED_URL"

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
DEFAULT_MAX_IN_FLIGHT = 4

MOCK_EMBED_DIM = 256


class LlmClient:
    """Interface for text generation endpoints."""

    name: str = "llm"

    def generate(self, prompt: str, max_tokens: int = 1024) -> str:
        raise NotImplementedError


class EmbeddingProvider:
    """Interface for single-vector embedding endpoints."""

    name: str = "embedding"

    def embed(self, texts: list[str]) -> list[list[float]]:
        raise NotImplementedError


def _post_json_with_retry(
    url: str,
    payload: dict,
    headers: dict[str, str],
    timeout: float,
    max_retries: int,
    backoff: float,
) -> dict:
    last_error: str = "no attempt made"
    for attempt in range(max_retries + 1):
        if attempt:
            time.sleep(backoff * (2 ** (attempt - 1)))
        try:
            response = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_error = f"request failed: {exc}"
            logger.warning("%s (attempt %d/%d)", last_error, attempt + 1, max_retries + 1)
            continue
        if response.status_code == 200:
            try:
                return response.json()
            except ValueError as exc:
                raise ProviderError(f"non-JSON response from {url}: {exc}") from exc
        if response.status_code in _RETRYABLE_STATUS:
            last_error = f"HTTP {response.status_code} from {url}"
            logger.warning("%s (attempt %d/%d)", last_error, attempt + 1, max_retries + 1)
            continue
        raise ProviderError(f"HTTP {response.status_code} from {url}: {response.text[:200]}")
    raise ProviderError(f"retries exhausted for {url}: {last_error}")


class HttpLlmClient(LlmClient):
    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        *,
        name: str = "llm",
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    ):
        self.name = name
        self._url = base_url.rstrip("/") + "/generate"
        self._api_key = api_key
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._slots = threading.Semaphore(max_in_flight)

    @classmethod
    def from_env(cls, **kwargs) -> "HttpLlmClient":
        url = os.environ.get(LLM_URL_ENV)
        if not url:
            raise ProviderError(f"{LLM_URL_ENV} is not set")
        return cls(url, api_key=os.environ.get(LLM_API_KEY_ENV), **kwargs)

    def generate(self, prompt: str, max_tokens: int = 1024) -> str:
        headers = {}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        with self._slots:
            data = _post_json_with_retry(
                self._url,
                {"prompt": prompt, "max_tokens": max_tokens},
                headers,
                self._timeout,
                self._max_retries,
                self._backoff,
            )
        text = data.get("text")
        if not isinstance(text, str):
            raise ProviderError(f"response from {self._url} lacks a 'text' string")
        return text


class HttpEmbeddingProvider(EmbeddingProvider):
    def __init__(
        self,
        base_url: str,
        *,
        name: str,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    ):
        self.name = name
        self._url = base_url.rstrip("/") + "/embed"
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._slots = threading.Semaphore(max_in_flight)

    @classmethod
    def from_env(cls, name: str, **kwargs) -> "HttpEmbeddingProvider":
        url = os.environ.get(EMBED_URL_ENV)
        if not url:
            raise ProviderError(f"{EMBED_URL_ENV} is not set")
        return cls(url, name=name, **kwargs)

    def embed(self, texts: list[str]) -> list[list[float]]:
        with self._slots:
            data = _post_json_with_retry(
                self._url, {"texts": list(texts)}, {}, self._timeout, self._max_retries, self._backoff
            )
        vectors = data.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ProviderError(f"response from {self._url} lacks one vector per input text")
        return vectors


class _BucketMemo(dict):
    """``term -> bucket``; a term is hashed the first time it is looked up."""

    def __missing__(self, term: str) -> int:
        digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
        bucket = self[term] = int.from_bytes(digest, "little") % MOCK_EMBED_DIM
        return bucket


class MockEmbeddingProvider(EmbeddingProvider):
    """Deterministic offline provider: feature-hashed term counts.

    Each term is hashed into one of ``MOCK_EMBED_DIM`` buckets; a text's
    vector is its bucket-count histogram (normalization happens index-side).
    An instance hashes each distinct term once and keeps its bucket, so a
    row does not depend on which texts the instance embedded before.
    Identical texts always map to identical vectors, so rankings are
    reproducible and checkable against a brute-force cosine oracle.
    """

    def __init__(self, name: str = "mock"):
        self.name = name
        self._buckets = _BucketMemo()

    def embed(self, texts: list[str]) -> list[list[float]]:
        buckets = self._buckets
        ids = [row * MOCK_EMBED_DIM + buckets[term]
               for row, text in enumerate(texts) for term in index_terms(text)]
        counts = np.bincount(np.array(ids, dtype=np.intp), minlength=len(texts) * MOCK_EMBED_DIM)
        return counts.reshape(len(texts), MOCK_EMBED_DIM).astype(np.float64).tolist()
