"""Clients for generation and embedding endpoints.

Both HTTP contracts are tiny JSON-over-POST surfaces:

* ``POST {MCIDX_LLM_URL}/generate`` with ``{"prompt": str, "max_tokens": int}``
  returns ``{"text": str}``; authenticated with a bearer token.
* ``POST {MCIDX_EMBED_URL}/embed`` with ``{"texts": [str]}`` returns
  ``{"vectors": [[float]], "model": str}``; ``HttpEmbeddingProvider.embed``
  returns those vectors as they came, and ``retrieval.embed`` checks them.

Both clients check their endpoint URL when they are built and send through
one ``_post_json``, on the standard library's ``urllib.request``, with one
fixed policy: each request may take ``TIMEOUT_S``; transient failures
(connection errors, 429, 5xx) are retried ``MAX_RETRIES`` times after the
first try, waiting ``BACKOFF_S`` and doubling the wait each time; anything
else, including a 200 whose body is not a JSON object, is a ProviderError.
A client keeps no state between calls and may be shared across threads; its
callers bound their concurrency (``build_views`` by its ``jobs`` workers).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np

from .errors import ProviderError, SchemaError
from .jsonio import require
from .text import TermMemo, index_terms

logger = logging.getLogger(__name__)

LLM_URL_ENV = "MCIDX_LLM_URL"
LLM_API_KEY_ENV = "MCIDX_LLM_API_KEY"
EMBED_URL_ENV = "MCIDX_EMBED_URL"

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
TIMEOUT_S = 60.0
MAX_RETRIES = 3
BACKOFF_S = 0.5

MOCK_EMBED_DIM = 256


class LlmClient:
    """Interface for text generation endpoints."""

    def generate(self, prompt: str, max_tokens: int = 1024) -> str:
        raise NotImplementedError


class EmbeddingProvider:
    """Interface for single-vector embedding endpoints."""

    name: str = "embedding"

    def embed(self, texts: list[str]):
        """One row per text, as a 2-D array-like of numbers."""
        raise NotImplementedError


def _visible_ascii(text: str) -> bool:
    """No space, control or non-ASCII character, which ``http.client`` rejects or cannot encode."""
    return all(32 < ord(c) < 127 for c in text)


def _endpoint(base_url: str, path: str, variable: str) -> str:
    """``base_url`` + ``path``, once ``base_url`` is known to be an http(s) URL naming a host.

    Checked when a client is built, so a bad ``variable`` fails before any
    request instead of after every retry. The opener would also follow
    ``file:``, ``ftp:`` and ``data:`` URLs.
    """
    try:
        parts = urllib.parse.urlsplit(base_url)
        valid = (parts.scheme in ("http", "https") and bool(parts.hostname)
                 and parts.port != 0 and _visible_ascii(base_url))
    except ValueError:  # unbalanced brackets, a port that is not a number in range
        valid = False
    if not valid:
        raise ProviderError(f"{variable} must be an http:// or https:// URL naming a host, "
                            f"in printable ASCII without spaces; got {base_url!r}")
    return base_url.rstrip("/") + path


def _post_json(url: str, payload: dict, headers: dict[str, str]) -> dict:
    """POST ``payload`` and return the JSON object of a 200 reply, retrying transient failures."""
    request = urllib.request.Request(
        url, data=json.dumps(payload, allow_nan=False).encode("utf-8"),
        headers={"Content-Type": "application/json", **headers}, method="POST")
    for attempt in range(MAX_RETRIES + 1):
        if attempt:
            time.sleep(BACKOFF_S * (2 ** (attempt - 1)))
        try:
            try:
                response = urllib.request.urlopen(request, timeout=TIMEOUT_S)
            except urllib.error.HTTPError as exc:  # any status outside 2xx
                response = exc
            with response:
                status, raw = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            last_error = f"request failed: {exc}"
        else:
            if status == 200:
                try:
                    data = json.loads(raw)
                except (ValueError, RecursionError) as exc:
                    raise ProviderError(f"non-JSON response from {url}: {exc}") from exc
                if not isinstance(data, dict):
                    raise ProviderError(f"response from {url} is not a JSON object")
                return data
            if status not in _RETRYABLE_STATUS:
                raise ProviderError(f"HTTP {status} from {url}: {raw.decode('utf-8', 'replace')[:200]}")
            last_error = f"HTTP {status} from {url}"
        logger.warning("%s (attempt %d/%d)", last_error, attempt + 1, MAX_RETRIES + 1)
    raise ProviderError(f"retries exhausted for {url}: {last_error}")


class HttpLlmClient(LlmClient):
    def __init__(self, base_url: str, api_key: str | None = None):
        self._url = _endpoint(base_url, "/generate", LLM_URL_ENV)
        if api_key and not _visible_ascii(api_key):
            raise ProviderError(f"{LLM_API_KEY_ENV} must be printable ASCII without spaces")
        self._headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}

    @classmethod
    def from_env(cls) -> "HttpLlmClient":
        url = os.environ.get(LLM_URL_ENV)
        if not url:
            raise ProviderError(f"{LLM_URL_ENV} is not set")
        return cls(url, api_key=os.environ.get(LLM_API_KEY_ENV))

    def generate(self, prompt: str, max_tokens: int = 1024) -> str:
        data = _post_json(self._url, {"prompt": prompt, "max_tokens": max_tokens}, self._headers)
        try:  # a string, and one that an output file can hold: JSON can spell a lone surrogate
            return require(data, "text", str)
        except SchemaError as exc:
            raise ProviderError(f"response from {self._url}: {exc}") from exc


class HttpEmbeddingProvider(EmbeddingProvider):
    def __init__(self, base_url: str, *, name: str):
        self.name = name
        self._url = _endpoint(base_url, "/embed", EMBED_URL_ENV)

    @classmethod
    def from_env(cls, name: str) -> "HttpEmbeddingProvider":
        url = os.environ.get(EMBED_URL_ENV)
        if not url:
            raise ProviderError(f"{EMBED_URL_ENV} is not set")
        return cls(url, name=name)

    def embed(self, texts: list[str]):
        return _post_json(self._url, {"texts": list(texts)}, {}).get("vectors")


def _bucket(term: str) -> int:
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % MOCK_EMBED_DIM


# ``term -> bucket``, shared by every MockEmbeddingProvider in the process.
_BUCKETS = TermMemo(_bucket)


class MockEmbeddingProvider(EmbeddingProvider):
    """Deterministic offline provider: feature-hashed term counts.

    Each term is hashed into one of ``MOCK_EMBED_DIM`` buckets; a text's
    vector is its bucket-count histogram (normalization happens index-side).
    The module hashes each distinct term once and keeps its bucket, so a row
    does not depend on which texts any instance embedded before.
    Identical texts always map to identical vectors, so rankings are
    reproducible and checkable against a brute-force cosine oracle.
    """

    def __init__(self, name: str = "mock"):
        self.name = name

    def embed(self, texts: list[str]) -> np.ndarray:
        # Row by row: one ``fromiter`` over the whole batch is faster for
        # large batches but about doubles the cost of a one-text query embed.
        matrix = np.zeros((len(texts), MOCK_EMBED_DIM))
        for row, text in enumerate(texts):
            buckets = np.fromiter(map(_BUCKETS.__getitem__, index_terms(text)), np.intp)
            matrix[row] = np.bincount(buckets, minlength=MOCK_EMBED_DIM)
        return matrix
