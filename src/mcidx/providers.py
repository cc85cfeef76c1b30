"""Clients for generation and embedding endpoints.

Both HTTP contracts are tiny JSON-over-POST surfaces:

* ``POST {MCIDX_LLM_URL}/generate`` with ``{"prompt": str, "max_tokens": int}``
  returns ``{"text": str}``; authenticated with a bearer token.
* ``POST {MCIDX_EMBED_URL}/embed`` with ``{"texts": [str]}`` returns
  ``{"vectors": [[float]], "model": str}``; ``HttpEmbeddingProvider.embed``
  returns those vectors as they came. ``retrieval.embed`` sends it texts cut
  to ``retrieval.DENSE_TOKEN_LIMIT`` tokens and checks the vectors.

Both clients check their endpoint URL when they are built and send through
one ``_post_json``, on the standard library's ``urllib.request``, with one
fixed policy: each attempt must have its whole reply, status line, headers
and body, by ``TIMEOUT_S`` after it starts (connecting and sending the
request are bounded by ``TIMEOUT_S`` each as socket operations); a missed
deadline and other transient failures (connection errors, 429, 5xx) are
retried ``MAX_RETRIES`` times after the first try, waiting ``BACKOFF_S`` and
doubling the wait each time; anything else, including a 200 whose body is
not a JSON object, is a ProviderError.
A reply body may hold at most ``MAX_REPLY_BYTES``: a larger declared
``Content-Length`` fails before the body is read, and a body without one is
read no further than one byte past the cap; either is a ProviderError, not
retried.
A client keeps no state between calls and may be shared across threads; its
callers bound their concurrency (``build_views`` by its ``jobs`` workers).
Every https request of a process shares one TLS context, built on the first.

``MockEmbeddingProvider`` is the offline embedder. It keeps the bucket of
each lowercased whitespace token in one module-level memo, bounded by
``text.TERM_MEMO_MAX``, and builds a batch's rows with one ``np.bincount``.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import io
import json
import logging
import os
import ssl
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np

from .errors import ProviderError, SchemaError
from .jsonio import require
from .text import TermMemo, token_term

logger = logging.getLogger(__name__)

LLM_URL_ENV = "MCIDX_LLM_URL"
LLM_API_KEY_ENV = "MCIDX_LLM_API_KEY"
EMBED_URL_ENV = "MCIDX_EMBED_URL"

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
TIMEOUT_S = 60.0
MAX_RETRIES = 3
BACKOFF_S = 0.5
# An embed reply for 32 texts at 4,096 dimensions is about 3 MB.
MAX_REPLY_BYTES = 64 << 20

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


def _env_value(variable: str) -> str:
    """The value of the environment variable ``variable``; a ProviderError when it is unset or empty."""
    value = os.environ.get(variable)
    if not value:
        raise ProviderError(f"{variable} is not set")
    return value


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


def _read_capped(response, url: str) -> bytes:
    """The body of ``response``, or a ProviderError once it is known to exceed ``MAX_REPLY_BYTES``."""
    declared = response.headers.get("Content-Length", "")
    if declared.isascii() and declared.isdigit() and int(declared) > MAX_REPLY_BYTES:
        raise ProviderError(f"reply from {url} declares {declared} bytes, "
                            f"larger than {MAX_REPLY_BYTES} bytes")
    raw = response.read(MAX_REPLY_BYTES + 1)
    if len(raw) > MAX_REPLY_BYTES:
        raise ProviderError(f"reply from {url} is larger than {MAX_REPLY_BYTES} bytes")
    return raw


class _DeadlineReader(io.RawIOBase):
    """A reply's socket stream whose every read waits only for the time left before ``deadline``."""

    def __init__(self, sock, raw, deadline: float):
        self._sock, self._raw, self._deadline = sock, raw, deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("reply not complete by its deadline")
        self._sock.settimeout(left)
        return self._raw.readinto(buffer)

    def close(self) -> None:
        self._raw.close()
        super().close()


class _DeadlineResponse(http.client.HTTPResponse):
    """An HTTP response whose status line, headers and body are read through a ``_DeadlineReader``."""

    def __init__(self, sock, *args, deadline: float, **kwargs):
        super().__init__(sock, *args, **kwargs)
        self.fp = io.BufferedReader(_DeadlineReader(sock, self.fp.detach(), deadline))


_TLS_CONTEXT: ssl.SSLContext | None = None
_TLS_LOCK = threading.Lock()


def _tls_context() -> ssl.SSLContext:
    """The TLS context of every https request, built on the first as ``http.client.HTTPSConnection`` builds one.

    That is the system trust store (``SSL_CERT_FILE`` overrides it), the
    hostname check and ALPN ``http/1.1``. Loading the trust store costs tens
    of milliseconds, so it is done once per process, and not at import, where
    every offline run would pay for it.
    """
    global _TLS_CONTEXT
    with _TLS_LOCK:
        if _TLS_CONTEXT is None:
            context = ssl._create_default_https_context()
            context.set_alpn_protocols(["http/1.1"])
            if context.post_handshake_auth is not None:
                context.post_handshake_auth = True
            _TLS_CONTEXT = context
        return _TLS_CONTEXT


class _DeadlineHandler(urllib.request.HTTPHandler, urllib.request.HTTPSHandler):
    """urllib's http and https handler, reading each reply by ``timeout`` seconds after its request opens.

    Every https connection takes the one ``_tls_context``.
    """

    def __init__(self):
        # Not HTTPSHandler's, which from Python 3.12 builds a TLS context here, at import.
        urllib.request.AbstractHTTPHandler.__init__(self)

    def https_open(self, req):
        return self.do_open(http.client.HTTPSConnection, req, context=_tls_context())

    def do_open(self, http_class, req, **kwargs):
        response_class = functools.partial(_DeadlineResponse, deadline=time.monotonic() + req.timeout)

        def connection(*args, **kwargs):
            conn = http_class(*args, **kwargs)
            conn.response_class = response_class
            return conn

        return super().do_open(connection, req, **kwargs)


# urlopen's handlers, the proxy handler among them, with the deadline in the http and https ones.
_OPENER = urllib.request.build_opener(_DeadlineHandler)


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
                response = _OPENER.open(request, timeout=TIMEOUT_S)
            except urllib.error.HTTPError as exc:  # any status outside 2xx
                response = exc
            with response:
                status, raw = response.status, _read_capped(response, url)
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
        return cls(_env_value(LLM_URL_ENV), api_key=os.environ.get(LLM_API_KEY_ENV))

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
        return cls(_env_value(EMBED_URL_ENV), name=name)

    def embed(self, texts: list[str]):
        return _post_json(self._url, {"texts": list(texts)}, {}).get("vectors")


# The bucket of a token with no term: one column past the vector, cut off.
_NO_TERM = MOCK_EMBED_DIM


def _token_bucket(token: str) -> int:
    term = token_term(token)
    if not term:
        return _NO_TERM
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % MOCK_EMBED_DIM


# ``lowercased token -> bucket of its term`` (or ``_NO_TERM``), shared by
# every MockEmbeddingProvider in the process and bounded by ``TERM_MEMO_MAX``.
_BUCKETS = TermMemo(_token_bucket)


class MockEmbeddingProvider(EmbeddingProvider):
    """Deterministic offline provider: feature-hashed term counts.

    Each term is hashed into one of ``MOCK_EMBED_DIM`` buckets; a text's
    vector is its bucket-count histogram (normalization happens index-side).
    The module keeps the bucket of each distinct lowercased token in one
    memo, bounded by ``TERM_MEMO_MAX``, so a token costs one lookup after its
    first, and a row does not depend on which texts any instance embedded before.
    Identical texts always map to identical vectors, so rankings are
    reproducible and checkable against a brute-force cosine oracle.
    """

    name = "mock"

    def embed(self, texts: list[str]) -> np.ndarray:
        # One bincount over the batch, each row MOCK_EMBED_DIM + 1 wide so that
        # the tokens with no term land in a last column that is cut off.
        width = MOCK_EMBED_DIM + 1
        tokens: list[str] = []
        lengths = []
        for text in texts:
            row_tokens = text.lower().split()
            tokens += row_tokens
            lengths.append(len(row_tokens))
        keys = np.fromiter(map(_BUCKETS.__getitem__, tokens), np.intp, len(tokens))
        keys += np.repeat(np.arange(0, len(lengths) * width, width), lengths)
        counts = np.bincount(keys, minlength=len(lengths) * width).reshape(len(lengths), width)
        return counts[:, :MOCK_EMBED_DIM].astype(np.float64)
