"""Sparse (TF-IDF, Okapi BM25) and dense scoring over retrieval units.

All rankings are full (every unit scored), with scores non-increasing and
ties broken by ascending corpus position, so results are reproducible across
runs and thread counts. Evaluation builds one context per document, so a
question is scored only against the units of its own document, and ranks
each question once per index: every budget k is a prefix of that ranking.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyCorpus,
    ProviderError,
    ProviderMismatch,
)
from .providers import EmbeddingProvider, HttpEmbeddingProvider, MockEmbeddingProvider
from .text import index_terms, truncate_tokens

TFIDF = "tfidf"
BM25 = "bm25"
DENSE = "dense"

K1_DEFAULT = 1.5
B_DEFAULT = 0.75

# Single-vector encoders cap their input; texts are cut to this many
# whitespace tokens before embedding.
DENSE_TOKEN_LIMIT = 512
EMBED_BATCH_SIZE = 32


def smoothed_idf(df: int, n: int) -> float:
    """ln((1+N)/(1+df)) + 1; never negative, never zero."""
    return math.log((1 + n) / (1 + df)) + 1.0


def bm25_idf(df: int, n: int) -> float:
    """ln(1 + (N-df+0.5)/(df+0.5)); strictly positive for df <= N."""
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


@dataclass(frozen=True)
class ScoredUnit:
    unit_id: str
    score: float
    rank: int


@dataclass
class SparseIndex:
    kind: str
    unit_ids: list[str]
    term_freqs: list[dict[str, int]]
    doc_freq: dict[str, int]
    unit_lens: list[int]
    avgdl: float
    idf: dict[str, float]
    unit_norms: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.unit_ids)


@dataclass
class DenseIndex:
    unit_ids: list[str]
    matrix: np.ndarray  # float32, one L2-normalized row per unit
    provider: str

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])


def _check_units(units: list[tuple[str, str]]) -> None:
    if not units:
        raise EmptyCorpus("cannot index zero units")
    seen: set[str] = set()
    for unit_id, _ in units:
        if unit_id in seen:
            raise DuplicateId(f"unit id {unit_id!r} repeated")
        seen.add(unit_id)


def assemble_sparse_index(
    kind: str,
    unit_ids: list[str],
    term_freqs: list[dict[str, int]],
    unit_lens: list[int],
) -> SparseIndex:
    """Derive df, idf, avgdl, and norms from raw term counts.

    Building from text and reloading from disk both funnel through here, so
    the derived floats are bit-identical either way.
    """
    if kind not in (TFIDF, BM25):
        raise ValueError(f"unknown sparse index kind {kind!r}")
    doc_freq: Counter[str] = Counter()
    for tf in term_freqs:
        doc_freq.update(tf.keys())
    n = len(unit_ids)
    idf_fn = smoothed_idf if kind == TFIDF else bm25_idf
    idf = {term: idf_fn(df, n) for term, df in doc_freq.items()}
    index = SparseIndex(
        kind=kind,
        unit_ids=unit_ids,
        term_freqs=term_freqs,
        doc_freq=dict(doc_freq),
        unit_lens=unit_lens,
        avgdl=sum(unit_lens) / n,
        idf=idf,
    )
    if kind == TFIDF:
        # Summed in sorted term order so norms are bit-identical whether the
        # index was built from text or reloaded from disk.
        index.unit_norms = [
            math.sqrt(sum((tf * idf[t]) ** 2 for t, tf in sorted(freqs.items())))
            for freqs in term_freqs
        ]
    return index


def build_sparse_index(units: list[tuple[str, str]], kind: str) -> SparseIndex:
    """Index ``(unit_id, text)`` pairs for TF-IDF or BM25 scoring."""
    if kind not in (TFIDF, BM25):
        raise ValueError(f"unknown sparse index kind {kind!r}")
    units = list(units)
    _check_units(units)
    unit_ids = [uid for uid, _ in units]
    term_freqs = [dict(Counter(index_terms(text))) for _, text in units]
    unit_lens = [sum(tf.values()) for tf in term_freqs]
    return assemble_sparse_index(kind, unit_ids, term_freqs, unit_lens)


def _ranked(unit_ids: list[str], scores: list[float]) -> list[ScoredUnit]:
    order = sorted(range(len(unit_ids)), key=lambda i: (-scores[i], i))
    return [ScoredUnit(unit_ids[i], scores[i], rank + 1) for rank, i in enumerate(order)]


def score_tfidf(index: SparseIndex, query: str) -> list[ScoredUnit]:
    """Cosine similarity between L2-normalized tf*idf vectors.

    Query terms unseen at index time get weight zero; a query with no known
    terms yields an all-zero ranking in corpus order.
    """
    if index.kind != TFIDF:
        raise ValueError(f"score_tfidf needs a {TFIDF!r} index, got {index.kind!r}")
    query_weights = {
        term: count * index.idf[term]
        for term, count in Counter(index_terms(query)).items()
        if term in index.idf
    }
    query_norm = math.sqrt(sum(w * w for w in query_weights.values()))
    scores = []
    for freqs, unit_norm in zip(index.term_freqs, index.unit_norms):
        dot = sum(weight * freqs.get(term, 0) * index.idf[term] for term, weight in query_weights.items())
        denom = query_norm * unit_norm
        scores.append(dot / denom if denom else 0.0)
    return _ranked(index.unit_ids, scores)


def score_bm25(
    index: SparseIndex, query: str, k1: float = K1_DEFAULT, b: float = B_DEFAULT
) -> list[ScoredUnit]:
    """Okapi BM25 with saturation k1 and length normalization b.

    Contributions sum over query token occurrences, so repeated query terms
    scale their contribution.
    """
    if index.kind != BM25:
        raise ValueError(f"score_bm25 needs a {BM25!r} index, got {index.kind!r}")
    query_terms = index_terms(query)
    scores = []
    for freqs, unit_len in zip(index.term_freqs, index.unit_lens):
        ratio = unit_len / index.avgdl if index.avgdl else 0.0
        denom_norm = k1 * (1.0 - b + b * ratio)
        score = 0.0
        for term in query_terms:
            tf = freqs.get(term)
            if not tf:
                continue
            score += index.idf[term] * tf * (k1 + 1.0) / (tf + denom_norm)
        scores.append(score)
    return _ranked(index.unit_ids, scores)


def embed(texts: list[str], provider: EmbeddingProvider, batch_size: int = EMBED_BATCH_SIZE) -> np.ndarray:
    """Embed texts in batches and L2-normalize the rows (float32).

    Zero vectors (texts with no terms under a sparse-featured provider) are
    left unnormalized rather than divided by zero.
    """
    texts = list(texts)
    if not texts:
        return np.zeros((0, 0), dtype=np.float32)
    rows: list[list[float]] = []
    for start in range(0, len(texts), batch_size):
        batch = texts[start:start + batch_size]
        out = provider.embed(batch)
        if len(out) != len(batch):
            raise ProviderError(
                f"provider {provider.name!r} returned {len(out)} vectors for {len(batch)} texts"
            )
        rows.extend(out)
    dims = {len(row) for row in rows}
    if len(dims) != 1:
        raise DimensionMismatch(f"provider {provider.name!r} returned mixed dimensions {sorted(dims)}")
    matrix = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return (matrix / norms).astype(np.float32)


def build_dense_index(
    units: list[tuple[str, str]], provider: EmbeddingProvider, batch_size: int = EMBED_BATCH_SIZE
) -> DenseIndex:
    """Embed unit texts (truncated to the encoder input cap) into a DenseIndex."""
    units = list(units)
    _check_units(units)
    texts = [truncate_tokens(text, DENSE_TOKEN_LIMIT) for _, text in units]
    return DenseIndex([uid for uid, _ in units], embed(texts, provider, batch_size), provider.name)


def build_index(
    units: list[tuple[str, str]], kind: str, provider: EmbeddingProvider | None = None
) -> SparseIndex | DenseIndex:
    """Index ``(unit_id, text)`` pairs for any retriever kind; dense needs the provider."""
    if kind == DENSE:
        return build_dense_index(units, provider)
    return build_sparse_index(units, kind)


def score_dense(index: DenseIndex, query: str, provider: EmbeddingProvider) -> list[ScoredUnit]:
    """Cosine (dot product of normalized vectors) between query and rows."""
    if provider.name != index.provider:
        raise ProviderMismatch(
            f"index built with provider {index.provider!r}, scoring with {provider.name!r}"
        )
    query_vec = embed([truncate_tokens(query, DENSE_TOKEN_LIMIT)], provider)[0]
    scores = (index.matrix @ query_vec).tolist()
    return _ranked(index.unit_ids, scores)


def rank_units(
    index: SparseIndex | DenseIndex,
    query: str,
    provider: EmbeddingProvider | None = None,
    k1: float = K1_DEFAULT,
    b: float = B_DEFAULT,
) -> list[ScoredUnit]:
    """Score a query against any index kind, returning the full ranking."""
    if isinstance(index, DenseIndex):
        if provider is None:
            raise ValueError("dense scoring needs the embedding provider")
        return score_dense(index, query, provider)
    if index.kind == TFIDF:
        return score_tfidf(index, query)
    return score_bm25(index, query, k1=k1, b=b)


def parse_retriever(spec: str) -> tuple[str, str | None]:
    """Parse ``tfidf | bm25 | dense:<provider-name>`` into (kind, provider name)."""
    if spec in (TFIDF, BM25):
        return spec, None
    kind, sep, name = spec.partition(":")
    if kind == DENSE and sep and name:
        return DENSE, name
    raise ValueError(f"unknown retriever spec {spec!r}")


def resolve_provider(name: str) -> EmbeddingProvider:
    """Map a provider name to a client: 'mock' is built in, anything else is HTTP."""
    if name == "mock":
        return MockEmbeddingProvider()
    return HttpEmbeddingProvider.from_env(name=name)
