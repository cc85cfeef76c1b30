"""Sparse (TF-IDF, Okapi BM25) and dense scoring over retrieval units.

Sparse indexes hold term postings, and a query touches only its own terms'
postings. One assembly builds them from ``text.term_ids`` of the unit texts
or, for a document's chunks and sections, from slices of the document's
``terms``. One function builds each index kind. BM25 runs at its standard
settings k1=1.5, b=0.75 (Robertson & Zaragoza, 2009), the constants
``BM25_K1`` and ``BM25_B``. One function, ``rank_units``, ranks
a query against an index: it cuts the top n of the index kind's score vector.
What a term's postings add to their units' scores for one query occurrence
(the BM25 term weight, or TF-IDF's ``idf * tf * idf``) depends on no query, so
a sparse index makes it on the term's first query and keeps it: at most one
float per posting, never saved. Scores sum those arrays in the same order, so
they are the same floats as arithmetic redone per query. The top n is selected
from the low end of the negated scores, where numpy's selection stays fast on
a vector that is mostly zeros.
Rankings have scores non-increasing, and units with bit-equal scores (such as
identical texts under any retriever, or a zero-score tail) keep ascending
corpus position, so results are reproducible across runs and thread counts;
the top n is always a prefix of the full ranking. Dense scores are float32 dot
products, so two different rows whose exact cosines tie can differ in the last
bit and rank by that rounding. ``embed`` cuts every text it embeds, unit or
question, to the encoder input cap ``DENSE_TOKEN_LIMIT``. A question is
analyzed once per retrieval, as a ``Query`` that every index it is ranked
against shares: its index terms, term counts and vector (embedded by the
retrieval's provider) are each made once. Evaluation ranks each question
once per index (``fusion.retrieve_mc`` or ``retrieve_single``); a budget
keeps the top k' ranks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DuplicateId, EmptyCorpus, ProviderError, ProviderMismatch
from .providers import EmbeddingProvider, HttpEmbeddingProvider, MockEmbeddingProvider
from .text import index_terms, term_ids, truncate_tokens

TFIDF = "tfidf"
BM25 = "bm25"
DENSE = "dense"

BM25_K1 = 1.5
BM25_B = 0.75

# Single-vector encoders cap their input; ``embed`` cuts every text to this
# many whitespace tokens.
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
    """Term postings in CSR layout: row ``terms[t]`` of every array is term t.

    Rows are in sorted term order; ``postings[indptr[r]:indptr[r + 1]]`` are
    the ascending unit indexes containing the row's term and ``tfs`` their
    term counts. ``unit_lens``, ``avgdl``, ``idf`` and ``unit_norms`` (tf*idf
    lengths, or BM25 length normalizers) are derived here, whether the postings
    were built from text or loaded from disk, so they are bit-identical either way.
    """

    kind: str
    unit_ids: list[str]
    terms: dict[str, int]
    indptr: np.ndarray
    postings: np.ndarray
    tfs: np.ndarray
    unit_lens: np.ndarray = field(init=False)
    avgdl: float = field(init=False)
    idf: np.ndarray = field(init=False)
    unit_norms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in (TFIDF, BM25):
            raise ValueError(f"unknown sparse index kind {self.kind!r}")
        idf_fn = smoothed_idf if self.kind == TFIDF else bm25_idf
        # math.log once per distinct df: np.log may differ from it in the last bit.
        dfs, df_of_term = np.unique(np.diff(self.indptr), return_inverse=True)
        self.idf = np.array([idf_fn(df, self.n) for df in dfs.tolist()], dtype=np.float64)[df_of_term]
        self.unit_lens = np.bincount(self.postings, weights=self.tfs, minlength=self.n).astype(np.int64)
        self.avgdl = int(self.unit_lens.sum()) / self.n
        if self.kind == TFIDF:
            # float_power calls the C pow() that Python's ** does, and bincount
            # adds each unit's squares sequentially in (sorted) term order.
            squares = np.float_power(self.tfs * np.repeat(self.idf, np.diff(self.indptr)), 2)
            self.unit_norms = np.sqrt(np.bincount(self.postings, weights=squares, minlength=self.n))
        else:  # avgdl is 0 only when every unit length is, so dividing those by 1 changes nothing
            self.unit_norms = BM25_K1 * (1.0 - BM25_B + BM25_B * (self.unit_lens / (self.avgdl or 1.0)))
        # Row -> contributions, made on the row's first query; never saved, compared or shown.
        self._contributions: dict[int, np.ndarray] = {}

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    def term_postings(self, term: str) -> tuple[float, np.ndarray, np.ndarray, np.ndarray] | None:
        """(idf, unit indexes, tfs, contributions) of a term's postings, or None if unseen.

        The contributions, each posting's score for one query occurrence of
        the term, are made on the term's first call and kept.
        """
        r = self.terms.get(term)
        if r is None:
            return None
        start, end = self.indptr[r], self.indptr[r + 1]
        idf, units, tfs = float(self.idf[r]), self.postings[start:end], self.tfs[start:end]
        kept = self._contributions.get(r)
        if kept is None:
            kept = self._contributions[r] = (idf * tfs * idf if self.kind == TFIDF else
                                              idf * tfs * (BM25_K1 + 1.0) / (tfs + self.unit_norms[units]))
        return idf, units, tfs, kept


@dataclass
class DenseIndex:
    kind = DENSE  # a class constant, not a field
    unit_ids: list[str]
    matrix: np.ndarray  # float32, one L2-normalized row per unit
    provider: str

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])


class Query:
    """A question prepared for ranking against any number of indexes.

    Each part is made on first use and kept: the index terms in token order
    (BM25 sums per query token in that order), their counts in first-occurrence
    order (TF-IDF sums in that order) and the vector. ``provider`` embeds the
    vector; a query ranked only against sparse indexes needs none.
    """

    def __init__(self, text: str, provider: EmbeddingProvider | None = None):
        self.text = text
        self.provider = provider

    @cached_property
    def terms(self) -> list[str]:
        return index_terms(self.text)

    @cached_property
    def term_counts(self) -> Counter[str]:
        return Counter(self.terms)

    @cached_property
    def vector(self) -> np.ndarray:
        return embed([self.text], self.provider)[0]


def _check_units(units: list[tuple[str, str]]) -> None:
    if not units:
        raise EmptyCorpus("cannot index zero units")
    seen: set[str] = set()
    for unit_id, _ in units:
        if unit_id in seen:
            raise DuplicateId(f"unit id {unit_id!r} repeated")
        seen.add(unit_id)


def build_sparse_index(
    units: list[tuple[str, str]], kind: str, terms: tuple[list[str], list[np.ndarray]] | None = None
) -> SparseIndex:
    """Index ``(unit_id, text)`` pairs for TF-IDF or BM25 scoring.

    ``terms`` is ``text.term_ids`` of the unit texts, made here when not
    given; a document's ``terms`` give it for its chunks and sections.
    """
    units = list(units)
    _check_units(units)
    vocabulary, unit_term_ids = terms if terms is not None else term_ids([text for _, text in units])
    n = len(units)
    # One (term, unit) key per token, built in place; the per-unit arrays are
    # dropped before the sort, which bounds a corpus-wide build's peak memory.
    keys = np.concatenate(unit_term_ids, dtype=np.int64)
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int32), [len(ids) for ids in unit_term_ids])
    del unit_term_ids
    # Sorted in place, each run of equal keys is one posting and its length
    # the tf; the distinct keys are in CSR order: term-major, units ascending
    # within a term. Tokens with no term (-1) have negative keys, which sort
    # first and are dropped.
    keys.sort()
    run_start = np.empty(len(keys), dtype=bool)
    run_start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    keys, tfs = keys[starts], np.diff(starts, append=len(run_start))
    first = np.searchsorted(keys, 0)
    keys, tfs = keys[first:], tfs[first:]
    used, df = np.unique(keys // n, return_counts=True)
    rows = {vocabulary[t]: row for row, t in enumerate(used.tolist())}
    indptr = np.concatenate(([0], np.cumsum(df)))
    return SparseIndex(kind, [uid for uid, _ in units], rows, indptr, keys % n, tfs)


def _ranked(unit_ids: list[str], scores: np.ndarray, n: int | None) -> list[ScoredUnit]:
    """Top n (all when None) by (-score, position).

    Every unit scoring at least the n-th largest score is kept, so ties at the
    cut are broken by position as in the full ranking. The cut is selected
    from the low end of the negated scores, where numpy is fast on mostly zeros.
    """
    negated = -scores
    if n is not None and n < len(scores):
        candidates = np.flatnonzero(negated <= np.partition(negated, n - 1)[n - 1])
    else:
        candidates = np.arange(len(scores))
    order = candidates[np.argsort(negated[candidates], kind="stable")][:n]
    return [ScoredUnit(unit_ids[i], s, rank)
            for rank, (i, s) in enumerate(zip(order.tolist(), scores[order].tolist()), 1)]


def _tfidf_scores(index: SparseIndex, query: Query) -> np.ndarray:
    """Cosine similarity between L2-normalized tf*idf vectors; unseen query terms weigh zero."""
    weighted = [(count, count * found[0], found) for term, count in query.term_counts.items()
                if (found := index.term_postings(term)) is not None]
    query_norm = math.sqrt(sum(weight * weight for _, weight, _ in weighted))
    dots = np.zeros(index.n)
    for count, weight, (idf, unit_idx, tfs, kept) in weighted:
        dots[unit_idx] += kept if count == 1 else weight * tfs * idf
    denom = query_norm * index.unit_norms
    return np.divide(dots, denom, out=np.zeros(index.n), where=denom != 0)


def _bm25_scores(index: SparseIndex, query: Query) -> np.ndarray:
    """Okapi BM25 with saturation ``BM25_K1`` and length normalization ``BM25_B``.

    Contributions sum over query token occurrences, so repeated query terms
    scale their contribution.
    """
    found = [postings for term in query.terms if (postings := index.term_postings(term)) is not None]
    scores = np.zeros(index.n)
    for _, unit_idx, _, kept in found:
        scores[unit_idx] += kept
    return scores


def embed(texts: list[str], provider: EmbeddingProvider) -> np.ndarray:
    """Embed texts cut to ``DENSE_TOKEN_LIMIT`` tokens, ``EMBED_BATCH_SIZE`` a batch, as L2-normalized float32 rows.

    Each batch must come back as one finite row of ints and floats per text,
    every row of one width of at least 1 across batches; anything else is a
    ProviderError (DimensionMismatch for a wrong shape or value). Zero vectors
    (texts with no terms under a sparse-featured provider) are left
    unnormalized, not divided by zero.
    """
    texts = [truncate_tokens(text, DENSE_TOKEN_LIMIT) for text in texts]
    if not texts:
        return np.zeros((0, 0), dtype=np.float32)
    blocks: list[np.ndarray] = []
    for start in range(0, len(texts), EMBED_BATCH_SIZE):
        batch = texts[start:start + EMBED_BATCH_SIZE]
        out = provider.embed(batch)
        try:
            block = np.asarray(out, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch(
                f"provider {provider.name!r} returned vectors that are not a numeric matrix: {exc}"
            ) from exc
        if (block.ndim != 2 or block.shape[0] != len(batch) or not block.shape[1]
                or (blocks and block.shape[1] != blocks[0].shape[1])):
            after = f" after width {blocks[0].shape[1]}" if blocks else ""
            raise DimensionMismatch(
                f"provider {provider.name!r} returned shape {block.shape} for {len(batch)} texts{after}"
            )
        # An array is checked by its dtype; float64 would turn True and "1.5" into numbers.
        if not (out.dtype.kind in "iuf" if isinstance(out, np.ndarray)
                else all(type(v) in (int, float) for row in out for v in row)):
            raise DimensionMismatch(f"provider {provider.name!r} returned a vector value that is not a number")
        if not np.isfinite(block).all():
            raise ProviderError(f"provider {provider.name!r} returned a non-finite vector value")
        blocks.append(block)
    matrix = np.concatenate(blocks)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return (matrix / norms).astype(np.float32)


def build_dense_index(units: list[tuple[str, str]], provider: EmbeddingProvider) -> DenseIndex:
    """Embed unit texts into a DenseIndex."""
    units = list(units)
    _check_units(units)
    return DenseIndex([uid for uid, _ in units], embed([text for _, text in units], provider), provider.name)


def _dense_scores(index: DenseIndex, query: Query) -> np.ndarray:
    """Cosine (float32 dot product of normalized vectors) between query and rows."""
    provider = query.provider
    if provider is None:
        raise ValueError("dense scoring needs the embedding provider")
    if provider.name != index.provider:
        raise ProviderMismatch(
            f"index built with provider {index.provider!r}, scoring with {provider.name!r}"
        )
    query_vec = query.vector
    if len(query_vec) != index.dim:
        raise DimensionMismatch(f"provider {provider.name!r} returned a query vector of width "
                                f"{len(query_vec)} for an index of width {index.dim}")
    return index.matrix @ query_vec


def rank_units(
    index: SparseIndex | DenseIndex,
    query: Query,
    n: int | None = None,
) -> list[ScoredUnit]:
    """Rank a prepared query against any index kind, returning the top n (all when None)."""
    if index.kind == DENSE:
        scores = _dense_scores(index, query)
    elif index.kind == TFIDF:
        scores = _tfidf_scores(index, query)
    else:
        scores = _bm25_scores(index, query)
    return _ranked(index.unit_ids, scores, n)


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
