"""Chunking schemes and the chunking-error metric, ``chunking_error(docs, qa, scheme)``.

Three schemes produce retrieval units from a document. Each cuts a list of
regions, either whole or by a greedy sentence merge:

* content-aware (``content``): each section is one region, kept whole under its id;
* fixed-length (``flc:<N>``): the full document text is one region, whose
  whole sentences are greedily merged until a chunk reaches the target token
  count;
* section-bounded fixed-length (``flc-content:<N>``): each section is one
  region, merged the same way, so chunks never cross section boundaries.

Sentences are never split, so chunks can overshoot the target by at most one
sentence. Each chunk carries its token range as well as its character span,
so an index over chunks can take the chunk's terms from the document's
``terms`` instead of tokenizing the chunk again.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .corpus import Document, QAItem, docs_by_id, scope_doc_span
from .errors import EmptyCorpus, UnknownDoc
from .jsonio import write_jsonl

CONTENT = "content"
FLC = "flc"
FLC_CONTENT = "flc-content"


@dataclass(frozen=True)
class ChunkScheme:
    kind: str
    target_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.kind == CONTENT:
            if self.target_tokens is not None:
                raise ValueError(f"the {CONTENT} scheme takes no target, got {self.target_tokens!r}")
        elif self.kind in (FLC, FLC_CONTENT):
            if not isinstance(self.target_tokens, int) or self.target_tokens < 1:
                raise ValueError(f"{self.kind} chunk target must be an integer >= 1, got {self.target_tokens!r}")
        else:
            raise ValueError(f"unknown chunking scheme kind {self.kind!r}")

    def spec(self) -> str:
        if self.kind == CONTENT:
            return CONTENT
        return f"{self.kind}:{self.target_tokens}"

    @classmethod
    def parse(cls, spec: str) -> "ChunkScheme":
        """Parse ``content | flc:<N> | flc-content:<N>``."""
        kind, sep, target = spec.partition(":")
        if not sep:
            return cls(kind)
        try:
            n = int(target)
        except ValueError:
            raise ValueError(f"bad chunk target in scheme spec {spec!r}") from None
        return cls(kind, n)


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    section_id: str | None
    doc_span: tuple[int, int]
    text: str
    scheme: ChunkScheme
    # Token range [a, b) of the chunk in the document's tokens.
    token_span: tuple[int, int]


@dataclass(frozen=True)
class ChunkingErrorReport:
    scheme: ChunkScheme
    n_scopes: int
    n_split: int

    @property
    def error_rate(self) -> float:
        return self.n_split / self.n_scopes if self.n_scopes else 0.0


def _greedy_runs(tokens: array, target_tokens: int) -> Iterator[tuple[int, int]]:
    """Sentence index ranges ``[i, p)`` of the greedy merge over one run.

    A chunk starting at sentence i takes whole sentences until it holds at
    least ``target_tokens`` tokens: ``tokens`` is non-decreasing, so it closes
    before the first p > i with ``tokens[p] >= tokens[i] + target_tokens``.
    The last chunk takes what is left, even when that is short.
    """
    last = len(tokens) - 1
    i = 0
    while i < last:
        p = min(bisect_left(tokens, tokens[i] + target_tokens, i + 1), last)
        yield i, p
        i = p


def _flc_section(doc: Document, token_span: tuple[int, int]) -> str | None:
    """The section holding every token of an ``flc`` chunk; None when the chunk crosses a boundary.

    The one candidate is the last section starting at or before the chunk's
    first token: a section with no tokens starts where the next one does. A
    chunk with no tokens, which only a document of whitespace has, gets the
    first section.
    """
    a, b = token_span
    starts = doc.section_starts
    i = bisect_right(starts, a) - 1 if a < b else 0
    return doc.sections[i].section_id if b <= starts[i + 1] else None


def chunk_document(doc: Document, scheme: ChunkScheme) -> list[Chunk]:
    """The document's chunks under ``scheme``, in document order.

    ``flc`` cuts the full text as one region, so a chunk's section is the one
    containing it, or None when it crosses a section boundary. The other
    schemes cut each section as its own region and keep that section's id,
    which is also a ``content`` chunk's id; other chunks are ``c0000``, ``c0001``, ...
    Sentences and token offsets come from the document's analysis, so only
    the first scheme over a document splits its text.
    """
    pieces: list[tuple[str | None, tuple[int, int], tuple[int, int]]] = []
    if scheme.kind == CONTENT:
        starts = doc.section_starts
        pieces = [(s.section_id, s.doc_span, (starts[i], starts[i + 1])) for i, s in enumerate(doc.sections)]
    else:
        runs = doc.text_sentences if scheme.kind == FLC else doc.section_sentences
        for section_id, starts, tokens in runs:
            for i, p in _greedy_runs(tokens, scheme.target_tokens):
                token_span = (tokens[i], tokens[p])
                chunk_section = _flc_section(doc, token_span) if scheme.kind == FLC else section_id
                pieces.append((chunk_section, (starts[i], starts[p]), token_span))
    text = doc.full_text
    return [Chunk(section_id if scheme.kind == CONTENT else f"c{n:04d}", doc.doc_id, section_id, span,
                  text[span[0]:span[1]], scheme, token_span)
            for n, (section_id, span, token_span) in enumerate(pieces)]


def chunking_error(docs: list[Document], qa: list[QAItem], scheme: ChunkScheme) -> ChunkingErrorReport:
    """Fraction of answer scopes not fully contained in any single chunk of ``docs`` under ``scheme``.

    Refuses (``DataError``) an absent document or section, a scope empty or outside its section and a repeated id.
    """
    if not docs:
        raise EmptyCorpus("chunking_error needs at least one document")
    by_id = docs_by_id(docs)
    spans_by_doc = {d.doc_id: [c.doc_span for c in chunk_document(d, scheme)] for d in docs}
    n_split = 0
    for item in qa:
        if item.doc_id not in by_id:
            raise UnknownDoc(f"question {item.question_id!r} references unknown document {item.doc_id!r}")
        s, e = scope_doc_span(by_id[item.doc_id], item)
        if not any(cs <= s and e <= ce for cs, ce in spans_by_doc[item.doc_id]):
            n_split += 1
    return ChunkingErrorReport(scheme, len(qa), n_split)


def write_chunks_jsonl(chunks: Iterable[Chunk], path: str | Path) -> int:
    """Persist chunk coordinates as each chunk arrives; returns how many. Texts are reconstructed from the corpus."""
    return write_jsonl(
        path,
        (
            {
                "chunk_id": c.chunk_id,
                "doc_id": c.doc_id,
                "section_id": c.section_id,
                "char_start": c.doc_span[0],
                "char_end": c.doc_span[1],
                "scheme": c.scheme.spec(),
            }
            for c in chunks
        ),
    )
