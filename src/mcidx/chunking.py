"""Chunking schemes and the chunking-error metric.

Three schemes produce retrieval units from a document:

* content-aware: one chunk per section, the section text itself;
* fixed-length (``flc:<N>``): whole sentences of the full document greedily
  merged until a chunk reaches the target token count;
* section-bounded fixed-length (``flc-content:<N>``): the same greedy merge
  applied independently inside each section, so chunks never cross section
  boundaries.

Sentences are never split, so chunks can overshoot the target by at most one
sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import Document, QAItem
from .errors import DataError, EmptyCorpus, InvalidTarget, UnknownDoc
from .jsonio import write_jsonl
from .text import token_count

CONTENT = "content"
FLC = "flc"
FLC_CONTENT = "flc-content"

# Characters that may open a following sentence, besides uppercase and digits.
_OPENERS = "\"'([{“‘«"
_TERMINALS = ".!?"


@dataclass(frozen=True)
class ChunkScheme:
    kind: str
    target_tokens: int | None = None

    def spec(self) -> str:
        if self.kind == CONTENT:
            return CONTENT
        return f"{self.kind}:{self.target_tokens}"

    @classmethod
    def parse(cls, spec: str) -> "ChunkScheme":
        """Parse ``content | flc:<N> | flc-content:<N>``."""
        if spec == CONTENT:
            return cls(CONTENT)
        kind, sep, target = spec.partition(":")
        if kind in (FLC, FLC_CONTENT) and sep:
            try:
                n = int(target)
            except ValueError:
                raise ValueError(f"bad chunk target in scheme spec {spec!r}") from None
            if n < 1:
                raise ValueError(f"chunk target must be >= 1 in {spec!r}")
            return cls(kind, n)
        raise ValueError(f"unknown chunking scheme spec {spec!r}")


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    section_id: str | None
    doc_span: tuple[int, int]
    text: str
    scheme: ChunkScheme


@dataclass(frozen=True)
class ChunkingErrorReport:
    scheme: ChunkScheme
    n_scopes: int
    n_split: int

    @property
    def error_rate(self) -> float:
        return self.n_split / self.n_scopes if self.n_scopes else 0.0


def split_sentences(text: str) -> list[tuple[str, tuple[int, int]]]:
    """Rule-based sentence split; spans partition the input exactly.

    A boundary occurs after '.', '!' or '?' followed by whitespace and then an
    uppercase letter, digit, or opening quote/bracket. The whitespace run
    stays attached to the preceding sentence, so each returned text is the
    verbatim slice ``text[start:end]``. No abbreviation dictionary: "Approx.
    3 kg" splits after "Approx." by design, identically for every scheme.
    """
    if not text:
        return []
    n = len(text)
    bounds: list[int] = []
    for i, ch in enumerate(text):
        if ch not in _TERMINALS:
            continue
        k = i + 1
        while k < n and text[k].isspace():
            k += 1
        if k == i + 1 or k == n:
            continue
        nxt = text[k]
        if nxt.isupper() or nxt.isdigit() or nxt in _OPENERS:
            bounds.append(k)
    sentences = []
    prev = 0
    for bound in bounds:
        sentences.append((text[prev:bound], (prev, bound)))
        prev = bound
    sentences.append((text[prev:], (prev, n)))
    return sentences


def _greedy_spans(sentences: list[tuple[str, tuple[int, int]]], target_tokens: int) -> list[tuple[int, int]]:
    """Merge consecutive sentence spans, closing a chunk once it reaches the target."""
    spans: list[tuple[int, int]] = []
    start: int | None = None
    tokens = 0
    for sentence_text, (s, e) in sentences:
        if start is None:
            start = s
        tokens += token_count(sentence_text)
        if tokens >= target_tokens:
            spans.append((start, e))
            start, tokens = None, 0
    if start is not None:
        spans.append((start, sentences[-1][1][1]))
    return spans


def _trim_span(text: str, span: tuple[int, int]) -> tuple[int, int]:
    s, e = span
    segment = text[s:e]
    stripped = segment.strip()
    if not stripped:
        return (s, s)
    lead = len(segment) - len(segment.lstrip())
    return (s + lead, s + lead + len(stripped))


def _containing_section(doc: Document, span: tuple[int, int]) -> str | None:
    """Section holding the span's non-whitespace content, if any single one does."""
    s, e = _trim_span(doc.full_text, span)
    for section in doc.sections:
        cs, ce = section.doc_span
        if cs <= s and e <= ce:
            return section.section_id
    return None


def chunk_content_aware(doc: Document) -> list[Chunk]:
    """One chunk per section."""
    scheme = ChunkScheme(CONTENT)
    return [
        Chunk(f"c{i:04d}", doc.doc_id, section.section_id, section.doc_span, section.text, scheme)
        for i, section in enumerate(doc.sections)
    ]


def chunk_flc(doc: Document, target_tokens: int) -> list[Chunk]:
    """Fixed-length chunks over the whole document text.

    A chunk crossing a section boundary has ``section_id`` None.
    """
    if target_tokens < 1:
        raise InvalidTarget(f"target_tokens must be >= 1, got {target_tokens}")
    scheme = ChunkScheme(FLC, target_tokens)
    sentences = split_sentences(doc.full_text)
    if not sentences:
        return []
    chunks = []
    for i, span in enumerate(_greedy_spans(sentences, target_tokens)):
        chunks.append(
            Chunk(
                chunk_id=f"c{i:04d}",
                doc_id=doc.doc_id,
                section_id=_containing_section(doc, span),
                doc_span=span,
                text=doc.full_text[span[0]:span[1]],
                scheme=scheme,
            )
        )
    return chunks


def chunk_flc_content(doc: Document, target_tokens: int) -> list[Chunk]:
    """Fixed-length chunks built independently inside each section."""
    if target_tokens < 1:
        raise InvalidTarget(f"target_tokens must be >= 1, got {target_tokens}")
    scheme = ChunkScheme(FLC_CONTENT, target_tokens)
    chunks: list[Chunk] = []
    for section in doc.sections:
        offset = section.doc_span[0]
        for s, e in _greedy_spans(split_sentences(section.text), target_tokens):
            span = (offset + s, offset + e)
            chunks.append(
                Chunk(
                    chunk_id=f"c{len(chunks):04d}",
                    doc_id=doc.doc_id,
                    section_id=section.section_id,
                    doc_span=span,
                    text=doc.full_text[span[0]:span[1]],
                    scheme=scheme,
                )
            )
    return chunks


def chunk_document(doc: Document, scheme: ChunkScheme) -> list[Chunk]:
    if scheme.kind == CONTENT:
        return chunk_content_aware(doc)
    if scheme.kind == FLC:
        return chunk_flc(doc, scheme.target_tokens)
    if scheme.kind == FLC_CONTENT:
        return chunk_flc_content(doc, scheme.target_tokens)
    raise ValueError(f"unknown scheme kind {scheme.kind!r}")


def scope_doc_span(doc: Document, item: QAItem) -> tuple[int, int]:
    """Answer scope mapped from section-relative to document coordinates."""
    section = doc.sections_by_id.get(item.scope_section_id)
    if section is None:
        raise UnknownDoc(f"section {item.scope_section_id!r} not in document {doc.doc_id!r}")
    offset = section.doc_span[0]
    return (offset + item.scope_span[0], offset + item.scope_span[1])


def chunking_error(chunks: list[Chunk], qa: list[QAItem], docs: list[Document]) -> ChunkingErrorReport:
    """Fraction of answer scopes not fully contained in any single chunk."""
    if not chunks:
        raise EmptyCorpus("chunking_error needs at least one chunk")
    schemes = {c.scheme for c in chunks}
    if len(schemes) > 1:
        raise DataError(f"chunks mix schemes: {sorted(s.spec() for s in schemes)}")
    scheme = next(iter(schemes))
    spans_by_doc: dict[str, list[tuple[int, int]]] = {}
    for chunk in chunks:
        spans_by_doc.setdefault(chunk.doc_id, []).append(chunk.doc_span)
    docs_by_id = {d.doc_id: d for d in docs}
    n_split = 0
    for item in qa:
        if item.doc_id not in spans_by_doc or item.doc_id not in docs_by_id:
            raise UnknownDoc(f"question {item.question_id!r} references unknown document {item.doc_id!r}")
        s, e = scope_doc_span(docs_by_id[item.doc_id], item)
        if not any(cs <= s and e <= ce for cs, ce in spans_by_doc[item.doc_id]):
            n_split += 1
    return ChunkingErrorReport(scheme, len(qa), n_split)


def write_chunks_jsonl(chunks: list[Chunk], path: str | Path) -> None:
    """Persist chunk coordinates; texts are reconstructed from the corpus."""
    write_jsonl(
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
