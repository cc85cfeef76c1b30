"""Document and QA data model, structured-document ingestion, and filtering.

Documents are flat ordered lists of sections. A section is the smallest
heading-delimited division of the source text; its ``doc_span`` addresses the
document ``full_text``, which is the section texts joined with a single
newline. Questions carry an answer scope as a character span inside exactly
one section. A section counts its tokens on first use of ``token_count``;
loading a corpus tokenizes nothing.

A document analyzes its text once for every chunking scheme and index built
over it: each part of the analysis (``Document.terms``, ``section_starts``,
``text_sentences``, ``section_sentences``) is built on its own first use and
freed with the document. No module-level table holds any of it.
"""

from __future__ import annotations

import enum
import logging
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import DuplicateId, EmptyDocument, SchemaError
from .jsonio import read_jsonl, require, write_jsonl
from .text import iter_sentences, term_ids, token_count

logger = logging.getLogger(__name__)

SECTION_SEPARATOR = "\n"

# Reference-style sections dropped at ingestion to reduce retrieval noise.
EXCLUDED_HEADINGS = frozenset({"see also", "notes", "references", "external links"})

PREAMBLE_HEADING = "(preamble)"

_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*\S)\s*$")


@dataclass(frozen=True)
class Section:
    """One smallest division of a document."""

    section_id: str
    heading: str
    level: int
    text: str
    doc_span: tuple[int, int]

    @cached_property
    def token_count(self) -> int:
        """Whitespace tokens in ``text``, counted on first use."""
        return token_count(self.text)


# One run of sentences: ``(section_id or None, starts, tokens)``. Sentence i
# is ``full_text[starts[i]:starts[i + 1]]`` and holds the tokens
# ``tokens[i]:tokens[i + 1]``; the last entry of each array is the run's end.
SentenceRun = tuple[str | None, array, array]
# Character and token offsets are 64-bit, which holds any document.
_OFFSET = "q"


def _sentence_run(text: str, section_id: str | None, start: int, end: int, first_token: int) -> SentenceRun:
    """The sentences of ``text[start:end]``, whose first token is ``first_token``."""
    starts, counts = [], []
    for sentence, (s, _) in iter_sentences(text[start:end]):
        starts.append(start + s)
        counts.append(token_count(sentence))
    starts.append(end)
    return section_id, array(_OFFSET, starts), array(_OFFSET, accumulate(counts, initial=first_token))


@dataclass(frozen=True)
class Document:
    """A document and its text analysis, shared by every scheme and index over it.

    Positions are in whitespace tokens of ``full_text``. No token crosses a
    section, because sections are joined by a newline, nor a sentence
    boundary, which always follows whitespace; so a section, a sentence and
    any run of whole sentences are each a token range ``[a, b)``. Each part
    of the analysis is built on first use:

    * ``terms``: ``text.term_ids`` of the full text, one vocabulary and one
      id array. The terms of tokens ``[a, b)`` are ``ids[a:b]`` without the
      -1s, in text order.
    * ``section_starts``: the token where each section starts, then the total.
    * ``text_sentences`` (the full text as one run, as ``flc`` cuts it) and
      ``section_sentences`` (one run per section, as ``flc-content`` cuts it).
    """

    doc_id: str
    title: str
    sections: tuple[Section, ...]
    full_text: str

    @cached_property
    def sections_by_id(self) -> dict[str, Section]:
        return {s.section_id: s for s in self.sections}

    @cached_property
    def terms(self) -> tuple[list[str], np.ndarray]:
        vocabulary, (ids,) = term_ids([self.full_text])
        return vocabulary, ids

    @cached_property
    def section_starts(self) -> array:
        return array(_OFFSET, accumulate((s.token_count for s in self.sections), initial=0))

    @cached_property
    def text_sentences(self) -> tuple[SentenceRun, ...]:
        return (_sentence_run(self.full_text, None, 0, len(self.full_text), 0),)

    @cached_property
    def section_sentences(self) -> tuple[SentenceRun, ...]:
        return tuple(_sentence_run(self.full_text, s.section_id, *s.doc_span, first)
                     for s, first in zip(self.sections, self.section_starts))


class QuestionType(enum.Enum):
    NARRATIVE_PLOT = "NarrativePlot"
    SUMMARIZATION = "Summarization"
    INFERENTIAL_IMPLIED = "InferentialImplied"
    INFORMATION_SYNTHESIS = "InformationSynthesis"
    CAUSE_EFFECT = "CauseEffect"
    COMPARATIVE = "Comparative"
    EXPLANATORY = "Explanatory"
    THEMES_MOTIFS = "ThemesMotifs"


def _normalize_type_key(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


_TYPE_ALIASES: dict[str, QuestionType] = {}
for _qt, _aliases in {
    QuestionType.NARRATIVE_PLOT: ("questions about narrative and plot details", "narrative and plot details", "narrative plot"),
    QuestionType.SUMMARIZATION: ("summarization questions", "summarization"),
    QuestionType.INFERENTIAL_IMPLIED: ("inferential and implied questions", "inferential and implied", "inferential implied"),
    QuestionType.INFORMATION_SYNTHESIS: ("questions requiring synthesis of information", "synthesis of information", "information synthesis"),
    QuestionType.CAUSE_EFFECT: ("cause and effect questions", "cause and effect", "cause effect"),
    QuestionType.COMPARATIVE: ("comparative questions", "comparative"),
    QuestionType.EXPLANATORY: ("explanatory questions", "explanatory"),
    QuestionType.THEMES_MOTIFS: ("questions about themes and motifs", "themes and motifs", "themes motifs"),
}.items():
    _TYPE_ALIASES[_normalize_type_key(_qt.value)] = _qt
    for _a in _aliases:
        _TYPE_ALIASES[_normalize_type_key(_a)] = _qt


def parse_question_type(name: str) -> QuestionType:
    """Map a type label, canonical or in the paper's longer phrasing, to the enum.

    QA files from outside this package may carry either form.
    """
    key = _normalize_type_key(name)
    if key not in _TYPE_ALIASES:
        raise ValueError(f"unknown question type: {name!r}")
    return _TYPE_ALIASES[key]


@dataclass(frozen=True)
class QAItem:
    question_id: str
    doc_id: str
    question: str
    answer: str
    question_type: QuestionType
    scope_section_id: str
    scope_span: tuple[int, int]


@dataclass(frozen=True)
class CorpusStats:
    n_documents: int
    n_questions: int
    mean_sections_per_doc: float
    mean_tokens_per_doc: float
    mean_tokens_per_section: float
    mean_tokens_per_answer_scope: float


def build_document(
    doc_id: str,
    title: str,
    sections: list[tuple[str, str, int, str]],
) -> Document:
    """Assemble a Document from ``(section_id, heading, level, text)`` tuples.

    Computes ``full_text`` and the section spans so that every section text
    is exactly ``full_text[span]`` and spans cover ``full_text`` with single
    newline separators between them.
    """
    if not sections:
        raise EmptyDocument(f"document {doc_id!r} has no sections")
    built: list[Section] = []
    pos = 0
    pieces: list[str] = []
    seen_ids: set[str] = set()
    for i, (section_id, heading, level, text) in enumerate(sections):
        if section_id in seen_ids:
            raise DuplicateId(f"section id {section_id!r} repeated in document {doc_id!r}")
        seen_ids.add(section_id)
        if i:
            pos += len(SECTION_SEPARATOR)
        span = (pos, pos + len(text))
        built.append(Section(section_id, heading, level, text, span))
        pieces.append(text)
        pos = span[1]
    return Document(doc_id, title, tuple(built), SECTION_SEPARATOR.join(pieces))


def parse_markdown(text: str, doc_id: str) -> Document:
    """Split markdown into flat sections at headings of any level.

    A heading line (1-6 ``#`` then whitespace) opens a new section whose text
    runs until the next heading; a heading therefore contributes only its own
    preamble, never the text of nested subheadings. Text before the first
    heading becomes a level-0 section. Headings in ``EXCLUDED_HEADINGS``
    (case-insensitive) are dropped together with their body, and sections
    whose body is blank are dropped entirely.
    """
    blocks: list[tuple[str, int, list[str]]] = [(PREAMBLE_HEADING, 0, [])]
    for line in text.splitlines():
        match = _HEADING_RE.match(line)
        if match:
            blocks.append((match.group(2), len(match.group(1)), []))
        else:
            blocks[-1][2].append(line)

    sections: list[tuple[str, str, int, str]] = []
    for heading, level, lines in blocks:
        if heading.casefold() in EXCLUDED_HEADINGS:
            continue
        body = "\n".join(lines).strip()
        if not body:
            continue
        sections.append((f"s{len(sections):04d}", heading, level, body))
    if not sections:
        raise EmptyDocument(f"no content survived heading exclusion for {doc_id!r}")
    return build_document(doc_id, doc_id, sections)


def load_corpus_jsonl(path: str | Path) -> list[Document]:
    """Load documents from corpus JSONL, recomputing spans from section texts."""
    docs: list[Document] = []
    seen: set[str] = set()

    def parse(record: dict) -> None:
        doc_id = require(record, "doc_id", str)
        title = require(record, "title", str)
        sections = []
        for raw in require(record, "sections", list):
            if not isinstance(raw, dict):
                raise SchemaError("section entry is not an object")
            sections.append((require(raw, "section_id", str), require(raw, "heading", str),
                             require(raw, "level", int), require(raw, "text", str)))
        if doc_id in seen:
            raise DuplicateId(f"document id {doc_id!r} repeated")
        seen.add(doc_id)
        docs.append(build_document(doc_id, title, sections))

    read_jsonl(path, parse)
    return docs


def write_corpus_jsonl(docs: list[Document], path: str | Path) -> None:
    write_jsonl(
        path,
        (
            {
                "doc_id": d.doc_id,
                "title": d.title,
                "sections": [
                    {"section_id": s.section_id, "heading": s.heading, "level": s.level, "text": s.text}
                    for s in d.sections
                ],
            }
            for d in docs
        ),
    )


def load_qa_jsonl(path: str | Path) -> list[QAItem]:
    """Load QA items without cross-checking them against a corpus."""
    items: list[QAItem] = []

    def parse(record: dict) -> None:
        scope = require(record, "scope", dict)
        try:
            qtype = parse_question_type(require(record, "question_type", str))
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        items.append(
            QAItem(
                question_id=require(record, "question_id", str),
                doc_id=require(record, "doc_id", str),
                question=require(record, "question", str),
                answer=require(record, "answer", str),
                question_type=qtype,
                scope_section_id=require(scope, "section_id", str),
                scope_span=(require(scope, "char_start", int), require(scope, "char_end", int)),
            )
        )

    read_jsonl(path, parse)
    return items


def load_and_filter_qa(path: str | Path, docs: list[Document]) -> list[QAItem]:
    """Load QA JSONL and drop items whose scope cannot be resolved.

    Dropped (with a warning): unknown doc_id, unknown section_id, and scope
    spans that are empty or fall outside the section text.
    """
    docs_by_id = {d.doc_id: d for d in docs}
    kept: list[QAItem] = []
    for item in load_qa_jsonl(path):
        doc = docs_by_id.get(item.doc_id)
        if doc is None:
            logger.warning("dropping %s: unknown doc_id %r", item.question_id, item.doc_id)
            continue
        section = doc.sections_by_id.get(item.scope_section_id)
        if section is None:
            logger.warning("dropping %s: unknown section %r", item.question_id, item.scope_section_id)
            continue
        start, end = item.scope_span
        if not (0 <= start < end <= len(section.text)):
            logger.warning(
                "dropping %s: scope (%d, %d) outside section of length %d",
                item.question_id, start, end, len(section.text),
            )
            continue
        kept.append(item)
    return kept


def write_qa_jsonl(items: list[QAItem], path: str | Path) -> None:
    write_jsonl(
        path,
        (
            {
                "question_id": q.question_id,
                "doc_id": q.doc_id,
                "question": q.question,
                "answer": q.answer,
                "question_type": q.question_type.value,
                "scope": {
                    "section_id": q.scope_section_id,
                    "char_start": q.scope_span[0],
                    "char_end": q.scope_span[1],
                },
            }
            for q in items
        ),
    )


def corpus_stats(docs: list[Document], qa_items: list[QAItem]) -> CorpusStats:
    """Arithmetic means over the corpus; empty inputs yield zeros."""
    docs_by_id = {d.doc_id: d for d in docs}
    n_docs = len(docs)
    n_sections = sum(len(d.sections) for d in docs)
    scope_tokens = []
    for item in qa_items:
        doc = docs_by_id.get(item.doc_id)
        section = doc.sections_by_id.get(item.scope_section_id) if doc else None
        if section is None:
            continue
        start, end = item.scope_span
        scope_tokens.append(token_count(section.text[start:end]))

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    return CorpusStats(
        n_documents=n_docs,
        n_questions=len(qa_items),
        mean_sections_per_doc=mean(len(d.sections) for d in docs),
        # Sections are joined by a newline, so no token spans two of them.
        mean_tokens_per_doc=mean(sum(s.token_count for s in d.sections) for d in docs),
        mean_tokens_per_section=mean(s.token_count for d in docs for s in d.sections),
        mean_tokens_per_answer_scope=mean(scope_tokens),
    )
