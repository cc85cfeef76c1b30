"""Three textual views per section: raw text, keywords, and summary.

The raw-text view is the section text itself. Keyword and summary views come
either from an LLM endpoint or from deterministic extractive fallbacks, so
the whole pipeline (and the test suite) can run offline. Short sections are
their own summary; only sections above the token threshold are sent to the
LLM.

Extractive keywords analyze each section once: ``build_views`` tokenizes
every section of a document one time, counts document frequencies over those
term lists, and computes one idf value per possible frequency. All of it is
scoped to the one ``build_views`` call.
"""

from __future__ import annotations

import enum
import json
import logging
from collections import Counter
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .corpus import Document, Section
from .errors import ParseError, ProviderError, SchemaError
from .jsonio import read_jsonl, require, write_jsonl
from .prompts import KEYWORDS, SUMMARY
from .providers import LlmClient
from .retrieval import DENSE_TOKEN_LIMIT, smoothed_idf
from .text import index_terms, iter_sentences, token_count, truncate_tokens

logger = logging.getLogger(__name__)

KEYWORD_SEPARATOR = "; "

# Sections at or under this many tokens are already retrieval-friendly and
# serve as their own summary.
SUMMARY_TOKEN_THRESHOLD = 200
SUMMARY_WORD_BUDGET = 200

LLM_GENERATOR = "llm"
EXTRACTIVE_GENERATOR = "extractive"
DEFAULT_JOBS = 4

STOPWORDS = frozenset("""
a about above after again against all am an and any are aren't as at be because
been before being below between both but by can cannot could couldn't did didn't
do does doesn't doing don't down during each few for from further had hadn't has
hasn't have haven't having he her here hers herself him himself his how i if in
into is isn't it its itself let's me more most mustn't my myself no nor not of
off on once only or other ought our ours ourselves out over own same shan't she
should shouldn't so some such than that the their theirs them themselves then
there these they this those through to too under until up very was wasn't we
were weren't what when where which while who whom why will with won't would
wouldn't you your yours yourself yourselves
""".split())


class ViewKind(enum.Enum):
    RAW_TEXT = "raw"
    KEYWORDS = "keywords"
    SUMMARY = "summary"


class Provenance(enum.Enum):
    IDENTITY = "identity"
    LLM_GENERATED = "llm"
    EXTRACTIVE_FALLBACK = "extractive"


@dataclass(frozen=True)
class ViewEntry:
    section_id: str
    view_kind: ViewKind
    text: str
    provenance: Provenance


def generate_summary(section: Section, llm: LlmClient) -> str:
    """LLM summary for long sections; short sections are returned unchanged."""
    if section.token_count <= SUMMARY_TOKEN_THRESHOLD:
        return section.text
    return llm.generate(SUMMARY.substitute(section_name=section.heading, section_text=section.text), max_tokens=512)


def _parse_keyword_list(raw: str) -> list[str]:
    start = raw.find("[")
    end = raw.rfind("]")
    if start < 0 or end <= start:
        raise ParseError("keyword output contains no [...] list")
    inner = raw[start + 1:end]
    # Accept either a JSON array or a bare comma-separated list.
    try:
        parsed = json.loads(raw[start:end + 1])
        items = [str(x) for x in parsed] if isinstance(parsed, list) else []
    except ValueError:
        items = inner.split(",")
    except RecursionError as exc:
        raise ParseError("keyword output nests its list too deeply") from exc
    keywords: list[str] = []
    seen: set[str] = set()
    for item in items:
        term = item.strip().strip("\"'")
        if not term or term.casefold() in seen:
            continue
        seen.add(term.casefold())
        keywords.append(term)
    return keywords


def generate_keywords(section: Section, llm: LlmClient) -> list[str]:
    """LLM keyword list, deduplicated case-insensitively, order preserved."""
    raw = llm.generate(KEYWORDS.substitute(section_name=section.heading, section_text=section.text), max_tokens=512)
    return _parse_keyword_list(raw)


def extractive_summary(section: Section) -> str:
    """Leading sentences up to the word budget; always at least one sentence.

    The section is split only as far as the first sentence past the budget.
    """
    total = 0
    end = 0
    for i, (sentence_text, (_, sentence_end)) in enumerate(iter_sentences(section.text)):
        words = token_count(sentence_text)
        if i and total + words > SUMMARY_WORD_BUDGET:
            break
        total += words
        end = sentence_end
    return section.text[:end].rstrip()


def _doc_term_stats(doc: Document) -> tuple[list[list[str]], Counter, list[float]]:
    """Each section's index terms, their document frequencies, and idf by df.

    Every section is tokenized once; ``idf[d]`` is the smoothed idf of a
    term found in ``d`` of the document's sections.
    """
    section_terms = [index_terms(s.text) for s in doc.sections]
    df = Counter(chain.from_iterable(map(set, section_terms)))
    m = len(section_terms)
    return section_terms, df, [smoothed_idf(d, m) for d in range(m + 1)]


def _top_keywords(terms: list[str], df: Counter, idf: list[float]) -> list[str]:
    """The top 20 non-stopword terms by tf * idf over the document's sections.

    The idf is the sparse retriever's smoothed idf; ties break by first
    occurrence in the section.
    """
    counts = Counter(terms)
    for stopword in STOPWORDS.intersection(counts):
        counts.pop(stopword)
    scores = {term: -count * idf[df[term]] for term, count in counts.items()}
    # Counter keys keep first-occurrence order and the sort is stable, so
    # equal scores stay in the order the terms first occur.
    return sorted(scores, key=scores.__getitem__)[:20]


def section_views(section: Section, keywords: list[str], provenance: Provenance,
                  summary: str, summary_provenance: Provenance) -> list[ViewEntry]:
    """A section's raw, keywords and summary entries; the raw text is always its own identity."""
    return [
        ViewEntry(section.section_id, ViewKind.RAW_TEXT, section.text, Provenance.IDENTITY),
        ViewEntry(section.section_id, ViewKind.KEYWORDS, KEYWORD_SEPARATOR.join(keywords), provenance),
        ViewEntry(section.section_id, ViewKind.SUMMARY, summary, summary_provenance),
    ]


def _llm_views_for_section(section: Section, llm: LlmClient) -> list[ViewEntry]:
    try:
        keywords = generate_keywords(section, llm)
        summary = generate_summary(section, llm)
    except ProviderError as exc:
        raise type(exc)(f"section {section.section_id!r}: {exc}") from exc
    generated = section.token_count > SUMMARY_TOKEN_THRESHOLD
    truncated = truncate_tokens(summary, DENSE_TOKEN_LIMIT)
    if truncated != summary:
        logger.warning(
            "summary for section %s truncated from %d to %d tokens before indexing",
            section.section_id, token_count(summary), DENSE_TOKEN_LIMIT,
        )
    return section_views(section, keywords, Provenance.LLM_GENERATED,
                         truncated, Provenance.LLM_GENERATED if generated else Provenance.IDENTITY)


def build_views(
    doc: Document,
    generator: str = EXTRACTIVE_GENERATOR,
    llm: LlmClient | None = None,
    jobs: int = DEFAULT_JOBS,
) -> list[ViewEntry]:
    """Emit exactly three ViewEntries per section, in section order.

    LLM calls run in parallel across sections, in a pool of ``jobs`` workers
    (ValueError below 1), which bounds the requests in flight; the returned
    order is always the document's section order.
    """
    if generator == EXTRACTIVE_GENERATOR:
        # One tokenization per section and one idf table per document.
        section_terms, df, idf = _doc_term_stats(doc)
        per_section = [section_views(s, _top_keywords(terms, df, idf), Provenance.EXTRACTIVE_FALLBACK,
                                     extractive_summary(s), Provenance.EXTRACTIVE_FALLBACK)
                       for s, terms in zip(doc.sections, section_terms)]
    elif generator == LLM_GENERATOR:
        if llm is None:
            raise ValueError("generator 'llm' requires an LlmClient")
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_section = list(pool.map(lambda s: _llm_views_for_section(s, llm), doc.sections))
    else:
        raise ValueError(f"unknown view generator {generator!r}")
    return [entry for entries in per_section for entry in entries]


def view_texts(views: list[ViewEntry], kind: ViewKind) -> list[tuple[str, str]]:
    """(section_id, text) pairs for one view kind, in input order."""
    return [(v.section_id, v.text) for v in views if v.view_kind is kind]


def write_views_jsonl(views_by_doc: Iterable[tuple[str, list[ViewEntry]]], path: str | Path) -> None:
    """Write the view records of each ``(doc_id, entries)`` pair as the pair arrives."""
    write_jsonl(
        path,
        (
            {
                "doc_id": doc_id,
                "section_id": v.section_id,
                "view_kind": v.view_kind.value,
                "text": v.text,
                "provenance": v.provenance.value,
            }
            for doc_id, entries in views_by_doc
            for v in entries
        ),
    )


def read_views_jsonl(path: str | Path) -> dict[str, list[ViewEntry]]:
    views_by_doc: dict[str, list[ViewEntry]] = {}

    def parse(record: dict) -> None:
        try:
            entry = ViewEntry(
                section_id=require(record, "section_id", str),
                view_kind=ViewKind(record["view_kind"]),
                text=require(record, "text", str),
                provenance=Provenance(record["provenance"]),
            )
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"bad view record: {exc}") from exc
        views_by_doc.setdefault(require(record, "doc_id", str), []).append(entry)

    read_jsonl(path, parse)
    return views_by_doc
