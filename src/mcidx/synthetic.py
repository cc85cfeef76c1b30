"""Deterministic synthetic corpora for offline evaluation and tests.

``synthetic_corpus`` builds structured documents with planted answer scopes
of varying token lengths, sized so the fixed-length chunkers sometimes do
and sometimes do not split a scope. ``complementarity_fixture`` builds a
corpus whose questions are answerable through exactly one view each, which
separates multi-view retrieval from every single view at matched budgets.
The corpus is a pure function of its seed; the fixture is one fixed corpus.
"""

from __future__ import annotations

import random

from .corpus import Document, QAItem, QuestionType, build_document
from .text import iter_sentences
from .views import Provenance, ViewEntry, ViewKind, section_views

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_FUNCTION_WORDS = (
    "the", "a", "of", "and", "to", "in", "is", "was", "for", "with",
    "on", "as", "by", "at", "from", "this", "that",
)
_QUESTION_TYPES = tuple(QuestionType)

# A planted answer scope's token target is drawn uniformly from this range.
_MIN_SCOPE_TOKENS = 20
_MAX_SCOPE_TOKENS = 300
# The complementarity fixture's seed, its decoy sections, and its gold sections per view.
_COMPLEMENTARITY_SEED = 23
_N_DECOYS = 3
_PER_GROUP = 10

def _make_vocabulary(rng: random.Random, size: int) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < size:
        syllables = rng.randint(2, 4)
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        words.setdefault(word, None)
    return list(words)


def _sentence(rng: random.Random, vocab: list[str], function_word_rate: float = 0.3) -> str:
    n_words = rng.randint(8, 18)
    words = [
        rng.choice(_FUNCTION_WORDS) if rng.random() < function_word_rate else rng.choice(vocab)
        for _ in range(n_words)
    ]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _section_text(
    rng: random.Random, vocab: list[str], n_sentences: int, function_word_rate: float = 0.3
) -> str:
    return " ".join(_sentence(rng, vocab, function_word_rate) for _ in range(n_sentences))


def _plant_scope(rng: random.Random, text: str, target_tokens: int) -> tuple[int, int]:
    """Span of a sentence run totalling at least ``target_tokens`` tokens.

    Half the scopes start at the section head, mirroring how lead sentences
    carry answers in encyclopedic text.
    """
    sentences = list(iter_sentences(text))
    start_idx = 0 if rng.random() < 0.5 else rng.randrange(len(sentences))
    tokens = 0
    end_idx = start_idx
    for i in range(start_idx, len(sentences)):
        tokens += len(sentences[i][0].split())
        end_idx = i
        if tokens >= target_tokens:
            break
    start = sentences[start_idx][1][0]
    end = sentences[end_idx][1][1]
    segment = text[start:end]
    lead = len(segment) - len(segment.lstrip())
    return (start + lead, start + len(segment.rstrip()))


def synthetic_corpus(
    n_docs: int = 10,
    questions_per_doc: int = 3,
    seed: int = 7,
) -> tuple[list[Document], list[QAItem]]:
    """Documents plus question items with single-section answer scopes."""
    rng = random.Random(seed)
    vocab = _make_vocabulary(rng, 500)
    docs: list[Document] = []
    qa: list[QAItem] = []
    for d in range(n_docs):
        doc_id = f"doc{d:03d}"
        doc_vocab = rng.sample(vocab, 80)
        sections = []
        for s in range(rng.randint(8, 14)):
            heading = " ".join(w.capitalize() for w in rng.sample(doc_vocab, 2))
            # Mix of short and long sections so section-aligned chunking has
            # something to win on.
            n_sentences = rng.randint(3, 12) if rng.random() < 0.4 else rng.randint(12, 40)
            sections.append(
                (f"s{s:04d}", heading, rng.choice((1, 2, 2, 3)), _section_text(rng, doc_vocab, n_sentences))
            )
        doc = build_document(doc_id, f"Synthetic document {d}", sections)
        docs.append(doc)
        for q in range(questions_per_doc):
            section = doc.sections[rng.randrange(len(doc.sections))]
            target = rng.randint(_MIN_SCOPE_TOKENS, _MAX_SCOPE_TOKENS)
            span = _plant_scope(rng, section.text, target)
            scope_text = section.text[span[0]:span[1]]
            content_words = [w for w in scope_text.split() if w.strip(".").lower() not in _FUNCTION_WORDS]
            picks = rng.sample(content_words, min(4, len(content_words)))
            terms = ", ".join(p.strip(".").lower() for p in picks)
            first_sentence = next(iter_sentences(scope_text))[0].strip()
            qa.append(
                QAItem(
                    question_id=f"{doc_id}:q{q}",
                    doc_id=doc_id,
                    question=f"What does the document explain about {terms}?",
                    answer=first_sentence,
                    question_type=rng.choice(_QUESTION_TYPES),
                    scope_section_id=section.section_id,
                    scope_span=span,
                )
            )
    return docs, qa


def complementarity_fixture() -> tuple[list[Document], list[QAItem], dict[str, list[ViewEntry]]]:
    """One document whose questions each resolve through exactly one view.

    Sections are grouped in three: each group's marker term occurs only in
    that section's raw text, only in its keywords view, or only in its
    summary view. Decoy sections sit first in corpus order so zero-score
    rankings surface decoys, never gold sections. Questions use English
    templates over an otherwise synthetic vocabulary, so only the marker
    term can match.
    """
    rng = random.Random(_COMPLEMENTARITY_SEED)
    vocab = _make_vocabulary(rng, 200)
    doc_id = "viewdoc"

    sections: list[tuple[str, str, int, str]] = []
    keyword_views: dict[str, list[str]] = {}
    summary_views: dict[str, str] = {}
    markers: list[tuple[str, ViewKind, str]] = []  # (section_id, view, marker)

    def filler_terms(n: int) -> list[str]:
        return rng.sample(vocab, n)

    def marker_sentence(marker: str) -> str:
        lead, tail = filler_terms(2)
        return f"{lead.capitalize()} {marker} {tail}."

    # Question templates use English words; fixture text stays purely
    # synthetic (no function words) so only the marker term can match.
    for i in range(_N_DECOYS):
        sid = f"decoy{i:02d}"
        sections.append((sid, f"Decoy {i}", 1, _section_text(rng, vocab, rng.randint(4, 7), 0.0)))
        keyword_views[sid] = filler_terms(5)
        summary_views[sid] = _sentence(rng, vocab, 0.0)

    groups = (
        (ViewKind.RAW_TEXT, "rawmark"),
        (ViewKind.KEYWORDS, "keymark"),
        (ViewKind.SUMMARY, "summark"),
    )
    for g, (view, stem) in enumerate(groups):
        for i in range(_PER_GROUP):
            sid = f"gold{g}{i:02d}"
            marker = f"{stem}{i:02d}"
            body = _section_text(rng, vocab, rng.randint(4, 7), 0.0)
            keywords = filler_terms(5)
            summary = _sentence(rng, vocab, 0.0)
            if view is ViewKind.RAW_TEXT:
                body = f"{body} {marker_sentence(marker)}"
            elif view is ViewKind.KEYWORDS:
                keywords.append(marker)
            else:
                summary = f"{summary} {marker_sentence(marker)}"
            sections.append((sid, f"Gold {g}-{i}", 1, body))
            keyword_views[sid] = keywords
            summary_views[sid] = summary
            markers.append((sid, view, marker))

    doc = build_document(doc_id, "View complementarity fixture", sections)

    views = [entry for section in doc.sections
             for entry in section_views(section, keyword_views[section.section_id], Provenance.LLM_GENERATED,
                                        summary_views[section.section_id], Provenance.LLM_GENERATED)]

    rng.shuffle(markers)
    qa = []
    for i, (sid, view, marker) in enumerate(markers):
        section = doc.sections_by_id[sid]
        qa.append(
            QAItem(
                question_id=f"{doc_id}:q{i:02d}",
                doc_id=doc_id,
                question=f"Where is {marker} discussed?",
                answer=f"It is discussed in {sid}.",
                question_type=_QUESTION_TYPES[i % len(_QUESTION_TYPES)],
                scope_section_id=sid,
                scope_span=(0, len(section.text)),
            )
        )
    return [doc], qa, {doc_id: views}
