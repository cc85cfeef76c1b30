"""Answer-scope recall, the evaluation grid, and pairwise answer judging.

Recall of a question is the fraction of its answer scope's characters
covered by the union of retrieved spans. Evaluation builds one context per
document: its unit table (``doc_units``) and one index per view of the mode,
so each question is scored only against its own document. Each question is
ranked once per index; every budget k slices or fuses that one ranking.
Pairwise judging scores two candidate answers in two position-swapped
rounds; the score-based winner has the higher score total, the round-based
winner must win both rounds outright.
"""

from __future__ import annotations

import enum
import logging
from collections.abc import Callable
from dataclasses import dataclass

from .chunking import ChunkScheme, chunk_document, scope_doc_span
from .corpus import Document, QAItem
from .errors import EmptyRetrieval, EmptyScope, ParseError, UnknownDoc, ViewMismatch
from .fusion import VIEW_ORDER, fuse, per_view_budget, single_budget
from .jsonio import iter_json_objects
from .prompts import render_answer_prompt, render_judge_prompt
from .providers import EmbeddingProvider, LlmClient
from .retrieval import (
    DENSE,
    DenseIndex,
    SparseIndex,
    build_index,
    parse_retriever,
    rank_units,
    resolve_provider,
)
from .views import ViewEntry, ViewKind, build_views, view_texts

logger = logging.getLogger(__name__)

_MODE_VIEWS = {
    "mc": VIEW_ORDER,
    "single:raw": (None,),
    "single:keywords": (ViewKind.KEYWORDS,),
    "single:summary": (ViewKind.SUMMARY,),
}


def parse_mode(spec: str) -> tuple[ViewKind | None, ...]:
    """The views ``mc | single:<raw|keywords|summary>`` indexes, in fusion order.

    ``None`` is the scheme's chunks, which ``single:raw`` indexes.
    """
    if spec not in _MODE_VIEWS:
        raise ValueError(f"unknown mode spec {spec!r}")
    return _MODE_VIEWS[spec]


def check_views(scheme: ChunkScheme, views: tuple[ViewKind | None, ...]) -> None:
    """Reject (ValueError) a view under a scheme other than content: views index sections."""
    if scheme.kind != "content" and views != (None,):
        raise ValueError(f"views index sections and need the content scheme, got {scheme.spec()!r}")


def check_budgets(views: tuple[ViewKind | None, ...], ks: list[float]) -> None:
    """Reject (ValueError) a repeated budget or one the rule of a mode with these views does not take."""
    rule = per_view_budget if len(views) > 1 else single_budget
    for k in ks:
        rule(k, 0)
    if len({float(k) for k in ks}) != len(ks):
        raise ValueError(f"repeated budget in {list(ks)}: each k gets one row")


def check_setup(scheme: ChunkScheme, retriever: str, mode: str, ks: list[float]) -> None:
    """Apply every rule of a (scheme, retriever, mode, budgets) setup; ValueError names a broken one.

    Callers run it where the setup enters, before any file is read, client
    created or document touched.
    """
    parse_retriever(retriever)
    views = parse_mode(mode)
    check_views(scheme, views)
    check_budgets(views, ks)


def format_k(k: float) -> str:
    return str(int(k)) if float(k).is_integer() else str(k)


@dataclass(frozen=True)
class RecallRow:
    scheme: str
    retriever: str
    mode: str
    k: float
    n_questions: int
    mean_recall: float
    per_question: tuple[float, ...]


@dataclass(frozen=True)
class RecallReport:
    rows: tuple[RecallRow, ...]

    @classmethod
    def merge(cls, reports: list["RecallReport"]) -> "RecallReport":
        return cls(tuple(row for report in reports for row in report.rows))

    def to_csv(self) -> str:
        lines = ["scheme,retriever,mode,k,n,mean_recall"]
        for row in self.rows:
            lines.append(
                f"{row.scheme},{row.retriever},{row.mode},{format_k(row.k)},"
                f"{row.n_questions},{row.mean_recall:.6f}"
            )
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        """Recall (%) pivoted with one column per budget k."""
        ks = sorted({row.k for row in self.rows})
        groups: dict[tuple[str, str, str], dict[float, float]] = {}
        for row in self.rows:
            groups.setdefault((row.scheme, row.retriever, row.mode), {})[row.k] = row.mean_recall
        header = "| scheme | retriever | mode | " + " | ".join(f"k={format_k(k)}" for k in ks) + " |"
        sep = "|" + "---|" * (3 + len(ks))
        lines = [header, sep]
        for (scheme, retriever, mode), by_k in groups.items():
            cells = [f"{100 * by_k[k]:.1f}" if k in by_k else "-" for k in ks]
            lines.append(f"| {scheme} | {retriever} | {mode} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def _docs_by_id(docs) -> dict[str, Document]:
    if isinstance(docs, dict):
        return docs
    return {d.doc_id: d for d in docs}


def _as_span(unit) -> tuple[int, int]:
    if hasattr(unit, "doc_span"):
        return unit.doc_span
    start, end = unit
    return (start, end)


def recall_of_set(retrieved, qa: QAItem, docs) -> float:
    """Character-level coverage of the answer scope by retrieved spans.

    ``retrieved`` holds chunks/sections or bare ``(start, end)`` document
    spans. Overlapping retrieved spans are unioned before measuring, so
    nothing is double counted; for disjoint spans this equals the sum of
    per-span overlaps.
    """
    by_id = _docs_by_id(docs)
    doc = by_id.get(qa.doc_id)
    if doc is None:
        raise UnknownDoc(f"question {qa.question_id!r} references unknown document {qa.doc_id!r}")
    scope_start, scope_end = scope_doc_span(doc, qa)
    if scope_end <= scope_start:
        raise EmptyScope(f"question {qa.question_id!r} has a zero-length scope")
    spans = sorted(_as_span(u) for u in retrieved)
    covered = 0
    merged_start: int | None = None
    merged_end = 0
    for start, end in spans:
        if merged_start is None or start > merged_end:
            if merged_start is not None:
                covered += max(0, min(merged_end, scope_end) - max(merged_start, scope_start))
            merged_start, merged_end = start, end
        else:
            merged_end = max(merged_end, end)
    if merged_start is not None:
        covered += max(0, min(merged_end, scope_end) - max(merged_start, scope_start))
    return covered / (scope_end - scope_start)


def doc_units(
    doc: Document, scheme: ChunkScheme, view: ViewKind | None, doc_views: list[ViewEntry] | None
) -> list[tuple[str, tuple[int, int], str]]:
    """``(unit_id, doc_span, text)`` of what a (scheme, view) pair indexes, in section order.

    With no view the units are the scheme's chunks. A view indexes the
    document's sections: the raw view with the corpus section text, the
    keyword and summary views with their entries in ``doc_views``, which must
    name each section exactly once. Callers check that a view comes with the
    content scheme (``check_views``).
    """
    if view is None:
        return [(c.chunk_id, c.doc_span, c.text) for c in chunk_document(doc, scheme)]
    if view is ViewKind.RAW_TEXT:
        return [(s.section_id, s.doc_span, s.text) for s in doc.sections]
    if doc_views is None:
        raise UnknownDoc(f"no views supplied for document {doc.doc_id!r}")
    entries = view_texts(doc_views, view)
    texts = dict(entries)
    if len(texts) != len(entries) or texts.keys() != {s.section_id for s in doc.sections}:
        raise ViewMismatch(f"{view.value} views of document {doc.doc_id!r} do not cover exactly its sections")
    return [(s.section_id, s.doc_span, texts[s.section_id]) for s in doc.sections]


def doc_views_for(doc: Document, views: dict[str, list[ViewEntry]] | None) -> list[ViewEntry] | None:
    """The document's entries in ``views``, or its extractive views when ``views`` is None."""
    return views.get(doc.doc_id) if views is not None else build_views(doc)


@dataclass
class DocRetrievalContext:
    """One document's unit spans and one index per view of a mode, in fusion order."""

    span_by_unit: dict[str, tuple[int, int]]
    indexes: dict[ViewKind | None, SparseIndex | DenseIndex]
    provider: EmbeddingProvider | None

    def retrieve(self, question: str, ks: list[float], ordinal: int) -> list[list[str]]:
        """Retrieved unit ids per budget k, all from one ranking per index to the largest budget."""
        fused = len(self.indexes) > 1
        budgets = [(per_view_budget if fused else single_budget)(k, ordinal) for k in ks]
        rankings = {view: rank_units(index, question, self.provider, n=max(budgets, default=0))
                    for view, index in self.indexes.items()}
        if fused:
            return [fuse(rankings, budget).unit_ids for budget in budgets]
        (ranking,) = rankings.values()
        return [[s.unit_id for s in ranking[:budget]] for budget in budgets]


def build_doc_context(
    doc: Document,
    scheme: ChunkScheme,
    mode: str,
    retriever_kind: str,
    provider: EmbeddingProvider | None,
    doc_views: list[ViewEntry] | None,
) -> DocRetrievalContext:
    indexes = {}
    for view in parse_mode(mode):
        # The views of a mode share one unit table: the document's sections.
        units = doc_units(doc, scheme, view, doc_views)
        span_by_unit = {uid: span for uid, span, _ in units}
        indexes[view] = build_index([(uid, text) for uid, _, text in units], retriever_kind, provider)
    return DocRetrievalContext(span_by_unit, indexes, provider)


def doc_contexts(
    scheme: ChunkScheme, retriever: str, mode: str, views: dict[str, list[ViewEntry]] | None,
) -> Callable[[Document], DocRetrievalContext]:
    """Context lookup for one (scheme, retriever, mode) setup; each is built on first use.

    Keyword and summary views come from ``views`` when given, else they are
    the extractive views built in process.
    """
    needs_views = any(v in (ViewKind.KEYWORDS, ViewKind.SUMMARY) for v in parse_mode(mode))
    retriever_kind, provider_name = parse_retriever(retriever)
    provider = resolve_provider(provider_name) if retriever_kind == DENSE else None
    contexts: dict[str, DocRetrievalContext] = {}

    def context_for(doc: Document) -> DocRetrievalContext:
        if doc.doc_id not in contexts:
            doc_views = doc_views_for(doc, views) if needs_views else None
            contexts[doc.doc_id] = build_doc_context(doc, scheme, mode, retriever_kind, provider, doc_views)
        return contexts[doc.doc_id]

    return context_for


def eval_recall(
    docs,
    qa: list[QAItem],
    scheme: ChunkScheme | str,
    retriever: str,
    mode: str,
    ks: list[float],
    *,
    views: dict[str, list[ViewEntry]] | None = None,
    invert_parity: bool = False,
) -> RecallReport:
    """Mean recall per budget k for one (scheme, retriever, mode) setup.

    Each document gets one context (see ``doc_contexts``), each question one
    ranking per index, and questions keep their dataset-order ordinal for
    budget alternation. Questions whose document is absent are skipped with a
    warning. The setup is checked (``check_setup``) before any document is.
    """
    if isinstance(scheme, str):
        scheme = ChunkScheme.parse(scheme)
    check_setup(scheme, retriever, mode, ks)
    context_for = doc_contexts(scheme, retriever, mode, views)
    by_id = _docs_by_id(docs)
    per_k: dict[float, list[float]] = {float(k): [] for k in ks}
    for position, item in enumerate(qa):
        doc = by_id.get(item.doc_id)
        if doc is None:
            logger.warning("skipping %s: document %r not ingested", item.question_id, item.doc_id)
            continue
        ctx = context_for(doc)
        ordinal = position + 1 if invert_parity else position
        for k, unit_ids in zip(ks, ctx.retrieve(item.question, ks, ordinal)):
            spans = [ctx.span_by_unit[uid] for uid in unit_ids]
            per_k[float(k)].append(recall_of_set(spans, item, by_id))

    rows = []
    for k in ks:
        recalls = per_k[float(k)]
        mean = sum(recalls) / len(recalls) if recalls else 0.0
        rows.append(RecallRow(scheme.spec(), retriever, mode, float(k), len(recalls), mean, tuple(recalls)))
    return RecallReport(tuple(rows))


def generate_answer(question: str, retrieved_texts: list[str], llm: LlmClient) -> str:
    """Answer from the retrieved raw texts only, concatenated in rank order."""
    texts = list(retrieved_texts)
    if not texts:
        raise EmptyRetrieval("cannot generate an answer from zero retrieved texts")
    return llm.generate(render_answer_prompt("\n\n".join(texts), question), max_tokens=512)


class Winner(enum.Enum):
    A = "a"
    B = "b"
    TIE = "tie"


@dataclass(frozen=True)
class JudgeOutcome:
    score_based: Winner
    round_based: Winner
    scores: tuple[float, float, float, float]  # (a_round1, b_round1, a_round2, b_round2)
    raw_round1: str = ""
    raw_round2: str = ""


def judge_outcome(a1: float, b1: float, a2: float, b2: float) -> tuple[Winner, Winner]:
    """Outcomes as a pure function of the four raw scores.

    Score-based compares round totals. Round-based requires winning both
    rounds outright; a split or any tied round is a tie.
    """
    total_a, total_b = a1 + a2, b1 + b2
    if total_a > total_b:
        score_based = Winner.A
    elif total_b > total_a:
        score_based = Winner.B
    else:
        score_based = Winner.TIE
    if a1 > b1 and a2 > b2:
        round_based = Winner.A
    elif b1 > a1 and b2 > a2:
        round_based = Winner.B
    else:
        round_based = Winner.TIE
    return score_based, round_based


def _parse_judge_scores(raw: str) -> tuple[float, float]:
    """Scores from the last JSON object in the judge's output."""
    found: tuple[float, float] | None = None
    for obj in iter_json_objects(raw):
        if "answer_1_score" not in obj or "answer_2_score" not in obj:
            continue
        try:
            scores = (float(obj["answer_1_score"]), float(obj["answer_2_score"]))
        except (TypeError, ValueError):
            continue
        found = scores
    if found is None:
        raise ParseError("judge output has no parseable score object")
    if not all(0.0 <= s <= 10.0 for s in found):
        raise ParseError(f"judge scores {found} outside [0, 10]")
    return found


def judge_pairwise(
    question: str,
    gold_answer: str,
    answer_a: str,
    answer_b: str,
    llm: LlmClient,
) -> JudgeOutcome:
    """Two-round pairwise judging with swapped answer positions.

    Round 1 shows answer A first; round 2 swaps, so positional bias cancels.
    Raw judge text is kept on the outcome for audit.
    """
    raw1 = llm.generate(render_judge_prompt(question, gold_answer, answer_a, answer_b), max_tokens=1024)
    a1, b1 = _parse_judge_scores(raw1)
    raw2 = llm.generate(render_judge_prompt(question, gold_answer, answer_b, answer_a), max_tokens=1024)
    b2, a2 = _parse_judge_scores(raw2)
    score_based, round_based = judge_outcome(a1, b1, a2, b2)
    return JudgeOutcome(score_based, round_based, (a1, b1, a2, b2), raw1, raw2)
