"""Answer-scope recall, the evaluation grid, and pairwise answer judging.

A setup (scheme, retriever, mode, budgets) is parsed once, with its
embedding provider resolved, by ``Setup.parse`` where it enters; nothing
below parses a spec or resolves a provider again. ``mcidx index`` parses
its one view as the setup ``single:<view>`` without budgets;
``retrieved_spans``, the one place that uses budgets, refuses a setup
without them. Whether a setup reads a views file, and which entries each
document takes from it, ``doc_views_for`` decides.
Recall of a question is the fraction of its answer scope's characters
covered by the union of retrieved spans. Both harnesses, ``eval_recall`` and
``mcidx eval answers``, reach their spans through one loop,
``retrieved_spans``. It builds one context per document: its unit table
(``doc_units``) and one index per view of the mode, so each question is
scored only against its own document. Sparse indexes over the raw view, the
scheme's chunks, take their terms from the document's ``terms``, which every
setup over the document shares. Each question makes one ``retrieve_mc`` or
``retrieve_single`` call at the largest budget, which ranks it once per index;
each budget k keeps the units whose best rank is within its k'.
Pairwise judging scores two candidate answers in two position-swapped
rounds; the score-based winner has the higher score total, the round-based
winner must win both rounds outright.
"""

from __future__ import annotations

import enum
import logging
import re
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from .chunking import CONTENT, ChunkScheme, chunk_document
from .corpus import Document, QAItem, docs_by_id, scope_doc_span
from .errors import EmptyRetrieval, EmptyScope, ParseError, UnknownDoc, ViewMismatch
from .fusion import VIEW_ORDER, per_view_budget, retrieve_mc, retrieve_single, single_budget
from .jsonio import iter_json_objects
from .prompts import ANSWER, JUDGE
from .providers import EmbeddingProvider, LlmClient
from .retrieval import (
    DENSE,
    DenseIndex,
    SparseIndex,
    build_dense_index,
    build_sparse_index,
    parse_retriever,
    resolve_provider,
)
from .views import ViewEntry, ViewKind, build_views, view_texts

logger = logging.getLogger(__name__)

# The view kinds a views file supplies; it is read only for a setup indexing one.
VIEWS_FILE_KINDS = frozenset({ViewKind.KEYWORDS, ViewKind.SUMMARY})

_MODE_VIEWS = {
    "mc": VIEW_ORDER,
    "single:raw": (ViewKind.RAW_TEXT,),
    "single:keywords": (ViewKind.KEYWORDS,),
    "single:summary": (ViewKind.SUMMARY,),
}


def parse_mode(spec: str) -> tuple[ViewKind, ...]:
    """The views ``mc | single:<raw|keywords|summary>`` indexes in fusion order; raw is the scheme's chunks."""
    if spec not in _MODE_VIEWS:
        raise ValueError(f"unknown mode spec {spec!r}")
    return _MODE_VIEWS[spec]


def check_views(scheme: ChunkScheme, views: tuple[ViewKind, ...]) -> None:
    """Reject (ValueError) a keyword or summary view under a scheme other than content: they index sections."""
    if scheme.kind != CONTENT and not VIEWS_FILE_KINDS.isdisjoint(views):
        raise ValueError(f"keyword and summary views need the content scheme, got {scheme.spec()!r}")


def check_budgets(views: tuple[ViewKind, ...], ks: Sequence[float]) -> Callable[[float, int], int]:
    """The budget rule of these views, per view if they fuse; ValueError: a repeated k or one it does not take."""
    rule = per_view_budget if len(views) > 1 else single_budget
    for k in ks:
        rule(k, 0)
    if len({float(k) for k in ks}) != len(ks):
        raise ValueError(f"repeated budget in {list(ks)}: each k gets one row")
    return rule


@dataclass(frozen=True)
class Setup:
    """A parsed (scheme, retriever, mode, budgets) setup and its embedding provider, made before any file is read.

    ``mcidx index`` is the setup ``single:<view>`` without budgets; only ``retrieved_spans`` uses them.
    """

    scheme: ChunkScheme
    kind: str
    provider: EmbeddingProvider | None  # the dense retriever's; None for tfidf and bm25
    views: tuple[ViewKind, ...]
    ks: tuple[float, ...]
    budget: Callable[[float, int], int]  # (k, question ordinal) -> rank cut

    @classmethod
    def parse(cls, scheme: str, retriever: str, mode: str, ks: Sequence[float]) -> "Setup":
        """Apply every setup rule, then resolve the provider; ValueError names a broken rule."""
        scheme = ChunkScheme.parse(scheme)
        kind, provider_name = parse_retriever(retriever)
        views = parse_mode(mode)
        check_views(scheme, views)
        budget = check_budgets(views, ks)
        provider = resolve_provider(provider_name) if kind == DENSE else None
        return cls(scheme, kind, provider, views, tuple(map(float, ks)), budget)

    @property
    def reads_views_file(self) -> bool:
        """Whether the mode indexes a view that a views file supplies."""
        return not VIEWS_FILE_KINDS.isdisjoint(self.views)


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


def recall_of_set(spans: list[tuple[int, int]], scope: tuple[int, int]) -> float:
    """Character-level coverage of the answer ``scope`` by retrieved ``(start, end)`` spans.

    Both are in document coordinates. Overlapping retrieved spans are unioned
    before measuring, so nothing is double counted; for disjoint spans this
    equals the sum of per-span overlaps.
    """
    scope_start, scope_end = scope
    if scope_end <= scope_start:
        raise EmptyScope(f"answer scope {scope} has zero length")
    # In start order, each span adds the part of the scope it covers past ``reach``.
    covered, reach = 0, scope_start
    for start, end in sorted(spans):
        start, end = max(start, reach), min(end, scope_end)
        if end > start:
            covered += end - start
            reach = end
    return covered / (scope_end - scope_start)


def doc_units(
    doc: Document, scheme: ChunkScheme, view: ViewKind, doc_views: list[ViewEntry] | None
) -> list[tuple[str, tuple[int, int], str, tuple[int, int] | None]]:
    """``(unit_id, doc_span, text, token_span)`` of what a (scheme, view) pair indexes, in document order.

    The raw view is the scheme's chunks under their ids; a content chunk is a
    section under its id. The keyword and summary views are the sections'
    entries in ``doc_views``, which must name each section exactly once, and
    need the content scheme (``check_views``). ``token_span`` is the unit's
    token range in the document's ``terms``, None for keyword and summary
    units, whose text is not document text.
    """
    if view is ViewKind.RAW_TEXT:
        return [(c.chunk_id, c.doc_span, c.text, c.token_span) for c in chunk_document(doc, scheme)]
    if doc_views is None:
        raise UnknownDoc(f"no views supplied for document {doc.doc_id!r}")
    entries = view_texts(doc_views, view)
    texts = dict(entries)
    if len(texts) != len(entries) or texts.keys() != {s.section_id for s in doc.sections}:
        raise ViewMismatch(f"{view.value} views of document {doc.doc_id!r} do not cover exactly its sections")
    return [(s.section_id, s.doc_span, texts[s.section_id], None) for s in doc.sections]


def doc_views_for(doc: Document, setup: Setup, views: dict[str, list[ViewEntry]] | None) -> list[ViewEntry] | None:
    """None for a setup that reads no views file, else the document's entries in ``views``, or its extractive views."""
    if not setup.reads_views_file:
        return None
    return views.get(doc.doc_id) if views is not None else build_views(doc)


def build_doc_context(
    doc: Document,
    setup: Setup,
    doc_views: list[ViewEntry] | None,
) -> tuple[dict[str, tuple[int, int]], dict[ViewKind, SparseIndex | DenseIndex]]:
    """One document's unit spans and one index per view of the setup's mode, in fusion order."""
    indexes = {}
    for view in setup.views:
        units = doc_units(doc, setup.scheme, view, doc_views)
        pairs = [(uid, text) for uid, _, text, _ in units]
        if setup.kind == DENSE:
            indexes[view] = build_dense_index(pairs, setup.provider)
            continue
        terms = None
        if all(token_span is not None for *_, token_span in units):
            # Chunk and section terms are slices of the document's terms.
            vocabulary, ids = doc.terms
            terms = (vocabulary, [ids[a:b] for _, _, _, (a, b) in units])
        indexes[view] = build_sparse_index(pairs, setup.kind, terms)
    # The views of a mode share one unit table: under mc, the sections.
    return {uid: span for uid, span, _, _ in units}, indexes


def retrieved_spans(
    docs: list[Document],
    qa: list[QAItem],
    setup: Setup,
    views: dict[str, list[ViewEntry]] | None,
    invert_parity: bool = False,
) -> Iterator[tuple[QAItem, Document, list[list[tuple[int, int]]]]]:
    """Each question's item, document and retrieved document spans per budget k of ``setup``, in dataset order.

    Each document gets one context (``build_doc_context``) on first use,
    dropped after the document's last question.
    Keyword and summary views come from ``views`` when given, else they are
    the extractive views built in process. Each question is retrieved once,
    at the largest k and its dataset-order ordinal (shifted by one with
    ``invert_parity``); each k keeps the units whose best rank is within its
    budget. Questions whose document is absent are skipped with a warning.
    Before any question is ranked, this call refuses a setup without budgets, a repeated document id and
    ``views`` that ``doc_units`` refuses.
    """
    if not setup.ks:
        raise ValueError("no budget given: each setup needs at least one k")
    k_max = max(setup.ks)
    by_id = docs_by_id(docs)
    questions_left = Counter(item.doc_id for item in qa)
    for doc in (by_id[doc_id] for doc_id in questions_left if doc_id in by_id and views is not None):
        for view in filter(VIEWS_FILE_KINDS.__contains__, setup.views):
            doc_units(doc, setup.scheme, view, doc_views_for(doc, setup, views))

    def spans() -> Iterator[tuple[QAItem, Document, list[list[tuple[int, int]]]]]:
        contexts = {}
        for ordinal, item in enumerate(qa, start=int(invert_parity)):
            doc = by_id.get(item.doc_id)
            if doc is None:
                logger.warning("skipping %s: document %r not ingested", item.question_id, item.doc_id)
                continue
            if doc.doc_id not in contexts:
                contexts[doc.doc_id] = build_doc_context(doc, setup, doc_views_for(doc, setup, views))
            questions_left[doc.doc_id] -= 1
            span_by_unit, indexes = contexts[doc.doc_id] if questions_left[doc.doc_id] else contexts.pop(doc.doc_id)
            if len(indexes) > 1:
                ranked = [(u.unit_id, min(u.view_ranks.values()))
                          for u in retrieve_mc(indexes, item.question, k_max, ordinal, setup.provider).units]
            else:
                (index,) = indexes.values()
                ranked = [(s.unit_id, s.rank)
                          for s in retrieve_single(index, item.question, k_max, ordinal, setup.provider)]
            budgets = [setup.budget(k, ordinal) for k in setup.ks]
            yield item, doc, [[span_by_unit[uid] for uid, rank in ranked if rank <= b] for b in budgets]

    return spans()


def eval_recall(
    docs: list[Document],
    qa: list[QAItem],
    scheme: str,
    retriever: str,
    mode: str,
    ks: list[float],
    *,
    views: dict[str, list[ViewEntry]] | None = None,
    invert_parity: bool = False,
) -> RecallReport:
    """Mean recall per budget k for one (scheme, retriever, mode) setup.

    Questions come from ``retrieved_spans``, which refuses a repeated document
    id, with their dataset-order ordinal for budget alternation; each answer
    scope goes to document coordinates once, by ``scope_doc_span``, which
    refuses one outside its section. ``Setup.parse`` runs before all of that.
    """
    setup = Setup.parse(scheme, retriever, mode, ks)
    per_k: list[list[float]] = [[] for _ in setup.ks]
    for item, doc, spans_per_k in retrieved_spans(docs, qa, setup, views, invert_parity):
        scope = scope_doc_span(doc, item)
        for recalls, spans in zip(per_k, spans_per_k):
            recalls.append(recall_of_set(spans, scope))
    rows = []
    for k, recalls in zip(setup.ks, per_k):
        mean = sum(recalls) / len(recalls) if recalls else 0.0
        rows.append(RecallRow(setup.scheme.spec(), retriever, mode, k, len(recalls), mean, tuple(recalls)))
    return RecallReport(tuple(rows))


def generate_answer(question: str, retrieved_texts: list[str], llm: LlmClient) -> str:
    """Answer from the retrieved raw texts only, concatenated in rank order."""
    texts = list(retrieved_texts)
    if not texts:
        raise EmptyRetrieval("cannot generate an answer from zero retrieved texts")
    return llm.generate(ANSWER.substitute(quotes="\n\n".join(texts), question=question), max_tokens=512)


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
    def winner(a_wins: bool, b_wins: bool) -> Winner:
        return Winner.A if a_wins else Winner.B if b_wins else Winner.TIE

    total_a, total_b = a1 + a2, b1 + b2
    return winner(total_a > total_b, total_b > total_a), winner(a1 > b1 and a2 > b2, b1 > a1 and b2 > a2)


_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _parse_judge_scores(raw: str) -> tuple[float, float]:
    """Scores from the last JSON object in the judge's output whose two scores are JSON numbers or spell one."""
    found: tuple[float, float] | None = None
    for obj in iter_json_objects(raw):
        pair = (obj.get("answer_1_score"), obj.get("answer_2_score"))
        # A score is read from its JSON spelling, so a boolean, "1_0" or "\u0663" is not one.
        texts = [s if type(s) is str else repr(s) if type(s) in (int, float) else "" for s in pair]
        if all(_JSON_NUMBER.fullmatch(t) for t in texts):
            found = (float(texts[0]), float(texts[1]))
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
    asked = {"question": question, "ground_truth_answer": gold_answer}
    raw1 = llm.generate(JUDGE.substitute(asked, answer_1=answer_a, answer_2=answer_b), max_tokens=1024)
    a1, b1 = _parse_judge_scores(raw1)
    raw2 = llm.generate(JUDGE.substitute(asked, answer_1=answer_b, answer_2=answer_a), max_tokens=1024)
    b2, a2 = _parse_judge_scores(raw2)
    score_based, round_based = judge_outcome(a1, b1, a2, b2)
    return JudgeOutcome(score_based, round_based, (a1, b1, a2, b2), raw1, raw2)
