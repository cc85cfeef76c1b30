from __future__ import annotations

import json
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SECTION_TEXTS, ScriptedLlm, make_doc
import mcidx.evaluation as evaluation
import mcidx.fusion as fusion
from mcidx.chunking import ChunkScheme, chunk_document
from mcidx.corpus import QAItem, QuestionType, scope_doc_span
from mcidx.errors import EmptyRetrieval, EmptyScope, ParseError, UnknownDoc, ViewMismatch
from mcidx.evaluation import (
    RecallReport,
    Setup,
    Winner,
    build_doc_context,
    check_views,
    doc_units,
    eval_recall,
    generate_answer,
    judge_outcome,
    judge_pairwise,
    parse_mode,
    recall_of_set,
    retrieved_spans,
)
from mcidx.fusion import retrieve_mc, retrieve_single
from mcidx.synthetic import complementarity_fixture, synthetic_corpus
from mcidx.views import Provenance, ViewEntry, ViewKind, build_views
from oracles import oracle_judge, oracle_recall, oracle_recall_chars, oracle_recall_sum


def _qa(doc_id, section_id, span, qid="q1"):
    return QAItem(qid, doc_id, "q?", "a", QuestionType.SUMMARIZATION, section_id, span)


class TestRecallOfSet:
    SCOPE = (0, 100)

    def test_worked_example_point_six(self):
        spans = [(90, 120), (20, 70), (120, 200)]  # 10%, 50%, 0% overlap, disjoint
        assert recall_of_set(spans, self.SCOPE) == 0.6

    def test_full_containment(self):
        assert recall_of_set([(0, 250)], (10, 60)) == 1.0

    def test_empty_retrieved_set(self):
        assert recall_of_set([], self.SCOPE) == 0.0

    def test_zero_length_scope_rejected(self):
        with pytest.raises(EmptyScope):
            recall_of_set([(0, 10)], (5, 5))

    def test_order_invariance(self):
        spans = [(90, 120), (20, 70), (120, 200)]
        for _ in range(5):
            random.Random(1).shuffle(spans)
            assert recall_of_set(spans, self.SCOPE) == 0.6

    def test_overlapping_spans_not_double_counted(self):
        assert recall_of_set([(0, 60), (40, 80)], self.SCOPE) == 0.8

    def test_monotone_under_added_span(self):
        rng = random.Random(11)
        for _ in range(50):
            spans = [(rng.randint(0, 200), rng.randint(0, 250)) for _ in range(3)]
            spans = [(min(s, e), max(s, e) + 1) for s, e in spans]
            base = recall_of_set(spans, self.SCOPE)
            extra = (rng.randint(0, 200), rng.randint(201, 250))
            assert recall_of_set(spans + [extra], self.SCOPE) >= base

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(spans=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 20)).map(lambda s: (s[0], s[0] + s[1])),
                          max_size=6),
           scope=st.tuples(st.integers(0, 60), st.integers(1, 30)).map(lambda s: (s[0], s[0] + s[1])))
    @example(spans=[(10, 90), (20, 30), (40, 50)], scope=SCOPE)  # nested
    @example(spans=[(0, 50), (0, 50), (50, 50)], scope=SCOPE)  # repeated, then empty at the edge
    @example(spans=[(30, 30), (70, 120), (60, 80)], scope=SCOPE)  # empty, then overlapping past the scope
    @example(spans=[(5, 5)], scope=SCOPE)  # only an empty span
    def test_matches_character_set_oracle(self, spans, scope):
        # Spans may overlap, nest, repeat or be empty (start == end).
        assert recall_of_set(spans, scope) == oracle_recall_chars(spans, scope)

    def test_union_equals_sum_for_disjoint_flc_chunks(self):
        docs, qa = synthetic_corpus(n_docs=2)
        for doc in docs:
            chunks = chunk_document(doc, ChunkScheme("flc", 100))
            for item in [q for q in qa if q.doc_id == doc.doc_id]:
                rng = random.Random(item.question_id)
                subset = rng.sample(chunks, min(4, len(chunks)))
                section = doc.sections_by_id[item.scope_section_id]
                scope = (section.doc_span[0] + item.scope_span[0],
                         section.doc_span[0] + item.scope_span[1])
                assert scope_doc_span(doc, item) == scope
                got = recall_of_set([c.doc_span for c in subset], scope)
                assert got == pytest.approx(
                    oracle_recall_sum([c.doc_span for c in subset], scope), abs=1e-12
                )


class TestEvalRecall:
    def test_whole_corpus_retrieval_gives_full_recall(self):
        docs, qa = synthetic_corpus(n_docs=2)
        report = eval_recall(docs, qa, "content", "bm25", "single:raw", [50])
        assert report.rows[0].mean_recall == 1.0
        assert report.rows[0].n_questions == len(qa)

    def test_gold_ranked_first_gives_full_recall_at_k1(self):
        doc = make_doc(["filler words only here.", "unique zirconium content sentence."])
        item = QAItem("q1", doc.doc_id, "zirconium?", "a", QuestionType.EXPLANATORY,
                      "s0001", (0, 10))
        report = eval_recall([doc], [item], "content", "bm25", "single:raw", [1])
        assert report.rows[0].mean_recall == 1.0

    def test_monotone_in_k(self):
        docs, qa = synthetic_corpus(n_docs=3)
        for mode in ("mc", "single:raw", "single:keywords", "single:summary"):
            report = eval_recall(docs, qa, "content", "tfidf", mode, [1.5, 3, 5, 10])
            means = [row.mean_recall for row in report.rows]
            assert means == sorted(means), (mode, means)

    def test_complementarity_fixture_separates_mc(self):
        docs, qa, views = complementarity_fixture()
        mc = eval_recall(docs, qa, "content", "bm25", "mc", [3], views=views)
        assert mc.rows[0].mean_recall >= 0.9
        for mode in ("single:raw", "single:keywords", "single:summary"):
            single = eval_recall(docs, qa, "content", "bm25", mode, [3], views=views)
            assert single.rows[0].mean_recall <= 0.45
            assert mc.rows[0].mean_recall > single.rows[0].mean_recall

    @staticmethod
    def _peak_bytes_per_doc(scheme, retriever, mode, analyzed):
        """Growth of eval_recall's traced peak per document from 10 to 100 documents.

        With ``analyzed``, each document's analysis is built before tracing
        starts, so the peak holds the per-question contexts alone.
        """
        def peak(n_docs):
            docs, qa = synthetic_corpus(n_docs=n_docs, seed=7)
            if analyzed:
                for doc in docs:
                    _ = doc.terms, doc.section_starts, doc.text_sentences, doc.section_sentences
            tracemalloc.start()
            try:
                eval_recall(docs, qa, scheme, retriever, mode, [1.5, 3, 5, 10])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # fills the process-wide term memos first
        return (peak(100) - peak(10)) / 90

    def test_peak_memory_does_not_grow_with_documents(self):
        # A document's context (unit spans, one index per view) is dropped
        # after its last question, so only what the documents own, such as
        # their analysis, grows with the corpus: about 4 kB a document.
        # Keeping every context to the end grows it by about 39 kB.
        assert self._peak_bytes_per_doc("content", "dense:mock", "mc", analyzed=False) < 10_000

    @pytest.mark.parametrize("scheme,retriever,mode", [("content", "bm25", "mc"), ("flc:100", "tfidf", "single:raw")])
    def test_peak_memory_of_contexts_does_not_grow_with_documents(self, scheme, retriever, mode):
        # Sparse contexts are dropped like dense ones: about 1-2 kB a document.
        # Cold, the documents' own term analysis adds 14-20 kB a document.
        assert self._peak_bytes_per_doc(scheme, retriever, mode, analyzed=True) < 10_000

    @pytest.mark.parametrize("ks", [[3, 3], [1.5, 3, 3.0]])
    def test_repeated_budget_rejected(self, ks):
        docs, qa = synthetic_corpus(n_docs=2)
        with pytest.raises(ValueError, match="repeated budget"):
            eval_recall(docs, qa, "content", "bm25", "single:raw", ks)

    @pytest.mark.parametrize("mode", ["mc", "single:raw", "single:keywords"])
    def test_empty_budget_list_rejected(self, mode, monkeypatch):
        # A setup parses without budgets (mcidx index builds one), but retrieved_spans, the one place that uses
        # them, refuses none up front: no document is touched, not even for its views, and no ranking is made.
        def untouched(*args):
            raise AssertionError("a document was touched")

        for name in ("build_doc_context", "doc_units", "doc_views_for"):
            monkeypatch.setattr(evaluation, name, untouched)
        docs, qa = synthetic_corpus(n_docs=1)
        with pytest.raises(ValueError, match="no budget"):
            eval_recall(docs, qa, "content", "bm25", mode, [])
        setup = Setup.parse("content", "bm25", mode, [])
        with pytest.raises(ValueError, match="no budget"):
            retrieved_spans(docs, qa, setup, {})

    def test_mc_requires_content_scheme(self):
        docs, qa = synthetic_corpus(n_docs=1)
        with pytest.raises(ValueError):
            eval_recall(docs, qa, "flc:100", "bm25", "mc", [3])

    @pytest.mark.parametrize("mode,qa", [
        ("mc", []),
        ("single:keywords", [_qa("missing-doc", "s0000", (0, 5))]),
    ], ids=["mc-no-questions", "keywords-no-document"])
    def test_view_mode_rejected_before_any_question(self, mode, qa):
        # No question reaches a document, so only a check made up front sees the setup.
        docs, _ = synthetic_corpus(n_docs=1)
        with pytest.raises(ValueError, match="content scheme"):
            eval_recall(docs, qa, "flc:100", "bm25", mode, [3])

    def test_unknown_scope_section(self):
        doc = make_doc(["alpha beta.", "gamma delta."])
        with pytest.raises(UnknownDoc):
            eval_recall([doc], [_qa(doc.doc_id, "s9999", (0, 5))], "content", "bm25", "single:raw", [3])

    def test_unknown_documents_skipped_not_fatal(self):
        docs, qa = synthetic_corpus(n_docs=2)
        stray = _qa("missing-doc", "s0000", (0, 5), qid="stray")
        report = eval_recall(docs, qa + [stray], "content", "bm25", "single:raw", [3])
        assert report.rows[0].n_questions == len(qa)

    def test_invert_parity_changes_fractional_budget(self):
        doc = make_doc(["decoy text with nothing.", "gold section content here."])
        item = QAItem("q1", doc.doc_id, "unmatched terms", "a",
                      QuestionType.EXPLANATORY, "s0001", (0, 10))
        normal = eval_recall([doc], [item], "content", "bm25", "single:raw", [1.5])
        inverted = eval_recall([doc], [item], "content", "bm25", "single:raw", [1.5],
                               invert_parity=True)
        assert normal.rows[0].mean_recall == 0.0   # top-1 = first section by tie-break
        assert inverted.rows[0].mean_recall == 1.0  # top-2 includes the gold section

    def test_rows_are_deterministic(self):
        docs, qa = synthetic_corpus(n_docs=2)
        a = eval_recall(docs, qa, "content", "dense:mock", "mc", [1.5, 3])
        b = eval_recall(docs, qa, "content", "dense:mock", "mc", [1.5, 3])
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_csv_shape(self):
        docs, qa = synthetic_corpus(n_docs=1)
        report = eval_recall(docs, qa, "content", "bm25", "mc", [1.5, 3])
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "scheme,retriever,mode,k,n,mean_recall"
        assert lines[1].startswith("content,bm25,mc,1.5,")
        assert lines[2].startswith("content,bm25,mc,3,")

    def test_markdown_table(self):
        docs, qa = synthetic_corpus(n_docs=1)
        report = RecallReport.merge([
            eval_recall(docs, qa, "content", "bm25", "mc", [1.5, 3]),
            eval_recall(docs, qa, "flc:100", "bm25", "single:raw", [1.5, 3]),
        ])
        table = report.to_markdown()
        assert "k=1.5" in table and "k=3" in table
        assert "| content | bm25 | mc |" in table


class TestDocUnits:
    CONTENT = ChunkScheme.parse("content")

    def _doc(self):
        return make_doc(["Alpha beta gamma.", "Delta epsilon zeta.", "Eta theta iota."])

    @pytest.mark.parametrize("change", ["drop", "unknown", "repeat"])
    def test_view_entries_must_cover_exactly_the_sections(self, change):
        doc = self._doc()
        views = build_views(doc)
        keywords = [v for v in views if v.view_kind is ViewKind.KEYWORDS]
        if change == "drop":
            views.remove(keywords[1])
        elif change == "unknown":
            views.append(replace(keywords[0], section_id="s9999"))
        else:
            views.append(keywords[0])
        with pytest.raises(ViewMismatch):
            doc_units(doc, self.CONTENT, ViewKind.KEYWORDS, views)

    def test_units_follow_section_order(self):
        doc = self._doc()
        views = [replace(v, text=f"{v.view_kind.value} {v.section_id}") for v in reversed(build_views(doc))]
        spans = [(s.section_id, s.doc_span) for s in doc.sections]
        starts = doc.section_starts
        raw = doc_units(doc, self.CONTENT, ViewKind.RAW_TEXT, views)
        assert raw == [(sid, span, s.text, (starts[i], starts[i + 1]))
                       for i, ((sid, span), s) in enumerate(zip(spans, doc.sections))]
        summary = doc_units(doc, self.CONTENT, ViewKind.SUMMARY, views)
        assert summary == [(sid, span, f"summary {sid}", None) for sid, span in spans]

    def test_raw_view_is_the_content_chunks_under_section_ids(self):
        docs, _ = synthetic_corpus(n_docs=5)
        for doc in docs:
            chunks = chunk_document(doc, self.CONTENT)
            section_ids = [s.section_id for s in doc.sections]
            assert [c.chunk_id for c in chunks] == [c.section_id for c in chunks] == section_ids
            raw = doc_units(doc, self.CONTENT, ViewKind.RAW_TEXT, None)
            assert raw == [(c.chunk_id, c.doc_span, c.text, c.token_span) for c in chunks]

    def test_missing_views_and_wrong_scheme_rejected(self):
        doc = self._doc()
        with pytest.raises(UnknownDoc):
            doc_units(doc, self.CONTENT, ViewKind.KEYWORDS, None)
        with pytest.raises(ValueError):
            check_views(ChunkScheme.parse("flc:100"), (ViewKind.KEYWORDS,))


class TestOneRankingPerQuestion:
    KS = [1.5, 3, 5, 10]

    @pytest.mark.parametrize("scheme,mode,per_question", [
        ("flc:100", "single:raw", 1),
        ("content", "single:raw", 1),
        ("content", "single:keywords", 1),
        ("content", "single:summary", 1),
        ("content", "mc", 3),
    ])
    def test_rank_calls_per_question(self, monkeypatch, scheme, mode, per_question):
        # Evaluation reaches its indexes only through fusion, which ranks with rank_units.
        calls = []
        rank_units = fusion.rank_units

        def counting(*args, **kwargs):
            calls.append(args)
            return rank_units(*args, **kwargs)

        monkeypatch.setattr(fusion, "rank_units", counting)
        docs, qa = synthetic_corpus(n_docs=2)
        eval_recall(docs, qa, scheme, "bm25", mode, self.KS)
        assert len(calls) == per_question * len(qa)

    @pytest.mark.parametrize("scheme,mode", [("flc-content:100", "single:raw"), ("content", "mc")])
    def test_every_k_equals_its_own_retrieval(self, scheme, mode):
        docs, qa = synthetic_corpus(n_docs=2)
        setup = Setup.parse(scheme, "tfidf", mode, self.KS)
        for invert_parity in (False, True):
            got = list(retrieved_spans(docs, qa, setup, None, invert_parity))
            assert [item for item, _, _ in got] == qa
            for position, (item, doc, spans_per_k) in enumerate(got):
                assert doc.doc_id == item.doc_id
                span_by_unit, indexes = build_doc_context(doc, setup, build_views(doc))
                ordinal = position + 1 if invert_parity else position
                if mode == "mc":
                    expected = [retrieve_mc(indexes, item.question, k, ordinal).unit_ids for k in self.KS]
                else:
                    index = indexes[ViewKind.RAW_TEXT]
                    expected = [[s.unit_id for s in retrieve_single(index, item.question, k, ordinal)] for k in self.KS]
                assert spans_per_k == [[span_by_unit[uid] for uid in ids] for ids in expected]


GRID_SETUPS = [(scheme, retriever, "single:raw")
               for scheme in ("flc:100", "flc:200", "flc:300", "flc-content:100", "flc-content:200",
                              "flc-content:300")
               for retriever in ("tfidf", "bm25", "dense:mock")] + [
    ("content", retriever, mode)
    for mode in ("single:raw", "single:keywords", "single:summary", "mc")
    for retriever in ("tfidf", "bm25", "dense:mock")]


@st.composite
def recall_inputs(draw):
    """A corpus, its questions and its keyword and summary views (None for the extractive ones).

    Corpora are ``synthetic_corpus`` or documents of ``SECTION_TEXTS``; one
    question may name a document that is absent, which still takes an ordinal.
    """
    if draw(st.booleans()):
        docs, qa = synthetic_corpus(n_docs=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**16)))
    else:
        docs = [make_doc(draw(SECTION_TEXTS), doc_id=f"d{i}") for i in range(draw(st.integers(1, 3)))]
        qa = []
        for doc in docs:
            answerable = [s for s in doc.sections if s.text]
            for _ in range(draw(st.integers(0, 3)) if answerable else 0):
                section = draw(st.sampled_from(answerable))
                start = draw(st.integers(0, len(section.text) - 1))
                end = draw(st.integers(start + 1, len(section.text)))
                question = draw(st.one_of(st.sampled_from([s.text for s in doc.sections]),
                                          SECTION_TEXTS.map(" ".join)))
                qa.append(QAItem(f"{doc.doc_id}:q{len(qa)}", doc.doc_id, question, "a",
                                 QuestionType.EXPLANATORY, section.section_id, (start, end)))
    if draw(st.booleans()):
        qa.insert(draw(st.integers(0, len(qa))), _qa("absent", "s0000", (0, 1), qid="absent:q"))
    views = None
    if draw(st.booleans()):
        texts = draw(SECTION_TEXTS)
        views = {doc.doc_id: [ViewEntry(s.section_id, kind, texts[(i + j) % len(texts)], Provenance.LLM_GENERATED)
                              for i, s in enumerate(doc.sections)
                              for j, kind in enumerate((ViewKind.KEYWORDS, ViewKind.SUMMARY))]
                 for doc in docs}
    return docs, qa, views


class TestRecallOracle:
    """The whole question-to-recall composition against ``oracle_recall``, for every grid setup.

    Sparse retrievers rank by ``reference_loop_scores``, which repeats the
    scorers' float operations, so equal scores tie exactly and both sides
    break them by corpus position. ``dense:mock`` scores are float32 dot
    products: a question where units with different rows tie exactly is
    left out (the oracle gives it None), the rest must match exactly.
    """

    KS = [1.5, 3, 5, 10]

    @pytest.mark.parametrize("scheme,retriever,mode", GRID_SETUPS)
    @settings(max_examples=4, deadline=None)
    @given(inputs=recall_inputs(), invert_parity=st.booleans())
    def test_matches_oracle(self, scheme, retriever, mode, inputs, invert_parity):
        docs, qa, views = inputs
        # None means the extractive views, which test_views pins to their own oracle.
        oracle_views = views if views is not None else {doc.doc_id: build_views(doc) for doc in docs}
        want = oracle_recall(docs, qa, scheme, retriever, mode, self.KS, oracle_views, invert_parity)
        got = list(retrieved_spans(docs, qa, Setup.parse(scheme, retriever, mode, self.KS), views, invert_parity))
        assert [item.question_id for item, _, _ in got] == [qid for qid, _, _ in want]
        compared = [i for i, (_, spans, _) in enumerate(want) if spans is not None]
        assert [got[i][2] for i in compared] == [want[i][1] for i in compared]
        report = eval_recall(docs, qa, scheme, retriever, mode, self.KS, views=views, invert_parity=invert_parity)
        for k_index, row in enumerate(report.rows):
            assert [row.per_question[i] for i in compared] == pytest.approx(
                [want[i][2][k_index] for i in compared], abs=1e-12)


class TestModeSpec:
    # A mode is the views it indexes in fusion order; the raw view is the scheme's chunks.
    VIEWS = {
        "mc": (ViewKind.RAW_TEXT, ViewKind.KEYWORDS, ViewKind.SUMMARY),
        "single:raw": (ViewKind.RAW_TEXT,),
        "single:keywords": (ViewKind.KEYWORDS,),
        "single:summary": (ViewKind.SUMMARY,),
    }

    @pytest.mark.parametrize("spec", list(VIEWS))
    def test_round_trip(self, spec):
        assert parse_mode(spec) == self.VIEWS[spec]

    @pytest.mark.parametrize("spec", ["single", "single:dense", "fusion", ""])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_mode(spec)


class TestGenerateAnswer:
    def test_prompt_contains_texts_in_rank_order(self):
        llm = ScriptedLlm(["the answer"])
        out = generate_answer("why?", ["first text", "second text", "third text"], llm)
        assert out == "the answer"
        prompt = llm.prompts[0]
        assert prompt.count("first text") == 1
        assert prompt.count("second text") == 1
        assert prompt.index("first text") < prompt.index("second text") < prompt.index("third text")
        assert "why?" in prompt
        assert llm.max_tokens == [512]

    def test_empty_retrieval_rejected(self):
        with pytest.raises(EmptyRetrieval):
            generate_answer("why?", [], ScriptedLlm([]))


def _judge_response(s1, s2, reasoning="Answer 1 is better because reasons."):
    return f"{reasoning}\n" + json.dumps({"answer_1_score": str(s1), "answer_2_score": str(s2)})


class TestJudge:
    def test_split_rounds_tie_on_both_metrics(self):
        # a=(7,6), b=(5,8): totals 13 vs 13, rounds split.
        llm = ScriptedLlm([_judge_response(7, 5), _judge_response(8, 6)])
        outcome = judge_pairwise("q", "gold", "ans a", "ans b", llm)
        assert outcome.scores == (7.0, 5.0, 6.0, 8.0)
        assert outcome.score_based is Winner.TIE
        assert outcome.round_based is Winner.TIE

    def test_clear_winner_both_metrics(self):
        llm = ScriptedLlm([_judge_response(8, 5), _judge_response(4, 9)])
        outcome = judge_pairwise("q", "gold", "ans a", "ans b", llm)
        assert outcome.scores == (8.0, 5.0, 9.0, 4.0)
        assert outcome.score_based is Winner.A
        assert outcome.round_based is Winner.A

    def test_identical_answers_tie(self):
        llm = ScriptedLlm([_judge_response(6, 6), _judge_response(6, 6)])
        outcome = judge_pairwise("q", "gold", "same", "same", llm)
        assert outcome.score_based is Winner.TIE
        assert outcome.round_based is Winner.TIE

    def test_positions_swap_between_rounds(self):
        llm = ScriptedLlm([_judge_response(1, 2), _judge_response(3, 4)])
        judge_pairwise("q", "gold", "AAA", "BBB", llm)
        round1, round2 = llm.prompts
        assert round1.index("AAA") < round1.index("BBB")
        assert round2.index("BBB") < round2.index("AAA")
        assert llm.max_tokens == [1024, 1024]

    def test_win_one_tie_one_is_round_tie(self):
        assert judge_outcome(8, 5, 6, 6) == (Winner.A, Winner.TIE)

    def test_unparseable_scores(self):
        llm = ScriptedLlm(["no scores whatsoever"])
        with pytest.raises(ParseError):
            judge_pairwise("q", "gold", "a", "b", llm)

    def test_out_of_range_scores(self):
        llm = ScriptedLlm([_judge_response(11, 2)])
        with pytest.raises(ParseError):
            judge_pairwise("q", "gold", "a", "b", llm)

    @pytest.mark.parametrize("score", [True, False])
    def test_boolean_score_is_not_a_score(self, score):
        raw = json.dumps({"answer_1_score": score, "answer_2_score": 3})
        with pytest.raises(ParseError, match="no parseable score object"):
            evaluation._parse_judge_scores(raw)

    @pytest.mark.parametrize("later", [
        '{"answer_1_score": true, "answer_2_score": 3}',
        '{"answer_1_score": 9}',
        '{"answer_1_score": "x", "answer_2_score": 1}',
        '{"answer_1_score": "1_0", "answer_2_score": 1}',
    ], ids=["boolean", "one-key", "not-a-number", "underscore-digits"])
    def test_last_valid_score_object_wins(self, later):
        raw = f'{{"answer_1_score": 4, "answer_2_score": "7"}} {later}'
        assert evaluation._parse_judge_scores(raw) == (4.0, 7.0)

    @pytest.mark.parametrize("score", ["1_0", "\u0663", " 7 ", "7 ", "+7", "7.", ".5", "0x7", "inf", "NaN"])
    def test_string_score_outside_json_number_spelling_is_not_a_score(self, score):
        raw = json.dumps({"answer_1_score": score, "answer_2_score": 3})
        with pytest.raises(ParseError, match="no parseable score object"):
            evaluation._parse_judge_scores(raw)

    @pytest.mark.parametrize("score,value", [("7", 7.0), ("2.5", 2.5), ("1e1", 10.0), ("0", 0.0), ("-0", 0.0)])
    def test_string_score_in_json_number_spelling_is_a_score(self, score, value):
        raw = json.dumps({"answer_1_score": score, "answer_2_score": 3})
        assert evaluation._parse_judge_scores(raw) == (value, 3.0)

    def test_integer_beyond_float_range_is_out_of_range(self):
        raw = '{"answer_1_score": 1' + "0" * 400 + ', "answer_2_score": 3}'
        with pytest.raises(ParseError, match="outside"):
            evaluation._parse_judge_scores(raw)

    def test_skipped_string_score_falls_through_to_a_later_valid_object(self):
        raw = '{"answer_1_score": "\u0663", "answer_2_score": 1} {"answer_1_score": 2, "answer_2_score": "5"}'
        assert evaluation._parse_judge_scores(raw) == (2.0, 5.0)

    def test_outcomes_match_oracle_on_grid(self):
        for a1 in (0, 5, 10):
            for b1 in (0, 5, 10):
                for a2 in (0, 5, 10):
                    for b2 in (0, 5, 10):
                        got = judge_outcome(a1, b1, a2, b2)
                        assert (got[0].value, got[1].value) == oracle_judge(a1, b1, a2, b2)

    def test_raw_text_kept_for_audit(self):
        llm = ScriptedLlm([_judge_response(5, 5, "First rationale."),
                           _judge_response(5, 5, "Second rationale.")])
        outcome = judge_pairwise("q", "gold", "a", "b", llm)
        assert "First rationale." in outcome.raw_round1
        assert "Second rationale." in outcome.raw_round2
