from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from conftest import ScriptedLlm, make_doc
import mcidx.evaluation as evaluation
from mcidx.chunking import ChunkScheme, chunk_document
from mcidx.corpus import QAItem, QuestionType
from mcidx.errors import EmptyRetrieval, EmptyScope, ParseError, UnknownDoc, ViewMismatch
from mcidx.evaluation import (
    RecallReport,
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
)
from mcidx.fusion import retrieve_mc, retrieve_single
from mcidx.synthetic import complementarity_fixture, synthetic_corpus
from mcidx.views import ViewKind, build_views
from oracles import oracle_judge, oracle_recall_sum


def _qa(doc_id, section_id, span, qid="q1"):
    return QAItem(qid, doc_id, "q?", "a", QuestionType.SUMMARIZATION, section_id, span)


class TestRecallOfSet:
    def _doc(self):
        return make_doc(["a" * 250])

    def test_worked_example_point_six(self):
        doc = self._doc()
        item = _qa(doc.doc_id, "s0000", (0, 100))
        spans = [(90, 120), (20, 70), (120, 200)]  # 10%, 50%, 0% overlap, disjoint
        assert recall_of_set(spans, item, [doc]) == 0.6

    def test_full_containment(self):
        doc = self._doc()
        item = _qa(doc.doc_id, "s0000", (10, 60))
        assert recall_of_set([(0, 250)], item, [doc]) == 1.0

    def test_empty_retrieved_set(self):
        doc = self._doc()
        assert recall_of_set([], _qa(doc.doc_id, "s0000", (0, 100)), [doc]) == 0.0

    def test_zero_length_scope_rejected(self):
        doc = self._doc()
        with pytest.raises(EmptyScope):
            recall_of_set([(0, 10)], _qa(doc.doc_id, "s0000", (5, 5)), [doc])

    def test_unknown_document(self):
        with pytest.raises(UnknownDoc):
            recall_of_set([(0, 10)], _qa("ghost", "s0000", (0, 5)), [self._doc()])

    def test_order_invariance(self):
        doc = self._doc()
        item = _qa(doc.doc_id, "s0000", (0, 100))
        spans = [(90, 120), (20, 70), (120, 200)]
        for _ in range(5):
            random.Random(1).shuffle(spans)
            assert recall_of_set(spans, item, [doc]) == 0.6

    def test_overlapping_spans_not_double_counted(self):
        doc = self._doc()
        item = _qa(doc.doc_id, "s0000", (0, 100))
        assert recall_of_set([(0, 60), (40, 80)], item, [doc]) == 0.8

    def test_monotone_under_added_span(self):
        doc = self._doc()
        item = _qa(doc.doc_id, "s0000", (0, 100))
        rng = random.Random(11)
        for _ in range(50):
            spans = [(rng.randint(0, 200), rng.randint(0, 250)) for _ in range(3)]
            spans = [(min(s, e), max(s, e) + 1) for s, e in spans]
            base = recall_of_set(spans, item, [doc])
            extra = (rng.randint(0, 200), rng.randint(201, 250))
            assert recall_of_set(spans + [extra], item, [doc]) >= base

    def test_union_equals_sum_for_disjoint_flc_chunks(self):
        docs, qa = synthetic_corpus(n_docs=2)
        for doc in docs:
            chunks = chunk_document(doc, ChunkScheme("flc", 100))
            for item in [q for q in qa if q.doc_id == doc.doc_id]:
                rng = random.Random(item.question_id)
                subset = rng.sample(chunks, min(4, len(chunks)))
                got = recall_of_set([c.doc_span for c in subset], item, docs)
                section = doc.sections_by_id[item.scope_section_id]
                scope = (section.doc_span[0] + item.scope_span[0],
                         section.doc_span[0] + item.scope_span[1])
                assert got == pytest.approx(
                    oracle_recall_sum([c.doc_span for c in subset], scope), abs=1e-12
                )

    def test_accepts_chunk_objects(self):
        doc = self._doc()
        chunks = chunk_document(doc, ChunkScheme("flc", 10))
        item = _qa(doc.doc_id, "s0000", (0, 100))
        assert recall_of_set(chunks, item, [doc]) == 1.0


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

    @pytest.mark.parametrize("ks", [[3, 3], [1.5, 3, 3.0]])
    def test_repeated_budget_rejected(self, ks):
        docs, qa = synthetic_corpus(n_docs=2)
        with pytest.raises(ValueError, match="repeated budget"):
            eval_recall(docs, qa, "content", "bm25", "single:raw", ks)

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
        raw = doc_units(doc, self.CONTENT, ViewKind.RAW_TEXT, views)
        assert raw == [(sid, span, s.text) for (sid, span), s in zip(spans, doc.sections)]
        summary = doc_units(doc, self.CONTENT, ViewKind.SUMMARY, views)
        assert summary == [(sid, span, f"summary {sid}") for sid, span in spans]

    def test_missing_views_and_wrong_scheme_rejected(self):
        doc = self._doc()
        with pytest.raises(UnknownDoc):
            doc_units(doc, self.CONTENT, ViewKind.KEYWORDS, None)
        with pytest.raises(ValueError):
            check_views(ChunkScheme.parse("flc:100"), (ViewKind.RAW_TEXT,))


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
        calls = []
        rank_units = evaluation.rank_units

        def counting(*args, **kwargs):
            calls.append(args)
            return rank_units(*args, **kwargs)

        monkeypatch.setattr(evaluation, "rank_units", counting)
        docs, qa = synthetic_corpus(n_docs=2)
        eval_recall(docs, qa, scheme, "bm25", mode, self.KS)
        assert len(calls) == per_question * len(qa)

    @pytest.mark.parametrize("scheme,mode", [("flc-content:100", "single:raw"), ("content", "mc")])
    def test_every_k_equals_its_own_retrieval(self, scheme, mode):
        docs, qa = synthetic_corpus(n_docs=1)
        ctx = build_doc_context(docs[0], ChunkScheme.parse(scheme), mode, "tfidf", None,
                                build_views(docs[0]))
        for ordinal, item in enumerate(qa):
            if mode == "mc":
                expected = [retrieve_mc(ctx.indexes, item.question, k, ordinal).unit_ids
                            for k in self.KS]
            else:
                expected = [[s.unit_id for s in retrieve_single(ctx.indexes[None], item.question, k, ordinal)]
                            for k in self.KS]
            assert ctx.retrieve(item.question, self.KS, ordinal) == expected


class TestModeSpec:
    # A mode is the views it indexes in fusion order; None is the scheme's chunks.
    VIEWS = {
        "mc": (ViewKind.RAW_TEXT, ViewKind.KEYWORDS, ViewKind.SUMMARY),
        "single:raw": (None,),
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
