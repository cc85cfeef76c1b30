"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every criterion checks
its stated tolerance and wall-clock budget; the whole suite runs offline
(extractive views, mock embedding provider).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from mcidx.chunking import ChunkScheme, chunk_document, chunking_error, scope_doc_span
from mcidx.cli import run
from mcidx.corpus import write_corpus_jsonl, write_qa_jsonl
from mcidx.evaluation import eval_recall, judge_outcome, recall_of_set
from mcidx.fusion import per_view_budget, retrieve_mc, retrieve_single
from mcidx.providers import MockEmbeddingProvider
from mcidx.retrieval import (
    Query,
    build_dense_index,
    build_sparse_index,
    rank_units,
)
from mcidx.store import load_index, save_index
from mcidx.synthetic import complementarity_fixture, synthetic_corpus
from mcidx.views import ViewKind, build_views, view_texts
from oracles import (
    oracle_bm25_scores,
    oracle_judge,
    oracle_rank,
    oracle_scope_split,
    oracle_terms,
    oracle_tfidf_scores,
)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= budget_seconds:
        print(f"[FAIL] criterion {number}: {description} "
              f"(runtime {elapsed:.2f}s over budget {budget_seconds:g}s)")
        raise AssertionError(f"criterion {number} exceeded its time budget")
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_recall_worked_example():
    with criterion(1, "recall of 10%/50%/0% disjoint chunks is exactly 0.600", 1.0):
        spans = [(90, 120), (20, 70), (120, 200)]
        assert recall_of_set(spans, (0, 100)) == 0.6


def test_criterion_2_content_aware_error_is_zero():
    with criterion(2, "content-aware chunking error is 0.0 on bundled and 50 random corpora", 5.0):
        docs, qa = synthetic_corpus()
        assert chunking_error(docs, qa, ChunkScheme("content")).error_rate == 0.0
        for seed in range(50):
            docs, qa = synthetic_corpus(n_docs=2, questions_per_doc=4, seed=1000 + seed)
            report = chunking_error(docs, qa, ChunkScheme("content"))
            assert report.error_rate == 0.0
            assert report.n_scopes == len(qa)


def test_criterion_3_sparse_oracle_equivalence():
    with criterion(3, "TF-IDF and BM25 match brute-force formulas within 1e-9 on 100 corpora", 10.0):
        rng = random.Random(31337)
        for _ in range(100):
            vocabulary = [f"t{i}" for i in range(rng.randint(2, 30))]
            units = [
                (f"u{i}", " ".join(rng.choice(vocabulary) for _ in range(rng.randint(0, 12))))
                for i in range(rng.randint(1, 10))
            ]
            terms = [t for _, text in units for t in oracle_terms(text)] or ["t0"]
            query = " ".join(rng.choice(terms) for _ in range(rng.randint(1, 6)))
            expected_tfidf = oracle_tfidf_scores(units, query)
            expected_bm25 = oracle_bm25_scores(units, query)
            order = [uid for uid, _ in units]
            tfidf_ranked = rank_units(build_sparse_index(units, "tfidf"), Query(query))
            bm25_ranked = rank_units(build_sparse_index(units, "bm25"), Query(query))
            for scored in tfidf_ranked:
                assert abs(scored.score - expected_tfidf[scored.unit_id]) < 1e-9
            for scored in bm25_ranked:
                assert abs(scored.score - expected_bm25[scored.unit_id]) < 1e-9
            assert [u.unit_id for u in tfidf_ranked] == oracle_rank(expected_tfidf, order)
            assert [u.unit_id for u in bm25_ranked] == oracle_rank(expected_bm25, order)


def test_criterion_4_budget_protocol():
    with criterion(4, "per-view budgets reproduce the protocol over 1000 ordinals", 1.0):
        for ordinal in range(1000):
            odd = ordinal % 2 == 1
            assert per_view_budget(1.5, ordinal) == 1
            assert per_view_budget(3, ordinal) == (2 if odd else 1)
            assert per_view_budget(5, ordinal) == 3
            assert per_view_budget(10, ordinal) == (7 if odd else 6)


def test_criterion_5_fusion_laws():
    with criterion(5, "fusion laws hold on 200 randomized view rankings", 5.0):
        rng = random.Random(555)
        views = (ViewKind.RAW_TEXT, ViewKind.KEYWORDS, ViewKind.SUMMARY)
        ks = [1.5, 3, 4, 5, 6, 8, 10, 11]
        for _ in range(200):
            n_units = rng.randint(8, 14)
            indexes = {
                view: build_sparse_index(
                    [
                        (f"u{i}", (" ".join(["q"] * rng.randint(0, 5)) + f" filler{i}").strip())
                        for i in range(n_units)
                    ],
                    "bm25",
                )
                for view in views
            }
            ordinal = rng.randint(0, 5)
            previous: set[str] | None = None
            previous_kp = 0
            for k in ks:
                fused = retrieve_mc(indexes, "q", k, ordinal)
                ids = fused.unit_ids
                k_prime = fused.k_prime
                assert len(set(ids)) == len(ids)
                assert k_prime <= len(ids) <= 3 * k_prime
                for view in views:
                    assert retrieve_single(indexes[view], "q", 1, 0)[0].unit_id in ids
                assert k_prime >= previous_kp
                if previous is not None:
                    assert previous <= set(ids)
                previous, previous_kp = set(ids), k_prime


def test_criterion_6_recall_monotone_in_k():
    with criterion(6, "mean recall is non-decreasing in k across the whole grid", 60.0):
        docs, qa = synthetic_corpus()
        views = {doc.doc_id: build_views(doc) for doc in docs}
        ks = [1.5, 3, 5, 10]
        grid = []
        for retriever in ("tfidf", "bm25", "dense:mock"):
            for mode in ("mc", "single:raw", "single:keywords", "single:summary"):
                grid.append(("content", retriever, mode))
            for scheme in ("flc:100", "flc:200", "flc:300", "flc-content:200"):
                grid.append((scheme, retriever, "single:raw"))
        assert len(grid) == 24
        for scheme, retriever, mode in grid:
            report = eval_recall(docs, qa, scheme, retriever, mode, ks, views=views)
            means = [row.mean_recall for row in report.rows]
            assert all(a <= b + 1e-12 for a, b in zip(means, means[1:])), (
                scheme, retriever, mode, means,
            )


def _fuse_by_protocol(per_view_rankings, k_prime):
    """Reference fusion: per-view top-k' round robin with skip, fixed view order."""
    fused = []
    for round_idx in range(k_prime):
        for ranking in per_view_rankings:
            if round_idx < len(ranking) and ranking[round_idx] not in fused:
                fused.append(ranking[round_idx])
    return fused


def test_criterion_7_multi_view_complementarity():
    with criterion(7, "MC recall beats every single view on the three-group fixture", 10.0):
        docs, qa, views = complementarity_fixture()
        doc = docs[0]
        order = [s.section_id for s in doc.sections]
        unit_texts = {
            view: dict(view_texts(views[doc.doc_id], view))
            for view in (ViewKind.RAW_TEXT, ViewKind.KEYWORDS, ViewKind.SUMMARY)
        }

        # Independent enumeration of expected recalls, view by view.
        expected_single = {view: [] for view in unit_texts}
        expected_mc = []
        for ordinal, item in enumerate(qa):
            rankings = {}
            for view, texts in unit_texts.items():
                units = [(sid, texts[sid]) for sid in order]
                scores = oracle_bm25_scores(units, item.question)
                rankings[view] = oracle_rank(scores, order)
                top3 = rankings[view][:3]
                expected_single[view].append(1.0 if item.scope_section_id in top3 else 0.0)
            k_prime = 2 if ordinal % 2 == 1 else 1
            fused = _fuse_by_protocol(
                [rankings[v][:k_prime] for v in (ViewKind.RAW_TEXT, ViewKind.KEYWORDS, ViewKind.SUMMARY)],
                k_prime,
            )
            expected_mc.append(1.0 if item.scope_section_id in fused else 0.0)

        mc_mean = sum(expected_mc) / len(expected_mc)
        assert mc_mean >= 0.9

        report = eval_recall(docs, qa, "content", "bm25", "mc", [3], views=views)
        assert report.rows[0].mean_recall == mc_mean
        for mode, view in (
            ("single:raw", ViewKind.RAW_TEXT),
            ("single:keywords", ViewKind.KEYWORDS),
            ("single:summary", ViewKind.SUMMARY),
        ):
            single = eval_recall(docs, qa, "content", "bm25", mode, [3], views=views)
            expected_mean = sum(expected_single[view]) / len(expected_single[view])
            assert single.rows[0].mean_recall == expected_mean
            assert expected_mean <= 0.45
            assert report.rows[0].mean_recall > single.rows[0].mean_recall


def test_criterion_8_chunking_error_trend():
    with criterion(8, "chunking error falls with larger targets and section bounding", 10.0):
        docs, qa = synthetic_corpus()
        docs_by_id = {d.doc_id: d for d in docs}
        rates = {}
        for spec in ("flc:100", "flc:200", "flc:300",
                     "flc-content:100", "flc-content:200", "flc-content:300"):
            scheme = ChunkScheme.parse(spec)
            chunks = [c for d in docs for c in chunk_document(d, scheme)]
            report = chunking_error(docs, qa, scheme)
            spans_by_doc = {}
            for chunk in chunks:
                spans_by_doc.setdefault(chunk.doc_id, []).append(chunk.doc_span)
            oracle_split = sum(
                oracle_scope_split(
                    spans_by_doc[item.doc_id],
                    scope_doc_span(docs_by_id[item.doc_id], item),
                )
                for item in qa
            )
            assert report.n_split == oracle_split
            rates[spec] = report.error_rate
        assert rates["flc:100"] > rates["flc:200"] > rates["flc:300"] > 0.0
        for n in (100, 200, 300):
            assert rates[f"flc-content:{n}"] <= rates[f"flc:{n}"]


def test_criterion_9_round_trip_and_determinism(tmp_path):
    with criterion(9, "save/load preserves rankings; repeated eval runs are byte-identical", 30.0):
        units = [(f"u{i}", f"shared term{i % 3} word{i} extra{i * 7 % 5}") for i in range(12)]
        queries = ["term0 word3", "word11 extra1", "nothing here", "shared shared term2"]
        provider = MockEmbeddingProvider()
        for kind in ("tfidf", "bm25", "dense"):
            index = build_dense_index(units, provider) if kind == "dense" else build_sparse_index(units, kind)
            save_index(index, tmp_path / kind)
            reloaded = load_index(tmp_path / kind)
            for query in queries:
                before = [(u.unit_id, u.score, u.rank) for u in rank_units(index, Query(query, provider))]
                after = [(u.unit_id, u.score, u.rank) for u in rank_units(reloaded, Query(query, provider))]
                assert before == after

        docs, qa = synthetic_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        qa_path = tmp_path / "qa.jsonl"
        write_corpus_jsonl(docs, corpus_path)
        write_qa_jsonl(qa, qa_path)
        outputs = []
        for name in ("run1.csv", "run2.csv"):
            out = tmp_path / name
            code = run(["eval", "recall", "--corpus", str(corpus_path), "--qa", str(qa_path),
                        "--scheme", "content", "--retriever", "dense:mock", "--mode", "mc",
                        "--k", "1.5,3,5,10", "--output", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_criterion_10_judge_protocol_oracle():
    with criterion(10, "judge outcomes match the table oracle over the score grid", 1.0):
        values = (0, 5, 10)
        cases = 0
        for a1 in values:
            for b1 in values:
                for a2 in values:
                    for b2 in values:
                        score_based, round_based = judge_outcome(a1, b1, a2, b2)
                        assert (score_based.value, round_based.value) == oracle_judge(a1, b1, a2, b2)
                        cases += 1
        assert cases == 81
