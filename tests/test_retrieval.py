from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SECTION_TEXTS, make_doc, words
from mcidx.chunking import ChunkScheme
from mcidx.errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyCorpus,
    ProviderError,
    ProviderMismatch,
)
from mcidx.evaluation import doc_units
from mcidx.providers import EmbeddingProvider, HttpEmbeddingProvider, MockEmbeddingProvider
from mcidx.retrieval import (
    DENSE_TOKEN_LIMIT,
    Query,
    build_dense_index,
    bm25_idf,
    build_sparse_index,
    embed,
    parse_retriever,
    rank_units,
    smoothed_idf,
)
from mcidx.store import load_index, save_index
from mcidx.text import token_count, truncate_tokens
from mcidx.views import ViewKind
from oracles import (
    oracle_bm25_scores,
    oracle_cosine_scores,
    oracle_postings,
    oracle_rank,
    oracle_terms,
    oracle_tfidf_scores,
    reference_loop_scores,
)

THREE_UNITS = [("d1", "cat sat"), ("d2", "cat cat dog"), ("d3", "fish")]

# Frozen from the brute-force oracle before implementation.
TFIDF_CAT = {"d1": 0.6053485081062916, "d2": 0.8355915419449176, "d3": 0.0}
BM25_CAT = {"d1": 0.4700036292457356, "d2": 0.5784660052255207, "d3": 0.0}


def random_units(rng: random.Random, max_units=10, max_terms=30):
    vocabulary = [f"t{i}" for i in range(rng.randint(2, max_terms))]
    n = rng.randint(1, max_units)
    return [
        (f"u{i}", " ".join(rng.choice(vocabulary) for _ in range(rng.randint(0, 12))))
        for i in range(n)
    ]


class TestBuildSparseIndex:
    def test_statistics(self):
        index = build_sparse_index([("a", "cat sat"), ("b", "cat")], "tfidf")
        doc_freq = {term: int(index.indptr[row + 1] - index.indptr[row]) for term, row in index.terms.items()}
        assert doc_freq == {"cat": 2, "sat": 1}
        assert list(index.terms.values()) == [0, 1]
        assert index.postings.tolist() == [0, 1, 0]
        assert index.tfs.tolist() == [1, 1, 1]
        assert index.n == 2

    def test_duplicate_unit_id(self):
        with pytest.raises(DuplicateId):
            build_sparse_index([("a", "x"), ("a", "y")], "bm25")

    def test_bm25_average_length(self):
        index = build_sparse_index([("a", "cat sat"), ("b", "cat")], "bm25")
        assert index.avgdl == 1.5

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_sparse_index([], "tfidf")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_sparse_index([("a", "x")], "lsi")

    @pytest.mark.parametrize("kind,idf_fn", [("tfidf", smoothed_idf), ("bm25", bm25_idf)])
    def test_idf_equals_per_term_log(self, kind, idf_fn):
        rng = random.Random(5)
        # Document-sized indexes, one with no terms, and one with far more units than terms.
        corpora = [random_units(rng) for _ in range(50)] + [[("a", ""), ("b", "--")]]
        corpora.append([(f"u{i}", " ".join(rng.choice("abcdefgh") for _ in range(rng.randint(0, 6))))
                        for i in range(3000)])
        for units in corpora:
            index = build_sparse_index(units, kind)
            per_term = [idf_fn(int(index.indptr[r + 1] - index.indptr[r]), index.n) for r in range(len(index.terms))]
            assert index.idf.dtype == np.float64
            assert index.idf.tobytes() == np.array(per_term, dtype=np.float64).tobytes()


@pytest.mark.parametrize("build", [lambda units: build_sparse_index(units, "bm25"),
                                   lambda units: build_dense_index(units, MockEmbeddingProvider())],
                         ids=["sparse", "dense"])
def test_an_index_equals_only_itself(build):
    # Field-wise equality over the array fields raised "truth value ... is ambiguous".
    first, second = build(THREE_UNITS), build(THREE_UNITS)
    assert first != second
    assert first == first
    assert len({first, first, second}) == 2


class TestScoreTfidf:
    def test_unknown_query_term_scores_zero_in_corpus_order(self):
        index = build_sparse_index(THREE_UNITS, "tfidf")
        ranked = rank_units(index, Query("xyzzy"))
        assert [u.score for u in ranked] == [0.0, 0.0, 0.0]
        assert [u.unit_id for u in ranked] == ["d1", "d2", "d3"]
        assert [u.rank for u in ranked] == [1, 2, 3]

    def test_frozen_example(self):
        index = build_sparse_index(THREE_UNITS, "tfidf")
        ranked = rank_units(index, Query("cat"))
        assert [u.unit_id for u in ranked] == ["d2", "d1", "d3"]
        by_id = {u.unit_id: u.score for u in ranked}
        for uid, expected in TFIDF_CAT.items():
            assert by_id[uid] == pytest.approx(expected, abs=1e-12)

    def test_self_similarity_is_one(self):
        index = build_sparse_index([("only", "alpha beta gamma")], "tfidf")
        ranked = rank_units(index, Query("alpha beta gamma"))
        assert ranked[0].score == pytest.approx(1.0, abs=1e-12)

    def test_query_order_invariance(self):
        index = build_sparse_index(THREE_UNITS, "tfidf")
        forward = [(u.unit_id, u.score) for u in rank_units(index, Query("cat dog fish"))]
        backward = [(u.unit_id, u.score) for u in rank_units(index, Query("fish dog cat"))]
        assert forward == backward


class TestScoreBm25:
    def test_absent_terms_contribute_zero(self):
        index = build_sparse_index(THREE_UNITS, "bm25")
        assert all(u.score == 0.0 for u in rank_units(index, Query("xyzzy quux")))

    def test_frozen_example(self):
        index = build_sparse_index(THREE_UNITS, "bm25")
        ranked = rank_units(index, Query("cat"))
        assert [u.unit_id for u in ranked] == ["d2", "d1", "d3"]
        by_id = {u.unit_id: u.score for u in ranked}
        for uid, expected in BM25_CAT.items():
            assert by_id[uid] == pytest.approx(expected, abs=1e-12)

    def test_duplicate_query_terms_double_score(self):
        index = build_sparse_index(THREE_UNITS, "bm25")
        single = {u.unit_id: u.score for u in rank_units(index, Query("cat"))}
        double = {u.unit_id: u.score for u in rank_units(index, Query("cat cat"))}
        for uid in single:
            assert double[uid] == pytest.approx(2 * single[uid], abs=1e-12)

    def test_additivity_over_query_terms(self):
        index = build_sparse_index(THREE_UNITS, "bm25")
        cat = {u.unit_id: u.score for u in rank_units(index, Query("cat"))}
        dog = {u.unit_id: u.score for u in rank_units(index, Query("dog"))}
        both = {u.unit_id: u.score for u in rank_units(index, Query("cat dog"))}
        for uid in cat:
            assert both[uid] == pytest.approx(cat[uid] + dog[uid], abs=1e-12)

    def test_idf_strictly_positive(self):
        index = build_sparse_index([("a", "cat"), ("b", "cat"), ("c", "cat")], "bm25")
        assert index.idf.shape == (1,)
        assert (index.idf > 0).all()


class TestOracleEquivalence:
    def test_hundred_random_corpora(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(100):
            units = random_units(rng)
            query = " ".join(
                rng.choice([term for _, text in units for term in oracle_terms(text)] or ["t0"])
                for _ in range(rng.randint(1, 6))
            )
            tfidf_index = build_sparse_index(units, "tfidf")
            bm25_index = build_sparse_index(units, "bm25")
            expected_tfidf = oracle_tfidf_scores(units, query)
            expected_bm25 = oracle_bm25_scores(units, query)
            for scored in rank_units(tfidf_index, Query(query)):
                assert abs(scored.score - expected_tfidf[scored.unit_id]) < 1e-9
            for scored in rank_units(bm25_index, Query(query)):
                assert abs(scored.score - expected_bm25[scored.unit_id]) < 1e-9
            order = [uid for uid, _ in units]
            for index, expected in ((tfidf_index, expected_tfidf), (bm25_index, expected_bm25)):
                assert [u.unit_id for u in rank_units(index, Query(query))] == oracle_rank(expected, order)
            checked += 1
        assert checked == 100

    @pytest.mark.parametrize("kind", ["tfidf", "bm25"])
    def test_scores_bit_exact_against_loop_reference(self, kind, tmp_path):
        # In the first corpus u0's TF-IDF norm differs in the last bit when
        # (tf * idf) ** 2 is taken as a plain product instead of C pow().
        cases = [([("u0", "a b b b")] + [(f"u{i}", "x") for i in range(1, 5)], ["a", "a b a", "b b b"])]
        rng = random.Random(77)
        for _ in range(60):
            vocabulary = [f"w{i}" for i in range(rng.randint(2, 80))]
            units = [
                (f"u{i}", " ".join(rng.choice(vocabulary) for _ in range(rng.randint(0, 60))))
                for i in range(rng.randint(1, 30))
            ]
            query = [rng.choice(vocabulary + ["unseen"]) for _ in range(rng.randint(0, 8))]
            # The same terms with the first repeated: a TF-IDF count above 1, a repeated BM25 token.
            cases.append((units, [" ".join(query), " ".join(query[:1] * 2 + query)]))
        for units, queries in cases:
            index = build_sparse_index(units, kind)
            save_index(index, tmp_path / "index")
            assert not index._contributions
            # Each query on a cold index, on the index warm from every query, and on its reloaded copy.
            for target in (index, index, load_index(tmp_path / "index")):
                for query in queries:
                    expected = reference_loop_scores(units, query, kind)
                    assert {u.unit_id: u.score for u in rank_units(target, Query(query))} == expected, query

    @pytest.mark.parametrize("kind", ["tfidf", "bm25"])
    def test_kept_contributions_hold_one_float_per_posting_and_are_never_saved(self, kind, tmp_path):
        units = random_units(random.Random(31), max_units=30, max_terms=40)
        index = build_sparse_index(units, kind)
        save_index(index, tmp_path / "cold")
        for term in index.terms:
            rank_units(index, Query(term), n=3)
            rank_units(index, Query(f"{term} {term}"), n=3)
        assert sum(len(kept) for kept in index._contributions.values()) == len(index.postings)
        save_index(index, tmp_path / "warm")
        cold, warm = sorted((tmp_path / "cold").iterdir()), sorted((tmp_path / "warm").iterdir())
        assert [f.name for f in cold] == [f.name for f in warm]
        assert [f.read_bytes() for f in cold] == [f.read_bytes() for f in warm]

    def test_scores_always_finite(self):
        rng = random.Random(9)
        for _ in range(20):
            units = random_units(rng)
            for kind in ("tfidf", "bm25"):
                index = build_sparse_index(units, kind)
                for scored in rank_units(index, Query("t0 t1 t2")):
                    assert math.isfinite(scored.score)


class TestTopN:
    # Texts over three words repeat often, so equal scores straddle every cut.
    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(st.lists(st.sampled_from("abc"), max_size=3).map(" ".join), min_size=1, max_size=12),
        query=st.lists(st.sampled_from("abcz"), max_size=4).map(" ".join),
    )
    def test_top_n_is_prefix_of_full_ranking(self, texts, query):
        units = [(f"u{i}", text) for i, text in enumerate(texts)]
        provider = MockEmbeddingProvider()
        indexes = {"tfidf": build_sparse_index(units, "tfidf"), "bm25": build_sparse_index(units, "bm25"),
                   "dense": build_dense_index(units, provider)}
        for kind, index in indexes.items():
            full = rank_units(index, Query(query, provider))
            assert len(full) == len(units)
            for n in range(1, len(units) + 2):
                assert rank_units(index, Query(query, provider), n=n) == full[:n], (kind, n)

    @pytest.mark.parametrize("kind", ["tfidf", "bm25", "dense"])
    def test_equal_scores_rank_by_corpus_position(self, kind):
        # Ids descend as positions ascend, so only the position can order a tie.
        units = [("u5", "fish"), ("u4", "cat dog"), ("u3", "bird song"), ("u2", "cat dog"),
                 ("u1", "fish"), ("u0", "cat dog")]
        provider = MockEmbeddingProvider()
        index = build_dense_index(units, provider) if kind == "dense" else build_sparse_index(units, kind)
        full = rank_units(index, Query("cat dog", provider))
        assert [u.unit_id for u in full] == ["u4", "u2", "u0", "u5", "u3", "u1"]
        assert full[0].score == full[1].score == full[2].score > 0.0
        assert [u.score for u in full[3:]] == [0.0, 0.0, 0.0]
        for n in (2, 4):  # a cut inside the top tie and one inside the zero-score tail
            assert rank_units(index, Query("cat dog", provider), n=n) == full[:n]

    @pytest.mark.parametrize("kind", ["tfidf", "bm25"])
    def test_mostly_zero_scores_cut_at_every_n(self, kind):
        # As on a keyword view, most units share no term with the query, so
        # most scores are 0, and units with equal term counts and lengths tie.
        # So cuts fall inside positive ties, after the last positive score and
        # inside the zero tail. The index is large enough that numpy's
        # selection partitions it before it sorts a small range. Ids descend as
        # positions ascend, so only position orders a tie.
        rng = random.Random(5)
        filler = [f"f{i}" for i in range(300)]
        texts = []
        for _ in range(1000):
            words = rng.sample(filler, rng.randint(3, 6))
            if rng.random() < 0.15:
                words += rng.choices(["cat", "dog", "fish"], k=rng.randint(1, 3))
            texts.append(" ".join(words))
        for i in rng.sample(range(1000), 40):  # copies tie under any retriever
            texts[i] = texts[i - 1]
        units = [(f"u{999 - i:03d}", text) for i, text in enumerate(texts)]
        index = build_sparse_index(units, kind)
        expected = reference_loop_scores(units, "cat dog fish", kind)
        full = oracle_rank(expected, [uid for uid, _ in units])
        positive = sum(score > 0 for score in expected.values())
        assert 100 < positive < 200 and len({score for score in expected.values() if score > 0}) < positive
        for n in [*range(1, index.n + 1), None]:
            ranked = rank_units(index, Query("cat dog fish"), n=n)
            assert [(u.unit_id, u.score) for u in ranked] == [(uid, expected[uid]) for uid in full[:n]], n


class TestEmbed:
    def test_empty_list(self):
        matrix = embed([], MockEmbeddingProvider())
        assert matrix.shape == (0, 0)

    def test_identical_texts_identical_rows(self):
        matrix = embed(["same text", "same text"], MockEmbeddingProvider())
        assert np.array_equal(matrix[0], matrix[1])

    def test_rows_normalized(self):
        matrix = embed(["cat sat", "dog ran fast"], MockEmbeddingProvider())
        for row in matrix:
            assert abs(float(np.linalg.norm(row)) - 1.0) < 1e-6

    def test_dimension_mismatch(self):
        class RaggedProvider(EmbeddingProvider):
            name = "ragged"

            def embed(self, texts):
                return [[1.0] * (2 + i) for i, _ in enumerate(texts)]

        with pytest.raises(DimensionMismatch):
            embed(["a", "b"], RaggedProvider())

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_is_provider_error(self, value):
        class NonFiniteProvider(EmbeddingProvider):
            name = "non-finite"

            def embed(self, texts):
                return [[1.0, value if i == len(texts) - 1 else 0.0] for i, _ in enumerate(texts)]

        with pytest.raises(ProviderError, match="returned a non-finite vector value"):
            embed(["a", "b"], NonFiniteProvider())

    def test_zero_width_rows_are_provider_error(self):
        # An index of width 0 saves, but its directory does not load ('dim' must be at least 1).
        class WidthlessProvider(EmbeddingProvider):
            name = "widthless"

            def embed(self, texts):
                return [[] for _ in texts]

        with pytest.raises(DimensionMismatch, match=r"shape \(2, 0\) for 2 texts"):
            build_dense_index([("u1", "cat"), ("u2", "dog")], WidthlessProvider())

    def test_width_change_between_batches_is_provider_error(self):
        class ShiftingProvider(EmbeddingProvider):
            name = "shifting"

            def __init__(self):
                self.width = 2

            def embed(self, texts):
                self.width += 1
                return [[1.0] * self.width for _ in texts]

        with pytest.raises(ProviderError, match="after width 3"):
            embed(["t"] * 40, ShiftingProvider())

    def test_cuts_each_text_to_the_token_limit(self):
        # 900 distinct tokens: the 388 past the limit would add to the row if embedded.
        text = words(900)
        (row,) = embed([text], MockEmbeddingProvider())
        (cut,) = embed([truncate_tokens(text, DENSE_TOKEN_LIMIT)], MockEmbeddingProvider())
        assert row.tobytes() == cut.tobytes()

    def test_sends_no_text_past_the_token_limit(self, stub):
        stub.responder = lambda path, payload: (200, {"vectors": [[1.0, 2.0]] * len(payload["texts"])})
        embed([words(900), "short text", words(DENSE_TOKEN_LIMIT)], HttpEmbeddingProvider(stub.url, name="stub"))
        ((_, payload, _),) = stub.requests
        assert [token_count(text) for text in payload["texts"]] == [DENSE_TOKEN_LIMIT, 2, DENSE_TOKEN_LIMIT]

    def test_batching_preserves_order(self):
        calls = []

        class RecordingProvider(EmbeddingProvider):
            name = "recorder"

            def embed(self, texts):
                calls.append(list(texts))
                return [[float(len(t)), 1.0] for t in texts]

        texts = [f"t{'x' * i}" for i in range(70)]
        matrix = embed(texts, RecordingProvider())
        assert [len(c) for c in calls] == [32, 32, 6]
        assert matrix.shape == (70, 2)


class TestScoreDense:
    def test_query_width_other_than_the_index_is_dimension_mismatch(self):
        class ResizedProvider(EmbeddingProvider):
            name = "resized"

            def __init__(self):
                self.width = 4

            def embed(self, texts):
                return [[1.0] * self.width for _ in texts]

        provider = ResizedProvider()
        index = build_dense_index([("u1", "alpha"), ("u2", "beta")], provider)
        provider.width = 5
        with pytest.raises(DimensionMismatch, match="width 5.*4"):
            rank_units(index, Query("alpha", provider))

    def test_identical_text_ranks_first_with_unit_score(self):
        units = [("u1", "alpha beta"), ("u2", "gamma delta"), ("u3", "epsilon zeta")]
        provider = MockEmbeddingProvider()
        index = build_dense_index(units, provider)
        ranked = rank_units(index, Query("gamma delta", provider))
        assert ranked[0].unit_id == "u2"
        assert ranked[0].score == pytest.approx(1.0, abs=1e-6)

    def test_matches_brute_force_cosine_on_random_corpus(self):
        rng = random.Random(5)
        units = random_units(rng, max_units=20, max_terms=25)
        while len(units) < 20:
            units.append((f"extra{len(units)}", "t0 t1"))
        provider = MockEmbeddingProvider()
        index = build_dense_index(units, provider)
        query = "t0 t3 t5"
        raw_rows = provider.embed([text for _, text in units])
        (query_row,) = provider.embed([query])
        expected = oracle_cosine_scores(raw_rows, query_row)
        expected_by_id = {uid: s for (uid, _), s in zip(units, expected)}
        for scored in rank_units(index, Query(query, provider)):
            assert abs(scored.score - expected_by_id[scored.unit_id]) < 1e-5
        order = [uid for uid, _ in units]
        assert [u.unit_id for u in rank_units(index, Query(query, provider))] == oracle_rank(
            expected_by_id, order
        )

    def test_provider_mismatch(self):
        provider = MockEmbeddingProvider()
        index = build_dense_index([("u", "text")], provider)
        other = MockEmbeddingProvider()
        other.name = "other"
        with pytest.raises(ProviderMismatch):
            rank_units(index, Query("q", other))
        with pytest.raises(ValueError, match="needs the embedding provider"):
            rank_units(index, Query("q"))


class TestRetrieverSpec:
    @pytest.mark.parametrize("spec", ["tfidf", "bm25", "dense:mock", "dense:e5-large"])
    def test_round_trip(self, spec):
        kind, provider_name = parse_retriever(spec)
        assert (kind if provider_name is None else f"{kind}:{provider_name}") == spec

    @pytest.mark.parametrize("spec", ["dense", "dense:", "colbert", ""])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_retriever(spec)


class TestTableTermsBuild:
    """A build from slices of a document's terms equals the build from the unit texts."""

    @settings(max_examples=100, deadline=None)
    @given(SECTION_TEXTS, st.integers(1, 12))
    def test_equals_text_build_field_by_field(self, texts, target):
        doc = make_doc(texts)
        vocabulary, ids = doc.terms
        for scheme in (ChunkScheme("content"), ChunkScheme("flc", target), ChunkScheme("flc-content", target)):
            units = doc_units(doc, scheme, ViewKind.RAW_TEXT, None)
            if not units:
                continue
            pairs = [(uid, text) for uid, _, text, _ in units]
            terms = (vocabulary, [ids[a:b] for *_, (a, b) in units])
            for kind in ("tfidf", "bm25"):
                got, want = build_sparse_index(pairs, kind, terms=terms), build_sparse_index(pairs, kind)
                assert got.unit_ids == want.unit_ids
                assert list(got.terms.items()) == list(want.terms.items())
                for name in ("indptr", "postings", "tfs", "unit_lens", "idf"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert np.float64(got.avgdl).tobytes() == np.float64(want.avgdl).tobytes()
                assert got.unit_norms.tobytes() == want.unit_norms.tobytes()
            postings, lens = oracle_postings(pairs)
            assert list(want.terms) == list(postings)
            for term, row in want.terms.items():
                start, end = want.indptr[row], want.indptr[row + 1]
                assert list(zip(want.postings[start:end].tolist(), want.tfs[start:end].tolist())) == postings[term]
            assert want.unit_lens.tolist() == lens
