from __future__ import annotations

import random

import pytest

from mcidx.fusion import fuse, per_view_budget, retrieve_mc, retrieve_single
from mcidx.retrieval import build_sparse_index, rank_units
from mcidx.views import ViewKind

VIEWS = (ViewKind.RAW_TEXT, ViewKind.KEYWORDS, ViewKind.SUMMARY)


def view_indexes(per_view_texts):
    """Build one BM25 index per view from {view: [(unit_id, text), ...]}."""
    return {view: build_sparse_index(units, "bm25") for view, units in per_view_texts.items()}


def indexes_with_counts(counts_per_view, n_units=10):
    """Unit i repeats the query term 'q' counts[view].get(i, 0) times; BM25 ranks by count."""
    per_view = {}
    for view in VIEWS:
        counts = counts_per_view[view]
        per_view[view] = [
            (f"u{i}", (" ".join(["q"] * counts.get(i, 0)) + f" filler{i}").strip())
            for i in range(n_units)
        ]
    return view_indexes(per_view)


class TestPerViewBudget:
    def test_protocol_budget_table(self):
        assert per_view_budget(5, 0) == 3
        assert per_view_budget(5, 1) == 3
        assert per_view_budget(10, 0) == 6
        assert per_view_budget(10, 1) == 7
        assert per_view_budget(3, 0) == 1
        assert per_view_budget(3, 1) == 2
        assert per_view_budget(1.5, 0) == 1
        assert per_view_budget(1.5, 1) == 1

    def test_general_two_thirds_rule(self):
        assert per_view_budget(6, 0) == 4
        assert per_view_budget(6, 1) == 4
        assert per_view_budget(2, 0) == 1
        assert per_view_budget(2, 1) == 2
        assert per_view_budget(7, 0) == 4
        assert per_view_budget(7, 1) == 5

    @pytest.mark.parametrize("k", [0, 1, -2, 2.7, 0.5])
    def test_invalid_budgets(self, k):
        with pytest.raises(ValueError):
            per_view_budget(k, 0)


class TestRetrieveSingle:
    def _index(self, n=6):
        return build_sparse_index([(f"u{i}", f"term{i} q" if i < 3 else f"term{i}") for i in range(n)], "bm25")

    def test_integer_budget(self):
        assert len(retrieve_single(self._index(), "q", 3, 0)) == 3

    def test_fractional_budget_alternates(self):
        assert len(retrieve_single(self._index(), "q", 1.5, 0)) == 1
        assert len(retrieve_single(self._index(), "q", 1.5, 1)) == 2
        assert len(retrieve_single(self._index(), "q", 1.5, 2)) == 1

    def test_budget_beyond_corpus_returns_everything(self):
        ranked = retrieve_single(self._index(n=4), "q", 100, 0)
        assert len(ranked) == 4
        assert [u.rank for u in ranked] == [1, 2, 3, 4]

    def test_k_one_allowed(self):
        assert len(retrieve_single(self._index(), "q", 1, 0)) == 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            retrieve_single(self._index(), "q", 0.5, 0)


class TestRetrieveMc:
    def test_round_robin_merge_with_skip(self):
        # Per-view top-2: raw=[s3,s1], keywords=[s1,s2], summary=[s3,s4].
        indexes = indexes_with_counts(
            {
                ViewKind.RAW_TEXT: {3: 2, 1: 1},
                ViewKind.KEYWORDS: {1: 2, 2: 1},
                ViewKind.SUMMARY: {3: 2, 4: 1},
            },
            n_units=5,
        )
        fused = retrieve_mc(indexes, "q", 3, 1)  # ordinal 1 -> k' = 2
        assert fused.k_prime == 2
        assert fused.unit_ids == ["u3", "u1", "u2", "u4"]

    def test_full_agreement_collapses_to_one(self):
        indexes = indexes_with_counts(
            {view: {7: 3} for view in VIEWS},
            n_units=9,
        )
        fused = retrieve_mc(indexes, "q", 1.5, 0)
        assert fused.unit_ids == ["u7"]
        assert set(fused.units[0].view_ranks) == set(VIEWS)

    def test_disjoint_top_ones_give_three(self):
        indexes = indexes_with_counts(
            {
                ViewKind.RAW_TEXT: {0: 3},
                ViewKind.KEYWORDS: {1: 3},
                ViewKind.SUMMARY: {2: 3},
            },
            n_units=6,
        )
        fused = retrieve_mc(indexes, "q", 1.5, 0)
        assert fused.unit_ids == ["u0", "u1", "u2"]

    def test_view_ranks_recorded(self):
        indexes = indexes_with_counts(
            {
                ViewKind.RAW_TEXT: {3: 2, 1: 1},
                ViewKind.KEYWORDS: {1: 2, 3: 1},
                ViewKind.SUMMARY: {0: 2},
            },
            n_units=5,
        )
        fused = retrieve_mc(indexes, "q", 3, 1)
        u3 = next(u for u in fused.units if u.unit_id == "u3")
        assert u3.view_ranks == {ViewKind.RAW_TEXT: 1, ViewKind.KEYWORDS: 2}


class TestFusionLaws:
    def _random_indexes(self, rng, n_units=10):
        return indexes_with_counts(
            {view: {i: rng.randint(0, 5) for i in range(n_units)} for view in VIEWS},
            n_units=n_units,
        )

    def test_laws_on_randomized_rankings(self):
        rng = random.Random(77)
        ks = [1.5, 3, 4, 5, 6, 8, 10, 11]
        for _ in range(50):
            indexes = self._random_indexes(rng)
            ordinal = rng.randint(0, 3)
            previous: set[str] | None = None
            previous_kp = 0
            for k in ks:
                fused = retrieve_mc(indexes, "q", k, ordinal)
                k_prime = fused.k_prime
                ids = fused.unit_ids
                assert len(set(ids)) == len(ids)
                assert k_prime <= len(ids) <= 3 * k_prime
                for view in VIEWS:
                    top1 = retrieve_single(indexes[view], "q", 1, 0)[0].unit_id
                    assert top1 in ids
                assert k_prime >= previous_kp
                if previous is not None:
                    assert previous <= set(ids)
                previous, previous_kp = set(ids), k_prime

    @pytest.mark.parametrize("ordinal", [0, 1])
    @pytest.mark.parametrize("k", [1.5, 3, 5, 10])
    def test_fuse_of_full_rankings_equals_retrieve_mc(self, k, ordinal):
        rng = random.Random(11)
        for _ in range(20):
            indexes = self._random_indexes(rng)
            rankings = {view: rank_units(index, "q") for view, index in indexes.items()}
            assert fuse(rankings, per_view_budget(k, ordinal)) == retrieve_mc(indexes, "q", k, ordinal)

    def test_deterministic(self):
        rng = random.Random(3)
        indexes = self._random_indexes(rng)
        first = retrieve_mc(indexes, "q", 5, 0)
        second = retrieve_mc(indexes, "q", 5, 0)
        assert first.unit_ids == second.unit_ids
