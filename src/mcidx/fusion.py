"""Multi-view retrieval: per-view budgets and round-robin fused ranking.

The total budget k maps to a per-view budget of roughly 2k/3; after taking
the top results from each view, deduplication brings the union back to
approximately k units. Fractional budgets (k=1.5, and the odd/even split of
2k/3) alternate by question ordinal so they average out over a dataset. The
fused union is never truncated to k: comparisons happen at matched budgets,
not matched output sizes. A multi-view budget is 1.5 or an integer >= 2, a
single-view one 1.5 or a positive integer; anything else is a ValueError.
Every view is ranked by ``rank_units`` with its retriever's fixed settings,
only through ``retrieve_mc`` or ``retrieve_single``. Each call analyzes its
question once, as one ``retrieval.Query`` shared by every view, so an ``mc``
retrieval tokenizes and embeds the question once, not once per view. Fusing
top-b rankings keeps the units whose best view rank is at most b, in order, so
evaluation retrieves once at its largest budget and each k keeps the units
within its k'.
Fusion trusts its view indexes to cover the same unit ids: evaluation builds
them from one unit table, and ``mcidx retrieve`` checks them once, at load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .providers import EmbeddingProvider
from .retrieval import DenseIndex, Query, ScoredUnit, SparseIndex, rank_units
from .views import ViewKind

# Fixed merge order; recall over the returned set is order-insensitive, this
# just pins the emitted sequence for reproducibility.
VIEW_ORDER = (ViewKind.RAW_TEXT, ViewKind.KEYWORDS, ViewKind.SUMMARY)


@dataclass(frozen=True)
class FusedUnit:
    unit_id: str
    view_ranks: dict[ViewKind, int]


@dataclass(frozen=True)
class FusedResult:
    units: tuple[FusedUnit, ...]
    k_prime: int

    @property
    def unit_ids(self) -> list[str]:
        return [u.unit_id for u in self.units]


def _validate_k(k: float, minimum: int) -> float:
    """k as a float if it is 1.5 or an integer >= minimum, else ValueError."""
    value = float(k)
    if value == 1.5:
        return value
    if not value.is_integer() or value < minimum:
        raise ValueError(f"--k {value:g}: budget must be 1.5 or an integer >= {minimum}")
    return value


def per_view_budget(k: float, question_ordinal: int) -> int:
    """Per-view budget k' for total budget k at the given question ordinal.

    k=1.5 -> 1; k=3 -> 1/2 alternating; k=5 -> 3; any other integer k >= 2
    -> floor(2k/3) on even ordinals, ceil(2k/3) on odd (so k=10 -> 6/7
    alternating).
    """
    value = _validate_k(k, minimum=2)
    odd = question_ordinal % 2 == 1
    if value == 1.5:
        return 1
    kk = int(value)
    if kk == 3:
        return 2 if odd else 1
    if kk == 5:
        return 3
    return math.ceil(2 * kk / 3) if odd else math.floor(2 * kk / 3)


def single_budget(k: float, question_ordinal: int) -> int:
    """Single-view budget for total budget k; k=1.5 alternates 1 and 2 by ordinal."""
    value = _validate_k(k, minimum=1)
    if value == 1.5:
        return 2 if question_ordinal % 2 == 1 else 1
    return int(value)


def retrieve_single(
    index: SparseIndex | DenseIndex,
    query: str,
    k: float,
    question_ordinal: int,
    provider: EmbeddingProvider | None = None,
) -> list[ScoredUnit]:
    """Top-k single-view retrieval; k=1.5 alternates between 1 and 2."""
    return rank_units(index, Query(query, provider), n=single_budget(k, question_ordinal))


def fuse(rankings: dict[ViewKind, list[ScoredUnit]], k_prime: int) -> FusedResult:
    """Fuse per-view top-k' rankings by round-robin with deduplication.

    Views are consumed in the fixed order raw, keywords, summary, taking each
    view's next-ranked unit in turn and skipping ids already emitted. The
    deduplicated union is returned in full.
    """
    tops = [rankings[view][:k_prime] for view in VIEW_ORDER]
    view_ranks: dict[str, dict[ViewKind, int]] = {}
    for view, top in zip(VIEW_ORDER, tops):
        for scored in top:
            view_ranks.setdefault(scored.unit_id, {})[view] = scored.rank
    # Round r takes every view's r-th unit; dict keys keep first occurrences.
    order = dict.fromkeys(top[r].unit_id for r in range(k_prime) for top in tops if r < len(top))
    return FusedResult(tuple(FusedUnit(uid, view_ranks[uid]) for uid in order), k_prime)


def retrieve_mc(
    view_indexes: dict[ViewKind, SparseIndex | DenseIndex],
    query: str,
    k: float,
    question_ordinal: int,
    provider: EmbeddingProvider | None = None,
) -> FusedResult:
    """Rank the query, analyzed once, in each view index and ``fuse`` the per-view top-k'.

    ``view_indexes`` must hold every view of ``VIEW_ORDER`` over the same unit
    ids; callers check that where the indexes are built or loaded.
    """
    k_prime = per_view_budget(k, question_ordinal)
    prepared = Query(query, provider)
    rankings = {view: rank_units(view_indexes[view], prepared, n=k_prime) for view in VIEW_ORDER}
    return fuse(rankings, k_prime)
