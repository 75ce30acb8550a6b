"""The ``Rank_CS`` algorithm (Algorithm 2 of the paper).

Given a profile tree, a relation and a context descriptor: resolve
every context state of the descriptor with ``Search_CS``, keep the
minimum-distance expression(s), evaluate each as a selection over the
relation, and annotate the selected tuples with the expression's score.
Tuples matched by several expressions are deduplicated by a combining
function (``max`` by default, as the paper suggests; ``avg``/``min``/
weighted averages are equally valid).

Two things make the hot path sub-linear instead of
O(|contributions| x |R|):

* selections go through ``Relation.select_ids``, which consults the
  relation's attribute indexes and returns **stable row ids** (so
  deduplication never depends on object identity);
* :func:`rank_cs_batch` ranks many descriptors in one pass, memoizing
  ``Search_CS`` resolutions for identical context states and
  evaluating each distinct clause exactly once across the batch.

Combining is set-at-a-time: :func:`rank_rows` scatters the matched
rows' scores into NumPy vectors, sorts once, applies the top-k tie cut
on the sorted arrays, and builds :class:`RankedTuple` provenance only
for the rows it returns.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, MutableMapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.context.descriptor import ContextDescriptor, ExtendedContextDescriptor
from repro.context.state import ContextState
from repro.db.relation import Relation
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.preferences.combine import combine_max, combine_min
from repro.preferences.preference import AttributeClause
from repro.resolution.resolver import ContextResolver, Resolution
from repro.tree.counters import AccessCounter

__all__ = [
    "BatchStats",
    "Contribution",
    "RankedTuple",
    "rank_cs",
    "rank_cs_batch",
    "rank_rows",
]

Row = Mapping[str, object]

#: Shared cache mapping each evaluated clause to its matching row ids.
ClauseCache = MutableMapping[AttributeClause, np.ndarray]

@dataclass(frozen=True)
class Contribution:
    """Provenance for one score contribution: which preference fired.

    Keeping the originating state and clause gives the *traceability*
    the paper's user study leans on ("users can track back which
    preferences were used to attain the results").
    """

    state: ContextState
    clause: AttributeClause
    score: float


@dataclass(frozen=True)
class RankedTuple:
    """A relation tuple annotated with its combined interest score."""

    row: Row
    score: float
    contributions: tuple[Contribution, ...]


def rank_rows(
    relation: Relation,
    contributions: Sequence[Contribution],
    combine: Callable[[Sequence[float]], float] = combine_max,
    counter: AccessCounter | None = None,
    clause_cache: ClauseCache | None = None,
    use_index: bool = True,
    top_k: int | None = None,
) -> list[RankedTuple]:
    """Evaluate expressions over ``relation`` and rank the results.

    Each contribution's clause is run as a selection; a tuple selected
    by several contributions gets their scores combined. The result is
    sorted by descending score, with the order contributions matched
    tuples breaking ties deterministically.

    Tuples are keyed by the relation's stable row ids, so ranking is
    correct even if a relation implementation yields fresh row objects
    per scan. A clause appearing in several contributions is evaluated
    once; passing ``clause_cache`` extends that memoization across
    calls (see :func:`rank_cs_batch`). ``use_index=False`` forces every
    selection down the sequential-scan path - same rankings, no
    dependence on index builds (the degradation ladder's ``scan``
    level).

    Scoring is set-at-a-time (:func:`_score_matches`); ``top_k`` applies
    the Table 1 tie rule (every tuple scoring the same as the k-th is
    kept) before any :class:`RankedTuple` is built, so provenance is
    assembled only for the tuples returned (:func:`_build_ranked`).
    """
    if clause_cache is None:
        clause_cache = {}
    evaluated = 0
    with span("rank_rows"):
        matches: list[np.ndarray] = []
        for contribution in contributions:
            row_ids = clause_cache.get(contribution.clause)
            if row_ids is None:
                selected = relation.select_ids(
                    contribution.clause, counter, use_index=use_index
                )
                row_ids = np.fromiter(selected, dtype=np.intp, count=len(selected))
                clause_cache[contribution.clause] = row_ids
                evaluated += 1
            matches.append(row_ids)
        # Sized after the selections: the relation is append-only, so
        # every id they returned is below its current length.
        keys, scores, masks = _score_matches(
            len(relation), contributions, matches, combine
        )
        order = np.argsort(-scores, kind="stable")
        ordered = scores[order]
        cut = _tie_cut(ordered, top_k)
        ranked = _build_ranked(
            relation, contributions, keys[order[:cut]], ordered[:cut], masks
        )
    registry = get_registry()
    if registry.enabled and contributions:
        registry.inc("rank.clause_lookups", len(contributions))
        registry.inc("rank.clause_memo_hits", len(contributions) - evaluated)
    return ranked


def _score_matches(
    size: int,
    contributions: Sequence[Contribution],
    matches: Sequence[np.ndarray],
    combine: Callable[[Sequence[float]], float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Combine every matched row's scores with dense per-relation vectors.

    Returns the matched row ids in first-match order (the order the
    contributions reach them, which breaks score ties), their combined
    scores, and a ``(size, words)`` bitmask matrix whose bit ``p`` is
    set on the rows contribution ``p`` matched.

    ``combine_max``/``combine_min`` scatter with ``np.maximum``/
    ``np.minimum`` on fancy indexes (one selection never repeats a
    row). Any other combiner, ``combine_avg`` included, is called once
    per matched row on its scores in contribution order
    (:func:`_combine_each_row`).

    The vectors span the whole relation, so the kernel costs O(|R|)
    per call on top of the matches; it assumes the matched rows are a
    large share of the relation.
    """
    seen = np.zeros(size, dtype=bool)
    masks = np.zeros((size, (len(contributions) + 63) // 64), dtype=np.uint64)
    extreme = (
        np.maximum
        if combine is combine_max
        else np.minimum
        if combine is combine_min
        else None
    )
    if extreme is np.maximum:
        scores = np.full(size, -np.inf)
    elif extreme is np.minimum:
        scores = np.full(size, np.inf)
    else:
        scores = np.zeros(size)
    firsts: list[np.ndarray] = []
    for position, (contribution, ids) in enumerate(zip(contributions, matches)):
        if not len(ids):
            continue
        fresh = ids[~seen[ids]]
        if len(fresh):
            seen[fresh] = True
            firsts.append(fresh)
        masks[ids, position >> 6] |= np.uint64(1 << (position & 63))
        if extreme is not None:
            scores[ids] = extreme(scores[ids], contribution.score)
    if not firsts:
        return np.empty(0, dtype=np.intp), np.empty(0), masks
    if extreme is None:
        _combine_each_row(scores, contributions, matches, combine)
    keys = np.concatenate(firsts)
    return keys, scores[keys], masks


def _combine_each_row(
    scores: np.ndarray,
    contributions: Sequence[Contribution],
    matches: Sequence[np.ndarray],
    combine: Callable[[Sequence[float]], float],
) -> None:
    """Fill ``scores`` for a combiner the kernel cannot vectorize.

    Groups the (row, contribution) matches by row with one stable sort,
    so each row's scores stay in contribution order, then calls
    ``combine`` once per matched row.
    """
    flat = np.concatenate(matches)
    owners = np.repeat(np.arange(len(matches)), [len(ids) for ids in matches])
    by_row = np.argsort(flat, kind="stable")
    rows = flat[by_row]
    values = [contributions[owner].score for owner in owners[by_row].tolist()]
    starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
    bounds = zip(starts, starts[1:] + [len(values)])
    scores[rows[starts]] = [combine(values[start:stop]) for start, stop in bounds]


def _tie_cut(ordered: np.ndarray, top_k: int | None) -> int:
    """How many of the descending ``ordered`` scores the Table 1 rule
    returns for ``top_k``: the first ``top_k`` plus every later score
    equal to the k-th (all of them when ``top_k`` is ``None``)."""
    if top_k is None or len(ordered) <= top_k:
        return len(ordered)
    if top_k <= 0:
        return 0
    threshold = ordered[top_k - 1]
    return top_k + int(np.count_nonzero(ordered[top_k:] == threshold))


def _build_ranked(
    relation: Relation,
    contributions: Sequence[Contribution],
    row_ids: np.ndarray,
    scores: np.ndarray,
    masks: np.ndarray,
) -> list[RankedTuple]:
    """The returned rows as :class:`RankedTuple`, with provenance.

    Rows matched by the same set of contributions share one
    contributions tuple: the bitmasks of the returned rows are
    deduplicated and each distinct mask decoded once.
    """
    if not len(row_ids):
        return []
    words = masks.shape[1]
    picked = np.ascontiguousarray(masks[row_ids])
    distinct, inverse = np.unique(
        picked.view(np.dtype((np.void, 8 * words))).ravel(), return_inverse=True
    )
    provenance = [
        _decode_mask(mask, contributions)
        for mask in distinct.view(np.uint64).reshape(-1, words).tolist()
    ]
    return [
        RankedTuple(row=row, score=score, contributions=provenance[mask])
        for row, score, mask in zip(
            relation.rows_by_ids(row_ids.tolist()),
            scores.tolist(),
            inverse.ravel().tolist(),
        )
    ]


def _decode_mask(
    mask: list[int], contributions: Sequence[Contribution]
) -> tuple[Contribution, ...]:
    """The contributions whose bits ``mask`` sets, in contribution order."""
    picked = []
    for word, bits in enumerate(mask):
        while bits:
            lowest = bits & -bits
            picked.append(contributions[64 * word + lowest.bit_length() - 1])
            bits ^= lowest
    return tuple(picked)


def _descriptor_contributions(
    resolutions: Sequence[Resolution],
) -> list[Contribution]:
    """The deduplicated contributions of a descriptor's resolutions."""
    contributions: dict[Contribution, None] = {}
    for resolution in resolutions:
        for candidate in resolution.best:
            for clause, score in candidate.entries.items():
                contributions.setdefault(
                    Contribution(candidate.state, clause, score), None
                )
    return list(contributions)


def rank_cs(
    resolver: ContextResolver,
    relation: Relation,
    descriptor: ContextDescriptor | ExtendedContextDescriptor,
    combine: Callable[[Sequence[float]], float] = combine_max,
    counter: AccessCounter | None = None,
) -> tuple[list[RankedTuple], list[Resolution]]:
    """Algorithm 2: rank ``relation``'s tuples for ``descriptor``.

    Returns the ranked tuples *and* the per-state resolutions, so
    callers can inspect how each query state was matched (exact, cover,
    tie). States with no covering preference contribute nothing; if no
    state matches at all, the ranked list is empty and the caller
    should fall back to a non-contextual query (Sec. 4.2).
    """
    resolutions = resolver.resolve_descriptor(descriptor, counter)
    contributions = _descriptor_contributions(resolutions)
    ranked = rank_rows(relation, contributions, combine, counter)
    return ranked, resolutions


@dataclass
class BatchStats:
    """Work accounting for one :func:`rank_cs_batch` call.

    Attributes:
        descriptors: Number of descriptors ranked.
        state_lookups: Context states resolved across all descriptors
            (with repetition).
        unique_states: Distinct states actually sent to ``Search_CS``.
        clause_lookups: Clause selections requested (one per
            contribution, with repetition).
        unique_clauses: Distinct clauses actually evaluated over the
            relation.
    """

    descriptors: int = 0
    state_lookups: int = 0
    unique_states: int = 0
    clause_lookups: int = 0
    unique_clauses: int = 0

    @property
    def state_memo_hits(self) -> int:
        """Resolutions served from the batch memo."""
        return self.state_lookups - self.unique_states

    @property
    def clause_memo_hits(self) -> int:
        """Clause selections served from the batch memo."""
        return self.clause_lookups - self.unique_clauses


def rank_cs_batch(
    resolver: ContextResolver,
    relation: Relation,
    descriptors: Sequence[ContextDescriptor | ExtendedContextDescriptor],
    combine: Callable[[Sequence[float]], float] = combine_max,
    counter: AccessCounter | None = None,
) -> tuple[list[tuple[list[RankedTuple], list[Resolution]]], BatchStats]:
    """Rank one relation for many descriptors in a single pass.

    The per-descriptor output is exactly what :func:`rank_cs` returns
    for that descriptor; the batch differs only in cost. Two memos are
    shared across the whole batch:

    * ``Search_CS`` resolutions, keyed by context state - descriptors
      agreeing on a state (the common case under skewed real context
      workloads) resolve it once;
    * clause selections, keyed by :class:`AttributeClause` - each
      distinct winning clause touches the relation exactly once, no
      matter how many descriptors it serves.

    Returns the per-descriptor ``(ranked, resolutions)`` pairs plus a
    :class:`BatchStats` describing the memo effectiveness.
    """
    environment = resolver.tree.environment
    state_memo: dict[ContextState, Resolution] = {}
    clause_cache: ClauseCache = {}
    stats = BatchStats(descriptors=len(descriptors))
    outputs: list[tuple[list[RankedTuple], list[Resolution]]] = []
    with span("rank_cs_batch"):
        for descriptor in descriptors:
            resolutions: list[Resolution] = []
            for state in descriptor.states(environment):
                stats.state_lookups += 1
                resolution = state_memo.get(state)
                if resolution is None:
                    resolution = resolver.resolve_state(state, counter)
                    state_memo[state] = resolution
                resolutions.append(resolution)
            contributions = _descriptor_contributions(resolutions)
            stats.clause_lookups += len(contributions)
            ranked = rank_rows(relation, contributions, combine, counter, clause_cache)
            outputs.append((ranked, resolutions))
    stats.unique_states = len(state_memo)
    stats.unique_clauses = len(clause_cache)
    registry = get_registry()
    if registry.enabled:
        registry.inc("batch.descriptors", stats.descriptors)
        registry.inc("batch.state_lookups", stats.state_lookups)
        registry.inc("batch.state_memo_hits", stats.state_memo_hits)
    return outputs, stats
