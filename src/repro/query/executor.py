"""End-to-end execution of contextual queries (Sec. 4).

The executor glues the pieces together: resolve each query context
state over the profile tree (``Search_CS``), turn the winning
preferences into selections over the relation (``Rank_CS``), combine
duplicate scores, restrict by the query's ordinary conditions, and
optionally serve/populate a :class:`~repro.tree.ContextQueryTree`
cache of each context state's ``Search_CS`` output. Queries whose
context matches no preference fall back to a plain, unranked query, as
Sec. 4.2 specifies.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.context.descriptor import ContextDescriptor, ExtendedContextDescriptor
from repro.context.state import ContextState
from repro.db.relation import Relation
from repro.exceptions import CachePoisonedError
from repro.faults.registry import CorruptedValue
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.preferences.combine import combine_max
from repro.query.contextual_query import ContextualQuery
from repro.query.rank import (
    BatchStats,
    Contribution,
    RankedTuple,
    rank_cs_batch,
    rank_rows,
)
from repro.resolution.resolver import ContextResolver, Resolution
from repro.tree.counters import AccessCounter
from repro.tree.profile_tree import ProfileTree
from repro.tree.query_tree import ContextQueryTree

__all__ = ["QueryResult", "ContextualQueryExecutor"]


@dataclass
class QueryResult:
    """Outcome of executing a contextual query.

    Attributes:
        results: Ranked tuples, best first.
        resolutions: Per-query-state resolution outcomes (empty for
            non-contextual execution).
        contextual: False when the query fell back to a plain query
            because no preference matched its context.
        cache_hits / cache_misses: Query-tree cache statistics for this
            execution (zero when no cache is configured).
        degradation: The degradation level that served this result -
            ``"full"`` on the normal path; the resilience layer stamps
            ``"cache_bypass"``, ``"scan"``, ``"generalized"`` or
            ``"unranked"`` when a fallback produced it (see
            :mod:`repro.resilience`).
    """

    results: list[RankedTuple]
    resolutions: list[Resolution] = field(default_factory=list)
    contextual: bool = True
    cache_hits: int = 0
    cache_misses: int = 0
    degradation: str = "full"

    def top(self, k: int, include_ties: bool = True) -> list[RankedTuple]:
        """The best ``k`` results; with ``include_ties`` every tuple
        scoring the same as the k-th is kept (the paper's Table 1 rule:
        "when there are ties in the ranking, we consider all results
        with the same score")."""
        if k <= 0 or not self.results:
            return []
        if len(self.results) <= k or not include_ties:
            return self.results[:k]
        threshold = self.results[k - 1].score
        cut = k
        while cut < len(self.results) and self.results[cut].score == threshold:
            cut += 1
        return self.results[:cut]


class ContextualQueryExecutor:
    """Executes contextual queries against one relation and one profile.

    Args:
        tree: Profile tree of the user's preferences.
        relation: The relation queries run against.
        metric: Distance metric for resolution (``"hierarchy"`` or
            ``"jaccard"``).
        combine: Score-combining function for duplicate tuples.
        cache: Optional context query tree; when present, each
            state's ``Search_CS`` output - the pair ``(contributions,
            resolution)`` - is cached and reused. Ranking still runs
            on every query.

    Example:
        >>> executor = ContextualQueryExecutor(tree, relation)
        >>> result = executor.execute(ContextualQuery.at_state(state))
        >>> result.results[0].row["name"]
        'Acropolis'
    """

    def __init__(
        self,
        tree: ProfileTree,
        relation: Relation,
        metric: str = "hierarchy",
        combine: Callable[[Sequence[float]], float] = combine_max,
        cache: ContextQueryTree | None = None,
    ) -> None:
        self._resolver = ContextResolver(tree, metric)
        self._relation = relation
        self._combine = combine
        self._cache = cache
        if cache is not None:
            # Inserts into the relation invalidate the cache, so a
            # cache filled before a mutation never serves stale entries.
            cache.watch(relation)

    @property
    def resolver(self) -> ContextResolver:
        """The underlying context resolver."""
        return self._resolver

    @property
    def relation(self) -> Relation:
        """The relation queries run against."""
        return self._relation

    @property
    def cache(self) -> ContextQueryTree | None:
        """The ``Search_CS`` output cache, if configured."""
        return self._cache

    def execute(
        self,
        query: ContextualQuery,
        counter: AccessCounter | None = None,
        use_cache: bool = True,
        use_index: bool = True,
    ) -> QueryResult:
        """Run one contextual query end to end.

        ``use_cache=False`` skips the result cache entirely (read and
        write) and ``use_index=False`` forces sequential-scan
        selections; the normal call leaves both on. The resilience
        layer uses the switches as degradation levels - same rankings,
        fewer moving parts.
        """
        with span("execute"):
            result = self._execute(query, counter, use_cache, use_index)
        registry = get_registry()
        if registry.enabled:
            registry.inc("executor.queries")
            if not result.contextual:
                registry.inc("executor.plain_fallbacks")
        return result

    def _checked_cache_get(
        self, state: ContextState, counter: AccessCounter | None
    ) -> tuple | None:
        """Cache read with an integrity check on the payload.

        A poisoned entry (a :class:`~repro.faults.CorruptedValue`
        wrapper or a payload that is not the expected 2-tuple) is
        dropped from the cache and surfaced as
        :class:`~repro.exceptions.CachePoisonedError` - the executor
        must never silently rank from a mangled payload, and the error
        carries ``site="cache.get"`` so the resilience layer charges
        the cache breaker and retries without the cache.
        """
        cached = self._cache.get(state, counter)
        if cached is None:
            return None
        if isinstance(cached, CorruptedValue) or not (
            isinstance(cached, tuple) and len(cached) == 2
        ):
            self._cache.invalidate(state)
            raise CachePoisonedError(
                f"query cache returned a corrupted payload for state {state!r}"
            )
        return cached

    def _execute(
        self,
        query: ContextualQuery,
        counter: AccessCounter | None = None,
        use_cache: bool = True,
        use_index: bool = True,
    ) -> QueryResult:
        if not query.is_contextual():
            return self._plain(query, use_index)

        cache = self._cache if use_cache else None
        contributions: dict[Contribution, None] = {}
        resolutions: list[Resolution] = []
        cache_hits = 0
        cache_misses = 0
        for state in query.states():
            cached = (
                self._checked_cache_get(state, counter) if cache is not None else None
            )
            if cached is not None:
                cache_hits += 1
                state_contributions, resolution = cached
            else:
                generation = 0
                if cache is not None:
                    cache_misses += 1
                    # Snapshot the invalidation epoch before computing:
                    # if the relation or profile is invalidated while we
                    # rank, the conditional put below discards the
                    # now-stale entry instead of caching it.
                    generation = cache.generation
                resolution = self._resolver.resolve_state(state, counter)
                state_contributions = tuple(
                    Contribution(candidate.state, clause, score)
                    for candidate in resolution.best
                    for clause, score in candidate.entries.items()
                )
                if cache is not None:
                    cache.put(
                        state, (state_contributions, resolution), generation
                    )
            resolutions.append(resolution)
            for contribution in state_contributions:
                contributions.setdefault(contribution, None)

        if not contributions:
            # No preference matched any query state: run non-contextually.
            plain = self._plain(query, use_index)
            plain.resolutions = resolutions
            plain.cache_hits = cache_hits
            plain.cache_misses = cache_misses
            return plain

        # Without base clauses the tie cut is pushed into the kernel,
        # which then builds provenance only for the rows it returns.
        ranked = rank_rows(
            self._relation,
            list(contributions),
            self._combine,
            counter,
            use_index=use_index,
            top_k=None if query.base_clauses else query.top_k,
        )
        if query.base_clauses:
            ranked = [
                item
                for item in ranked
                if all(clause.matches(item.row) for clause in query.base_clauses)
            ]
        result = QueryResult(
            results=ranked,
            resolutions=resolutions,
            contextual=True,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )
        if query.base_clauses and query.top_k is not None:
            result.results = result.top(query.top_k)
        return result

    def rank_many(
        self,
        descriptors: Sequence[ContextDescriptor | ExtendedContextDescriptor],
        counter: AccessCounter | None = None,
    ) -> tuple[list[QueryResult], BatchStats]:
        """Rank the relation for many descriptors in one batched pass.

        Delegates to :func:`repro.query.rank.rank_cs_batch`, so
        ``Search_CS`` resolutions are memoized per distinct context
        state and each distinct winning clause is evaluated exactly
        once across the whole batch. Each descriptor yields a
        :class:`QueryResult` identical to executing it alone (without
        base clauses or top-k).
        """
        descriptors = list(descriptors)
        with span("rank_many"):
            batched, stats = rank_cs_batch(
                self._resolver, self._relation, descriptors, self._combine, counter
            )
            results = [
                QueryResult(results=ranked, resolutions=resolutions, contextual=True)
                for ranked, resolutions in batched
            ]
        registry = get_registry()
        if registry.enabled:
            registry.inc("executor.queries", len(descriptors))
        return results, stats

    def _plain(self, query: ContextualQuery, use_index: bool = True) -> QueryResult:
        """Non-contextual fallback: the ordinary query, unranked.

        Truncation applies the same Table 1 tie rule as the contextual
        path (:meth:`QueryResult.top`): every tuple scoring the same as
        the k-th is kept. Unranked tuples all score 0.0, so a ``top_k``
        smaller than the result set keeps the whole tie group rather
        than cutting it at an arbitrary row.
        """
        if query.base_clauses:
            if use_index:
                rows = self._relation.select_all(query.base_clauses)
            else:
                rows = self._relation.select_all(
                    query.base_clauses, use_index=False
                )
        else:
            rows = list(self._relation)
        results = [RankedTuple(row=row, score=0.0, contributions=()) for row in rows]
        result = QueryResult(results=results, contextual=False)
        if query.top_k is not None:
            result.results = result.top(query.top_k)
        return result
