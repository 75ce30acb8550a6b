"""The context query tree: a context-keyed cache of per-state query work.

The paper introduces (Secs. 1 and 7) a second index "for caching the
results of queries based on their context"; the section describing it
was elided from the camera-ready, so we implement the natural design:
the same trie layout as the profile tree - one level per context
parameter, one root-to-leaf path per context state - whose leaves hold
one cached payload per state. The tree does not interpret payloads;
:class:`~repro.query.ContextualQueryExecutor` stores each state's
``Search_CS`` output there, the pair ``(contributions, resolution)``,
and ranks from it on every query. Rankings themselves are not cached
(``docs/architecture.md`` gives the measurement). A capacity bound
with least-recently-used eviction keeps the cache finite; lookups
charge the same cell-access counters as the profile tree, making the
cache directly comparable in the experiments.

Recency is tracked by insertion order of an ``OrderedDict`` (a hit or
overwrite moves the state to the back, eviction pops the front), so
eviction is O(depth) for the trie pruning rather than a scan over
every cached state. Hits, misses, evictions and invalidations are kept
as instance attributes and mirrored into the process metrics registry
(:mod:`repro.obs`).

**Thread safety.** Every cache operation (including ``get``, which
mutates recency) runs under one reentrant lock, so concurrent readers
and invalidators never corrupt the trie/dict pair. A monotonically
increasing **generation** counter, bumped by every invalidation,
closes the compute-then-put race: a caller snapshots ``generation``
before computing a payload against external state (the profile, the
relation) and passes it to ``put``, which discards the entry if any
invalidation landed in between - otherwise a payload computed against
the pre-edit profile could be cached *after* the edit's invalidation
and served stale forever.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.exceptions import TreeError
from repro.concurrency.locks import LEVEL_CACHE, Mutex
from repro.context.environment import ContextEnvironment
from repro.context.state import ContextState
from repro.faults.registry import get_fault_registry
from repro.hierarchy import Value
from repro.obs.metrics import get_registry
from repro.tree.counters import AccessCounter
from repro.tree.node import InternalNode
from repro.tree.ordering import validate_ordering

if TYPE_CHECKING:
    # The tree layer sits below the db layer, so the runtime dependency
    # stays duck-typed; the annotation-only import keeps the signatures
    # honest (and lets the static lock-order checker follow the edge).
    from repro.db.relation import Relation

__all__ = ["ContextQueryTree"]


class _ResultLeaf:
    """The cached payload for one context state."""

    __slots__ = ("result",)

    def __init__(self, result: object) -> None:
        self.result = result


class ContextQueryTree:
    """Cache of per-state query payloads, indexed by context state.

    The executor's payload is a state's ``Search_CS`` output,
    ``(contributions, resolution)``; the tree stores any object.

    Args:
        environment: The context environment.
        ordering: Parameter-to-level assignment, as for the profile tree.
        capacity: Maximum number of cached states; ``None`` disables
            eviction. The least recently *used* (read or written) state
            is evicted first.

    Example:
        >>> cache = ContextQueryTree(env, capacity=100)
        >>> payload = (contributions, resolution)
        >>> cache.put(state, payload)
        >>> cache.get(state) is payload
        True
    """

    def __init__(
        self,
        environment: ContextEnvironment,
        ordering: Sequence[str] | None = None,
        capacity: int | None = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise TreeError(f"capacity must be positive or None, got {capacity}")
        self._environment = environment
        self._ordering = validate_ordering(environment, ordering)
        self._positions = tuple(environment.index_of(name) for name in self._ordering)
        self._root = InternalNode()
        self._capacity = capacity
        # state -> leaf; ordered least- to most-recently used, so the
        # LRU victim is always the front entry (no stamp scans).
        self._leaves: OrderedDict[ContextState, _ResultLeaf] = OrderedDict()
        self._lock = Mutex(level=LEVEL_CACHE, name="query_tree")
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.stale_discards = 0

    @property
    def environment(self) -> ContextEnvironment:
        """The context environment the cache indexes."""
        return self._environment

    @property
    def ordering(self) -> tuple[str, ...]:
        """Parameter names from the root level down."""
        return self._ordering

    @property
    def capacity(self) -> int | None:
        """Maximum number of cached states (``None`` = unbounded)."""
        return self._capacity

    @property
    def generation(self) -> int:
        """Invalidation epoch: bumped by every invalidation/clear.

        Snapshot it before computing a result and pass the snapshot to
        :meth:`put` to make compute-then-cache safe against concurrent
        invalidation.
        """
        with self._lock:
            return self._generation

    def __len__(self) -> int:
        return len(self._leaves)

    def __contains__(self, state: object) -> bool:
        return state in self._leaves

    def _project(self, state: ContextState) -> tuple[Value, ...]:
        return tuple(state.values[position] for position in self._positions)

    # ------------------------------------------------------------------
    # Cache operations
    # ------------------------------------------------------------------
    def get(
        self, state: ContextState, counter: AccessCounter | None = None
    ) -> object | None:
        """The cached result for ``state``, or ``None`` on a miss.

        A hit refreshes the state's recency. Cell accesses along the
        root-to-leaf traversal are charged to ``counter``.

        Under an active fault plan, the ``cache.get`` injection site
        applies to *hits*: the read may raise, stall, or hand back a
        :class:`~repro.faults.CorruptedValue` wrapper that callers'
        integrity checks must reject (see
        :class:`repro.exceptions.CachePoisonedError`).
        """
        with self._lock:
            path = self._project(state)
            node = self._root
            for key in path[:-1]:
                found = node.find(key, counter)
                if found is None:
                    self._miss()
                    return None
                if not isinstance(found, InternalNode):  # pragma: no cover
                    raise TreeError("malformed query tree")
                node = found
            if node.find(path[-1], counter) is None:
                self._miss()
                return None
            leaf = self._leaves.get(state)
            if leaf is None:  # pragma: no cover - trie and dict stay in sync
                self._miss()
                return None
            self._leaves.move_to_end(state)
            self.hits += 1
            registry = get_registry()
            if registry.enabled:
                registry.inc("cache.hits")
            faults = get_fault_registry()
            if faults.enabled:
                return faults.corrupt("cache.get", leaf.result)
            return leaf.result

    def _miss(self) -> None:
        self.misses += 1
        registry = get_registry()
        if registry.enabled:
            registry.inc("cache.misses")

    def put(
        self,
        state: ContextState,
        result: object,
        generation: int | None = None,
    ) -> None:
        """Cache ``result`` for ``state``, evicting the LRU state if full.

        ``generation`` (from :attr:`generation`, snapshotted before the
        result was computed) makes the insert conditional: if any
        invalidation happened since the snapshot, the entry is stale by
        construction and discarded - counted in ``stale_discards`` and
        the ``cache.stale_discards`` metric, so the rate of wasted
        computes under write pressure is observable.
        """
        faults = get_fault_registry()
        if faults.enabled:
            faults.fire("cache.put")
        with self._lock:
            if generation is not None and generation != self._generation:
                self.stale_discards += 1
                registry = get_registry()
                if registry.enabled:
                    registry.inc("cache.stale_discards")
                return
            existing = self._leaves.get(state)
            if existing is not None:
                existing.result = result
                self._leaves.move_to_end(state)
                return
            if self._capacity is not None and len(self._leaves) >= self._capacity:
                self._evict_lru()
            leaf = _ResultLeaf(result)
            node = self._root
            path = self._project(state)
            for key in path[:-1]:
                child = node.child(key)
                if child is None:
                    child = InternalNode()
                    node.add_cell(key, child)
                if not isinstance(child, InternalNode):  # pragma: no cover
                    raise TreeError("malformed query tree")
                node = child
            node.add_cell(path[-1], leaf)  # type: ignore[arg-type]
            self._leaves[state] = leaf

    def watch(self, relation: "Relation") -> None:
        """Drop all cached payloads whenever ``relation`` is mutated.

        A conservative hook for payloads computed against the relation:
        an insert after cache-fill then never serves a payload from
        before it. The hook registers an idempotent
        mutation listener on the relation (see
        :meth:`repro.db.Relation.add_mutation_listener`); watching the
        same relation twice is a no-op.

        Every ``watch`` must be paired with :meth:`unwatch` when the
        cache is retired (e.g. its owning user unregisters), or the
        relation keeps a reference to the dead cache and notifies it on
        every insert.
        """
        relation.add_mutation_listener(self._on_relation_mutated)

    def unwatch(self, relation: "Relation") -> None:
        """Stop invalidating on ``relation``'s mutations."""
        relation.remove_mutation_listener(self._on_relation_mutated)

    def _on_relation_mutated(self, relation: "Relation") -> None:
        if self._leaves:
            self.clear()

    def invalidate(self, state: ContextState) -> bool:
        """Drop the cached result for ``state``; True if one existed."""
        with self._lock:
            self._generation += 1
            if state not in self._leaves:
                return False
            self._remove(state)
            self._count_invalidations(1)
            return True

    def invalidate_covered(self, covering: ContextState) -> int:
        """Drop every cached state that ``covering`` covers (Def. 10).

        This is the precise invalidation rule for preference edits: a
        preference whose descriptor produces state ``s`` only affects
        queries resolved at states covered by ``s``. Returns the number
        of entries dropped.

        The trie is walked top-down following only the cells whose key
        equals the covering value or descends from it, so the cost is
        bounded by the affected subtrees rather than the cache size.
        """
        if covering.environment.names != self._environment.names:
            raise TreeError(
                "covering state belongs to a different context environment"
            )
        with self._lock:
            return self._invalidate_covered(covering)

    def _invalidate_covered(self, covering: ContextState) -> int:
        self._generation += 1
        projected = self._project(covering)
        parameters = [
            self._environment[name] for name in self._ordering
        ]
        victims: list[ContextState] = []

        def walk(node: InternalNode, depth: int, path: list[Value]) -> None:
            cover_value = projected[depth]
            hierarchy = parameters[depth].hierarchy
            for key, child in node.cells.items():
                if key != cover_value and not hierarchy.is_ancestor(cover_value, key):
                    continue
                path.append(key)
                if depth == len(projected) - 1:
                    # child is a result leaf; rebuild the state key.
                    values: list[Value] = [None] * len(path)  # type: ignore[list-item]
                    for value, name in zip(path, self._ordering):
                        values[self._environment.index_of(name)] = value
                    victims.append(ContextState(self._environment, values))
                else:
                    walk(child, depth + 1, path)  # type: ignore[arg-type]
                path.pop()

        walk(self._root, 0, [])
        for victim in victims:
            self._remove(victim)
        self._count_invalidations(len(victims))
        return len(victims)

    def clear(self) -> None:
        """Empty the cache (statistics are preserved; the dropped
        entries count as invalidations)."""
        with self._lock:
            self._generation += 1
            self._count_invalidations(len(self._leaves))
            self._root = InternalNode()
            self._leaves.clear()

    def _count_invalidations(self, dropped: int) -> None:
        if not dropped:
            return
        self.invalidations += dropped
        registry = get_registry()
        if registry.enabled:
            registry.inc("cache.invalidations", dropped)

    def _evict_lru(self) -> None:
        victim = next(iter(self._leaves))
        self._remove(victim)
        self.evictions += 1
        registry = get_registry()
        if registry.enabled:
            registry.inc("cache.evictions")

    def _remove(self, state: ContextState) -> None:
        del self._leaves[state]
        path = self._project(state)
        # Walk down recording the spine, then prune empty nodes upward.
        spine: list[tuple[InternalNode, Value]] = []
        node = self._root
        for key in path[:-1]:
            spine.append((node, key))
            child = node.child(key)
            if not isinstance(child, InternalNode):  # pragma: no cover
                raise TreeError("malformed query tree")
            node = child
        spine.append((node, path[-1]))
        # Remove the leaf cell, then any interior node left empty.
        parent, key = spine.pop()
        del parent.cells[key]
        while spine and parent.num_cells() == 0:
            parent, key = spine.pop()
            del parent.cells[key]

    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when no lookups yet)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def statistics(self) -> dict[str, int | float]:
        """One consistent snapshot of the cache counters."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "states": len(self._leaves),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "stale_discards": self.stale_discards,
                "generation": self._generation,
            }

    def __repr__(self) -> str:
        return (
            f"ContextQueryTree(states={len(self._leaves)}, "
            f"capacity={self._capacity}, hit_rate={self.hit_rate():.2f})"
        )
