"""In-memory relations with selection over attribute clauses.

A :class:`Relation` is a schema plus an ordered bag of validated rows.
``select`` implements the relational selection ``sigma_{A theta a}(R)``
used by Rank_CS (Algorithm 2), reusing the same
:class:`~repro.preferences.AttributeClause` machinery preferences are
written in, so every operator of Def. 5 works on both sides.

Selections consult per-attribute indexes (:mod:`repro.db.index`)
automatically whenever one exists: hash lookups for ``=`` and sorted
``bisect`` ranges for the inequality operators, falling back to the
sequential scan otherwise. Rows are addressed by **stable row ids** -
their insertion positions - which ``select_ids`` exposes so ranking
code can deduplicate tuples without relying on object identity.
Mutations bump a version counter and notify registered listeners,
which is how query caches learn to drop stale entries.

**Thread safety.** The relation is guarded by one
:class:`~repro.concurrency.RWLock`: selections, projections and joins
take the read side (any number run together), while ``insert``,
``create_index``/``drop_index`` and listener (de)registration take the
exclusive write side. Listener dispatch happens *inside* the write
section, so a selection observes either the pre-mutation relation or
the post-mutation relation with every dependent cache already
invalidated - never a half-applied state. An ``auto_index`` build
triggered by a selection acquires the write lock *before* the
selection's read section (an RWLock cannot upgrade), so a read never
deadlocks waiting on its own index build. Listeners run under the
write lock and therefore must not re-enter the relation's write side
or acquire any lock that precedes the relation in the process lock
order (see :mod:`repro.concurrency`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType

from repro.exceptions import SchemaError
from repro.concurrency.locks import LEVEL_RELATION, RWLock
from repro.db.index import INDEXABLE_OPS, AttributeIndex
from repro.db.schema import Schema
from repro.faults.registry import get_fault_registry
from repro.obs.metrics import get_registry
from repro.preferences.preference import AttributeClause
from repro.tree.counters import AccessCounter

__all__ = ["Relation"]

Row = Mapping[str, object]


class Relation:
    """A named relation: a schema and its tuples.

    Rows are stored as read-only mappings; insertion validates against
    the schema so downstream code never sees malformed tuples. A row's
    id is its insertion position (the relation is append-only), so ids
    are stable for the relation's lifetime.

    Args:
        name: Relation name.
        schema: The relation's schema.
        rows: Initial tuples.
        auto_index: When true, the first indexable selection on an
            attribute builds that attribute's index on the fly; later
            selections reuse it.

    Example:
        >>> relation = Relation("points_of_interest", schema)
        >>> relation.insert({"pid": 1, "name": "Acropolis", ...})
        >>> relation.select(AttributeClause("name", "Acropolis"))
        [...]
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Row] = (),
        auto_index: bool = False,
    ) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        self._name = name
        self._schema = schema
        self._rows: list[Row] = []
        self._indexes: dict[str, AttributeIndex] = {}
        self._auto_index = auto_index
        self._version = 0
        self._listeners: list[Callable[["Relation"], None]] = []
        self._lock = RWLock(level=LEVEL_RELATION, name=f"relation:{name}")
        for row in rows:
            self.insert(row)

    @property
    def name(self) -> str:
        """The relation's name."""
        return self._name

    @property
    def schema(self) -> Schema:
        """The relation's schema."""
        return self._schema

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every ``insert``."""
        return self._version

    @property
    def auto_index(self) -> bool:
        """Whether selections build missing attribute indexes on demand."""
        return self._auto_index

    @auto_index.setter
    def auto_index(self, enabled: bool) -> None:
        self._auto_index = bool(enabled)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: Row) -> None:
        """Validate and append one tuple (indexes update incrementally).

        The whole mutation - row append, incremental index updates,
        version bump *and* listener dispatch - runs under the write
        lock, so concurrent selections never observe a row without its
        index postings or a mutated relation with stale caches.
        """
        self._schema.validate(row)
        stored = MappingProxyType(dict(row))
        with self._lock.write_locked():
            row_id = len(self._rows)
            self._rows.append(stored)
            for index in self._indexes.values():
                index.add(row_id, stored)
            self._version += 1
            for listener in tuple(self._listeners):
                listener(self)

    def extend(self, rows: Iterable[Row]) -> None:
        """Validate and append several tuples."""
        for row in rows:
            self.insert(row)

    def add_mutation_listener(self, listener: Callable[["Relation"], None]) -> None:
        """Call ``listener(relation)`` after every mutation.

        Registering the same listener twice is a no-op, so caches can
        re-attach defensively.
        """
        with self._lock.write_locked():
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_mutation_listener(self, listener: Callable[["Relation"], None]) -> None:
        """Stop notifying ``listener``; unknown listeners are ignored."""
        with self._lock.write_locked():
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    @property
    def mutation_listener_count(self) -> int:
        """Number of currently registered mutation listeners.

        Lifecycle code uses this to prove that transient owners (e.g.
        a per-user result cache) detach their listeners: the count must
        return to its baseline after register -> query -> unregister.
        """
        return len(self._listeners)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, attribute: str) -> AttributeIndex:
        """Build (or return the existing) index on ``attribute``.

        Raises:
            SchemaError: If the attribute is outside the schema.
        """
        if attribute not in self._schema:
            raise SchemaError(
                f"relation {self._name!r} has no attribute {attribute!r}"
            )
        faults = get_fault_registry()
        if faults.enabled:
            faults.fire("relation.index_build")
        with self._lock.write_locked():
            index = self._indexes.get(attribute)
            if index is None:
                index = AttributeIndex(attribute, self._rows)
                self._indexes[attribute] = index
            return index

    def drop_index(self, attribute: str) -> bool:
        """Drop the index on ``attribute``; True if one existed."""
        with self._lock.write_locked():
            return self._indexes.pop(attribute, None) is not None

    def has_index(self, attribute: str) -> bool:
        """True iff ``attribute`` currently has an index."""
        return attribute in self._indexes

    @property
    def indexed_attributes(self) -> tuple[str, ...]:
        """Names of the currently indexed attributes."""
        return tuple(self._indexes)

    def _index_for(
        self, clause: AttributeClause, use_index: bool = True
    ) -> AttributeIndex | None:
        """The index select should consult for ``clause``, if any.

        May build a missing index (``auto_index``), which takes the
        write lock - callers must therefore resolve indexes *before*
        entering their read-locked section (the RWLock cannot upgrade
        a held read side to the write side).
        """
        if not use_index or clause.op not in INDEXABLE_OPS:
            return None
        index = self._indexes.get(clause.attribute)
        if index is None and self._auto_index:
            index = self.create_index(clause.attribute)
        return index

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select_ids(
        self,
        clause: AttributeClause,
        counter: AccessCounter | None = None,
        use_index: bool = True,
    ) -> list[int]:
        """Stable row ids satisfying the clause, in row order.

        Uses the attribute's index when one exists (or ``auto_index``
        is on) and the operator is indexable; otherwise scans. Index
        probes charge ``counter`` with index cells, scans with one cell
        per examined row. ``use_index=False`` forces the sequential
        scan - the degradation ladder's fallback when index builds are
        failing.

        Raises:
            SchemaError: If the clause names an attribute outside the schema.
        """
        if clause.attribute not in self._schema:
            raise SchemaError(
                f"relation {self._name!r} has no attribute {clause.attribute!r}"
            )
        faults = get_fault_registry()
        if faults.enabled:
            faults.fire("relation.select")
        registry = get_registry()
        # Resolve (and possibly build) the index before the read-locked
        # section: an auto-index build takes the write lock.
        index = self._index_for(clause, use_index)
        with self._lock.read_locked():
            if index is not None:
                ids = index.lookup(clause, counter)
                if ids is not None:
                    if registry.enabled:
                        registry.inc("relation.select.indexed")
                    return ids
            if counter is not None:
                counter.add_scan(len(self._rows))
            if registry.enabled:
                registry.inc("relation.select.scan")
            return [
                row_id for row_id, row in enumerate(self._rows) if clause.matches(row)
            ]

    def select(
        self,
        clause: AttributeClause,
        counter: AccessCounter | None = None,
        use_index: bool = True,
    ) -> list[Row]:
        """``sigma_{A theta a}(R)``: rows satisfying the clause.

        Raises:
            SchemaError: If the clause names an attribute outside the schema.
        """
        rows = self._rows
        return [
            rows[row_id] for row_id in self.select_ids(clause, counter, use_index)
        ]

    def select_all(
        self,
        clauses: Iterable[AttributeClause],
        counter: AccessCounter | None = None,
        use_index: bool = True,
    ) -> list[Row]:
        """Rows satisfying *every* clause (conjunction).

        When at least one clause has an index path, its id list seeds
        the candidate set and the remaining clauses filter it, so the
        conjunction costs O(|seed| x clauses) instead of a full scan.
        """
        clauses = list(clauses)
        for clause in clauses:
            if clause.attribute not in self._schema:
                raise SchemaError(
                    f"relation {self._name!r} has no attribute {clause.attribute!r}"
                )
        seed: AttributeClause | None = None
        for clause in clauses:
            if self._index_for(clause, use_index) is not None:
                seed = clause
                break
        if seed is not None:
            rest = [clause for clause in clauses if clause is not seed]
            seed_ids = self.select_ids(seed, counter, use_index)
            with self._lock.read_locked():
                rows = self._rows
                return [
                    rows[row_id]
                    for row_id in seed_ids
                    if all(clause.matches(rows[row_id]) for clause in rest)
                ]
        faults = get_fault_registry()
        if faults.enabled:
            faults.fire("relation.select")
        registry = get_registry()
        with self._lock.read_locked():
            if counter is not None:
                counter.add_scan(len(self._rows))
            if registry.enabled:
                registry.inc("relation.select.scan")
            return [
                row
                for row in self._rows
                if all(clause.matches(row) for clause in clauses)
            ]

    def rows_by_ids(self, row_ids: Sequence[int]) -> list[Row]:
        """The rows at the given stable ids, in the given order."""
        with self._lock.read_locked():
            rows = self._rows
            return [rows[row_id] for row_id in row_ids]

    def project(self, names: Iterable[str]) -> list[dict[str, object]]:
        """``pi_{names}(R)`` preserving duplicates and row order."""
        names = list(names)
        for name in names:
            if name not in self._schema:
                raise SchemaError(
                    f"relation {self._name!r} has no attribute {name!r}"
                )
        with self._lock.read_locked():
            return [{name: row[name] for name in names} for row in self._rows]

    def order_by(
        self, attribute: str, descending: bool = False
    ) -> list[Row]:
        """Rows sorted by one attribute (stable; ``None`` sorts last)."""
        if attribute not in self._schema:
            raise SchemaError(
                f"relation {self._name!r} has no attribute {attribute!r}"
            )
        with self._lock.read_locked():
            return sorted(
                self._rows,
                key=lambda row: (row[attribute] is None, row[attribute]),
                reverse=descending,
            )

    def join(
        self,
        other: "Relation",
        self_attribute: str,
        other_attribute: str | None = None,
        name: str | None = None,
    ) -> "Relation":
        """Equi-join with another relation (hash join).

        Overlapping attribute names on the right side are prefixed with
        ``"<other relation name>_"`` in the result schema.

        Raises:
            SchemaError: If a join attribute is missing on either side.
        """
        other_attribute = other_attribute or self_attribute
        if self_attribute not in self._schema:
            raise SchemaError(
                f"relation {self._name!r} has no attribute {self_attribute!r}"
            )
        if other_attribute not in other.schema:
            raise SchemaError(
                f"relation {other.name!r} has no attribute {other_attribute!r}"
            )

        def rename(attribute_name: str) -> str:
            if attribute_name in self._schema:
                return f"{other.name}_{attribute_name}"
            return attribute_name

        from repro.db.schema import Schema  # local to avoid import cycles

        joined_schema = Schema(
            [
                *self._schema.attributes,
                *(
                    type(attribute)(
                        rename(attribute.name), attribute.type_name, attribute.nullable
                    )
                    for attribute in other.schema
                ),
            ]
        )
        joined = Relation(name or f"{self._name}_join_{other.name}", joined_schema)
        buckets: dict[object, list[Row]] = {}
        for row in other:
            buckets.setdefault(row[other_attribute], []).append(row)
        for left in self._rows:
            for right in buckets.get(left[self_attribute], ()):
                combined = dict(left)
                combined.update(
                    {rename(attr): value for attr, value in right.items()}
                )
                joined.insert(combined)
        return joined

    def distinct_values(self, attribute: str) -> list[object]:
        """Distinct values of one attribute, in first-seen order."""
        if attribute not in self._schema:
            raise SchemaError(
                f"relation {self._name!r} has no attribute {attribute!r}"
            )
        with self._lock.read_locked():
            seen: dict[object, None] = {}
            for row in self._rows:
                seen.setdefault(row[attribute], None)
            return list(seen)

    def __repr__(self) -> str:
        indexed = f", indexed={list(self._indexes)}" if self._indexes else ""
        return f"Relation({self._name!r}, {len(self._rows)} rows{indexed})"
