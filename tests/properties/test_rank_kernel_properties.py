"""Differential tests: the NumPy ``rank_rows`` kernel against the
per-row loop it replaced.

The oracle below is the former ``rank_rows`` body, kept verbatim apart
from its tracing span and metric counters: one Python bucket per row,
``combine`` called on every bucket, one stable sort. The Table 1 tie
cut on the oracle side is :meth:`QueryResult.top`, which the executor
applied after ranking before the cut moved into the kernel. Every
comparison is exact: the same pids in the same order, bit-identical
float scores, and equal ``contributions`` tuples.
"""

from collections.abc import Callable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Attribute,
    AttributeClause,
    ContextDescriptor,
    ContextEnvironment,
    ContextParameter,
    ContextState,
    ContextualPreference,
    ProfileTree,
    Relation,
    Schema,
    combine_avg,
    combine_max,
    combine_min,
)
from repro.exceptions import PreferenceError
from repro.hierarchy import flat_hierarchy
from repro.preferences.combine import weighted_average
from repro.query import (
    ContextualQuery,
    ContextualQueryExecutor,
    Contribution,
    RankedTuple,
    rank_rows,
)
from repro.query.executor import QueryResult

ENV = ContextEnvironment([ContextParameter(flat_hierarchy("c", ["x", "y"]))])
ALL_STATE = ContextState.all_state(ENV)
STATES = [ALL_STATE, ContextState.from_mapping(ENV, {"c": "x"})]

SCHEMA = Schema(
    [Attribute("pid", "int"), Attribute("kind", "str"), Attribute("price", "int")]
)
KINDS = ["a", "b", "c", "d"]
# Few distinct scores make ties common; 0.1/0.2/0.3/0.7 make sums round.
SCORES = [0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 0.9, 1.0]


def per_row_rank_rows(
    relation,
    contributions: Sequence[Contribution],
    combine: Callable[[Sequence[float]], float] = combine_max,
    counter=None,
    clause_cache=None,
    use_index: bool = True,
) -> list[RankedTuple]:
    """The per-row ``rank_rows`` loop the kernel replaced (the oracle)."""
    if clause_cache is None:
        clause_cache = {}
    evaluated = 0
    per_row: dict[int, list[Contribution]] = {}
    for contribution in contributions:
        row_ids = clause_cache.get(contribution.clause)
        if row_ids is None:
            # Keyword-only (and only when deviating from the
            # default) so duck-typed relation stand-ins that predate
            # the switch keep working on the normal path.
            if use_index:
                row_ids = relation.select_ids(contribution.clause, counter)
            else:
                row_ids = relation.select_ids(
                    contribution.clause, counter, use_index=False
                )
            clause_cache[contribution.clause] = row_ids
            evaluated += 1
        for row_id in row_ids:
            bucket = per_row.get(row_id)
            if bucket is None:
                bucket = per_row[row_id] = []
            bucket.append(contribution)

    ranked = [
        RankedTuple(
            row=relation[row_id],
            score=combine([contribution.score for contribution in row_contributions]),
            contributions=tuple(row_contributions),
        )
        for row_id, row_contributions in per_row.items()
    ]
    ranked.sort(key=lambda item: -item.score)
    return ranked


def expected_ranking(relation, contributions, combine, top_k=None, use_index=True):
    ranked = per_row_rank_rows(relation, contributions, combine, use_index=use_index)
    if top_k is None:
        return ranked
    return QueryResult(results=ranked).top(top_k)


def signature(ranked: Sequence[RankedTuple]) -> list[tuple]:
    return [(item.row["pid"], item.score, item.contributions) for item in ranked]


def assert_same_ranking(actual, expected) -> None:
    assert signature(actual) == signature(expected)
    # Scores reach callers (and the wire) as plain floats, not NumPy scalars.
    assert all(type(item.score) is float for item in actual)


def first_heavy(scores: Sequence[float]) -> float:
    """Order-sensitive: exposes any reordering of a row's scores."""
    return scores[0] + len(scores) / 100


COMBINERS = st.sampled_from(
    [
        combine_max,
        combine_min,
        combine_avg,
        first_heavy,
        lambda scores: sorted(scores)[len(scores) // 2],
    ]
)
TOP_KS = st.sampled_from([None, 0, 1, 10, 1000])


@st.composite
def relations(draw, max_rows: int = 40):
    relation = Relation("r", SCHEMA)
    for pid in range(draw(st.integers(0, max_rows))):
        relation.insert(
            {
                "pid": pid,
                "kind": draw(st.sampled_from(KINDS)),
                "price": draw(st.integers(0, 9)),
            }
        )
    if draw(st.booleans()):
        relation.create_index("kind")
        relation.create_index("price")
    return relation


def clauses():
    return st.one_of(
        st.builds(
            AttributeClause,
            st.just("kind"),
            st.sampled_from(KINDS),
            st.sampled_from(["=", "!="]),
        ),
        st.builds(
            AttributeClause,
            st.just("price"),
            st.integers(-1, 10),
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        ),
    )


def scores():
    return st.one_of(
        st.sampled_from(SCORES), st.floats(0.0, 1.0, allow_nan=False)
    )


def contribution_lists(min_size: int = 0, max_size: int = 12):
    return st.lists(
        st.builds(Contribution, st.sampled_from(STATES), clauses(), scores()),
        min_size=min_size,
        max_size=max_size,
        unique=True,
    )


class TestKernelMatchesPerRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(relations(), contribution_lists(), COMBINERS, TOP_KS, st.booleans())
    def test_same_ranking(self, relation, contributions, combine, top_k, use_index):
        actual = rank_rows(
            relation, contributions, combine, use_index=use_index, top_k=top_k
        )
        assert_same_ranking(
            actual,
            expected_ranking(relation, contributions, combine, top_k, use_index),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        relations(max_rows=60),
        contribution_lists(min_size=64, max_size=140),
        COMBINERS,
        TOP_KS,
    )
    def test_more_contributions_than_one_mask_word(
        self, relation, contributions, combine, top_k
    ):
        actual = rank_rows(relation, contributions, combine, top_k=top_k)
        assert_same_ranking(
            actual, expected_ranking(relation, contributions, combine, top_k)
        )

    @settings(max_examples=100, deadline=None)
    @given(relations(), contribution_lists(max_size=4), TOP_KS)
    def test_weighted_average_matches_or_fails_alike(
        self, relation, contributions, top_k
    ):
        combine = weighted_average([3, 1])
        try:
            expected = expected_ranking(relation, contributions, combine, top_k)
        except PreferenceError:
            with pytest.raises(PreferenceError):
                rank_rows(relation, contributions, combine, top_k=top_k)
        else:
            actual = rank_rows(relation, contributions, combine, top_k=top_k)
            assert_same_ranking(actual, expected)

    @settings(max_examples=60, deadline=None)
    @given(relations(), st.lists(scores(), min_size=3, max_size=3), TOP_KS)
    def test_weighted_average_over_overlapping_clauses(self, relation, values, top_k):
        # Every row matches all three clauses, so each gets three scores.
        every_row = [
            AttributeClause("price", 0, ">="),
            AttributeClause("kind", "z", "!="),
            AttributeClause("price", 10, "<"),
        ]
        contributions = [
            Contribution(ALL_STATE, clause, value)
            for clause, value in zip(every_row, values)
        ]
        combine = weighted_average([3, 1, 2])
        actual = rank_rows(relation, contributions, combine, top_k=top_k)
        assert_same_ranking(
            actual, expected_ranking(relation, contributions, combine, top_k)
        )

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_ties_at_the_kth_score_are_kept(self, top_k):
        relation = Relation(
            "r",
            SCHEMA,
            [{"pid": pid, "kind": KINDS[pid % 2], "price": pid} for pid in range(6)],
        )
        contributions = [
            Contribution(ALL_STATE, AttributeClause("kind", "a"), 0.5),
            Contribution(ALL_STATE, AttributeClause("price", 5), 0.9),
            Contribution(ALL_STATE, AttributeClause("kind", "b"), 0.5),
        ]
        actual = rank_rows(relation, contributions, top_k=top_k)
        # pid 5 alone scores 0.9; the other five tie at 0.5.
        assert len(actual) == (1 if top_k == 1 else 6)
        assert_same_ranking(
            actual, expected_ranking(relation, contributions, combine_max, top_k)
        )

    def test_provenance_past_the_first_mask_word(self):
        relation = Relation(
            "r", SCHEMA, [{"pid": 0, "kind": "a", "price": 1}]
        )
        contributions = [
            Contribution(ALL_STATE, AttributeClause("price", bound, "<"), bound / 200)
            for bound in range(2, 132)
        ]
        (item,) = rank_rows(relation, contributions)
        assert item.contributions == tuple(contributions)
        assert item.score == contributions[-1].score


def _executor(preferences, relation) -> ContextualQueryExecutor:
    tree = ProfileTree(ENV)
    for clause, score in preferences:
        tree.insert(
            ContextualPreference(
                ContextDescriptor.from_mapping({"c": "x"}), clause, score
            )
        )
    return ContextualQueryExecutor(tree, relation)


def _expected_execute(executor, query, use_index) -> list[RankedTuple]:
    """The executor's ranking as it was computed before the tie cut moved
    into the kernel: rank everything, filter by base clauses, then cut."""
    contributions: dict[Contribution, None] = {}
    for state in query.states():
        resolution = executor.resolver.resolve_state(state)
        for candidate in resolution.best:
            for clause, score in candidate.entries.items():
                contributions.setdefault(
                    Contribution(candidate.state, clause, score), None
                )
    ranked = per_row_rank_rows(
        executor.relation, list(contributions), use_index=use_index
    )
    ranked = [
        item
        for item in ranked
        if all(clause.matches(item.row) for clause in query.base_clauses)
    ]
    result = QueryResult(results=ranked)
    if query.top_k is not None:
        result.results = result.top(query.top_k)
    return result.results


class TestExecutorMatchesPerRowLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        relations(),
        st.lists(
            st.tuples(clauses(), scores()),
            min_size=1,
            max_size=6,
            unique_by=lambda preference: preference[0],
        ),
        st.lists(clauses(), max_size=2),
        st.sampled_from([None, 1, 10, 1000]),
        st.booleans(),
    )
    def test_execute_matches(
        self, relation, preferences, base_clauses, top_k, use_index
    ):
        executor = _executor(preferences, relation)
        query = ContextualQuery.at_state(
            STATES[1], base_clauses=base_clauses, top_k=top_k
        )
        result = executor.execute(query, use_index=use_index)
        assert result.contextual
        assert_same_ranking(
            result.results, _expected_execute(executor, query, use_index)
        )
