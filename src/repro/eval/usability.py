"""The usability study (Sec. 5.1, Table 1), with simulated users.

Protocol, mirroring the paper:

1. Each of the 10 users is assigned one of the 12 default profiles and
   customises it (:mod:`repro.workloads.users`); we record the number
   of modifications and the editing time.
2. For each user we classify the detailed context states of the study
   environment by how the user's profile tree resolves them: *exact
   match*, *exactly one cover*, or *more than one (incomparable)
   cover*.
3. For sampled query states of each class, the system's top-20 ranking
   (ties included) is compared against the user's own top-20, built
   from their intrinsic preferences resolved with the most-specific
   (Jaccard) semantics. We report the percentage of system results the
   user agrees with, per class - and for the multi-cover class under
   both the Hierarchy and the Jaccard distances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.context.state import ContextState
from repro.db.poi import generate_poi_relation
from repro.db.relation import Relation
from repro.eval.reporting import format_table
from repro.query.contextual_query import ContextualQuery
from repro.query.executor import ContextualQueryExecutor
from repro.resolution.resolver import minimal_covering
from repro.resolution.search import search_cs
from repro.tree.profile_tree import ProfileTree
from repro.workloads.users import (
    Persona,
    SimulatedUser,
    all_personas,
    study_environment,
)

__all__ = [
    "UserStudyRow",
    "UsabilityStudy",
    "classify_states",
    "format_report",
    "run_usability_study",
    "table1_rows",
]


@dataclass(frozen=True)
class UserStudyRow:
    """One column of the paper's Table 1 (one user)."""

    user_id: int
    num_updates: int
    update_time_minutes: int
    exact_match_pct: float
    one_cover_pct: float
    multi_cover_hierarchy_pct: float
    multi_cover_jaccard_pct: float


@dataclass(frozen=True)
class UsabilityStudy:
    """All users' results plus study-level aggregates."""

    rows: tuple[UserStudyRow, ...]

    def mean(self, field: str) -> float:
        """Average of one numeric field across users."""
        values = [getattr(row, field) for row in self.rows]
        return sum(values) / len(values) if values else 0.0


def classify_states(
    tree: ProfileTree,
) -> dict[str, list[ContextState]]:
    """Partition every detailed context state by resolution outcome.

    Returns ``{"exact": [...], "one_cover": [...], "multi_cover": [...]}``;
    states covered by no stored state are omitted (the paper executes
    those as non-contextual queries and does not measure them).
    """
    environment = tree.environment
    buckets: dict[str, list[ContextState]] = {
        "exact": [],
        "one_cover": [],
        "multi_cover": [],
    }
    detailed_domains = [parameter.dom for parameter in environment]
    for values in itertools.product(*detailed_domains):
        state = ContextState(environment, values)
        candidates = search_cs(tree, state)
        if not candidates:
            continue
        if any(candidate.is_exact() for candidate in candidates):
            buckets["exact"].append(state)
            continue
        minimal = minimal_covering(candidates)
        if len(minimal) == 1:
            buckets["one_cover"].append(state)
        else:
            buckets["multi_cover"].append(state)
    return buckets


def _top_pids(
    executor: ContextualQueryExecutor, state: ContextState, top_k: int
) -> set[object]:
    result = executor.execute(ContextualQuery.at_state(state))
    return {item.row["pid"] for item in result.top(top_k)}


def _agreement_pct(system: set[object], user: set[object]) -> float:
    """Percentage of the system's results the user also returned."""
    if not system:
        return 0.0
    return 100.0 * len(system & user) / len(system)


def _round5(value: float) -> float:
    """Round to the nearest 5%, like the paper's reported figures."""
    return float(5 * round(value / 5))


def run_usability_study(
    num_users: int = 10,
    relation: Relation | None = None,
    top_k: int = 20,
    queries_per_mode: int = 6,
    seed: int = 11,
) -> UsabilityStudy:
    """Run the full simulated usability study (Table 1).

    Args:
        num_users: Number of simulated participants (10 in the paper).
        relation: POI relation; a default 80-row one is generated.
        top_k: Ranking depth (the paper compares the best 20, keeping
            ties).
        queries_per_mode: Query states sampled per resolution class.
        seed: Master seed; personas, meticulousness and idiosyncrasies
            all derive from it deterministically.
    """
    environment = study_environment()
    if relation is None:
        relation = generate_poi_relation(80, seed=seed)
    rng = np.random.default_rng(seed)
    personas = all_personas()

    rows = []
    for user_id in range(1, num_users + 1):
        persona: Persona = personas[int(rng.integers(len(personas)))]
        meticulousness = float(rng.uniform(0.1, 1.0))
        user = SimulatedUser(
            user_id, persona, environment, meticulousness=meticulousness, seed=seed
        )
        session = user.customize()

        served_tree = ProfileTree.from_profile(session.profile)
        intrinsic_tree = ProfileTree.from_profile(session.intrinsic_profile)
        truth = ContextualQueryExecutor(
            intrinsic_tree, relation, metric="jaccard"
        )
        system_hierarchy = ContextualQueryExecutor(
            served_tree, relation, metric="hierarchy"
        )
        system_jaccard = ContextualQueryExecutor(
            served_tree, relation, metric="jaccard"
        )

        buckets = classify_states(served_tree)
        per_mode: dict[str, list[float]] = {
            "exact": [],
            "one_cover": [],
            "multi_hierarchy": [],
            "multi_jaccard": [],
        }
        for mode in ("exact", "one_cover", "multi_cover"):
            states = buckets[mode]
            if not states:
                continue
            chosen = rng.choice(
                len(states), size=min(queries_per_mode, len(states)), replace=False
            )
            for index in chosen:
                state = states[int(index)]
                user_pids = _top_pids(truth, state, top_k)
                if mode == "multi_cover":
                    per_mode["multi_hierarchy"].append(
                        _agreement_pct(_top_pids(system_hierarchy, state, top_k), user_pids)
                    )
                    per_mode["multi_jaccard"].append(
                        _agreement_pct(_top_pids(system_jaccard, state, top_k), user_pids)
                    )
                else:
                    key = "exact" if mode == "exact" else "one_cover"
                    per_mode[key].append(
                        _agreement_pct(_top_pids(system_hierarchy, state, top_k), user_pids)
                    )

        def mode_pct(key: str) -> float:
            values = per_mode[key]
            return _round5(sum(values) / len(values)) if values else 0.0

        rows.append(
            UserStudyRow(
                user_id=user_id,
                num_updates=session.num_modifications,
                update_time_minutes=session.update_time_minutes,
                exact_match_pct=mode_pct("exact"),
                one_cover_pct=mode_pct("one_cover"),
                multi_cover_hierarchy_pct=mode_pct("multi_hierarchy"),
                multi_cover_jaccard_pct=mode_pct("multi_jaccard"),
            )
        )
    return UsabilityStudy(rows=tuple(rows))


def table1_rows(study: UsabilityStudy) -> tuple[list[str], list[list[object]]]:
    """Table 1's header and rows, one column per user, as the paper
    prints them."""
    rows = study.rows
    return ["", *[f"User {row.user_id}" for row in rows]], [
        ["Num of updates", *[row.num_updates for row in rows]],
        ["Update time (mins)", *[row.update_time_minutes for row in rows]],
        ["Exact match", *[f"{row.exact_match_pct:.0f}%" for row in rows]],
        ["1 cover state", *[f"{row.one_cover_pct:.0f}%" for row in rows]],
        ["Hierarchy", *[f"{row.multi_cover_hierarchy_pct:.0f}%" for row in rows]],
        ["Jaccard", *[f"{row.multi_cover_jaccard_pct:.0f}%" for row in rows]],
    ]


def format_report(study: UsabilityStudy) -> str:
    """Table 1 as a plain-text table."""
    return format_table(*table1_rows(study), title="Table 1. User Study Results")
