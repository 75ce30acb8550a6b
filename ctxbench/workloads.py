"""The benchmark's workloads: inputs, set-up, operations and reference twin.

Every workload is one client in a closed loop: the next operation is
sent only after the previous one returned. Operations come in *rounds*
of a fixed make-up, generated from ``--seed``; a timed window runs a
fixed number of whole rounds, so every run measures the same mix of
operations from the same starting state and a different seed only
reorders and re-draws within that mix. The dataset (the POI relation) is fixed; the seed drives the
traffic.

Popularity skew is laid out by *systematic sampling*: per user and
round, state ``i`` of the 27-state pool appears ``floor`` or ``ceil``
of ``n * p_i`` times (Zipf ``p``), with a fixed offset per user
deciding which, so that the users of a round together query the states
in proportion (``paging_edits`` samples its users from their Zipf law
the same way, moving the offset every round). The seeded part is the
order: the copies are grouped into runs - each copy continues the
current run with probability ``locality`` - and the runs shuffled,
which gives the temporal locality of
:func:`repro.workloads.streams.query_stream` without its variance in
how often each state is queried. States cost from a few to over 60 ms
on ``score_heavy``, so that variance would otherwise dominate the
spread between seeds.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.context.state import ContextState
from repro.db.poi import generate_poi_relation
from repro.io.serialize import preference_to_dict
from repro.preferences.preference import ContextualPreference
from repro.query.contextual_query import ContextualQuery
from repro.query.executor import ContextualQueryExecutor
from repro.service.personalization import PersonalizationService
from repro.sharding.router import ShardRouter
from repro.sharding.worker import ranking_pairs
from repro.storage.jsonl import JsonlProfileStore
from repro.workloads.users import all_personas, default_profile, study_environment
from repro.workloads.zipf import zipf_probabilities

import layers

#: Seed of the POI relation every workload and twin queries.
DATA_SEED = 11
TOP_K = 10
STATE_ZIPF = 1.1
LOCALITY = 0.5


@dataclass(frozen=True)
class Query:
    user: str
    state: int


@dataclass(frozen=True)
class Edit:
    user: str
    preference: ContextualPreference
    score: float


@dataclass(frozen=True)
class Batch:
    queries: tuple[Query, ...]


def kind(op) -> str:
    return "edit" if isinstance(op, Edit) else "query"


def size(op) -> int:
    """Operations an op counts for: a batch counts each of its queries."""
    return len(op.queries) if isinstance(op, Batch) else 1


def state_pool(environment) -> list[ContextState]:
    """The 27-state pool; its order is the popularity rank."""
    return [
        ContextState.from_mapping(
            environment,
            {
                "accompanying_people": people,
                "temperature": temperature,
                "location": location,
            },
        )
        for people in ("friends", "family", "alone")
        for temperature in ("warm", "hot", "cold")
        for location in ("Plaka", "Kifisia", "Syntagma")
    ]


#: Irrational step between the user-sampling offsets of successive rounds.
GOLDEN = (5**0.5 - 1) / 2


def systematic_counts(weights, total: int, offset: float) -> list[int]:
    """``total`` draws over ``weights``: each item gets floor or ceil of its
    share; ``offset`` in [0, 1) decides which."""
    counts, cumulative, previous = [], 0.0, 0
    for weight in weights:
        cumulative += weight
        upto = min(total, math.floor(cumulative * total + offset))
        counts.append(upto - previous)
        previous = upto
    counts[-1] += total - previous
    return counts


def local_sequence(counts: list[int], rng: random.Random) -> list[int]:
    """Item indexes with the given counts, grouped into shuffled runs."""
    runs = []
    for item, count in enumerate(counts):
        length = 0
        for _ in range(count):
            if length and rng.random() >= LOCALITY:
                runs.append((item, length))
                length = 0
            length += 1
        if length:
            runs.append((item, length))
    rng.shuffle(runs)
    return [item for item, length in runs for _ in range(length)]


def bumped(score: float) -> float:
    """A new score in [0.05, 0.94] that always differs from ``score``."""
    return round(0.05 + (score * 100 + 17) % 90 / 100, 2)


def digest(pairs) -> tuple[int, int]:
    """A ranking's fingerprint: hash of its ``[pid, score]`` pairs, and its length."""
    return hash(tuple(map(tuple, pairs))), len(pairs)


class Population:
    """User ids, personas and the current score of every edited preference.

    Edits are generated ahead of the run, so each one must name the
    preference exactly as it is stored at that point (score included);
    this model replays the schedule's edits to know it.
    """

    def __init__(self, environment) -> None:
        self.environment = environment
        self.personas = all_personas()
        self._defaults: dict[int, list[ContextualPreference]] = {}
        self._current: dict[tuple[str, int], ContextualPreference] = {}

    def persona_index(self, user: str) -> int:
        return int(user[1:]) % len(self.personas)

    def persona(self, user: str):
        return self.personas[self.persona_index(user)]

    def defaults(self, user: str) -> list[ContextualPreference]:
        key = self.persona_index(user)
        if key not in self._defaults:
            self._defaults[key] = list(
                default_profile(self.personas[key], self.environment)
            )
        return self._defaults[key]

    def edit(self, user: str, index: int, score: float | None = None) -> Edit:
        """The edit setting preference ``index`` of ``user`` to ``score``
        (``None``: a bumped score)."""
        stored = self._current.get((user, index)) or self.defaults(user)[index]
        new = bumped(stored.score) if score is None else score
        self._current[(user, index)] = ContextualPreference(
            stored.descriptor, stored.clause, new
        )
        return Edit(user, stored, new)


class Twin:
    """The reference: a plain in-memory service, no cache, no index.

    Replays the same edits and queries; every query runs with
    ``use_cache=False`` and ``use_index=False`` on a relation without
    indexes. Results are memoised by persona, edit history and state:
    the history, not just the resulting scores, because a preference
    removed and re-added moves within its profile and so changes the
    order of tied rows.
    """

    def __init__(self, population: Population, pool, num_rows: int) -> None:
        self._population = population
        self._queries = [ContextualQuery.at_state(state, top_k=TOP_K) for state in pool]
        self._relation = generate_poi_relation(num_rows, seed=DATA_SEED)
        self._service = PersonalizationService(
            population.environment,
            self._relation,
            cache_capacity=None,
            auto_index=False,
        )
        self._history: dict[str, tuple] = {}
        self._memo: dict[tuple, tuple[int, int]] = {}

    def _account(self, user: str) -> str:
        """The twin account whose profile is ``user``'s: the user's own once
        edited, else one shared per persona."""
        if user in self._history:
            return user
        persona = self._population.persona_index(user)
        shared = f"persona{persona}"
        if shared not in self._service:
            self._service.register(shared, self._population.personas[persona])
        return shared

    def expected(self, op) -> list:
        if isinstance(op, Batch):
            return [self._query(query) for query in op.queries]
        if isinstance(op, Edit):
            return [self._edit(op)]
        return [self._query(op)]

    def _edit(self, op: Edit):
        if op.user not in self._history:
            self._service.register(op.user, self._population.persona(op.user))
        replacement = self._service.update_preference(op.user, op.preference, op.score)
        self._history[op.user] = self._history.get(op.user, ()) + (
            (op.preference, op.score),
        )
        return ("edit", round(replacement.score, 12))

    def _query(self, op: Query):
        key = (
            self._population.persona_index(op.user),
            op.state,
            self._history.get(op.user, ()),
        )
        if key not in self._memo:
            tree = self._service.account(self._account(op.user)).repository.tree
            executor = ContextualQueryExecutor(tree, self._relation, metric="jaccard")
            result = executor.execute(
                self._queries[op.state], use_cache=False, use_index=False
            )
            self._memo[key] = digest(ranking_pairs(result))
        return self._memo[key]


class Workload:
    """Common schedule bookkeeping; subclasses define rounds and targets."""

    name = ""
    num_rows = 0
    #: Operations the determinism check compares between two fresh set-ups.
    determinism_ops = 0
    #: Seconds one round took on a 2-core host when the benchmark was
    #: defined; a window of ``--seconds`` runs that many seconds' worth of
    #: rounds, so every run times the same operations (``paging_edits``
    #: slows as overrides accumulate, so a time-bounded window would time
    #: a different mix on a faster or slower host).
    round_seconds = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.environment = study_environment()
        self.pool = state_pool(self.environment)
        self.population = Population(self.environment)
        self.state_weights = list(zipf_probabilities(len(self.pool), STATE_ZIPF))
        self._rounds: list[list] = []

    def rng(self, *tags) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed, *tags))))

    def round(self, index: int) -> list:
        while len(self._rounds) <= index:
            self._rounds.append(self._make_round(len(self._rounds)))
        return self._rounds[index]

    def _make_round(self, index: int) -> list:
        raise NotImplementedError

    def state_sequence(self, rng: random.Random, length: int, slot: float) -> list[int]:
        """``length`` states for one user (``slot`` in [0, 1) spreads users)."""
        return local_sequence(systematic_counts(self.state_weights, length, slot), rng)

    def twin(self) -> Twin:
        return Twin(self.population, self.pool, self.num_rows)

    def pids(self, target) -> list[int]:
        return []

    def retries(self, target) -> int:
        return 0


class InProcess(Workload):
    """A workload served by an in-process :class:`PersonalizationService`."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.queries = [ContextualQuery.at_state(state, top_k=TOP_K) for state in self.pool]

    def execute(self, service: PersonalizationService, op):
        if isinstance(op, Edit):
            return service.update_preference(op.user, op.preference, op.score)
        return service.query(op.user, self.queries[op.state])

    def outcome(self, op, raw) -> tuple[list, int, int, int]:
        """Digests, rows returned, cache hits and cache misses of one op."""
        if isinstance(op, Edit):
            return [("edit", round(raw.score, 12))], 0, 0, 0
        pairs = ranking_pairs(raw)
        return [digest(pairs)], len(pairs), raw.cache_hits, raw.cache_misses

    def counters(self, service: PersonalizationService) -> dict[str, int]:
        return {"hydrations": int(service.paging_statistics()["hydrations"])}


class ScoreHeavy(InProcess):
    """Scoring-bound: a 10k-row relation, 8 querying users, warm result caches.

    Edits go to a ninth user who never queries, so they do not change
    the rankings the eight others are scored on.
    """

    name = "score_heavy"
    num_rows = 10_000
    num_users = 8
    queries_per_user = 12
    edit_every = 6
    determinism_ops = 28
    round_seconds = 2.1
    writer = "u8"

    def users(self) -> list[str]:
        return [f"u{index}" for index in range(self.num_users)]

    def setup(self, workdir) -> PersonalizationService:
        relation = generate_poi_relation(self.num_rows, seed=DATA_SEED)
        service = PersonalizationService(self.environment, relation, cache_capacity=64)
        for user in [*self.users(), self.writer]:
            service.register(user, self.population.persona(user))
        for user in self.users():
            service.query(user, self.queries[0])
        return service

    def close(self, service: PersonalizationService) -> None:
        service.close()

    def _make_round(self, index: int) -> list:
        rng = self.rng("round", index)
        sequences = [
            self.state_sequence(rng, self.queries_per_user, (slot + 0.5) / self.num_users)
            for slot in range(self.num_users)
        ]
        queries = [
            Query(user, states[position])
            for position in range(self.queries_per_user)
            for user, states in zip(self.users(), sequences)
        ]
        defaults = self.population.defaults(self.writer)
        ops: list = []
        for position, query in enumerate(queries):
            ops.append(query)
            if position % self.edit_every == self.edit_every - 1:
                # Edits come in pairs: a new score, then the default back.
                if position // self.edit_every % 2 == 0:
                    preference = rng.randrange(len(defaults))
                    ops.append(self.population.edit(self.writer, preference))
                else:
                    ops.append(
                        self.population.edit(
                            self.writer, preference, defaults[preference].score
                        )
                    )
        return ops


class PagingEdits(InProcess):
    """Hydration-bound: 50k cold users behind a 256-account budget, WAL-backed."""

    name = "paging_edits"
    num_rows = 300
    num_users = 50_000
    hydrated_budget = 256
    user_zipf = 0.9
    ops_per_round = 400
    edit_every = 5
    determinism_ops = 100
    round_seconds = 1.7

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._user_cdf = np.cumsum(zipf_probabilities(self.num_users, self.user_zipf))

    def user(self, rank: int) -> str:
        # A fixed permutation decorrelates popularity from registration
        # order (and so from persona).
        return f"u{(rank * 48271) % self.num_users}"

    def setup(self, workdir) -> PersonalizationService:
        store = JsonlProfileStore(tempfile.mkdtemp(dir=workdir, prefix="wal-"))
        service = PersonalizationService(
            self.environment,
            generate_poi_relation(self.num_rows, seed=DATA_SEED),
            store=store,
            hydrated_budget=self.hydrated_budget,
        )
        service.register_many(
            (user, self.population.persona(user))
            for user in (f"u{index}" for index in range(self.num_users))
        )
        # Fill the hydrated tier with the most popular users.
        for rank in reversed(range(self.hydrated_budget)):
            service.query(self.user(rank), self.queries[0])
        return service

    def close(self, service: PersonalizationService) -> None:
        root = service.store.root
        service.close()
        shutil.rmtree(root, ignore_errors=True)

    def _make_round(self, index: int) -> list:
        rng = self.rng("round", index)
        # Systematic sampling over the users' Zipf law, like the states,
        # except that the offset moves on every round: the popular users
        # come back each round, the tail is new, as in a large population
        # (with the same users every round the hydrated tier would hold
        # most of them). The seed shuffles the order.
        offset = (0.5 + index * GOLDEN) % 1.0
        points = (offset + np.arange(self.ops_per_round)) / self.ops_per_round
        ranks = np.searchsorted(self._user_cdf, points, side="right")
        ranks = np.minimum(ranks, self.num_users - 1).tolist()
        rng.shuffle(ranks)
        states = self.state_sequence(rng, self.ops_per_round, 0.5)
        ops: list = []
        for position, rank in enumerate(ranks):
            user = self.user(rank)
            if position % self.edit_every == self.edit_every - 1:
                preference = rng.randrange(len(self.population.defaults(user)))
                ops.append(self.population.edit(user, preference))
            else:
                ops.append(Query(user, states[position]))
        return ops

    def counters(self, service: PersonalizationService) -> dict[str, int]:
        counters = super().counters(service)
        counters["wal_bytes"] = layers.tree_bytes(service.store.root)
        return counters


class ShardedFanout(Workload):
    """Cross-process: a 2-worker :class:`ShardRouter` with a WAL, batches of 8."""

    name = "sharded_fanout"
    num_rows = 1_500
    num_users = 64
    num_workers = 2
    batch_size = 8
    permutations_per_round = 4
    determinism_ops = 34
    round_seconds = 1.25

    def users(self) -> list[str]:
        return [f"u{index}" for index in range(self.num_users)]

    def setup(self, workdir) -> ShardRouter:
        router = ShardRouter(
            self.num_workers,
            wal_root=tempfile.mkdtemp(dir=workdir, prefix="wal-"),
            num_rows=self.num_rows,
            data_seed=DATA_SEED,
            cache_capacity=64,
        )
        router.start()
        users = self.users()
        try:
            router.register_many((user, self.population.persona(user)) for user in users)
            for start in range(0, len(users), self.batch_size):
                router.query_many(
                    [(user, self.pool[0], TOP_K) for user in users[start : start + self.batch_size]]
                )
        except BaseException:
            self.close(router)
            raise
        return router

    def close(self, router: ShardRouter) -> None:
        root = router.store.root
        try:
            router.close()
        finally:
            # close() joins or terminates its workers; reap anything left.
            layers.reap_children()
            shutil.rmtree(root, ignore_errors=True)

    def pids(self, router: ShardRouter) -> list[int]:
        return [child.pid for child in multiprocessing.active_children()]

    def _make_round(self, index: int) -> list:
        rng = self.rng("round", index)
        users = self.users()
        states = {
            user: self.state_sequence(
                rng, self.permutations_per_round, (slot + 0.5) / len(users)
            )
            for slot, user in enumerate(users)
        }
        slots: list[Query] = []
        for _ in range(self.permutations_per_round):
            order = users[:]
            rng.shuffle(order)
            slots.extend(Query(user, states[user].pop()) for user in order)
        ops: list = [
            Batch(tuple(slots[start : start + self.batch_size]))
            for start in range(0, len(slots), self.batch_size)
        ]
        # An edit in the first half of the round, its restore in the second.
        user = rng.choice(users)
        preference = rng.randrange(len(self.population.defaults(user)))
        default = self.population.defaults(user)[preference].score
        edit = self.population.edit(user, preference)
        restore = self.population.edit(user, preference, default)
        ops.insert(rng.randrange(len(ops) // 2, len(ops)), restore)
        ops.insert(rng.randrange(len(ops) // 2), edit)
        return ops

    def execute(self, router: ShardRouter, op):
        if isinstance(op, Edit):
            return router.apply_edit(
                {
                    "op": "update",
                    "user": op.user,
                    "preference": preference_to_dict(op.preference),
                    "score": op.score,
                }
            )
        return router.query_many(
            [(query.user, self.pool[query.state], TOP_K) for query in op.queries]
        )

    def outcome(self, op, raw) -> tuple[list, int, int, int]:
        if isinstance(op, Edit):
            return [("edit", round(op.score, 12)) if raw.get("ok") else None], 0, 0, 0
        digests, rows = [], 0
        for reply in raw:
            if reply.get("ok"):
                digests.append(digest(reply["ranking"]))
                rows += len(reply["ranking"])
            else:
                digests.append(None)
        return digests, rows, 0, 0

    def counters(self, router: ShardRouter) -> dict[str, int]:
        return {"wal_bytes": layers.tree_bytes(router.store.root)}

    def retries(self, router: ShardRouter) -> int:
        return int(router.stats()["retried_requests"])


WORKLOADS = {
    workload.name: workload for workload in (ScoreHeavy, PagingEdits, ShardedFanout)
}
