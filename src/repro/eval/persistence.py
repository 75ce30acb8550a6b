"""Persistence drivers: crash recovery and million-user paging.

Two experiment drivers back the ``repro persistence`` CLI subcommand
and ``benchmarks/bench_persistence.py``:

* :func:`run_kill_restart` - the durability experiment. Two services
  replay an identical seeded workload of profile edits and queries: a
  **reference** service that never crashes (plain in-memory) and a
  **durable** service backed by a :class:`~repro.storage.ProfileStore`
  that is killed and restarted after every round (the live object is
  dropped without shutdown and, for the flat-file backend, a torn
  partial record is appended to the WAL to simulate a write cut off
  mid-line). Some rounds run under seeded ``storage.append`` error
  faults (:func:`kill_restart_schedule`): an edit whose WAL append
  fails must be rolled back atomically, so the reference service skips
  exactly those edits. After every restart the recovered service's
  rankings for **every user at every pool state** must equal the
  reference's - byte-identical recovery, the acceptance criterion.
* :func:`run_paging_bench` - the scale experiment. ``num_users``
  (a million and up) are bulk-registered **cold** through the WAL,
  then a zipf-skewed query workload whose working set far exceeds
  ``hydrated_budget`` drives transparent hydration and LRU eviction;
  the peak hydrated-account count is sampled after every query and
  must never exceed the budget. The run ends with a full snapshot and
  a timed cold recovery that must find every registered user.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import numpy as np

from repro.db.poi import generate_poi_relation
from repro.eval.harness import (
    STRESS_POOL,
    TOP_K,
    build_service,
    scratch_root,
    state_pool,
)
from repro.eval.reporting import format_table
from repro.exceptions import ReproError
from repro.faults.registry import FaultSpec, fault_plan
from repro.query.contextual_query import ContextualQuery
from repro.service.personalization import PersonalizationService
from repro.sharding.worker import ranking_pairs
from repro.storage import JsonlProfileStore, ProfileStore, SQLiteProfileStore
from repro.workloads.users import all_personas, study_environment
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "format_report",
    "kill_restart_schedule",
    "run_kill_restart",
    "run_paging_bench",
]


def _open_store(backend: str, root: Path) -> ProfileStore:
    if backend == "jsonl":
        return JsonlProfileStore(root / "store")
    if backend == "sqlite":
        return SQLiteProfileStore(root / "store.db")
    raise ReproError(f"unknown storage backend {backend!r}")


def kill_restart_schedule(
    seed: int = 29, rounds: int = 4
) -> list[dict[str, object]]:
    """A seeded kill/restart schedule: one plan dict per round.

    Each round's plan fixes whether the durable service is **killed**
    after the round (always, except a seeded ~1-in-4 clean round),
    whether a **snapshot** (with WAL compaction) is taken before the
    kill, and the round's ``storage.append`` error-fault probability
    (0 on roughly half the rounds). Like
    :func:`~repro.eval.chaos.chaos_schedule`, the schedule is a pure
    function of ``seed`` so a failing run can be replayed exactly.
    """
    rng = random.Random(f"kill-restart:{seed}")
    schedule = []
    for _ in range(rounds):
        schedule.append(
            {
                "kill": rng.random() < 0.75,
                "snapshot": rng.random() < 0.5,
                "append_fault_probability": (
                    round(rng.uniform(0.15, 0.45), 3)
                    if rng.random() < 0.5
                    else 0.0
                ),
            }
        )
    if not any(plan["kill"] for plan in schedule):
        schedule[-1]["kill"] = True  # the experiment must crash at least once
    return schedule


def run_kill_restart(
    num_users: int = 8,
    num_rows: int = 300,
    rounds: int = 4,
    edits_per_round: int = 6,
    queries_per_round: int = 24,
    hydrated_budget: int | None = 4,
    backend: str = "jsonl",
    seed: int = 29,
    root: str | Path | None = None,
    torn_writes: bool = True,
) -> dict[str, object]:
    """Kill/restart chaos: recovered rankings must equal a run that
    never crashed.

    Returns a report whose headline fields are ``recovery_rate`` (the
    fraction of registered profiles present after every restart, 1.0
    required), ``ranking_mismatches`` (recovered vs reference ranking
    fingerprints, 0 required) and ``identical_after_recovery``.
    """
    with scratch_root(root, "repro-killrestart-") as root:
        environment = study_environment()
        user_ids = [f"user{index}" for index in range(num_users)]

        def durable_service(
            store: ProfileStore, registered: int = 0
        ) -> PersonalizationService:
            # Fresh relation per incarnation (same seed = same rows, same
            # rankings); a crashed service's cache listeners die with it.
            return build_service(
                registered,
                num_rows,
                seed,
                environment,
                cache_capacity=8,
                store=store,
                hydrated_budget=hydrated_budget,
            )

        reference = build_service(
            num_users, num_rows, seed, environment, cache_capacity=8
        )
        store = _open_store(backend, root)
        durable = durable_service(store, num_users)

        pool = [
            ContextualQuery.at_state(state, top_k=TOP_K)
            for state in state_pool(environment, STRESS_POOL)
        ]
        rng = random.Random(f"kill-restart-workload:{seed}")
        schedule = kill_restart_schedule(seed=seed, rounds=rounds)

        edits_applied = 0
        edits_rejected = 0
        ranking_checks = 0
        ranking_mismatches = 0
        restarts = 0
        torn_tails_repaired = 0
        round_reports: list[dict[str, object]] = []

        for round_index, plan in enumerate(schedule):
            probability = float(plan["append_fault_probability"])
            specs = (
                [FaultSpec(site="storage.append", kind="error",
                           probability=probability)]
                if probability > 0.0
                else []
            )
            applied_this_round = 0
            rejected_this_round = 0
            with fault_plan(specs, seed=seed * 100 + round_index):
                for _ in range(edits_per_round):
                    user_id = rng.choice(user_ids)
                    action = rng.choice(("update", "remove_add", "import"))
                    # Each step runs on the durable service first: if its
                    # WAL append fails, that step was rolled back
                    # atomically, so the reference skips exactly that step
                    # (fail-atomicity is part of what recovery equality
                    # then proves). Steps are derived from the reference's
                    # profile - identical to the durable's by induction -
                    # so both services stay in lockstep.
                    for step in _edit_steps(reference, user_id, action):
                        try:
                            step(durable)
                        except ReproError:
                            rejected_this_round += 1
                            break
                        step(reference)
                        applied_this_round += 1
                for _ in range(queries_per_round):
                    user_id = rng.choice(user_ids)
                    query = rng.choice(pool)
                    ranking_checks += 1
                    if ranking_pairs(
                        durable.query(user_id, query)
                    ) != ranking_pairs(reference.query(user_id, query)):
                        ranking_mismatches += 1
            edits_applied += applied_this_round
            edits_rejected += rejected_this_round

            if plan["snapshot"]:
                durable.snapshot(compact=True)
            row: dict[str, object] = {
                "round": round_index,
                "plan": plan,
                "edits_applied": applied_this_round,
                "edits_rejected": rejected_this_round,
            }
            if plan["kill"]:
                # Crash: drop the live service without any shutdown, then
                # bring a new incarnation up from disk alone.
                durable = None
                store.flush()  # the OS-level state a real crash leaves
                if torn_writes and backend == "jsonl":
                    with open(root / "store" / "wal.jsonl", "a",
                              encoding="utf-8") as handle:
                        handle.write('{"lsn": 999999, "crc": 1, "data": {"op": "u')
                store = _open_store(backend, root)
                if getattr(store, "torn_bytes", 0):
                    torn_tails_repaired += 1
                durable = durable_service(store)
                restarts += 1
                recovered = len(durable)
                expected = len(reference)
                mismatch_before = ranking_mismatches
                for user_id in user_ids:
                    for query in pool:
                        ranking_checks += 1
                        if ranking_pairs(
                            durable.query(user_id, query)
                        ) != ranking_pairs(reference.query(user_id, query)):
                            ranking_mismatches += 1
                row.update(
                    recovered_profiles=recovered,
                    expected_profiles=expected,
                    post_recovery_mismatches=ranking_mismatches - mismatch_before,
                    replayed_records=durable.last_recovery.replayed,
                    snapshot_lsn=durable.last_recovery.snapshot_lsn,
                )
            round_reports.append(row)

        recovered_totals = [
            (entry["recovered_profiles"], entry["expected_profiles"])
            for entry in round_reports
            if "recovered_profiles" in entry
        ]
        recovery_rate = (
            min(rec / exp for rec, exp in recovered_totals)
            if recovered_totals
            else 1.0
        )
        durable.close()
        return {
            "workload": {
                "num_users": num_users,
                "num_rows": num_rows,
                "rounds": rounds,
                "edits_per_round": edits_per_round,
                "queries_per_round": queries_per_round,
                "hydrated_budget": hydrated_budget,
                "backend": backend,
                "seed": seed,
                "torn_writes": torn_writes,
            },
            "rounds": round_reports,
            "restarts": restarts,
            "torn_tails_repaired": torn_tails_repaired,
            "edits_applied": edits_applied,
            "edits_rejected": edits_rejected,
            "recovery_rate": recovery_rate,
            "ranking_checks": ranking_checks,
            "ranking_mismatches": ranking_mismatches,
            "identical_after_recovery": ranking_mismatches == 0
            and recovery_rate == 1.0,
        }


def _edit_steps(
    reference: PersonalizationService, user_id: str, action: str
) -> list:
    """The action as single-mutation closures, derived from the
    reference's current profile (identical to the durable's by
    induction) so the same steps apply verbatim to either service."""
    repository = reference.account(user_id).repository
    preferences = sorted(
        repository, key=lambda p: (p.clause.attribute, str(p.clause.value), p.score)
    )
    preference = preferences[len(preferences) // 2]
    if action == "update":
        bumped = round(0.05 + (preference.score * 100 + 13) % 90 / 100, 2)
        return [
            lambda service: service.update_preference(user_id, preference, bumped)
        ]
    if action == "remove_add":
        return [
            lambda service: service.delete_preference(user_id, preference),
            lambda service: service.add_preference(user_id, preference),
        ]
    # import: round-trip the profile through the JSON codec.
    payload = reference.export_profile(user_id)
    return [lambda service: service.import_profile(user_id, payload)]


def run_paging_bench(
    num_users: int = 1_000_000,
    hydrated_budget: int = 256,
    num_queries: int = 2_000,
    zipf_a: float = 1.1,
    num_rows: int = 200,
    backend: str = "jsonl",
    seed: int = 31,
    root: str | Path | None = None,
    register_batch: int = 20_000,
    measure_recovery: bool = True,
    edit_every: int = 10,
) -> dict[str, object]:
    """Bulk-register ``num_users`` cold, serve a zipf workload under an
    LRU hydration budget, then snapshot and time a cold recovery.

    Every ``edit_every``-th request also updates a preference of the
    queried user, so the working set contains *modified* profiles whose
    overrides must survive eviction and rehydration (and land in the
    WAL/snapshot). The acceptance numbers are ``paging.peak_hydrated``
    (must stay within ``hydrated_budget``) and ``recovery.complete``
    (every registered user present after recovery).
    """
    with scratch_root(root, "repro-paging-") as root:
        environment = study_environment()
        relation = generate_poi_relation(num_rows, seed=seed)
        personas = all_personas()
        store = _open_store(backend, root)
        service = PersonalizationService(
            environment,
            relation,
            cache_capacity=8,
            store=store,
            hydrated_budget=hydrated_budget,
        )

        start = time.perf_counter()
        registered = service.register_many(
            (
                (f"u{index:07d}", personas[index % len(personas)])
                for index in range(num_users)
            ),
            batch_size=register_batch,
        )
        registration_seconds = time.perf_counter() - start

        pool = [
            ContextualQuery.at_state(state, top_k=5)
            for state in state_pool(environment, STRESS_POOL)
        ]
        sampler = ZipfSampler(num_users, zipf_a, np.random.default_rng(seed))
        ranks = sampler.sample_many(num_queries)
        # A random per-user offset decorrelates zipf rank from registration
        # order, so the hot set is spread across the id space.
        shuffle = random.Random(f"paging:{seed}")
        offset = shuffle.randrange(num_users)

        peak_hydrated = 0
        edits = 0
        start = time.perf_counter()
        for index, rank in enumerate(ranks):
            user_id = f"u{(int(rank) + offset) % num_users:07d}"
            service.query(user_id, pool[index % len(pool)])
            if edit_every and index % edit_every == 0:
                repository = service.account(user_id).repository
                preference = next(iter(repository))
                service.update_preference(
                    user_id,
                    preference,
                    round(0.05 + (preference.score * 100 + 17) % 90 / 100, 2),
                )
                edits += 1
            stats = service.paging_statistics()
            peak_hydrated = max(peak_hydrated, int(stats["hydrated"]))
        query_seconds = time.perf_counter() - start
        paging = service.paging_statistics()

        start = time.perf_counter()
        covered = service.snapshot(compact=True)
        snapshot_seconds = time.perf_counter() - start

        report: dict[str, object] = {
            "workload": {
                "num_users": num_users,
                "hydrated_budget": hydrated_budget,
                "num_queries": num_queries,
                "zipf_a": zipf_a,
                "num_rows": num_rows,
                "backend": backend,
                "seed": seed,
            },
            "registration": {
                "users": registered,
                "seconds": registration_seconds,
                "users_per_second": (
                    registered / registration_seconds
                    if registration_seconds
                    else 0.0
                ),
            },
            "queries": {
                "count": num_queries,
                "seconds": query_seconds,
                "qps": num_queries / query_seconds if query_seconds else 0.0,
                "unique_users_touched": int(paging["hydrations"]),
                "edits": edits,
            },
            "paging": {
                "peak_hydrated": peak_hydrated,
                "hydrated_budget": hydrated_budget,
                "within_budget": peak_hydrated <= hydrated_budget,
                "hydrations": paging["hydrations"],
                "evictions": paging["evictions"],
                "final_hydrated": paging["hydrated"],
                "overrides": paging["overrides"],
            },
            "snapshot": {"seconds": snapshot_seconds, "covered_lsn": covered},
        }

        if measure_recovery:
            service.close()
            service = None
            store = _open_store(backend, root)
            start = time.perf_counter()
            recovered = PersonalizationService(
                environment,
                relation,
                cache_capacity=8,
                store=store,
                hydrated_budget=hydrated_budget,
            )
            recovery_seconds = time.perf_counter() - start
            state = recovered.last_recovery
            report["recovery"] = {
                "seconds": recovery_seconds,
                "users": state.users,
                "overrides": len(state.overrides),
                "replayed": state.replayed,
                "snapshot_lsn": state.snapshot_lsn,
                "torn_tail": state.torn_tail,
                "complete": state.users == num_users,
            }
            recovered.close()
        else:
            service.close()
        return report


def format_report(
    kill_restart: dict[str, dict], paging: dict | None = None
) -> str:
    """Kill/restart reports keyed by backend, and an optional
    :func:`run_paging_bench` report, as one table."""
    rows: list[list[object]] = []
    for backend, kill in kill_restart.items():
        rows += [
            [f"{backend}: {label}", value]
            for label, value in (
                ("restarts", kill["restarts"]),
                ("torn tails repaired", kill["torn_tails_repaired"]),
                ("edits applied / rejected",
                 f"{kill['edits_applied']} / {kill['edits_rejected']}"),
                ("recovery rate", f"{kill['recovery_rate']:.2%}"),
                ("ranking audit",
                 f"{kill['ranking_mismatches']} mismatches / "
                 f"{kill['ranking_checks']} checked"),
                ("identical after recovery",
                 "yes" if kill["identical_after_recovery"] else "NO"),
            )
        ]
    if paging is not None:
        registration = paging["registration"]
        queries = paging["queries"]
        pages = paging["paging"]
        rows += [
            ["registered users", registration["users"]],
            ["registration", f"{registration['seconds']:.1f} s "
                             f"({registration['users_per_second']:.0f} users/s)"],
            ["queries", f"{queries['count']} ({queries['qps']:.0f} q/s)"],
            ["profiles edited", queries["edits"]],
            ["peak hydrated / budget",
             f"{pages['peak_hydrated']} / {pages['hydrated_budget']}"],
            ["hydrations / evictions",
             f"{pages['hydrations']} / {pages['evictions']}"],
            ["snapshot", f"{paging['snapshot']['seconds']:.1f} s "
                         f"(lsn {paging['snapshot']['covered_lsn']})"],
        ]
        recovery = paging.get("recovery")
        if recovery is not None:
            rows += [
                ["cold recovery",
                 f"{recovery['seconds']:.1f} s, {recovery['users']} users, "
                 f"{recovery['overrides']} overrides"],
                ["recovery complete", "yes" if recovery["complete"] else "NO"],
            ]
    if kill_restart:
        workload = next(iter(kill_restart.values()))["workload"]
        title = (
            f"Persistence run - {workload['rounds']} rounds, "
            f"{'/'.join(kill_restart)} backend, seed {workload['seed']}, "
            f"{workload['num_users']} users"
        )
    else:
        workload = paging["workload"]
        title = (
            f"Persistence run - {workload['num_users']} paged users, "
            f"{workload['backend']} backend, seed {workload['seed']}"
        )
    return format_table(["metric", "value"], rows, title=title)
