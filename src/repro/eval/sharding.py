"""Sharded-serving driver: multi-process QPS scaling + rebalance audit.

The questions the sharding layer must answer with numbers:

* **Does throughput scale with worker processes?**
  :func:`run_shard_bench` replays one deterministic request set through
  a :class:`~repro.sharding.router.ShardRouter` at several worker
  counts and reports queries/second per count plus the speedup over a
  *single-process, in-process* baseline (the plain
  :class:`PersonalizationService`, same dataset, same simulated
  ``io_wait_ms`` per request). Each request models the serving-shaped
  unit of work of :mod:`repro.eval.serving`: a GIL-releasing I/O wait
  followed by the CPU-bound contextual query. Worker processes overlap
  the waits even on one core; on a multi-core host the CPU portion
  parallelises too.
* **Is sharding invisible to results?** Every ranked result from every
  worker count is compared against the baseline's rankings
  (``identical_output``); sharding must change *where* a query runs,
  never *what* it returns.
* **Does a crash stay invisible?** The chaos round installs a seeded
  ``worker.kill`` fault plan, re-runs the request set at the highest
  worker count, and verifies that after the mid-batch kill and the
  WAL-backed rebalance every request was answered exactly once with
  rankings still identical to the baseline
  (``identical_after_rebalance``).

The CLI front-end is ``python -m repro shard-bench``; the regression
benchmark (``benchmarks/bench_sharded.py``) serialises the report to
``BENCH_sharded.json``.
"""

from __future__ import annotations

import tempfile
import time
from collections.abc import Sequence
from pathlib import Path

from repro.context.state import ContextState
from repro.eval.harness import (
    TOP_K,
    build_service,
    population,
    replies_match,
    request_stream,
    state_pool,
)
from repro.eval.reporting import format_table
from repro.faults.registry import FaultSpec, fault_plan
from repro.query.contextual_query import ContextualQuery
from repro.sharding.router import ShardRouter
from repro.sharding.worker import ranking_pairs
from repro.workloads.users import study_environment

__all__ = ["format_report", "run_shard_bench"]


def _single_process_reference(
    num_users: int,
    num_rows: int,
    cache_capacity: int | None,
    io_wait: float,
    requests: list[tuple[str, ContextState]],
    seed: int,
) -> tuple[list[list[list[object]]], float]:
    """Run the request set on the plain in-process service.

    Returns the reference rankings (wire format, so they compare
    exactly against worker replies) and the timed seconds of the
    *second* pass - the first pass warms the per-user caches, matching
    the warmed runs the router counts are measured on.
    """
    service = build_service(
        num_users, num_rows, seed, cache_capacity=cache_capacity
    )
    queries = [
        (user_id, ContextualQuery.at_state(state, top_k=TOP_K))
        for user_id, state in requests
    ]
    for user_id, query in queries:  # warm-up pass (untimed)
        service.query(user_id, query)
    started = time.perf_counter()
    rankings = []
    for user_id, query in queries:
        if io_wait:
            time.sleep(io_wait)
        rankings.append(ranking_pairs(service.query(user_id, query)))
    elapsed = time.perf_counter() - started
    service.close()
    return rankings, elapsed


def run_shard_bench(
    num_users: int = 8,
    num_rows: int = 1500,
    num_queries: int = 160,
    worker_counts: Sequence[int] = (1, 2, 4),
    io_wait_ms: float = 15.0,
    worker_threads: int = 2,
    cache_capacity: int | None = 64,
    locality: float = 0.5,
    zipf_a: float = 1.1,
    seed: int = 17,
    chaos: bool = True,
    wal_root: str | Path | None = None,
) -> dict[str, object]:
    """Measure sharded throughput scaling and verify result identity.

    Builds the deterministic POI workload of :mod:`repro.eval.harness`
    (popularity skew ``zipf_a``, temporal ``locality``), then:

    1. runs the request set on a plain single-process service (warmed,
       with the same per-request ``io_wait_ms``) to get the baseline
       QPS and the reference rankings;
    2. for each entry of ``worker_counts``, starts a
       :class:`ShardRouter` over a fresh WAL directory, registers the
       population through it, replays the identical set once to warm
       the workers and once timed, and checks every ranking against
       the reference;
    3. with ``chaos`` on (and at least two workers at the top count),
       re-runs the set at the highest count under a seeded
       ``worker.kill`` plan: one worker is really killed mid-dispatch,
       the router rebalances from the WAL, and the round must end with
       every request answered exactly once, rankings unchanged.

    Returns a JSON-ready report; see ``BENCH_sharded.json``.
    """
    worker_counts = sorted({int(count) for count in worker_counts})
    if not worker_counts or worker_counts[0] < 1:
        raise ValueError("worker_counts must be positive integers")
    io_wait = max(0.0, io_wait_ms) / 1000.0

    pool = state_pool(study_environment())
    requests = request_stream(pool, num_users, num_queries, seed, zipf_a, locality)

    reference, baseline_seconds = _single_process_reference(
        num_users, num_rows, cache_capacity, io_wait, requests, seed
    )
    baseline_qps = (
        len(requests) / baseline_seconds if baseline_seconds > 0 else float("inf")
    )

    series: dict[str, dict[str, object]] = {}
    identical = True
    chaos_report: dict[str, object] = {"enabled": False}
    top_count = worker_counts[-1]
    batch = [(user_id, state, TOP_K) for user_id, state in requests]

    for count in worker_counts:
        with tempfile.TemporaryDirectory(dir=wal_root) as shard_wal:
            with ShardRouter(
                count,
                wal_root=shard_wal,
                num_rows=num_rows,
                data_seed=seed,
                cache_capacity=cache_capacity,
                io_wait_ms=io_wait_ms,
                worker_threads=worker_threads,
            ) as router:
                router.register_many(population(num_users))
                router.query_many(batch)  # warm-up pass (untimed)
                started = time.perf_counter()
                replies = router.query_many(batch)
                elapsed = time.perf_counter() - started
                count_identical = replies_match(replies, reference)
                identical = identical and count_identical
                qps = len(batch) / elapsed if elapsed > 0 else float("inf")
                series[str(count)] = {
                    "seconds": elapsed,
                    "qps": qps,
                    "speedup": qps / baseline_qps if baseline_qps else 0.0,
                    "identical": count_identical,
                }
                if chaos and count == top_count and count >= 2:
                    chaos_report = _run_chaos_round(
                        router, batch, reference, seed
                    )

    top = str(top_count)
    return {
        "workload": {
            "num_users": num_users,
            "num_rows": num_rows,
            "num_queries": num_queries,
            "worker_counts": worker_counts,
            "io_wait_ms": io_wait_ms,
            "worker_threads": worker_threads,
            "cache_capacity": cache_capacity,
            "locality": locality,
            "zipf_a": zipf_a,
            "seed": seed,
            "pool_states": len(pool),
            "top_k": TOP_K,
        },
        "single_process": {
            "seconds": baseline_seconds,
            "qps": baseline_qps,
        },
        "series": series,
        "speedup_at_max": series[top]["speedup"],
        "identical_output": identical,
        "chaos": chaos_report,
    }


def _run_chaos_round(
    router: ShardRouter,
    batch: list,
    reference: list,
    seed: int,
) -> dict[str, object]:
    """Kill one worker mid-dispatch; audit the rebalanced round."""
    workers_before = list(router.workers)
    deaths_before = router.worker_deaths
    with fault_plan(
        [FaultSpec(site="worker.kill", kind="error", max_fires=1)],
        seed=seed,
    ):
        replies = router.query_many(batch)
    failed = sum(1 for reply in replies if not reply["ok"])
    duplicates = sum(1 for reply in replies if reply.get("duplicate"))
    identical_after = replies_match(replies, reference)
    health = router.check_health()
    return {
        "enabled": True,
        "workers_before": workers_before,
        "workers_after": list(router.workers),
        "worker_deaths": router.worker_deaths - deaths_before,
        "rebalances": router.rebalances,
        "retried_requests": router.retried_requests,
        "answered": len(replies),
        "failed_requests": failed,
        "duplicate_replies": duplicates,
        "identical_after_rebalance": identical_after,
        "health": {
            name: {"alive": row["alive"], "breaker": row["breaker"]}
            for name, row in health.items()
        },
    }


def format_report(report: dict) -> str:
    """The :func:`run_shard_bench` report as a throughput table."""
    rows: list[list[object]] = [
        [
            f"{count} worker{'s' if int(count) != 1 else ''}",
            f"{series['qps']:.0f} q/s",
            f"{series['speedup']:.2f}x",
        ]
        for count, series in report["series"].items()
    ]
    rows.append(
        ["identical output", "yes" if report["identical_output"] else "NO", ""]
    )
    chaos = report["chaos"]
    if chaos.get("enabled"):
        rows.append(
            [
                "chaos round",
                f"{chaos['worker_deaths']} killed / "
                f"{chaos['rebalances']} rebalances / "
                f"{chaos['failed_requests']} failed",
                "identical"
                if chaos["identical_after_rebalance"]
                else "DIVERGED",
            ]
        )
    workload = report["workload"]
    return format_table(
        ["workers", "throughput", "speedup"],
        rows,
        title=(
            f"Sharded serving - {workload['num_users']} users, "
            f"{workload['num_rows']} rows, {workload['num_queries']} queries, "
            f"io_wait {workload['io_wait_ms']:.1f} ms"
        ),
    )
