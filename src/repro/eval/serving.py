"""Concurrent-serving drivers: thread scaling and correctness under churn.

Two questions the locking layer must answer with numbers, not
assertions:

* **Does read throughput scale?** :func:`run_serve_bench` replays one
  deterministic request set through the
  :class:`~repro.concurrency.ConcurrentQueryExecutor` at several
  worker counts and reports queries/second per count plus the speedup
  over one worker. Each request models a serving-shaped unit of work:
  a short I/O wait (the row-store fetch / client round-trip, simulated
  with a GIL-releasing sleep) followed by the CPU-bound contextual
  query. Under CPython's GIL only the I/O portion can overlap, so the
  measured scaling is exactly what the lock layer controls: a
  coarse-grained design would serialise the waits too and scale at
  1.0x. The ``io_wait_ms`` knob is recorded in the report; set it to 0
  to see the (GIL-bound) pure-CPU curve.
* **Is it correct under churn?** The driver re-runs the workload at
  the highest worker count while writer threads edit disjoint user
  profiles through the same service, then verifies zero failed
  requests and that every ranked result of the *quiescent* scaling
  runs is identical to the sequential baseline.

The CLI front-end is ``python -m repro serve-bench``; the regression
benchmark (``benchmarks/bench_concurrency.py``) serialises the report
to ``BENCH_concurrency.json``.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

from repro.concurrency.executor import ConcurrentQueryExecutor
from repro.concurrency.locks import Mutex
from repro.eval.harness import TOP_K, build_service, request_stream, state_pool
from repro.eval.reporting import format_table
from repro.query.contextual_query import ContextualQuery
from repro.service.personalization import PersonalizationService
from repro.sharding.worker import ranking_pairs

__all__ = ["format_report", "run_serve_bench"]


def run_serve_bench(
    num_users: int = 8,
    num_rows: int = 1500,
    num_queries: int = 160,
    thread_counts: Sequence[int] = (1, 2, 4),
    io_wait_ms: float = 6.0,
    num_writers: int = 4,
    edits_per_writer: int = 10,
    cache_capacity: int | None = 64,
    locality: float = 0.5,
    zipf_a: float = 1.1,
    seed: int = 17,
) -> dict[str, object]:
    """Measure concurrent read-query throughput and verify correctness.

    Builds a POI relation and a :class:`PersonalizationService` with
    ``num_users`` registered personas, derives a deterministic request
    set from :func:`repro.workloads.streams.query_stream` (popularity
    skew ``zipf_a``, temporal ``locality``), then:

    1. executes the set sequentially (in-thread) to warm the per-user
       caches and record the reference rankings;
    2. for each entry of ``thread_counts``, replays the identical set
       through a :class:`ConcurrentQueryExecutor` with that many
       workers, timing the batch and checking every ranking against
       the reference;
    3. re-runs at the highest count while ``num_writers`` threads
       apply ``edits_per_writer`` profile edits each (to their own
       users) through the same service - the churn phase must finish
       with zero failed requests and every writer's modification count
       intact.

    Returns a JSON-ready report; see ``BENCH_concurrency.json``.
    """
    thread_counts = sorted({int(count) for count in thread_counts})
    if not thread_counts or thread_counts[0] < 1:
        raise ValueError("thread_counts must be positive integers")
    io_wait = max(0.0, io_wait_ms) / 1000.0

    service = build_service(
        num_users, num_rows, seed, cache_capacity=cache_capacity
    )
    pool = state_pool(service.environment)
    requests = [
        (user_id, ContextualQuery.at_state(state, top_k=TOP_K))
        for user_id, state in request_stream(
            pool, num_users, num_queries, seed, zipf_a, locality
        )
    ]

    # 1. Sequential warm-up + reference rankings.
    warm_started = time.perf_counter()
    reference = [
        ranking_pairs(service.query(user_id, query))
        for user_id, query in requests
    ]
    warm_seconds = time.perf_counter() - warm_started

    def request_callable(user_id: str, query: ContextualQuery):
        def call():
            if io_wait:
                time.sleep(io_wait)
            return service.query(user_id, query)

        return call

    # 2. Quiescent scaling runs (no writers) over the warmed caches.
    series: dict[str, dict[str, float]] = {}
    identical = True
    base_qps: float | None = None
    for count in thread_counts:
        callables = [request_callable(*request) for request in requests]
        with ConcurrentQueryExecutor(max_workers=count) as executor:
            started = time.perf_counter()
            outcomes = executor.run(callables)
            elapsed = time.perf_counter() - started
        for outcome, expected in zip(outcomes, reference):
            if not outcome.ok or ranking_pairs(outcome.result) != expected:
                identical = False
        qps = len(requests) / elapsed if elapsed > 0 else float("inf")
        if base_qps is None:
            base_qps = qps
        series[str(count)] = {
            "seconds": elapsed,
            "qps": qps,
            "speedup": qps / base_qps if base_qps else 0.0,
        }

    # 3. Churn phase: readers at max width, writers editing profiles.
    churn = _run_churn_phase(
        service,
        requests,
        request_callable,
        max(thread_counts),
        num_writers,
        edits_per_writer,
    )

    top = str(thread_counts[-1])
    return {
        "workload": {
            "num_users": num_users,
            "num_rows": num_rows,
            "num_queries": num_queries,
            "thread_counts": thread_counts,
            "io_wait_ms": io_wait_ms,
            "cache_capacity": cache_capacity,
            "locality": locality,
            "zipf_a": zipf_a,
            "seed": seed,
            "pool_states": len(pool),
        },
        "warm_seconds": warm_seconds,
        "series": series,
        "speedup_at_max": series[top]["speedup"],
        "identical_output": identical,
        "churn": churn,
    }


def _run_churn_phase(
    service: PersonalizationService,
    requests,
    request_callable,
    max_workers: int,
    num_writers: int,
    edits_per_writer: int,
) -> dict[str, object]:
    """Readers and writers interleaved over one shared service."""
    errors: list[str] = []
    errors_lock = Mutex(name="serving.errors")
    modifications_before = {
        row["user_id"]: row["modifications"] for row in service.statistics()
    }

    def writer(user_id: str) -> None:
        try:
            for _ in range(edits_per_writer):
                repository = service.account(user_id).repository
                preference = next(iter(repository))
                service.update_preference(
                    user_id,
                    preference,
                    round(min(0.95, max(0.05, preference.score + 0.01)), 2),
                )
        except Exception as error:  # pragma: no cover - failure reporting
            with errors_lock:
                errors.append(f"writer {user_id}: {error!r}")

    writer_ids = [
        row["user_id"] for row in service.statistics()[: max(0, num_writers)]
    ]
    threads = [
        threading.Thread(target=writer, args=(user_id,), daemon=True)
        for user_id in writer_ids
    ]
    callables = [request_callable(*request) for request in requests]
    with ConcurrentQueryExecutor(max_workers=max_workers) as executor:
        for thread in threads:
            thread.start()
        outcomes = executor.run(callables)
        for thread in threads:
            thread.join()
    failed = [outcome for outcome in outcomes if not outcome.ok]
    modifications_after = {
        row["user_id"]: row["modifications"] for row in service.statistics()
    }
    lost_updates = sum(
        1
        for user_id in writer_ids
        if modifications_after[user_id] - modifications_before[user_id]
        != edits_per_writer
    )
    return {
        "num_writers": len(writer_ids),
        "edits_per_writer": edits_per_writer,
        "queries": len(outcomes),
        "failed_requests": len(failed) + len(errors),
        "lost_updates": lost_updates,
        "errors": errors[:5],
    }


def format_report(report: dict) -> str:
    """The :func:`run_serve_bench` report as a throughput table."""
    rows: list[list[object]] = [
        [
            f"{count} thread{'s' if int(count) != 1 else ''}",
            f"{series['qps']:.0f} q/s",
            f"{series['speedup']:.2f}x",
        ]
        for count, series in report["series"].items()
    ]
    churn = report["churn"]
    rows.extend(
        [
            ["identical output", "yes" if report["identical_output"] else "NO"],
            [
                "churn phase",
                f"{churn['queries']} queries vs {churn['num_writers']} writers",
                f"{churn['failed_requests']} failed / {churn['lost_updates']} lost",
            ],
        ]
    )
    workload = report["workload"]
    return format_table(
        ["threads", "throughput", "speedup"],
        rows,
        title=(
            f"Concurrent serving - {workload['num_users']} users, "
            f"{workload['num_rows']} rows, {workload['num_queries']} queries, "
            f"io_wait {workload['io_wait_ms']:.1f} ms"
        ),
    )
