"""Concurrent serving: read-query throughput scaling + churn safety.

Replays one deterministic request set through the
``ConcurrentQueryExecutor`` at 1/2/4 workers over a shared
``PersonalizationService`` (see ``repro.eval.serving``). Each request
is a short GIL-releasing I/O wait followed by the CPU-bound contextual
query, so the measured scaling is exactly what the lock layer controls.

Checks: every concurrent ranking is identical to the sequential
baseline, at least 2x throughput at 4 workers vs. 1, and the churn
phase (readers at full width vs. writer threads editing profiles
through the same service) finishes with zero failed requests and zero
lost updates. The full-mode report is written to
``BENCH_concurrency.json`` at the repository root.

Under ``--smoke`` the workload shrinks to CI scale: the correctness
checks still run, but the throughput assertion is skipped (CI runners
have unpredictable core counts) and the baseline is left untouched.
"""

from pathlib import Path

from repro.eval import run_serve_bench
from repro.eval.serving import format_report

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_concurrency.json"


def test_concurrent_serving(benchmark, once, smoke, record_baseline):
    if smoke:
        report = once(
            benchmark,
            run_serve_bench,
            num_users=4,
            num_rows=400,
            num_queries=40,
            thread_counts=(1, 2, 4),
            io_wait_ms=2.0,
            num_writers=2,
            edits_per_writer=4,
        )
    else:
        report = once(benchmark, run_serve_bench)
    print()
    print(format_report(report))
    churn = report["churn"]
    assert report["identical_output"], "concurrent ranking diverged from sequential"
    assert churn["failed_requests"] == 0, churn["errors"]
    assert churn["lost_updates"] == 0, "writer edits were lost under churn"
    if not smoke:
        assert report["speedup_at_max"] >= 2.0, (
            f"throughput at {report['workload']['thread_counts'][-1]} workers "
            f"only {report['speedup_at_max']:.2f}x of 1 worker"
        )
    record_baseline(BASELINE_PATH, report)
