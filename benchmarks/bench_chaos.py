"""Availability and latency under injected faults (the chaos run).

Replays the seeded chaos workload (``repro.eval.chaos.run_chaos``) with
and without the resilience layer and asserts the PR's acceptance bar:
the resilient run completes >= 99% of read requests at *some*
degradation level with a clean correctness audit, the same schedule
demonstrably fails without the layer, and the healthy-path cost of the
hooks + ladder stays under 5% (paired-ratio methodology, as in
``bench_obs_overhead.py``). Measured numbers are written to
``BENCH_chaos.json`` at the repository root (full runs only).
"""

from pathlib import Path

from repro.eval import run_chaos, run_chaos_overhead
from repro.eval.chaos import format_report

CHAOS_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"


def test_chaos_availability(benchmark, once, smoke, record_baseline):
    kwargs = (
        dict(num_users=4, num_rows=200, rounds=3, queries_per_round=15,
             edits_per_round=3, concurrent_batch=8)
        if smoke
        else dict(num_users=6, num_rows=400, rounds=6, queries_per_round=40,
                  edits_per_round=4, concurrent_batch=16)
    )
    report = once(benchmark, run_chaos, seed=23, **kwargs)
    overhead = run_chaos_overhead(
        num_rows=600 if smoke else 1500,
        num_queries=24 if smoke else 40,
        repeats=5 if smoke else 9,
    )
    report["overhead"] = overhead
    resilient = report["resilient"]
    print()
    print(format_report(report))

    assert resilient["correctness"]["mismatches"] == 0, (
        "a degraded answer did not match its fault-free recomputation"
    )
    assert resilient["availability"] >= 0.99, (
        f"resilient availability {resilient['availability']:.2%} < 99%"
    )
    assert report["baseline_demonstrably_fails"], (
        "the fault schedule did not make the unprotected baseline fail; "
        "the comparison proves nothing - raise the fault probabilities"
    )
    assert overhead["identical_output"], (
        "resilience layer changed the healthy-path rankings"
    )
    if not smoke:
        assert overhead["overhead_pct"] < 5.0, (
            f"resilience layer costs {overhead['overhead_pct']:.2f}% > 5% "
            "on the healthy path"
        )
    record_baseline(CHAOS_REPORT_PATH, report)
