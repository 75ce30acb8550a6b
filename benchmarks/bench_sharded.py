"""Sharded serving: multi-process QPS scaling + rebalance audit.

Replays one deterministic request set through a ``ShardRouter`` at
1/2/4 worker processes (see ``repro.eval.sharding``) and compares
every ranking against a single-process in-process twin. The chaos
round then really kills one worker mid-dispatch (seeded
``worker.kill`` fault plan) and verifies the WAL-backed rebalance
answers every request exactly once with unchanged rankings.

Checks: rankings identical at every worker count, at least 3x
throughput at 4 workers vs. the single-process baseline, and an
identical, zero-failure chaos round. The full-mode report is written
to ``BENCH_sharded.json`` at the repository root.

Under ``--smoke`` the workload shrinks to CI scale (2 workers, a few
dozen queries): the correctness and rebalance checks still run, but
the throughput assertion is skipped (CI runners have unpredictable
core counts) and the baseline is left untouched.
"""

from pathlib import Path

from repro.eval import run_shard_bench
from repro.eval.sharding import format_report

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"


def test_sharded_serving(benchmark, once, smoke, record_baseline):
    if smoke:
        report = once(
            benchmark,
            run_shard_bench,
            num_users=6,
            num_rows=300,
            num_queries=36,
            worker_counts=(1, 2),
            io_wait_ms=2.0,
        )
    else:
        report = once(benchmark, run_shard_bench)
    print()
    print(format_report(report))
    chaos = report["chaos"]
    assert report["identical_output"], "sharded ranking diverged from single-process"
    assert chaos.get("enabled"), "chaos round did not run"
    assert chaos["worker_deaths"] == 1, "the seeded kill did not fire"
    assert chaos["failed_requests"] == 0, "requests failed after the rebalance"
    assert chaos["answered"] == report["workload"]["num_queries"], (
        "not every request was answered exactly once"
    )
    assert chaos["identical_after_rebalance"], (
        "rankings diverged after the worker kill + rebalance"
    )
    if not smoke:
        assert report["speedup_at_max"] >= 3.0, (
            f"throughput at {report['workload']['worker_counts'][-1]} worker "
            f"processes only {report['speedup_at_max']:.2f}x of single-process"
        )
    record_baseline(BASELINE_PATH, report)
