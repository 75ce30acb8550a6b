"""Distributed chaos: the sharded tier under seeded network faults.

Replays the seeded round schedule of
``repro.eval.chaos_sharded.run_chaos_sharded`` - wire corruption,
duplicated and dropped frames, a partition-then-heal window, a real
worker kill mixed with wire faults, and a drain-during-load round -
through the hardened router and through a hardening-disabled baseline,
and asserts the PR's acceptance bar: the hardened run answers >= 99%
of requests with rankings byte-identical to a never-faulted twin, no
reply is lost or double-served in any round, and the identical schedule
demonstrably degrades the baseline. Measured numbers are written to
``BENCH_chaos_sharded.json`` at the repository root (full runs only).
"""

from pathlib import Path

from repro.eval import run_chaos_sharded
from repro.eval.chaos_sharded import format_report

REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_chaos_sharded.json"
)


def test_chaos_sharded_availability(benchmark, once, smoke, record_baseline):
    kwargs = (
        dict(num_users=6, num_rows=150, queries_per_round=12,
             edits_per_round=3)
        if smoke
        else dict(num_users=8, num_rows=300, queries_per_round=24,
                  edits_per_round=4)
    )
    report = once(
        benchmark, run_chaos_sharded, num_workers=2, seed=11, **kwargs
    )
    hardened = report["hardened"]
    baseline = report["baseline"]
    print()
    print(format_report(report))

    round_names = [row["name"] for row in hardened["rounds"]]
    assert "partition_heal" in round_names and "drain" in round_names
    for row in hardened["rounds"]:
        assert row["lost_replies"] == 0, f"lost replies in {row['name']}"
        assert row["double_served"] == 0, (
            f"double-served replies in {row['name']}"
        )
        assert row["identical"], (
            f"round {row['name']} diverged from the never-faulted twin"
        )
    assert hardened["identical_output"], (
        "a faulted round returned rankings different from the twin"
    )
    assert hardened["availability"] >= 0.99, (
        f"hardened availability {hardened['availability']:.2%} < 99%"
    )
    assert hardened["applied_via"].get("wal", 0) >= 1, (
        "no edit exercised the WAL fallback during the partition window"
    )
    assert baseline["availability"] < hardened["availability"], (
        "the fault schedule did not degrade the un-hardened baseline; "
        "the comparison proves nothing - raise the fault counts"
    )
    record_baseline(REPORT_PATH, report)
