"""Durability and paging at scale (the persistence run).

Two measurements back this PR's acceptance bar:

* **Kill/restart recovery** (``repro.eval.persistence.run_kill_restart``)
  - a durable service is crashed and restarted between rounds of a
  seeded edit/query workload (with torn WAL tails and injected
  ``storage.append`` failures); after every restart, 100% of profiles
  must be recovered and every user's rankings must equal a reference
  service that never crashed. Both backends (JSON-lines and SQLite)
  are exercised.
* **Million-user paging** (``repro.eval.persistence.run_paging_bench``)
  - >= 1,000,000 users are bulk-registered cold through the WAL, then
  a zipf workload whose working set far exceeds ``hydrated_budget``
  drives hydration/eviction; the peak hydrated-account count must stay
  within the budget, and a timed cold recovery must find every user.

Measured numbers are written to ``BENCH_persistence.json`` at the
repository root (full runs only; ``--smoke`` shrinks the population to
CI scale and skips the baseline write).
"""

from pathlib import Path

from repro.eval import run_kill_restart, run_paging_bench
from repro.eval.persistence import format_report

PERSISTENCE_REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_persistence.json"
)


def test_kill_restart_recovery(benchmark, once, smoke):
    kwargs = (
        dict(num_users=5, num_rows=120, rounds=3, edits_per_round=4,
             queries_per_round=8)
        if smoke
        else dict(num_users=8, num_rows=300, rounds=5, edits_per_round=6,
                  queries_per_round=24)
    )

    def run_both():
        return {
            backend: run_kill_restart(backend=backend, seed=29, **kwargs)
            for backend in ("jsonl", "sqlite")
        }

    reports = once(benchmark, run_both)
    print()
    print(format_report(reports))
    for backend, report in reports.items():
        assert report["restarts"] >= 1, f"{backend}: schedule never crashed"
        assert report["recovery_rate"] == 1.0, (
            f"{backend}: lost profiles across restarts "
            f"(rate {report['recovery_rate']:.2%})"
        )
        assert report["ranking_mismatches"] == 0, (
            f"{backend}: {report['ranking_mismatches']} recovered rankings "
            "diverged from the never-crashed reference"
        )
        assert report["identical_after_recovery"], backend
    global _KILL_RESTART_REPORTS
    _KILL_RESTART_REPORTS = reports


_KILL_RESTART_REPORTS: dict | None = None


def test_million_user_paging(benchmark, once, smoke, record_baseline):
    kwargs = (
        dict(num_users=20_000, hydrated_budget=32, num_queries=200,
             register_batch=5_000)
        if smoke
        else dict(num_users=1_000_000, hydrated_budget=256, num_queries=2_000,
                  register_batch=20_000)
    )
    report = once(benchmark, run_paging_bench, seed=31, **kwargs)
    paging = report["paging"]
    recovery = report["recovery"]
    print()
    print(format_report({}, report))
    assert paging["within_budget"], (
        f"peak hydrated {paging['peak_hydrated']} exceeded the budget "
        f"{paging['hydrated_budget']}"
    )
    assert paging["evictions"] > 0, (
        "the workload never evicted - the working set must exceed the budget"
    )
    assert recovery["complete"], (
        f"cold recovery found {recovery['users']} of "
        f"{report['workload']['num_users']} users"
    )
    if not smoke:
        assert report["workload"]["num_users"] >= 1_000_000
    record_baseline(
        PERSISTENCE_REPORT_PATH,
        {"kill_restart": _KILL_RESTART_REPORTS, "paging": report},
    )
