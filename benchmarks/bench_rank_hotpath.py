"""The ranking hot path: indexed + batched vs. sequential Rank_CS.

Compares the pre-index code path (one ``rank_cs`` per descriptor, every
clause a full scan) against the indexed relation + ``rank_cs_batch``
(each distinct state resolved once, each distinct clause one index
probe) on a 100k-row synthetic relation with selective clauses.

Checks: identical ranked output (scores and order) on both paths, and
at least a 5x wall-clock speedup. The measured numbers are written to
``BENCH_rank.json`` at the repository root; the checked-in copy is the
baseline to compare regressions against.

Under ``--smoke`` the workload shrinks to CI scale: the identical-output
check still runs, but the wall-clock assertion is skipped and the
checked-in baseline is left untouched.
"""

from pathlib import Path

from repro.eval import format_series, format_table, rank_access_sweep, run_rank_hotpath

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_rank.json"
SWEEP_SIZES = (1000, 5000, 10000)


def test_rank_hotpath_speedup(benchmark, once, smoke, record_baseline):
    if smoke:
        report = once(
            benchmark, run_rank_hotpath, num_rows=5000, num_queries=10
        )
    else:
        report = once(benchmark, run_rank_hotpath)
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["rows", str(report["workload"]["num_rows"])],
                ["queries", str(report["workload"]["num_queries"])],
                ["index build (s)", f"{report['index_build_seconds']:.3f}"],
                ["sequential (s)", f"{report['sequential_seconds']:.3f}"],
                ["indexed+batched (s)", f"{report['indexed_seconds']:.3f}"],
                ["speedup", f"{report['speedup']:.1f}x"],
                ["scan/index cells", f"{report['cells']['scan_to_index_ratio']:.0f}x"],
                [
                    "state memo hits",
                    str(report["batch_stats"]["state_memo_hits"]),
                ],
                [
                    "clause memo hits",
                    str(report["batch_stats"]["clause_memo_hits"]),
                ],
            ],
            title="Rank_CS hot path - sequential vs. indexed+batched",
        )
    )
    assert report["identical_output"], "indexed path changed the ranking"
    if not smoke:
        assert report["speedup"] >= 5.0, f"speedup {report['speedup']:.1f}x < 5x"
    record_baseline(BASELINE_PATH, report)


def test_rank_access_sweep(benchmark, once, smoke):
    sizes = (500, 1000) if smoke else SWEEP_SIZES
    series = once(benchmark, rank_access_sweep, sizes)
    print()
    print(
        format_series(
            "Ranking selection cells vs. relation size",
            "|R|",
            sizes,
            {label: [f"{v:.1f}" for v in values] for label, values in series.items()},
        )
    )
    # Sequential cost grows with |R|; indexed cost tracks result sizes.
    assert series["sequential"][-1] > series["sequential"][0]
    assert all(
        indexed < sequential
        for indexed, sequential in zip(series["indexed"], series["sequential"])
    )
