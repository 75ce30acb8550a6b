"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro table1              # Table 1 (usability study)
    python -m repro fig5                # Fig. 5 (real-profile tree sizes)
    python -m repro fig6 left           # Fig. 6 left (uniform sizes)
    python -m repro fig6 center         # Fig. 6 center (zipf sizes)
    python -m repro fig6 right          # Fig. 6 right (skew crossover)
    python -m repro fig7 real           # Fig. 7 left (real profile accesses)
    python -m repro fig7 synthetic      # Fig. 7 center+right (synthetic)
    python -m repro chaos               # availability under injected faults
    python -m repro chaos --sharded     # distributed chaos vs the hardened router
    python -m repro persistence         # kill/restart recovery + paging
    python -m repro analyze             # project-native static checks

Every command accepts ``--seed`` and, where meaningful, ``--sizes`` to
re-run the sweep at other scales than the paper's.
"""

from __future__ import annotations

import argparse
import json
from collections.abc import Callable, Sequence

from repro.eval import (
    fig5_real_profile,
    fig6_size_sweep,
    fig6_skew_sweep,
    fig7_real_profile,
    fig7_synthetic,
    format_series,
    format_table,
    run_usability_study,
)
from repro.eval.harness import write_report

__all__ = ["build_parser", "main"]

_DEFAULT_SIZES = (500, 1000, 5000, 10000)
_DEFAULT_SKEWS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)


def _add_report_flags(
    parser: argparse.ArgumentParser, output_style: str | None
) -> None:
    """``--json`` and, unless ``output_style`` is None, ``--output``."""
    parser.add_argument(
        "--json", action="store_true", help="emit the raw report as JSON"
    )
    if output_style is not None:
        parser.add_argument(
            "--output", type=str, default=None,
            help=f"also write the JSON report to this file ({output_style} style)",
        )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of 'Adding Context to "
        "Preferences' (ICDE 2007).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="usability study (Table 1)")
    table1.add_argument("--users", type=int, default=10)
    table1.add_argument("--seed", type=int, default=11)

    fig5 = sub.add_parser("fig5", help="real-profile tree sizes (Fig. 5)")
    fig5.add_argument("--seed", type=int, default=42)

    fig6 = sub.add_parser("fig6", help="synthetic tree sizes (Fig. 6)")
    fig6.add_argument("panel", choices=["left", "center", "right"])
    fig6.add_argument("--seed", type=int, default=17)
    fig6.add_argument("--sizes", type=int, nargs="+", default=list(_DEFAULT_SIZES))

    fig7 = sub.add_parser("fig7", help="resolution cell accesses (Fig. 7)")
    fig7.add_argument("panel", choices=["real", "synthetic"])
    fig7.add_argument("--seed", type=int, default=None)
    fig7.add_argument("--sizes", type=int, nargs="+", default=list(_DEFAULT_SIZES))
    fig7.add_argument("--queries", type=int, default=50)

    report = sub.add_parser(
        "report", help="run every experiment, emit a Markdown report"
    )
    report.add_argument("--quick", action="store_true",
                        help="smaller sweeps for a fast smoke run")
    report.add_argument("--seed", type=int, default=17)
    report.add_argument("--output", type=str, default=None,
                        help="write to a file instead of stdout")

    stats = sub.add_parser(
        "stats",
        help="observability snapshot for a scripted multi-user workload",
    )
    stats.add_argument(
        "--format",
        choices=["table", "json", "prometheus"],
        default="table",
        help="table = headline numbers; json / prometheus = raw snapshot",
    )
    stats.add_argument("--users", type=int, default=4)
    stats.add_argument("--queries", type=int, default=60)
    stats.add_argument("--rows", type=int, default=2000)
    stats.add_argument("--cache-capacity", type=int, default=8)
    stats.add_argument("--seed", type=int, default=11)

    serve = sub.add_parser(
        "serve-bench",
        help="concurrent serving workload: throughput scaling + churn check",
    )
    serve.add_argument("--users", type=int, default=8)
    serve.add_argument("--rows", type=int, default=1500)
    serve.add_argument("--queries", type=int, default=160)
    serve.add_argument(
        "--threads",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to sweep (each replays the same request set)",
    )
    serve.add_argument(
        "--io-wait-ms",
        type=float,
        default=6.0,
        help="simulated per-request I/O wait; 0 shows the GIL-bound CPU curve",
    )
    serve.add_argument("--writers", type=int, default=4)
    serve.add_argument("--edits-per-writer", type=int, default=10)
    serve.add_argument("--cache-capacity", type=int, default=64)
    serve.add_argument("--seed", type=int, default=17)
    _add_report_flags(serve, output_style=None)

    shard = sub.add_parser(
        "shard-bench",
        help="multi-process sharded serving: QPS scaling + rebalance audit",
    )
    shard.add_argument("--users", type=int, default=8)
    shard.add_argument("--rows", type=int, default=1500)
    shard.add_argument("--queries", type=int, default=160)
    shard.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker-process counts to sweep (same request set each)",
    )
    shard.add_argument(
        "--io-wait-ms",
        type=float,
        default=15.0,
        help="simulated per-request I/O wait (remote row-store fetch); "
        "0 shows the single-core CPU-bound curve",
    )
    shard.add_argument(
        "--worker-threads",
        type=int,
        default=2,
        help="threads serving one batch inside each worker process",
    )
    shard.add_argument("--cache-capacity", type=int, default=64)
    shard.add_argument("--seed", type=int, default=17)
    shard.add_argument(
        "--no-chaos",
        action="store_true",
        help="skip the worker-kill + rebalance round",
    )
    _add_report_flags(shard, output_style="BENCH_sharded.json")

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection run: availability/latency under a seeded "
        "fault schedule, with vs without the resilience layer",
    )
    chaos.add_argument("--users", type=int, default=6)
    chaos.add_argument("--rows", type=int, default=400)
    chaos.add_argument("--rounds", type=int, default=5)
    chaos.add_argument("--queries-per-round", type=int, default=40)
    chaos.add_argument("--edits-per-round", type=int, default=4)
    chaos.add_argument("--concurrent-batch", type=int, default=16)
    chaos.add_argument("--max-workers", type=int, default=4)
    chaos.add_argument("--seed", type=int, default=23)
    chaos.add_argument(
        "--sharded",
        action="store_true",
        help="run the distributed chaos schedule against the sharded "
        "tier (network faults + kills + drains vs the hardened router)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for --sharded (ignored otherwise)",
    )
    chaos.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the resilience-disabled comparison run",
    )
    _add_report_flags(chaos, output_style="BENCH_chaos.json")

    persistence = sub.add_parser(
        "persistence",
        help="durability run: kill/restart recovery equality, plus an "
        "optional paged-users scale benchmark",
    )
    persistence.add_argument("--users", type=int, default=8)
    persistence.add_argument("--rows", type=int, default=300)
    persistence.add_argument("--rounds", type=int, default=4)
    persistence.add_argument("--edits-per-round", type=int, default=6)
    persistence.add_argument("--queries-per-round", type=int, default=24)
    persistence.add_argument("--hydrated-budget", type=int, default=4)
    persistence.add_argument(
        "--backend", choices=["jsonl", "sqlite"], default="jsonl"
    )
    persistence.add_argument("--seed", type=int, default=29)
    persistence.add_argument(
        "--paging-users",
        type=int,
        default=0,
        help="also run the paging benchmark with this many registered "
        "users (0 = skip)",
    )
    persistence.add_argument("--paging-queries", type=int, default=2000)
    _add_report_flags(persistence, output_style="BENCH_persistence.json")

    analyze = sub.add_parser(
        "analyze",
        help="static checks: lock order, layering, hygiene, blocking "
        "effects, fault/exception/schema contracts",
    )
    analyze.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="text = line per finding; json = machine-readable report; "
        "sarif = SARIF 2.1.0 for code-scanning upload",
    )
    analyze.add_argument(
        "--root",
        type=str,
        default=None,
        help="package directory to analyze (default: the installed repro "
        "package itself)",
    )
    analyze.add_argument(
        "--baseline",
        type=str,
        default=None,
        help="JSON baseline file; matching findings are reported as "
        "suppressed instead of failing the run",
    )
    analyze.add_argument(
        "--output",
        type=str,
        default=None,
        help="also write the rendered report to this file",
    )
    return parser


def _run_table1(args: argparse.Namespace) -> str:
    from repro.eval.usability import format_report

    return format_report(run_usability_study(num_users=args.users, seed=args.seed))


def _run_fig5(args: argparse.Namespace) -> str:
    experiment = fig5_real_profile(seed=args.seed)
    cells = experiment.cells_by_label()
    num_bytes = experiment.bytes_by_label()
    labels = ["serial", *[f"order{i}" for i in range(1, 7)]]
    return format_table(
        ["ordering", "cells", "bytes"],
        [[label, cells[label], num_bytes[label]] for label in labels],
        title="Fig. 5 - profile tree size, real profile",
    )


def _run_fig6(args: argparse.Namespace) -> str:
    if args.panel == "right":
        series = fig6_skew_sweep(_DEFAULT_SKEWS, seed=args.seed)
        return format_series(
            "Fig. 6 (right) - cells vs skew of the 200-value domain",
            "a",
            _DEFAULT_SKEWS,
            series,
        )
    distribution = "uniform" if args.panel == "left" else "zipf"
    sizes = tuple(args.sizes)
    series = fig6_size_sweep(distribution, sizes, seed=args.seed)
    return format_series(
        f"Fig. 6 ({args.panel}) - cells, {distribution} distribution",
        "#prefs",
        sizes,
        series,
    )


def _run_fig7(args: argparse.Namespace) -> str:
    if args.panel == "real":
        seed = 42 if args.seed is None else args.seed
        measurements = fig7_real_profile(num_queries=args.queries, seed=seed)
        return format_table(
            ["method", "mean cells/query"],
            [
                [label, f"{measurement.mean_cells:.1f}"]
                for label, measurement in measurements.items()
            ],
            title=f"Fig. 7 (left) - accesses, real profile, {args.queries} queries",
        )
    seed = 17 if args.seed is None else args.seed
    sizes = tuple(args.sizes)
    uniform = fig7_synthetic("uniform", sizes, num_queries=args.queries, seed=seed)
    zipf = fig7_synthetic("zipf", sizes, num_queries=args.queries, seed=seed)
    series = {
        "exact_uni": [f"{v:.1f}" for v in uniform["tree_exact"]],
        "exact_zipf": [f"{v:.1f}" for v in zipf["tree_exact"]],
        "exact_serial": [f"{v:.1f}" for v in uniform["serial_exact"]],
        "cover_uni": [f"{v:.1f}" for v in uniform["tree_cover"]],
        "cover_zipf": [f"{v:.1f}" for v in zipf["tree_cover"]],
        "cover_serial": [f"{v:.1f}" for v in uniform["serial_cover"]],
    }
    return format_series(
        "Fig. 7 (center/right) - mean cell accesses per query",
        "#prefs",
        sizes,
        series,
    )


def _run_report(args: argparse.Namespace) -> str:
    from repro.eval.report import generate_report

    text = generate_report(quick=args.quick, seed=args.seed)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        return f"report written to {args.output}"
    return text


def _run_stats(args: argparse.Namespace) -> str:
    from repro.eval.observability import format_report, run_scripted_workload

    report = run_scripted_workload(
        num_users=args.users,
        num_queries=args.queries,
        num_rows=args.rows,
        cache_capacity=args.cache_capacity,
        seed=args.seed,
    )
    if args.format == "json":
        return json.dumps(
            {"workload": report["workload"], "snapshot": report["snapshot"]}, indent=2
        )
    if args.format == "prometheus":
        return str(report["prometheus"]).rstrip("\n")
    return format_report(report)


_Report = tuple[dict, Callable[[dict], str]]


def _serve_bench(args: argparse.Namespace) -> _Report:
    from repro.eval.serving import format_report, run_serve_bench

    report = run_serve_bench(
        num_users=args.users,
        num_rows=args.rows,
        num_queries=args.queries,
        thread_counts=tuple(args.threads),
        io_wait_ms=args.io_wait_ms,
        num_writers=args.writers,
        edits_per_writer=args.edits_per_writer,
        cache_capacity=args.cache_capacity,
        seed=args.seed,
    )
    return report, format_report


def _shard_bench(args: argparse.Namespace) -> _Report:
    from repro.eval.sharding import format_report, run_shard_bench

    report = run_shard_bench(
        num_users=args.users,
        num_rows=args.rows,
        num_queries=args.queries,
        worker_counts=tuple(args.workers),
        io_wait_ms=args.io_wait_ms,
        worker_threads=args.worker_threads,
        cache_capacity=args.cache_capacity,
        seed=args.seed,
        chaos=not args.no_chaos,
    )
    return report, format_report


def _chaos(args: argparse.Namespace) -> _Report:
    if args.sharded:
        from repro.eval import chaos_sharded

        report = chaos_sharded.run_chaos_sharded(
            num_users=args.users,
            num_rows=args.rows,
            num_workers=args.workers,
            queries_per_round=args.queries_per_round,
            edits_per_round=args.edits_per_round,
            seed=args.seed,
            with_baseline=not args.no_baseline,
        )
        return report, chaos_sharded.format_report
    from repro.eval.chaos import format_report, run_chaos

    report = run_chaos(
        num_users=args.users,
        num_rows=args.rows,
        rounds=args.rounds,
        queries_per_round=args.queries_per_round,
        edits_per_round=args.edits_per_round,
        concurrent_batch=args.concurrent_batch,
        max_workers=args.max_workers,
        seed=args.seed,
        with_baseline=not args.no_baseline,
    )
    return report, format_report


def _persistence(args: argparse.Namespace) -> _Report:
    from repro.eval.persistence import (
        format_report,
        run_kill_restart,
        run_paging_bench,
    )

    report: dict[str, object] = {
        "kill_restart": run_kill_restart(
            num_users=args.users,
            num_rows=args.rows,
            rounds=args.rounds,
            edits_per_round=args.edits_per_round,
            queries_per_round=args.queries_per_round,
            hydrated_budget=args.hydrated_budget,
            backend=args.backend,
            seed=args.seed,
        )
    }
    if args.paging_users > 0:
        report["paging"] = run_paging_bench(
            num_users=args.paging_users,
            hydrated_budget=args.hydrated_budget,
            num_queries=args.paging_queries,
            backend=args.backend,
            seed=args.seed,
        )

    def render(report: dict) -> str:
        return format_report(
            {args.backend: report["kill_restart"]}, report.get("paging")
        )

    return report, render


_RUNNERS = {
    "table1": _run_table1,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "report": _run_report,
    "stats": _run_stats,
}

#: Commands whose driver returns a JSON-ready report: ``--json`` prints
#: it raw, ``--output`` (where the command has it) also writes it.
_REPORTS = {
    "serve-bench": _serve_bench,
    "shard-bench": _shard_bench,
    "chaos": _chaos,
    "persistence": _persistence,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        # The one command with a meaningful failure exit code: CI runs
        # it as a gate, so findings must fail the process.
        from pathlib import Path

        from repro.analysis import analyze, load_baseline

        baseline = load_baseline(Path(args.baseline)) if args.baseline else None
        report = analyze(Path(args.root) if args.root else None, baseline=baseline)
        rendered = report.render(args.format)
        if args.output:
            Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(rendered)
        return 0 if report.ok else 1
    if args.command in _REPORTS:
        report, render = _REPORTS[args.command](args)
        if getattr(args, "output", None):
            write_report(args.output, report)
        print(json.dumps(report, indent=2) if args.json else render(report))
        return 0
    print(_RUNNERS[args.command](args))
    return 0
