"""Measurement harness: windows of operations, metrics, twin check.

See ``run.py`` for the protocol of one run and ``WORKLOADS.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS, Batch, kind, size

class Window:
    """What one run of operations on one set-up measured."""

    def __init__(self) -> None:
        self.ops: list = []
        self.digests: list[list] = []
        #: Wall time of each operation, in the order of ``ops``.
        self.latency_ns: list[int] = []
        self.units = 0
        self.queries = 0
        self.edits = 0
        self.batches = 0
        self.rows_returned = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: Client CPU time of each operation, in the order of ``ops``.
        self.cpu_ns: list[int] = []
        #: Reference-kernel time measured right after each operation.
        self.reference_ns: list[int] = []
        self.worker_cpu_s = 0.0
        self.peak_rss = 0
        self.seconds = 0.0
        #: Each round's first and end position in ``ops``, and the
        #: workers' CPU seconds during it.
        self.rounds: list[tuple[int, int, float]] = []
        self.counters: dict[str, int] = {}
        self.snapshot: dict[str, int] | None = None
        self.errors: list[str] = []


def run_window(workload, target, rounds=0, limit=None, tracer=None) -> Window:
    """Run ``rounds`` whole rounds, or the first ``limit`` operations."""
    window = Window()
    pids = workload.pids(target)
    counters = workload.counters(target)
    worker_cpu = sum(layers.cpu_seconds(pid) for pid in pids)
    started = time.perf_counter()
    round_index = 0
    while (len(window.ops) < limit) if limit is not None else (round_index < rounds):
        first = len(window.ops)
        for op in workload.round(round_index):
            run_op(workload, target, op, window, tracer, pids)
            if len(window.ops) == workload.determinism_ops:
                window.snapshot = deterministic_counts(workload, target, window, tracer, counters)
            if limit is not None and len(window.ops) >= limit:
                break
        now = sum(layers.cpu_seconds(pid) for pid in pids)
        window.rounds.append((first, len(window.ops), now - worker_cpu))
        worker_cpu = now
        round_index += 1
    window.seconds = time.perf_counter() - started
    window.worker_cpu_s = sum(worker for _, _, worker in window.rounds)
    after = workload.counters(target)
    window.counters = {key: after[key] - counters[key] for key in after}
    return window


def run_op(workload, target, op, window: Window, tracer, pids) -> None:
    """Execute one operation, timed; record its latency, CPU and outcome."""
    op_kind = kind(op)
    if tracer is not None:
        tracer.phase = op_kind
        tracer.push("op")
    cpu = time.process_time_ns()
    begin = time.perf_counter_ns()
    try:
        raw = workload.execute(target, op)
    except Exception as error:  # every failure is counted, none stops the run
        raw, failure = None, f"{type(error).__name__}: {error}"
    else:
        failure = None
    end = time.perf_counter_ns()
    window.cpu_ns.append(time.process_time_ns() - cpu)
    if tracer is not None:
        tracer.pop()
    window.latency_ns.append(end - begin)
    window.ops.append(op)
    window.units += size(op)
    if op_kind == "edit":
        window.edits += 1
    else:
        window.queries += size(op)
        window.batches += isinstance(op, Batch)
    if failure is None:
        digests, rows, hits, misses = workload.outcome(op, raw)
        window.rows_returned += rows
        window.cache_hits += hits
        window.cache_misses += misses
    else:
        digests = [None] * size(op)
        window.errors.append(failure)
    window.digests.append(digests)
    rss = layers.rss_bytes() + sum(layers.rss_bytes(pid) for pid in pids)
    window.peak_rss = max(window.peak_rss, rss)
    window.reference_ns.append(layers.reference_ns())


def deterministic_counts(workload, target, window, tracer, counters_before) -> dict:
    after = workload.counters(target)
    counts = {key: after[key] - counters_before[key] for key in after}
    counts["rows_returned"] = window.rows_returned
    if tracer is not None:
        for key in ("rank.rows", "frames.query", "frame_bytes.query"):
            counts[key] = tracer.counts[key]
    return counts


def round_references(window: Window) -> list[float]:
    """Each round's median reference-kernel time, in nanoseconds."""
    return [statistics.median(window.reference_ns[first:end]) for first, end, _ in window.rounds]


#: Reference samples on each side of an operation that give its ref.
NEIGHBOURS = 10


def in_refs(window: Window) -> dict:
    """The window's times in refs, which divide the host's speed out.

    An operation's *ref* is the median time :func:`layers.reference_kernel`
    took right after it and the ``NEIGHBOURS`` operations on each side;
    the host's speed drifts by a quarter within seconds, so a ref is
    taken close in time to what it measures. Worker CPU, read once per
    round, is divided by its round's median. ``query`` and ``edit`` hold
    each call's latency, ``calls`` their sum and ``cpu`` the client's
    CPU inside the calls plus the workers' CPU.
    """
    samples = window.reference_ns
    times = {"query": [], "edit": [], "calls": 0.0, "cpu": 0.0}
    for position, op in enumerate(window.ops):
        reference = statistics.median(
            samples[max(0, position - NEIGHBOURS) : position + NEIGHBOURS + 1]
        )
        latency = window.latency_ns[position] / reference
        times[kind(op)].append(latency)
        times["calls"] += latency
        times["cpu"] += window.cpu_ns[position] / reference
    for (_, _, worker_s), reference in zip(window.rounds, round_references(window)):
        times["cpu"] += worker_s * 1e9 / reference
    return times


def throughput(window: Window) -> float:
    """Operations per thousand refs of time spent inside the program's calls.

    The harness's own work between calls (fingerprinting replies,
    reading ``/proc``, the reference kernel) is left out, as it is from
    the latencies.
    """
    return window.units * 1e3 / in_refs(window)["calls"]


def end_to_end(window: Window, setup_s: float) -> dict:
    times = in_refs(window)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_kref": (throughput(window), "1/kref"),
        "query_p50_ref": (statistics.median(times["query"]), "ref"),
        "edit_p50_ref": (statistics.median(times["edit"]), "ref"),
        "cpu_per_op_ref": (times["cpu"] / window.units, "ref"),
        "peak_rss_mb": (window.peak_rss / 2**20, "MB"),
    }


def raw_times(window: Window) -> str:
    """The end-to-end times in host seconds, for reading alongside."""
    latencies = {"query": [], "edit": []}
    for op, latency in zip(window.ops, window.latency_ns):
        latencies[kind(op)].append(latency)
    cpu_seconds = sum(window.cpu_ns) * 1e-9 + window.worker_cpu_s
    return (
        f"host times: {window.units / (sum(window.latency_ns) * 1e-9):.1f} ops/s, "
        f"query p50 {statistics.median(latencies['query']) * 1e-6:.3f} ms, "
        f"edit p50 {statistics.median(latencies['edit']) * 1e-6:.3f} ms, "
        f"cpu {cpu_seconds * 1e3 / window.units:.3f} ms/op, "
        f"ref {statistics.median(window.reference_ns) * 1e-3:.1f} us"
    )


def per_layer(traced: Window, tracer, untraced: Window, retries: int) -> dict:
    ns = tracer.self_ns
    counts = tracer.counts
    queries = max(traced.queries, 1)
    edits = max(traced.edits, 1)
    units = max(traced.units, 1)
    batches = max(traced.batches, 1)
    ms = 1e-6
    lookups = traced.cache_hits + traced.cache_misses
    op_ns = sum(traced.latency_ns)
    return {
        "rank.ms_per_query": (ns["rank"] * ms / queries, "ms"),
        "rank.rows_scored_per_query": (counts["rank.rows"] / queries, "rows"),
        "db.select_ms_per_query": (ns["db"] * ms / queries, "ms"),
        "db.rows_selected_per_query": (counts["db.rows"] / queries, "rows"),
        "gc.pause_ms_per_op": (ns["gc"] * ms / units, "ms"),
        "gc.gen2_per_op": (counts["gc.gen2"] / units, "count"),
        "executor.top_ms_per_query": (ns["top"] * ms / queries, "ms"),
        "executor.rows_returned_per_query": (traced.rows_returned / queries, "rows"),
        "cache.hit_ratio": (traced.cache_hits / lookups if lookups else 0.0, "ratio"),
        "resolution.resolve_ms_per_query": (ns["resolve"] * ms / queries, "ms"),
        "service.hydrations_per_op": (
            traced.counters.get("hydrations", 0) / units, "count"
        ),
        "service.hydrate_ms_per_op": (ns["hydrate"] * ms / units, "ms"),
        "serialize.profile_to_dict_ms_per_edit": (ns["serialize"] * ms / edits, "ms"),
        "storage.append_ms_per_edit": (ns["storage.append"] * ms / edits, "ms"),
        "storage.wal_bytes_per_edit": (
            traced.counters.get("wal_bytes", 0) / edits, "bytes"
        ),
        "sharding.router_cpu_ms_per_query": (
            sum(traced.cpu_ns) * ms / queries if traced.batches else 0.0, "ms"
        ),
        "sharding.worker_cpu_ms_per_query": (traced.worker_cpu_s * 1e3 / queries, "ms"),
        "sharding.reply_bytes_per_query": (counts["frame_bytes.query"] / queries, "bytes"),
        "sharding.frames_per_batch": (
            counts["frames.query"] / batches if traced.batches else 0.0, "count"
        ),
        "sharding.decode_ms_per_batch": (
            ns["decode.query"] * ms / batches if traced.batches else 0.0, "ms"
        ),
        "sharding.retries_per_op": (retries / units, "count"),
        "trace.rank_db_gc_share": (
            (ns["rank"] + ns["db"] + ns["gc"]) / op_ns if op_ns else 0.0, "ratio"
        ),
        "trace.ops_per_s_ratio": (throughput(traced) / throughput(untraced), "ratio"),
    }


def on_fresh_setup(workload, workdir, setups: list[float], body):
    """Set the workload up from scratch, time it, run ``body`` on it, tear down."""
    started = time.perf_counter()
    target = workload.setup(workdir)
    gc.collect()
    setups.append(time.perf_counter() - started)
    try:
        return body(target)
    finally:
        workload.close(target)


def traced_window(workload, target, tracer, **window_args) -> Window:
    instrumentation = layers.Instrumentation(tracer).install()
    try:
        return run_window(workload, target, tracer=tracer, **window_args)
    finally:
        instrumentation.remove()


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name](seed)
    workdir = root / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setups: list[float] = []
    tracer = layers.Tracer()
    retries = []

    def traced_run(window_tracer, **window_args):
        # Both traced windows ask for the router's statistics the same
        # way, so their request ids (and so their frame bytes) match.
        def body(target) -> Window:
            before = workload.retries(target)
            window = traced_window(workload, target, window_tracer, **window_args)
            retries.append(workload.retries(target) - before)
            return window

        return body

    first_ops = {"limit": workload.determinism_ops}
    rounds = max(1, round(seconds / workload.round_seconds))
    started = time.perf_counter()
    try:
        # The untraced window runs first, on the process's first set-up,
        # so its peak RSS is not raised by the set-ups before it.
        timed = on_fresh_setup(
            workload,
            workdir,
            setups,
            lambda target: run_window(workload, target, rounds=rounds),
        )
        traced = on_fresh_setup(
            workload,
            workdir,
            setups,
            traced_run(tracer, **({"rounds": rounds} if trace else first_ops)),
        )
        repeat = on_fresh_setup(
            workload, workdir, setups, traced_run(layers.Tracer(), **first_ops)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured = time.perf_counter() - started
    windows = [timed, traced, repeat]

    report_determinism(traced.snapshot, repeat.snapshot)
    attempted, failed = check_against_twin(workload, windows)
    print(
        "rounds (ops/s, ref us): "
        + " ".join(
            f"{sum(map(size, timed.ops[first:end])) / (sum(timed.latency_ns[first:end]) * 1e-9):.1f}"
            f",{reference * 1e-3:.0f}"
            for (first, end, _), reference in zip(timed.rounds, round_references(timed))
        ),
        file=sys.stderr,
    )
    print(raw_times(timed), file=sys.stderr)
    print(
        f"timings: set-ups {', '.join(f'{value:.2f}' for value in setups)} s, "
        f"windows {timed.seconds:.2f} / {traced.seconds:.2f} / {repeat.seconds:.2f} s, "
        f"all set-ups and windows {measured:.1f} s, twin check "
        f"{time.perf_counter() - started - measured:.1f} s",
        file=sys.stderr,
    )
    metrics = (
        per_layer(traced, tracer, timed, retries[0])
        if trace
        else end_to_end(timed, statistics.median(setups))
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def report_determinism(first, second) -> None:
    if first is None or second is None:
        print("determinism: window too short to compare", file=sys.stderr)
        return
    differing = {
        key: (first.get(key), second.get(key))
        for key in sorted(set(first) | set(second))
        if first.get(key) != second.get(key)
    }
    if differing:
        for key, (one, two) in differing.items():
            print(f"determinism: {key} did not repeat: {one} then {two}", file=sys.stderr)
    else:
        print(f"determinism: all counts repeated: {first}", file=sys.stderr)


def check_against_twin(workload, windows: list[Window]) -> tuple[int, int]:
    """Replay the longest window's operations on the twin; count mismatches."""
    gc.collect()
    longest = max(windows, key=lambda window: len(window.ops))
    twin = workload.twin()
    expected = [twin.expected(op) for op in longest.ops]
    attempted = failed = 0
    for window in windows:
        for error in window.errors[:3]:
            print(f"error: {error}", file=sys.stderr)
        for position, digests in enumerate(window.digests):
            for got, want in zip(digests, expected[position]):
                attempted += 1
                if got != want:
                    failed += 1
    return attempted, failed
