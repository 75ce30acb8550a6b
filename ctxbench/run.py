"""Benchmark of the contextual-preference service, one workload per run.

Usage, from the repository root::

    python3 ctxbench/run.py --workload score_heavy --seed 1 --seconds 10 --trace 0

Workloads (see ``ctxbench/WORKLOADS.md``): ``score_heavy``,
``paging_edits``, ``sharded_fanout``. Each run

1. sets the workload up three times from scratch and reports the median
   set-up time (``setup_s``); set-up ends with ``gc.collect()``;
2. on the first set-up runs the window untraced, which gives the
   end-to-end metrics: whole rounds of the workload, as many as took
   ``--seconds`` on the host the benchmark was defined on, so every run
   times the same operations;
3. on the other two set-ups runs the same first operations and reports
   every deterministic count that did not repeat exactly (rows returned,
   rows scored, hydrations, WAL bytes, frames, reply bytes); with
   ``--trace 1`` the second set-up instead runs the whole window traced,
   which gives the per-layer metrics;
4. replays every operation of every window on the reference twin and
   counts each reply whose ranking differs as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only if every operation succeeded and matched the twin.
"""

from __future__ import annotations

import argparse
import signal
import sys
from multiprocessing import resource_tracker
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"program sources not found under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import harness

    # A terminated run still stops its worker processes (finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    finally:
        stop_children()


def stop_children() -> None:
    """Reap every process this run started, the spawn helper included."""
    layers.reap_children()
    # Spawned workers start multiprocessing's resource tracker; it would
    # exit on its own once this process is gone, but a run waits for it.
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
