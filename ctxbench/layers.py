"""Per-layer accounting: timing wrappers, garbage-collector spans, /proc,
and the reference kernel that measures the host's speed.

The wrappers live here, in the benchmark's own files, and wrap public
functions of the program only while a traced window runs; the untraced
windows that give the end-to-end metrics execute the program as shipped.

A :class:`Tracer` keeps a stack of open spans. A span's *self time* is
its duration minus the time of the spans opened inside it, so the
layers' self times add up to the traced operations' wall time without
double counting. Garbage-collector pauses are spans of their own (fed
by ``gc.callbacks``), so a full collection that fires inside
``rank_rows`` is charged to ``gc``, not to ``rank``.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import time
from collections import defaultdict

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


class Tracer:
    """Self-time spans and event counts of one traced window.

    ``phase`` names the kind of operation in flight (``"query"`` or
    ``"edit"``); wrappers that must tell the two apart (wire frames)
    count under it.
    """

    def __init__(self) -> None:
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.phase = "query"
        self._stack: list[list] = []

    def push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def pop(self) -> None:
        name, started, child_ns = self._stack.pop()
        elapsed = time.perf_counter_ns() - started
        self.self_ns[name] += elapsed - child_ns
        if self._stack:
            self._stack[-1][2] += elapsed

    def _on_gc(self, phase: str, info: dict) -> None:
        # Only collections inside an operation count; one the benchmark's
        # own bookkeeping triggers between operations does not.
        if phase == "start":
            if self._stack:
                self.push("gc")
                if info["generation"] == 2:
                    self.counts["gc.gen2"] += 1
        elif self._stack and self._stack[-1][0] == "gc":
            self.pop()


def _timed(tracer: Tracer, name: str, original, count=None):
    def wrapper(*args, **kwargs):
        tracer.push(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.pop()
        if count is not None:
            count(args, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


class Instrumentation:
    """Installs the tracer's wrappers; :meth:`remove` restores the originals.

    Each wrapper sits on a public function or method at the name the
    program looks it up by (``rank_rows`` is imported into the executor
    module, so it is wrapped there).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: list[tuple[object, str, object]] = []

    def _patch(self, owner, attribute: str, replacement) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def _wrap(self, owner, attribute: str, name: str, count=None) -> None:
        original = getattr(owner, attribute)
        self._patch(owner, attribute, _timed(self.tracer, name, original, count))

    def install(self) -> Instrumentation:
        from repro.db.relation import Relation
        from repro.query import executor
        from repro.resolution.resolver import ContextResolver
        from repro.service import personalization
        from repro.sharding import protocol
        from repro.storage.store import ProfileStore

        tracer = self.tracer
        counts = tracer.counts

        def rows_scored(args, ranked) -> None:
            counts["rank.rows"] += len(ranked)

        def rows_selected(args, ids) -> None:
            counts["db.rows"] += len(ids)

        def frame_bytes(args, payload) -> None:
            counts[f"frames.{tracer.phase}"] += 1
            counts[f"frame_bytes.{tracer.phase}"] += len(args[0])

        self._wrap(executor, "rank_rows", "rank", rows_scored)
        self._wrap(Relation, "select_ids", "db", rows_selected)
        self._wrap(executor.QueryResult, "top", "top")
        self._wrap(ContextResolver, "resolve_state", "resolve")
        self._wrap(personalization, "default_profile", "hydrate")
        self._wrap(personalization, "profile_from_dict", "hydrate")
        self._wrap(personalization, "profile_to_dict", "serialize")
        self._wrap(ProfileStore, "append_many", "storage.append")
        original_decode = protocol.decode_frame

        def decode_frame(body):
            tracer.push(f"decode.{tracer.phase}")
            try:
                payload = original_decode(body)
            finally:
                tracer.pop()
            frame_bytes((body,), payload)
            return payload

        self._patch(protocol, "decode_frame", decode_frame)

        repository_class = personalization.PreferenceRepository

        class TracedRepository(repository_class):
            """The repository build of a hydration, timed as ``hydrate``."""

            def __init__(self, *args, **kwargs) -> None:
                tracer.push("hydrate")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.pop()

        self._patch(personalization, "PreferenceRepository", TracedRepository)
        gc.callbacks.append(tracer._on_gc)
        return self

    def remove(self) -> None:
        if self.tracer._on_gc in gc.callbacks:
            gc.callbacks.remove(self.tracer._on_gc)
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)


def rss_bytes(pid: int | str = "self") -> int:
    """Resident set size of one process, from ``/proc/<pid>/statm``."""
    with open(f"/proc/{pid}/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_BYTES


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one process (all its threads, exited ones too)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # Fields after the command name start at field 3 (state).
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND


def reap_children() -> None:
    """Terminate and wait for every child process still alive."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10.0)


def tree_bytes(root) -> int:
    """Total size of the regular files under a directory."""
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


#: The reference kernel's input: the JSON text of a profile-shaped
#: document (descriptors, clauses, scores).
_REFERENCE_TEXT = json.dumps(
    [
        {
            "descriptor": {"values": [f"v{index}", f"w{index}"], "level": index % 4},
            "clause": [["category", "=", index]],
            "score": index / 7,
        }
        for index in range(60)
    ]
)


def reference_kernel() -> int:
    """Fixed work that runs no program code: the host's speed yardstick.

    Splits, sorts, joins and indexes the text of a profile-shaped
    document four times, about 0.4 ms of string, list and dictionary
    work. Of the kernels tried on five seeds of ``paging_edits``, this
    one divided the host's speed out best (latency medians spread 0.01
    in refs); a dictionary build with a numpy argsort left 0.05-0.07.
    It creates only a few objects the garbage collector tracks, all
    freed before it returns; a kernel that parsed the JSON would leave
    hundreds on the collector's count after every operation and so
    bring the program's collections forward.
    """
    total = 0
    for _ in range(4):
        parts = _REFERENCE_TEXT.split(",")
        parts.sort()
        total += len("|".join(parts)) + len(dict.fromkeys(parts, 1))
    return total


def reference_ns() -> int:
    """Wall time of one run of :func:`reference_kernel`, in nanoseconds."""
    started = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - started
