"""The shared evaluation harness behind the serving-shaped drivers.

The paper's evaluation (Sec. 5) runs one workload model, and every
check this package adds beyond it asks the same question: do the
rankings equal a reference run? The pieces that question needs live
here once, for :mod:`~repro.eval.serving`, :mod:`~repro.eval.sharding`,
:mod:`~repro.eval.chaos`, :mod:`~repro.eval.chaos_sharded`,
:mod:`~repro.eval.persistence` and :mod:`~repro.eval.observability`:

* the two context-state pools (the 27-state serving pool and the
  12-state stress pool), built in one people -> temperature ->
  location nesting order so every seeded schedule over them is stable;
* the ``user{i}`` population cycling the study personas, the service
  (or never-faulted twin) built over a seeded POI relation, the
  skewed request stream of :func:`repro.workloads.streams.query_stream`,
  and the audit of sharded replies against the twin's rankings;
* a nearest-rank percentile, a metrics-registry scope and a scratch
  directory scope;
* the JSON report writer shared by the CLI and the ``BENCH_*`` scripts.

The ranking fingerprint is :func:`repro.sharding.worker.ranking_pairs`:
the wire format worker replies carry, so in-process and sharded
rankings compare with ``==``.
"""

from __future__ import annotations

import json
import tempfile
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path

from repro.context.environment import ContextEnvironment
from repro.context.state import ContextState
from repro.db.poi import generate_poi_relation
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.service.personalization import PersonalizationService
from repro.workloads.streams import query_stream
from repro.workloads.users import Persona, all_personas, study_environment

#: Ranked rows returned per query by every serving-shaped driver.
TOP_K = 10

#: The serving pool: 3 x 3 x 3 = 27 states (people, temperature, location).
SERVING_POOL = (
    ("friends", "family", "alone"),
    ("warm", "hot", "cold"),
    ("Plaka", "Kifisia", "Syntagma"),
)

#: The stress-test pool: 3 x 2 x 2 = 12 states.
STRESS_POOL = (
    ("friends", "family", "alone"),
    ("warm", "cold"),
    ("Plaka", "Kifisia"),
)


def state_pool(
    environment: ContextEnvironment,
    values: tuple[Sequence[str], Sequence[str], Sequence[str]] = SERVING_POOL,
) -> list[ContextState]:
    """Every (people, temperature, location) state of ``values``,
    people varying slowest."""
    peoples, temperatures, locations = values
    return [
        ContextState.from_mapping(
            environment,
            {
                "accompanying_people": people,
                "temperature": temperature,
                "location": location,
            },
        )
        for people in peoples
        for temperature in temperatures
        for location in locations
    ]


def population(num_users: int) -> list[tuple[str, Persona]]:
    """``user0``..``user{n-1}``, cycling the study personas."""
    personas = all_personas()
    return [
        (f"user{index}", personas[index % len(personas)])
        for index in range(num_users)
    ]


def build_service(
    num_users: int,
    num_rows: int,
    seed: int,
    environment: ContextEnvironment | None = None,
    **options: object,
) -> PersonalizationService:
    """A service over ``generate_poi_relation(num_rows, seed)`` with the
    :func:`population` registered; ``options`` go to the service."""
    service = PersonalizationService(
        study_environment() if environment is None else environment,
        generate_poi_relation(num_rows, seed=seed),
        **options,
    )
    for user_id, persona in population(num_users):
        service.register(user_id, persona)
    return service


def request_stream(
    pool: Sequence[ContextState],
    num_users: int,
    num_queries: int,
    seed: int,
    zipf_a: float,
    locality: float,
) -> list[tuple[str, ContextState]]:
    """The skewed ``query_stream`` over ``pool``, assigned to users
    round-robin."""
    states = query_stream(
        pool, num_queries, seed=seed, zipf_a=zipf_a, locality=locality
    )
    return [
        (f"user{index % num_users}", state) for index, state in enumerate(states)
    ]


def replies_match(
    replies: Sequence[dict], reference: Sequence[list[list[object]]]
) -> bool:
    """One ``ok`` router reply per reference ranking, each ranked
    exactly as its :func:`~repro.sharding.worker.ranking_pairs`."""
    return len(replies) == len(reference) and all(
        reply.get("ok") and reply.get("ranking") == expected
        for reply, expected in zip(replies, reference)
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


@contextmanager
def registry_scope() -> Iterator[MetricsRegistry]:
    """Reset and enable the process metrics registry; restore whether
    it was enabled on exit."""
    registry = get_registry()
    was_enabled = registry.enabled
    registry.reset()
    registry.enable()
    try:
        yield registry
    finally:
        if was_enabled:
            registry.enable()
        else:
            registry.disable()


@contextmanager
def scratch_root(root: str | Path | None, prefix: str) -> Iterator[Path]:
    """``root`` itself when given, else a temporary directory removed
    on exit."""
    if root is not None:
        yield Path(root)
        return
    with tempfile.TemporaryDirectory(prefix=prefix) as name:
        yield Path(name)


def write_report(path: str | Path, report: object) -> None:
    """Write ``report`` as the indented JSON every ``BENCH_*.json`` uses."""
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
