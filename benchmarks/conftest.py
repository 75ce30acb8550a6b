"""Benchmark configuration.

Each benchmark reproduces one table or figure of the paper and prints
the corresponding rows/series (run with ``-s`` to see them). The
timed quantity is the full experiment driver; the paper's own metrics
(cells, bytes, cell accesses, agreement percentages) are printed, since
those - not wall-clock time - are what the figures report.

``--smoke`` shrinks every workload to CI scale: benchmarks still run
end to end (so the code paths stay covered on every push) but skip the
performance assertions and never overwrite the checked-in ``BENCH_*``
baselines, which are only meaningful on a quiet, known machine.
"""

import pytest

from repro.eval.harness import write_report


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="tiny workloads; skip perf asserts and baseline writes (CI)",
    )


@pytest.fixture
def smoke(request):
    """True when running under ``--smoke`` (CI-scale workloads)."""
    return request.config.getoption("--smoke")


@pytest.fixture
def record_baseline(smoke):
    """``record(path, report)``: write a ``BENCH_*.json`` baseline.

    Call it after a script's last assert, so a failing run never
    overwrites the checked-in numbers; under ``--smoke`` it writes
    nothing.
    """

    def record(path, report):
        if not smoke:
            write_report(path, report)

    return record


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
