"""Serve-bench evaluation: report shape, identity audit, churn phase."""

import json

import pytest

from repro.eval import run_serve_bench


@pytest.fixture(scope="module")
def report():
    return run_serve_bench(
        num_users=3,
        num_rows=120,
        num_queries=12,
        thread_counts=(1, 2),
        io_wait_ms=0,
        num_writers=2,
        edits_per_writer=3,
        cache_capacity=8,
        seed=17,
    )


class TestReport:
    def test_report_is_json_ready(self, report):
        parsed = json.loads(json.dumps(report))
        assert parsed["workload"]["num_queries"] == 12

    def test_series_covers_every_thread_count(self, report):
        assert sorted(report["series"]) == ["1", "2"]
        for row in report["series"].values():
            assert row["seconds"] > 0 and row["qps"] > 0
        assert report["speedup_at_max"] == report["series"]["2"]["speedup"]

    def test_rankings_identical_to_sequential(self, report):
        assert report["identical_output"] is True


class TestChurn:
    def test_no_failed_requests(self, report):
        churn = report["churn"]
        assert churn["queries"] == 12
        assert churn["failed_requests"] == 0, churn["errors"]

    def test_no_lost_updates(self, report):
        churn = report["churn"]
        assert churn["num_writers"] == 2
        assert churn["lost_updates"] == 0


class TestValidation:
    def test_rejects_empty_thread_counts(self):
        with pytest.raises(ValueError, match="thread_counts"):
            run_serve_bench(thread_counts=())

    def test_rejects_nonpositive_thread_counts(self):
        with pytest.raises(ValueError, match="thread_counts"):
            run_serve_bench(thread_counts=(0, 2))
