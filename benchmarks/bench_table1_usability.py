"""Table 1 - the usability study, with simulated users.

Regenerates the paper's Table 1: per user, the number of profile
modifications, the editing time, and the system-vs-user ranking
agreement for exact-match queries, single-cover queries, and
multi-cover queries under the Hierarchy and Jaccard distances.

Paper shapes to check in the printed table: modifications 12-38 and
times 15-45 min; agreements high (70-100%); Jaccard column >= Hierarchy
column (the paper credits Jaccard's tie-free rankings).
"""

from repro.eval import run_usability_study
from repro.eval.usability import format_report


def print_table1(study) -> None:
    print()
    print(format_report(study))
    print(
        f"means: exact={study.mean('exact_match_pct'):.1f}% "
        f"one-cover={study.mean('one_cover_pct'):.1f}% "
        f"hierarchy={study.mean('multi_cover_hierarchy_pct'):.1f}% "
        f"jaccard={study.mean('multi_cover_jaccard_pct'):.1f}%"
    )


def test_table1_user_study(benchmark, once):
    study = once(benchmark, run_usability_study)
    print_table1(study)
    assert len(study.rows) == 10
    assert study.mean("multi_cover_jaccard_pct") >= study.mean(
        "multi_cover_hierarchy_pct"
    )
    assert study.mean("exact_match_pct") >= 70.0
