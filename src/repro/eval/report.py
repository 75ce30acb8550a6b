"""One-shot report: every experiment, rendered to Markdown.

``python -m repro report`` runs the whole evaluation (Table 1 and
Figs. 5-7) and renders a self-contained Markdown report with the same
tables the benchmarks print, plus the qualitative checks of each
paper shape. ``quick=True`` shrinks the sweeps for smoke runs.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.eval.accesses import fig7_real_profile, fig7_synthetic
from repro.eval.sizes import fig5_real_profile, fig6_size_sweep, fig6_skew_sweep
from repro.eval.usability import run_usability_study, table1_rows

__all__ = ["generate_report"]

_FULL_SIZES = (500, 1000, 5000, 10000)
_QUICK_SIZES = (200, 500)
_FULL_SKEWS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
_QUICK_SKEWS = (0.0, 1.5, 3.0)


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend(
        "| " + " | ".join(str(value) for value in row) + " |" for row in rows
    )
    return "\n".join(lines)


def _series_table(x_label: str, x_values, series: dict) -> str:
    headers = [x_label, *series.keys()]
    rows = [
        [x, *(values[index] for values in series.values())]
        for index, x in enumerate(x_values)
    ]
    return _md_table(headers, rows)


def _check(label: str, passed: bool) -> str:
    return f"- {'PASS' if passed else 'FAIL'}: {label}"


def generate_report(quick: bool = False, seed: int = 17) -> str:
    """Run every experiment and return the Markdown report."""
    sizes = _QUICK_SIZES if quick else _FULL_SIZES
    skews = _QUICK_SKEWS if quick else _FULL_SKEWS
    sections: list[str] = [
        "# Evaluation report - Adding Context to Preferences (ICDE 2007)",
        f"_mode: {'quick' if quick else 'full'}; all workloads seeded._",
    ]

    # ------------------------------------------------------------ Table 1
    study = run_usability_study()
    sections.append("## Table 1 - usability study (simulated users)")
    sections.append(_md_table(*table1_rows(study)))
    sections.append(
        "\n".join(
            [
                _check(
                    "Jaccard >= Hierarchy on average",
                    study.mean("multi_cover_jaccard_pct")
                    >= study.mean("multi_cover_hierarchy_pct"),
                ),
                _check("exact-match agreement >= 70%", study.mean("exact_match_pct") >= 70),
            ]
        )
    )

    # -------------------------------------------------------------- Fig. 5
    fig5 = fig5_real_profile()
    cells = fig5.cells_by_label()
    num_bytes = fig5.bytes_by_label()
    labels = ["serial", *[f"order{i}" for i in range(1, 7)]]
    sections.append("## Fig. 5 - profile tree size, real profile")
    sections.append(
        _md_table(
            ["ordering", "cells", "bytes"],
            [[label, cells[label], num_bytes[label]] for label in labels],
        )
    )
    sections.append(
        "\n".join(
            [
                _check(
                    "every tree below serial (cells and bytes)",
                    all(cells[l] < cells["serial"] for l in labels[1:])
                    and all(num_bytes[l] < num_bytes["serial"] for l in labels[1:]),
                ),
                _check("order1 (large domains low) is smallest",
                       cells["order1"] == min(cells[l] for l in labels[1:])),
            ]
        )
    )

    # -------------------------------------------------------------- Fig. 6
    uniform = fig6_size_sweep("uniform", sizes, seed=seed)
    zipf = fig6_size_sweep("zipf", sizes, seed=seed)
    skew = fig6_skew_sweep(skews, seed=seed)
    sections.append("## Fig. 6 - synthetic tree sizes")
    sections.append("### left: uniform\n" + _series_table("#prefs", sizes, uniform))
    sections.append("### center: zipf(1.5)\n" + _series_table("#prefs", sizes, zipf))
    sections.append("### right: skew sweep\n" + _series_table("a", skews, skew))
    sections.append(
        "\n".join(
            [
                _check("zipf trees smaller than uniform",
                       zipf["order1"][-1] < uniform["order1"][-1]),
                _check(
                    "skew crossover: big-domain-high wins at high skew",
                    skew["order3"][-1] < skew["order1"][-1],
                ),
            ]
        )
    )

    # -------------------------------------------------------------- Fig. 7
    real = fig7_real_profile()
    synthetic = fig7_synthetic("uniform", sizes, seed=seed)
    sections.append("## Fig. 7 - resolution cell accesses")
    sections.append(
        "### left: real profile\n"
        + _md_table(
            ["method", "mean cells/query"],
            [[label, f"{m.mean_cells:.1f}"] for label, m in real.items()],
        )
    )
    sections.append(
        "### center/right: synthetic (uniform)\n"
        + _series_table(
            "#prefs",
            sizes,
            {k: [f"{v:.1f}" for v in vs] for k, vs in synthetic.items()},
        )
    )
    sections.append(
        "\n".join(
            [
                _check(
                    "tree beats scan on the real profile",
                    real["tree_exact"].mean_cells < real["serial_exact"].mean_cells
                    and real["tree_cover"].mean_cells < real["serial_cover"].mean_cells,
                ),
                _check(
                    "scan grows linearly, tree nearly flat",
                    synthetic["serial_exact"][-1] > 2 * synthetic["serial_exact"][0]
                    and synthetic["tree_exact"][-1] < 5 * max(synthetic["tree_exact"][0], 1),
                ),
            ]
        )
    )

    return "\n\n".join(sections) + "\n"
