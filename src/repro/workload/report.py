"""One-shot experiment report generation.

:func:`generate_report` runs the paper's core evaluation (Table I
statistics plus the Fig. 8/9/10 comparisons) on a materialized workload
and renders a self-contained Markdown report with measured tables and
ASCII figures — the programmatic path to regenerating the measured
sections of EXPERIMENTS.md, also exposed as ``bionav report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.simulator import NavigationOutcome, navigate_to_target
from repro.viz.figures import grouped_bar_chart
from repro.workload.builder import PreparedQuery, Workload

__all__ = ["QueryReport", "generate_report", "run_comparison"]


@dataclass(frozen=True)
class QueryReport:
    """All measured numbers for one workload query."""

    keyword: str
    citations: int
    tree_size: int
    tree_width: int
    tree_height: int
    with_duplicates: int
    target_level: int
    target_l: int
    target_lt: int
    static: NavigationOutcome
    bionav: NavigationOutcome

    @property
    def improvement(self) -> float:
        """Relative cost reduction of BioNav vs static (Fig. 8)."""
        if self.static.navigation_cost <= 0:
            return 0.0
        return 1.0 - self.bionav.navigation_cost / self.static.navigation_cost


def run_comparison(workload: Workload, prepared: PreparedQuery) -> QueryReport:
    """Measure one query end to end (both strategies, registry-built)."""
    static = navigate_to_target(
        prepared.tree,
        workload.strategy(prepared, "static_nav"),
        prepared.target_node,
        show_results=False,
    )
    bionav = navigate_to_target(
        prepared.tree,
        workload.strategy(prepared, "heuristic"),
        prepared.target_node,
        show_results=False,
    )
    tree = prepared.tree
    return QueryReport(
        keyword=prepared.spec.keyword,
        citations=len(prepared.pmids),
        tree_size=tree.size(),
        tree_width=tree.max_width(),
        tree_height=tree.height(),
        with_duplicates=tree.citations_with_duplicates(),
        target_level=workload.hierarchy.depth(prepared.target_node),
        target_l=len(tree.results(prepared.target_node)),
        target_lt=workload.database.store.medline_count(prepared.target_node),
        static=static,
        bionav=bionav,
    )


def generate_report(workload: Workload, title: str = "BioNav experiment report") -> str:
    """Run the core evaluation and render a Markdown report."""
    reports = [
        run_comparison(workload, workload.prepare(built.spec.keyword))
        for built in workload.queries
    ]
    lines: List[str] = ["# %s" % title, ""]

    # --- Table I ------------------------------------------------------
    lines += [
        "## Table I — workload statistics",
        "",
        "| keyword | cites | tree | width | height | w/dups | lvl | L(t) | LT(t) |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in reports:
        lines.append(
            "| %s | %d | %d | %d | %d | %d | %d | %d | %d |"
            % (
                r.keyword,
                r.citations,
                r.tree_size,
                r.tree_width,
                r.tree_height,
                r.with_duplicates,
                r.target_level,
                r.target_l,
                r.target_lt,
            )
        )
    lines.append("")

    # --- Figure 8 -----------------------------------------------------
    lines += [
        "## Figure 8 — navigation cost (static vs BioNav)",
        "",
        "| keyword | static | bionav | improvement |",
        "|---|---|---|---|",
    ]
    for r in reports:
        lines.append(
            "| %s | %.0f | %.0f | %.0f%% |"
            % (r.keyword, r.static.navigation_cost, r.bionav.navigation_cost, 100 * r.improvement)
        )
    average = sum(r.improvement for r in reports) / len(reports)
    from repro.analysis.significance import summarize_improvements

    summary = summarize_improvements(
        [r.static.navigation_cost for r in reports],
        [r.bionav.navigation_cost for r in reports],
        n_resamples=2000,
    )
    lines += [
        "| **average** | | | **%.0f%%** |" % (100 * average),
        "",
        "Mean improvement %.0f%% (95%% bootstrap CI [%.0f%%, %.0f%%]; "
        "Wilcoxon p = %.4f; sign-test p = %.4f over %d queries)."
        % (
            100 * summary.mean_improvement,
            100 * summary.ci_low,
            100 * summary.ci_high,
            summary.wilcoxon_p,
            summary.sign_p,
            summary.n_pairs,
        ),
        "",
        "```",
        grouped_bar_chart(
            {
                r.keyword: {
                    "static": r.static.navigation_cost,
                    "bionav": r.bionav.navigation_cost,
                }
                for r in reports
            }
        ),
        "```",
        "",
    ]

    # --- Figure 9 -----------------------------------------------------
    lines += [
        "## Figure 9 — EXPAND actions",
        "",
        "| keyword | static | bionav |",
        "|---|---|---|",
    ]
    for r in reports:
        lines.append(
            "| %s | %d | %d |" % (r.keyword, r.static.expand_actions, r.bionav.expand_actions)
        )
    lines.append("")

    # --- Figure 10 ----------------------------------------------------
    lines += [
        "## Figure 10 — Heuristic-ReducedOpt time per EXPAND",
        "",
        "| keyword | expands | avg ms | avg reduced size |",
        "|---|---|---|---|",
    ]
    for r in reports:
        expands = r.bionav.expands
        avg_reduced = (
            sum(e.reduced_size for e in expands) / len(expands) if expands else 0.0
        )
        lines.append(
            "| %s | %d | %.2f | %.1f |"
            % (
                r.keyword,
                len(expands),
                r.bionav.average_expand_seconds * 1000,
                avg_reduced,
            )
        )
    lines += [
        "",
        "_Generated by `repro.workload.report` on a simulated substrate; see_",
        "_DESIGN.md for the substitutions relative to the paper's testbed._",
        "",
    ]
    return "\n".join(lines)
