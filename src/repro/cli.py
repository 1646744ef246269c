"""Command-line interface to the BioNav reproduction.

Subcommands::

    bionav demo                 # Fig. 1/2-style walkthrough on the paper fragment
    bionav search KEYWORD       # run a workload query and auto-navigate to its target
    bionav workload             # print the measured Table I statistics
    bionav compare              # Fig. 8/9 summary: BioNav vs static navigation
    bionav html KEYWORD FILE    # export a navigation snapshot as a standalone HTML page
    bionav report FILE          # run the core evaluation and write a Markdown report

All subcommands materialize the synthetic workload on the fly; use
``--hierarchy-size`` and ``--seed`` to scale or vary it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.simulator import navigate_to_target
from repro.pipeline.registry import default_registry
from repro.viz.render import render_active_tree
from repro.workload.builder import Workload, build_workload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the bionav argument parser."""
    parser = argparse.ArgumentParser(
        prog="bionav",
        description="BioNav (ICDE 2009) reproduction: cost-aware result navigation.",
    )
    parser.add_argument(
        "--hierarchy-size",
        type=int,
        default=4000,
        help="synthetic MeSH-like hierarchy size (default 4000)",
    )
    parser.add_argument("--seed", type=int, default=7, help="master RNG seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("demo", help="walk through a BioNav navigation")

    search = subparsers.add_parser("search", help="navigate one workload query")
    search.add_argument("keyword", help="a Table I keyword, e.g. 'prothymosin'")
    search.add_argument(
        "--strategy",
        choices=default_registry().all_names(),
        default="heuristic",
        help="expansion strategy, by registry name or alias (default heuristic)",
    )

    subparsers.add_parser("workload", help="print measured Table I statistics")
    subparsers.add_parser("compare", help="BioNav vs static cost on all queries")

    html_cmd = subparsers.add_parser(
        "html", help="export a navigation snapshot to a standalone HTML page"
    )
    html_cmd.add_argument("keyword", help="a Table I keyword")
    html_cmd.add_argument("output", help="path of the HTML file to write")
    html_cmd.add_argument(
        "--expands",
        type=int,
        default=2,
        help="number of root EXPAND actions before the snapshot (default 2)",
    )
    html_cmd.add_argument(
        "--rank",
        choices=("relevance", "count"),
        default="relevance",
        help="sibling ordering in the exported page (default relevance)",
    )

    report_cmd = subparsers.add_parser(
        "report", help="run the core evaluation and write a Markdown report"
    )
    report_cmd.add_argument("output", help="path of the Markdown file to write")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    workload = build_workload(hierarchy_size=args.hierarchy_size, seed=args.seed)
    if args.command == "demo":
        return _cmd_demo(workload)
    if args.command == "search":
        return _cmd_search(workload, args.keyword, args.strategy)
    if args.command == "workload":
        return _cmd_workload(workload)
    if args.command == "compare":
        return _cmd_compare(workload)
    if args.command == "html":
        return _cmd_html(workload, args.keyword, args.output, args.expands, args.rank)
    if args.command == "report":
        return _cmd_report(workload, args.output)
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
def _cmd_demo(workload: Workload) -> int:
    prepared = workload.prepare("prothymosin")
    print("Query: prothymosin  (%d citations)" % len(prepared.pmids))
    print(
        "Navigation tree: %d nodes, %d with duplicates"
        % (prepared.tree.size(), prepared.tree.citations_with_duplicates())
    )
    session = workload.open_session("prothymosin")
    print("\nInitial EXPAND of the root (BioNav reveals a few descendants):\n")
    session.expand(prepared.tree.root)
    print(render_active_tree(session.active))
    print(
        "\nCost so far: %d (%d concepts revealed + %d EXPANDs)"
        % (
            session.navigation_cost,
            session.ledger.concepts_revealed,
            session.ledger.expand_actions,
        )
    )
    return 0


def _cmd_search(workload: Workload, keyword: str, strategy_name: str) -> int:
    try:
        prepared = workload.prepare(keyword)
    except KeyError:
        print("unknown workload keyword %r" % keyword, file=sys.stderr)
        return 2
    strategy = workload.strategy(prepared, strategy_name)
    outcome = navigate_to_target(prepared.tree, strategy, prepared.target_node)
    print("Query: %s  (%d citations)" % (keyword, len(prepared.pmids)))
    print("Target concept: %s" % prepared.tree.label(prepared.target_node))
    print("Strategy: %s" % strategy.name)
    print("Reached target: %s" % outcome.reached)
    print("EXPAND actions: %d" % outcome.expand_actions)
    print("Concepts revealed: %d" % outcome.concepts_revealed)
    print("Navigation cost: %d" % outcome.navigation_cost)
    return 0


def _cmd_workload(workload: Workload) -> int:
    header = (
        "keyword",
        "cites",
        "tree",
        "width",
        "height",
        "dup",
        "L(t)",
        "LT(t)",
        "lvl",
    )
    print("%-26s %6s %6s %6s %7s %7s %6s %8s %4s" % header)
    for prepared in workload.prepare_all():
        tree = prepared.tree
        target = prepared.target_node
        print(
            "%-26s %6d %6d %6d %7d %7d %6d %8d %4d"
            % (
                prepared.spec.keyword,
                len(prepared.pmids),
                tree.size(),
                tree.max_width(),
                tree.height(),
                tree.citations_with_duplicates(),
                len(tree.results(target)),
                workload.database.store.medline_count(target),
                workload.hierarchy.depth(target),
            )
        )
    return 0


def _cmd_compare(workload: Workload) -> int:
    print("%-26s %10s %10s %12s" % ("keyword", "static", "bionav", "improvement"))
    improvements: List[float] = []
    for prepared in workload.prepare_all():
        static = navigate_to_target(
            prepared.tree, workload.strategy(prepared, "static_nav"), prepared.target_node
        )
        heuristic = navigate_to_target(
            prepared.tree,
            workload.strategy(prepared, "heuristic"),
            prepared.target_node,
        )
        improvement = 1.0 - heuristic.navigation_cost / max(static.navigation_cost, 1)
        improvements.append(improvement)
        print(
            "%-26s %10d %10d %11.0f%%"
            % (
                prepared.spec.keyword,
                static.navigation_cost,
                heuristic.navigation_cost,
                improvement * 100,
            )
        )
    print(
        "%-26s %10s %10s %11.0f%%"
        % ("average", "", "", 100 * sum(improvements) / len(improvements))
    )
    return 0


def _cmd_html(
    workload: Workload, keyword: str, output: str, expands: int, rank: str
) -> int:
    from repro.core.relevance import ranked_visualization
    from repro.viz.html import active_tree_to_html

    try:
        prepared = workload.prepare(keyword)
    except KeyError:
        print("unknown workload keyword %r" % keyword, file=sys.stderr)
        return 2
    session = workload.open_session(keyword)
    for _ in range(max(expands, 0)):
        if not session.active.is_expandable(prepared.tree.root):
            break
        session.expand(prepared.tree.root)
    rows = ranked_visualization(session.active, prepared.probs, by=rank)
    page = active_tree_to_html(
        session.active,
        title="BioNav — %s (%d citations)" % (keyword, len(prepared.pmids)),
        highlight=[prepared.target_node] if session.active.is_visible(prepared.target_node) else [],
        rows=rows,
    )
    with open(output, "w") as handle:
        handle.write(page)
    print("wrote %s (%d visible concepts)" % (output, len(rows)))
    return 0


def _cmd_report(workload: Workload, output: str) -> int:
    from repro.workload.report import generate_report

    text = generate_report(workload)
    with open(output, "w") as handle:
        handle.write(text)
    print("wrote %s (%d lines)" % (output, len(text.splitlines())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
