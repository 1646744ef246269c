"""§VI ablation — Opt-EdgeCut vs Heuristic-ReducedOpt.

The paper could not evaluate Opt-EdgeCut beyond tiny trees ("its execution
times are prohibiting even for relatively small (e.g., 30 nodes) navigation
trees") and uses it only inside the heuristic.  This bench quantifies both
halves of that design decision on small random navigation trees:

  * quality: the heuristic's expected cost is close to optimal
    (identical when the component fits within N; bounded degradation when
    reduction kicks in), and
  * cost: Opt-EdgeCut runtime grows explosively with tree size, which is
    exactly why reduction is required.
"""

from __future__ import annotations

import time

import pytest

from repro.core.edgecut import Component
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.navigation_tree import NavigationTree
from repro.core.opt_edgecut import CutTree, OptEdgeCut
from repro.core.probabilities import ProbabilityModel
from repro.hierarchy.generator import generate_hierarchy
from tests.oracles.member_sets import tree_from_mapping


def random_navigation_tree(n_nodes: int, seed: int) -> NavigationTree:
    hierarchy = generate_hierarchy(target_size=n_nodes * 3, seed=seed)
    annotations = {}
    count = 0
    for node in hierarchy.iter_dfs():
        if node == hierarchy.root:
            continue
        annotations[node] = set(range(count * 3, count * 3 + 4 + (count % 5)))
        count += 1
        if count >= n_nodes - 1:
            break
    return tree_from_mapping(hierarchy, annotations)


def test_heuristic_quality_vs_optimal(report, benchmark):
    def sweep():
        results = []
        for seed in range(5):
            for n_nodes in (8, 10, 12):
                tree = random_navigation_tree(n_nodes, seed=seed + 50)
                if tree.size() < 4:
                    continue
                probs = ProbabilityModel(tree, lambda n: 200)
                component = Component(tree, tree.root)
                cut_tree = CutTree.from_component(tree, probs, component)
                optimal = OptEdgeCut(cut_tree, probs).solve()
                heuristic = HeuristicReducedOpt(tree, probs, max_reduced_nodes=6)
                decision = heuristic.best_cut(component)
                results.append((tree.size(), seed, optimal, decision))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "",
        "=" * 78,
        "ABLATION — Heuristic-ReducedOpt (N=6) expected cost vs Opt-EdgeCut optimum",
        "=" * 78,
        "%-8s %8s %14s %14s %10s" % ("nodes", "seed", "optimal", "heuristic", "ratio"),
        "-" * 78,
    ]
    ratios = []
    for size, seed, optimal, decision in results:
        assert decision.expected_cost is not None
        ratio = decision.expected_cost / max(optimal.expected_cost, 1e-9)
        ratios.append(ratio)
        lines.append(
            "%-8d %8d %14.3f %14.3f %10.2f"
            % (size, seed, optimal.expected_cost, decision.expected_cost, ratio)
        )
        # The heuristic can never beat the optimum it approximates.
        assert ratio >= 1.0 - 1e-9
    lines.append("-" * 78)
    lines.append("mean ratio: %.3f (1.0 = optimal)" % (sum(ratios) / len(ratios)))
    report("\n".join(lines))
    # Quality bound: within 2x of optimal on these small trees.
    assert sum(ratios) / len(ratios) < 2.0


def test_opt_edgecut_runtime_explodes(report, benchmark):
    """Why the heuristic exists: Opt-EdgeCut runtime vs component size."""
    lines = [
        "",
        "ABLATION — Opt-EdgeCut runtime growth (exponential in tree size)",
        "%-8s %14s" % ("nodes", "time (ms)"),
    ]

    def sweep():
        timings = []
        for n_nodes in (6, 9, 12, 15):
            tree = random_navigation_tree(n_nodes, seed=99)
            probs = ProbabilityModel(tree, lambda n: 200)
            component = Component(tree, tree.root)
            cut_tree = CutTree.from_component(tree, probs, component)
            started = time.perf_counter()
            OptEdgeCut(cut_tree, probs, max_nodes=16).solve()
            elapsed = time.perf_counter() - started
            timings.append((tree.size(), elapsed))
        return timings

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for size, elapsed in timings:
        lines.append("%-8d %14.3f" % (size, elapsed * 1000))
    report("\n".join(lines))
    # Largest tree costs more than the smallest (growth is monotone-ish).
    assert timings[-1][1] > timings[0][1]


@pytest.mark.parametrize("n_nodes", [8, 12])
def test_bench_opt_edgecut(benchmark, n_nodes):
    tree = random_navigation_tree(n_nodes, seed=7)
    probs = ProbabilityModel(tree, lambda n: 200)
    component = Component(tree, tree.root)
    cut_tree = CutTree.from_component(tree, probs, component)

    def solve():
        return OptEdgeCut(cut_tree, probs, max_nodes=16).solve()

    best = benchmark(solve)
    assert best.expected_cost >= 0


def test_bench_heuristic_on_small_tree(benchmark):
    tree = random_navigation_tree(12, seed=7)
    probs = ProbabilityModel(tree, lambda n: 200)
    component = Component(tree, tree.root)

    def solve():
        return HeuristicReducedOpt(tree, probs, max_reduced_nodes=6).best_cut(
            component
        )

    decision = benchmark(solve)
    assert decision.cut
