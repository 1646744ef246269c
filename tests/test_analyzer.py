"""Tests for the ``tools/analyzer`` static-analysis framework.

Per-rule fixture snippets (positive, negative, suppressed, baselined),
framework mechanics (registry, suppressions, baseline, reporters), the
acceptance fixtures from the issue (unsorted set iteration in
``core/opt_edgecut.py``, recursion in ``navigation_tree.py``, float
``==`` in ``cost_model.py``), and the ``tools/lint.py`` shim CLI.
"""

from __future__ import annotations

import ast
import json
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analyzer import all_rules, analyze  # noqa: E402
from tools.analyzer.baseline import (  # noqa: E402
    apply_baseline,
    load_baseline,
    write_baseline,
)
from tools.analyzer.reporters import json_report, text_report  # noqa: E402
from tools.analyzer.runner import main  # noqa: E402
from tools.analyzer.rules import bitmask  # noqa: E402
from tests.oracles.member_sets import tree_from_mapping


def run_rules(tmp_path, relpath, source, lint_only=False):
    """Write one fixture file and return its findings (no baseline)."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    findings, _, _, _ = analyze(
        paths=[str(target)],
        lint_only=lint_only,
        baseline_path=tmp_path / "no-baseline.json",
    )
    return findings


def rule_ids(findings):
    return {f.rule for f in findings}


class TestRegistry:
    def test_rule_catalog_is_complete(self):
        ids = {rule.id for rule in all_rules()}
        assert {
            "syntax-error",
            "unused-import",
            "duplicate-import",
            "star-import",
            "mutable-default",
            "shadowed-builtin",
            "bare-except",
            "missing-hints",
            "determinism",
            "no-recursion",
            "float-equality",
            "bitmask-bounds",
            "lock-discipline",
            "solver-via-registry",
            "substrate-boundary",
            "vectorize",
        } <= ids

    def test_lint_only_subset_excludes_semantic_rules(self):
        lint_ids = {rule.id for rule in all_rules(lint_only=True)}
        assert "unused-import" in lint_ids
        assert "determinism" not in lint_ids
        assert "no-recursion" not in lint_ids

    def test_every_rule_has_severity_and_description(self):
        for rule in all_rules():
            assert rule.severity in ("error", "warning")
            assert rule.description

    def test_bitmask_width_matches_solver_constant(self):
        from repro.core.opt_edgecut import MAX_OPT_NODES

        assert bitmask.MAX_OPT_NODES == MAX_OPT_NODES


class TestDeterminismRule:
    def test_flags_set_iteration_in_core(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/opt_edgecut.py",
            "def f(xs):\n    total = 0.0\n    for x in set(xs):\n        total += x\n    return total\n",
        )
        assert "determinism" in rule_ids(findings)

    def test_flags_frozenset_annotated_parameter(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/mod.py",
            "from typing import FrozenSet\n"
            "def f(component: FrozenSet[int]):\n"
            "    return [x + 1 for x in component]\n",
        )
        assert "determinism" in rule_ids(findings)

    def test_sorted_iteration_is_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/mod.py",
            "def f(xs):\n    return [x for x in sorted(set(xs))]\n",
        )
        assert "determinism" not in rule_ids(findings)

    def test_order_free_consumption_is_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/mod.py",
            "def f(xs):\n    s = set(xs)\n    return len(s), min(s), frozenset(s)\n",
        )
        assert "determinism" not in rule_ids(findings)

    def test_outside_core_not_flagged(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "web/mod.py",
            "def f(xs):\n    return [x for x in set(xs)]\n",
        )
        assert "determinism" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/mod.py",
            "def f(xs):\n"
            "    mask = 0\n"
            "    for x in set(xs):  # repro: ignore[determinism]\n"
            "        mask |= x\n"
            "    return mask\n",
        )
        assert "determinism" not in rule_ids(findings)


class TestNoRecursionRule:
    def test_flags_recursive_function(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "navigation_tree.py",
            "def walk(node):\n    for child in node.children:\n        walk(child)\n",
        )
        assert "no-recursion" in rule_ids(findings)

    def test_flags_recursive_method(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "active_tree.py",
            "class T:\n"
            "    def visit(self, n):\n"
            "        for c in n.children:\n"
            "            self.visit(c)\n",
        )
        assert "no-recursion" in rule_ids(findings)

    def test_flags_recursive_sibling_ranking(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "relevance.py",
            "def rank(rows, children):\n"
            "    ordered = []\n"
            "    def emit(row):\n"
            "        ordered.append(row)\n"
            "        for child in children.get(row, []):\n"
            "            emit(child)\n"
            "    for row in rows:\n"
            "        emit(row)\n"
            "    return ordered\n",
        )
        assert "no-recursion" in rule_ids(findings)

    def test_iterative_traversal_is_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "partition.py",
            "def walk(root):\n"
            "    stack = [root]\n"
            "    while stack:\n"
            "        node = stack.pop()\n"
            "        stack.extend(node.children)\n",
        )
        assert "no-recursion" not in rule_ids(findings)

    def test_other_modules_may_recurse(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/other.py",
            "def walk(node):\n    return [walk(c) for c in node.children]\n",
        )
        assert "no-recursion" not in rule_ids(findings)


class TestFloatEqualityRule:
    def test_flags_float_equality(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "cost_model.py",
            "def f(x):\n    return x == 0.0\n",
        )
        assert "float-equality" in rule_ids(findings)

    def test_flags_division_inequality_comparison(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "probabilities.py",
            "def f(a, b, c):\n    return a / b != c\n",
        )
        assert "float-equality" in rule_ids(findings)

    def test_ordering_comparisons_are_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "cost_model.py",
            "def f(x):\n    return x <= 0.0 or x > 1.0\n",
        )
        assert "float-equality" not in rule_ids(findings)

    def test_sanctioned_helper_is_exempt(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "cost_model.py",
            "def costs_equal(a, b):\n    return a == b * 1.0\n",
        )
        assert "float-equality" not in rule_ids(findings)

    def test_integer_equality_is_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "cost_model.py",
            "def f(n):\n    return n == 0\n",
        )
        assert "float-equality" not in rule_ids(findings)


class TestBitmaskBoundsRule:
    def test_flags_literal_shift_amount(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "opt_edgecut.py",
            "def f(x):\n    return x << 16\n",
        )
        assert "bitmask-bounds" in rule_ids(findings)

    def test_flags_hand_written_mask(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "opt_edgecut.py",
            "def f(x):\n    return x & 0x1FFFF\n",
        )
        assert "bitmask-bounds" in rule_ids(findings)

    def test_flags_literal_size_cap(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "opt_edgecut.py",
            "def f(tree):\n    if len(tree) > 16:\n        raise ValueError\n",
        )
        assert "bitmask-bounds" in rule_ids(findings)

    def test_index_shift_is_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "opt_edgecut.py",
            "def f(node, mask):\n    return mask | (1 << node)\n",
        )
        assert "bitmask-bounds" not in rule_ids(findings)

    def test_only_applies_to_opt_edgecut(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/other.py",
            "def f(x):\n    return x << 16\n",
        )
        assert "bitmask-bounds" not in rule_ids(findings)


_LOCKED_CLASS_HEADER = (
    "import threading\n"
    "class Cache:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.hits = 0\n"
    "        self._entries = {}\n"
)


class TestLockDisciplineRule:
    def test_flags_unlocked_counter_update(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "serving/cache.py",
            _LOCKED_CLASS_HEADER + "    def bump(self):\n        self.hits += 1\n",
        )
        assert "lock-discipline" in rule_ids(findings)

    def test_flags_unlocked_subscript_write(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "serving/cache.py",
            _LOCKED_CLASS_HEADER
            + "    def put(self, k, v):\n        self._entries[k] = v\n",
        )
        assert "lock-discipline" in rule_ids(findings)

    def test_locked_mutation_is_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "serving/cache.py",
            _LOCKED_CLASS_HEADER
            + "    def bump(self):\n"
            + "        with self._lock:\n"
            + "            self.hits += 1\n"
            + "            self._entries['k'] = 1\n",
        )
        assert "lock-discipline" not in rule_ids(findings)

    def test_init_and_locked_helpers_are_exempt(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "serving/cache.py",
            _LOCKED_CLASS_HEADER
            + "    def _insert_locked(self, k, v):\n"
            + "        self._entries[k] = v\n",
        )
        assert "lock-discipline" not in rule_ids(findings)

    def test_class_without_lock_not_checked(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "serving/views.py",
            "class Renderer:\n"
            "    def __init__(self):\n"
            "        self.pages = 0\n"
            "    def bump(self):\n"
            "        self.pages += 1\n",
        )
        assert "lock-discipline" not in rule_ids(findings)

    def test_outside_serving_and_web_not_flagged(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/cache.py",
            _LOCKED_CLASS_HEADER + "    def bump(self):\n        self.hits += 1\n",
        )
        assert "lock-discipline" not in rule_ids(findings)

    def test_cluster_modules_are_in_scope(self, tmp_path):
        """The multiprocess layer shares the serving lock discipline."""
        findings = run_rules(
            tmp_path,
            "cluster/stagecache.py",
            _LOCKED_CLASS_HEADER + "    def bump(self):\n        self.hits += 1\n",
        )
        assert "lock-discipline" in rule_ids(findings)

    def test_metrics_registry_is_in_scope(self, tmp_path):
        """Every counter lives in ``repro/obs.py``; its writes hold the lock."""
        findings = run_rules(
            tmp_path,
            "repro/obs.py",
            _LOCKED_CLASS_HEADER + "    def bump(self):\n        self.hits += 1\n",
        )
        assert "lock-discipline" in rule_ids(findings)

    def test_cluster_locked_mutation_is_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "cluster/router.py",
            _LOCKED_CLASS_HEADER
            + "    def bump(self):\n"
            + "        with self._lock:\n"
            + "            self.hits += 1\n",
        )
        assert "lock-discipline" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "serving/cache.py",
            _LOCKED_CLASS_HEADER
            + "    def bump(self):\n"
            + "        self.hits += 1  # repro: ignore[lock-discipline]\n",
        )
        assert "lock-discipline" not in rule_ids(findings)


class TestVectorizeRule:
    def test_flags_for_loop_over_array_field(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/mod.py",
            "def f(probs):\n"
            "    total = 0.0\n"
            "    for value in probs.explore_mass:\n"
            "        total += value\n"
            "    return total\n",
        )
        assert "vectorize" in rule_ids(findings)

    def test_flags_comprehension_over_tolist(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/mod.py",
            "def f(probs):\n"
            "    return [c + 1 for c in probs.result_counts.tolist()]\n",
        )
        assert "vectorize" in rule_ids(findings)

    def test_flags_enumerate_wrapper(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/mod.py",
            "def f(probs):\n"
            "    out = {}\n"
            "    for i, value in enumerate(probs.explore_mass):\n"
            "        out[i] = value\n"
            "    return out\n",
        )
        assert "vectorize" in rule_ids(findings)

    def test_whole_array_operations_are_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/mod.py",
            "import numpy as np\n"
            "def f(probs, flat):\n"
            "    gathered = probs.explore_mass[flat]\n"
            "    return float(np.sum(gathered))\n",
        )
        assert "vectorize" not in rule_ids(findings)

    def test_unrelated_attribute_loop_is_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/mod.py",
            "def f(plan):\n"
            "    return [step.cost for step in plan.steps]\n",
        )
        assert "vectorize" not in rule_ids(findings)

    def test_outside_core_not_flagged(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "analysis/mod.py",
            "def f(probs):\n"
            "    return [v for v in probs.explore_mass]\n",
        )
        assert "vectorize" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/mod.py",
            "def f(probs):\n"
            "    total = 0.0\n"
            "    for v in probs.explore_mass.tolist():  # repro: ignore[vectorize]\n"
            "        total += v\n"
            "    return total\n",
        )
        assert "vectorize" not in rule_ids(findings)

    def test_store_module_cold_path_loop_flagged(self, tmp_path):
        """substrate/store.py is in scope: mmap-column loops are cold-path."""
        findings = run_rules(
            tmp_path,
            "substrate/store.py",
            "class S:\n"
            "    def f(self):\n"
            "        return [int(p) for p in self._pmids]\n",
        )
        assert "vectorize" in rule_ids(findings)

    def test_navigation_tree_cold_path_loop_flagged(self, tmp_path):
        """core/navigation_tree.py embedded-tree buffers are in scope."""
        findings = run_rules(
            tmp_path,
            "core/navigation_tree.py",
            "class T:\n"
            "    def f(self):\n"
            "        out = []\n"
            "        for node in self._order.tolist():\n"
            "            out.append(node)\n"
            "        return out\n",
        )
        assert "vectorize" in rule_ids(findings)

    def test_other_substrate_module_not_in_scope(self, tmp_path):
        """Only store.py joins the scope — e.g. builder.py stays exempt."""
        findings = run_rules(
            tmp_path,
            "substrate/builder.py",
            "class B:\n"
            "    def f(self):\n"
            "        return [int(p) for p in self._pmids]\n",
        )
        assert "vectorize" not in rule_ids(findings)


class TestSolverViaRegistryRule:
    def test_flags_from_import_of_solver_module(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "serving/runtime.py",
            "from repro.core.heuristic import HeuristicReducedOpt\n"
            "print(HeuristicReducedOpt)\n",
        )
        assert "solver-via-registry" in rule_ids(findings)

    def test_flags_plain_import_of_solver_module(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "workload/builder.py",
            "import repro.core.static_nav\nprint(repro.core.static_nav)\n",
        )
        assert "solver-via-registry" in rule_ids(findings)

    def test_flags_solver_module_via_core_package(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "workload/builder.py",
            "from repro.core import gopubmed\nprint(gopubmed)\n",
        )
        assert "solver-via-registry" in rule_ids(findings)

    def test_flags_relative_solver_import(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "src/repro/workload/builder.py",
            "from ..core.opt_edgecut import OptEdgeCut\nprint(OptEdgeCut)\n",
        )
        assert "solver-via-registry" in rule_ids(findings)

    def test_core_package_reexports_are_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "serving/runtime.py",
            "from repro.core import NavigationTree\nprint(NavigationTree)\n",
        )
        assert "solver-via-registry" not in rule_ids(findings)

    def test_non_solver_core_modules_are_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "serving/runtime.py",
            "from repro.core.navigation_tree import NavigationTree\n"
            "print(NavigationTree)\n",
        )
        assert "solver-via-registry" not in rule_ids(findings)

    def test_core_modules_may_import_each_other(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/exact.py",
            "from repro.core.opt_edgecut import OptEdgeCut\nprint(OptEdgeCut)\n",
        )
        assert "solver-via-registry" not in rule_ids(findings)

    def test_registry_module_is_exempt(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "pipeline/registry.py",
            "from repro.core.heuristic import HeuristicReducedOpt\n"
            "print(HeuristicReducedOpt)\n",
        )
        assert "solver-via-registry" not in rule_ids(findings)

    def test_tests_are_lint_only_and_exempt(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "tests/test_x.py",
            "from repro.core.heuristic import HeuristicReducedOpt\n"
            "print(HeuristicReducedOpt)\n",
        )
        assert "solver-via-registry" not in rule_ids(findings)

    def test_rewired_call_sites_are_clean_in_repo(self):
        findings, _, _, _ = analyze(
            paths=[
                "src/repro/bionav.py",
                "src/repro/cli.py",
                "src/repro/serving/runtime.py",
                "src/repro/workload/builder.py",
            ],
            baseline_path=REPO_ROOT / "tools" / "analyzer" / "no-baseline.json",
        )
        assert "solver-via-registry" not in rule_ids(findings)


class TestSubstrateBoundaryRule:
    def test_flags_from_import_of_tables_module(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "search/engine.py",
            "from repro.storage.index import InvertedIndex\n"
            "print(InvertedIndex)\n",
        )
        assert "substrate-boundary" in rule_ids(findings)

    def test_flags_plain_import_of_index_module(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "serving/runtime.py",
            "import repro.storage.index\nprint(repro.storage.index)\n",
        )
        assert "substrate-boundary" in rule_ids(findings)

    def test_flags_module_via_storage_package(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "search/engine.py",
            "from repro.storage import index\nprint(index)\n",
        )
        assert "substrate-boundary" in rule_ids(findings)

    def test_flags_relative_storage_internal_import(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "src/repro/search/engine.py",
            "from ..storage.index import tokenize\nprint(tokenize)\n",
        )
        assert "substrate-boundary" in rule_ids(findings)

    def test_storage_package_reexports_are_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "search/engine.py",
            "from repro.storage import InvertedIndex, tokenize\n"
            "print(InvertedIndex, tokenize)\n",
        )
        assert "substrate-boundary" not in rule_ids(findings)

    def test_storage_database_module_is_clean(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "pipeline/stages.py",
            "from repro.storage.database import BioNavDatabase\n"
            "print(BioNavDatabase)\n",
        )
        assert "substrate-boundary" not in rule_ids(findings)

    def test_storage_substrate_and_corpus_are_exempt(self, tmp_path):
        for owner in ("storage/harvest.py", "substrate/store.py", "corpus/loader.py"):
            findings = run_rules(
                tmp_path,
                owner,
                "from repro.storage.index import InvertedIndex\n"
                "print(InvertedIndex)\n",
            )
            assert "substrate-boundary" not in rule_ids(findings), owner

    def test_benchmarks_are_exempt(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "benchmarks/bench_tables.py",
            "from repro.storage.index import InvertedIndex\n"
            "print(InvertedIndex)\n",
        )
        assert "substrate-boundary" not in rule_ids(findings)

    def test_tests_are_lint_only_and_exempt(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "tests/test_x.py",
            "from repro.storage.index import InvertedIndex\n"
            "print(InvertedIndex)\n",
        )
        assert "substrate-boundary" not in rule_ids(findings)

    def test_routed_layers_are_clean_in_repo(self):
        findings, _, _, _ = analyze(
            paths=[
                "src/repro/search/engine.py",
                "src/repro/search/ranking.py",
                "src/repro/search/suggest.py",
                "src/repro/serving/runtime.py",
                "src/repro/cluster/workers.py",
            ],
            baseline_path=REPO_ROOT / "tools" / "analyzer" / "no-baseline.json",
        )
        assert "substrate-boundary" not in rule_ids(findings)


class TestGenericRules:
    def test_mutable_default(self, tmp_path):
        findings = run_rules(tmp_path, "m.py", "def f(xs=[]):\n    return xs\n")
        assert "mutable-default" in rule_ids(findings)

    def test_immutable_default_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, "m.py", "def f(xs=()):\n    return xs\n")
        assert "mutable-default" not in rule_ids(findings)

    def test_shadowed_builtin_parameter(self, tmp_path):
        findings = run_rules(tmp_path, "m.py", "def f(list):\n    return list\n")
        assert "shadowed-builtin" in rule_ids(findings)

    def test_class_attribute_is_not_a_shadow(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "m.py",
            "class Rule:\n    id = 'x'\n    type: str = 'y'\n",
        )
        assert "shadowed-builtin" not in rule_ids(findings)

    def test_bare_except(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "m.py",
            "def f():\n    try:\n        pass\n    except:\n        pass\n",
        )
        assert "bare-except" in rule_ids(findings)

    def test_missing_hints_on_public_api(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "repro/m.py",
            "__all__ = ['f']\n\ndef f(x):\n    return x\n",
        )
        messages = [f.message for f in findings if f.rule == "missing-hints"]
        assert any("lacks a type hint" in m for m in messages)
        assert any("return type hint" in m for m in messages)

    def test_private_and_unexported_functions_unchecked(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "repro/m.py",
            "__all__ = ['f']\n\ndef f(x: int) -> int:\n    return x\n\ndef g(y):\n    return y\n",
        )
        assert "missing-hints" not in rule_ids(findings)


class TestImportRules:
    def test_unused_import(self, tmp_path):
        findings = run_rules(tmp_path, "m.py", "import os\n\nVALUE = 1\n")
        assert "unused-import" in rule_ids(findings)

    def test_used_import_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, "m.py", "import os\n\nVALUE = os.sep\n")
        assert "unused-import" not in rule_ids(findings)

    def test_init_reexports_are_exempt(self, tmp_path):
        findings = run_rules(tmp_path, "pkg/__init__.py", "import os\n")
        assert "unused-import" not in rule_ids(findings)

    def test_duplicate_import(self, tmp_path):
        findings = run_rules(
            tmp_path, "m.py", "import os\nimport os\n\nVALUE = os.sep\n"
        )
        assert "duplicate-import" in rule_ids(findings)

    def test_star_import(self, tmp_path):
        findings = run_rules(tmp_path, "m.py", "from os.path import *\n")
        assert "star-import" in rule_ids(findings)

    def test_syntax_error_reported(self, tmp_path):
        findings = run_rules(tmp_path, "m.py", "def broken(:\n")
        assert "syntax-error" in rule_ids(findings)


class TestSuppressions:
    def test_wildcard_suppression(self, tmp_path):
        findings = run_rules(
            tmp_path, "m.py", "import os  # repro: ignore[*]\n\nVALUE = 1\n"
        )
        assert findings == []

    def test_suppression_is_rule_specific(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "m.py",
            "import os  # repro: ignore[duplicate-import]\n\nVALUE = 1\n",
        )
        assert "unused-import" in rule_ids(findings)


class TestBaseline:
    def _analyze(self, target, baseline):
        return analyze(paths=[str(target)], baseline_path=baseline)

    def test_baselined_findings_do_not_fail(self, tmp_path):
        bad = tmp_path / "m.py"
        bad.write_text("import os\n\nVALUE = 1\n")
        baseline_file = tmp_path / "baseline.json"
        first, _, _, _ = self._analyze(bad, tmp_path / "missing.json")
        assert first
        write_baseline(baseline_file, first)
        fresh, _, baselined, stale = self._analyze(bad, baseline_file)
        assert fresh == []
        assert baselined == len(first)
        assert stale == []

    def test_new_findings_exceed_the_baseline(self, tmp_path):
        bad = tmp_path / "m.py"
        bad.write_text("import os\n\nVALUE = 1\n")
        baseline_file = tmp_path / "baseline.json"
        first, _, _, _ = self._analyze(bad, tmp_path / "missing.json")
        write_baseline(baseline_file, first)
        bad.write_text("import os\nimport json\n\nVALUE = 1\n")
        fresh, _, _, _ = self._analyze(bad, baseline_file)
        assert [f.message for f in fresh] == ["unused import 'json'"]

    def test_fixed_findings_become_stale_entries(self, tmp_path):
        bad = tmp_path / "m.py"
        bad.write_text("import os\n\nVALUE = 1\n")
        baseline_file = tmp_path / "baseline.json"
        first, _, _, _ = self._analyze(bad, tmp_path / "missing.json")
        write_baseline(baseline_file, first)
        bad.write_text("VALUE = 1\n")
        fresh, _, _, stale = self._analyze(bad, baseline_file)
        assert fresh == []
        assert len(stale) == 1

    def test_round_trip_and_version_check(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [])
        assert load_baseline(baseline_file) == {}
        baseline_file.write_text('{"version": 99, "findings": {}}')
        with pytest.raises(ValueError):
            load_baseline(baseline_file)

    def test_apply_baseline_counts_per_fingerprint(self):
        from tools.analyzer.core import Finding

        findings = [
            Finding("r", "p.py", line, "msg", "warning") for line in (1, 2, 3)
        ]
        fresh, stale = apply_baseline(findings, {findings[0].key: 2})
        assert [f.line for f in fresh] == [3]
        assert stale == []


class TestReporters:
    def test_text_report_lists_findings_and_summary(self):
        from tools.analyzer.core import Finding

        report = text_report(
            [Finding("unused-import", "m.py", 3, "unused import 'os'", "warning")],
            files_analyzed=1,
        )
        assert "m.py:3: [warning] unused-import: unused import 'os'" in report
        assert "1 finding(s)" in report

    def test_json_report_is_machine_readable(self):
        from tools.analyzer.core import Finding

        payload = json.loads(
            json_report(
                [Finding("determinism", "core/m.py", 7, "msg", "error")],
                files_analyzed=4,
                baselined=2,
            )
        )
        assert payload["files_analyzed"] == 4
        assert payload["baselined"] == 2
        assert payload["findings"][0]["rule"] == "determinism"
        assert payload["findings"][0]["line"] == 7


class TestAcceptanceFixtures:
    """The issue's gate: known-bad fixtures must fail ``main``."""

    def _main_exit(self, tmp_path, relpath, source):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return main(
            [str(target), "--baseline", str(tmp_path / "empty-baseline.json")]
        )

    def test_unsorted_set_iteration_in_opt_edgecut_fails(self, tmp_path, capsys):
        status = self._main_exit(
            tmp_path,
            "core/opt_edgecut.py",
            "def f(xs):\n    return [x for x in set(xs)]\n",
        )
        assert status == 1
        assert "determinism" in capsys.readouterr().out

    def test_recursive_traversal_in_navigation_tree_fails(self, tmp_path, capsys):
        status = self._main_exit(
            tmp_path,
            "navigation_tree.py",
            "def walk(n):\n    return [walk(c) for c in n.children]\n",
        )
        assert status == 1
        assert "no-recursion" in capsys.readouterr().out

    def test_float_equality_in_cost_model_fails(self, tmp_path, capsys):
        status = self._main_exit(
            tmp_path,
            "cost_model.py",
            "def f(cost):\n    return cost == 1.0\n",
        )
        assert status == 1
        assert "float-equality" in capsys.readouterr().out

    def test_unlocked_mutation_in_serving_fails(self, tmp_path, capsys):
        status = self._main_exit(
            tmp_path,
            "serving/cache.py",
            _LOCKED_CLASS_HEADER + "    def bump(self):\n        self.hits += 1\n",
        )
        assert status == 1
        assert "lock-discipline" in capsys.readouterr().out

    def test_repo_head_is_clean(self):
        assert main([]) == 0

    def test_list_rules_exits_zero(self, capsys):
        assert main(["--list-rules"]) == 0
        assert "determinism" in capsys.readouterr().out


class TestLintShim:
    def test_cli_fails_on_known_bad_file(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import os\n\nVALUE = 1\n")
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "lint.py"), str(bad)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "unused import 'os'" in proc.stdout

    def test_cli_passes_on_clean_file(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("VALUE = 1\n")
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "lint.py"), str(good)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_shim_skips_semantic_rules(self, tmp_path):
        from tools.lint import check_file

        target = tmp_path / "cost_model.py"
        target.write_text("def f(x):\n    return x == 0.0\n")
        assert check_file(target) == []

    def test_check_file_reports_tuples(self, tmp_path):
        from tools.lint import check_file

        target = tmp_path / "bad.py"
        target.write_text("import os\n\nVALUE = 1\n")
        findings = check_file(target)
        assert findings and findings[0][1] == 1
        assert "unused import 'os'" in findings[0][2]


def run_project(tmp_path, files, lint_only=False):
    """Write a multi-file fixture project and return its findings."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    findings, _, _, _ = analyze(
        paths=[str(tmp_path)],
        lint_only=lint_only,
        baseline_path=tmp_path / "no-baseline.json",
    )
    return findings


def findings_for(findings, rule):
    return [f for f in findings if f.rule == rule]


class TestKeyDeterminismRule:
    def test_time_call_two_frames_below_root_flagged_with_chain(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "pipeline/artifacts.py": (
                    "import time\n"
                    "\n"
                    "\n"
                    "def _stamp():\n"
                    "    return time.time()\n"
                    "\n"
                    "\n"
                    "def _mix(parts):\n"
                    "    return str(_stamp()) + str(parts)\n"
                    "\n"
                    "\n"
                    "def content_key(*parts):\n"
                    "    return _mix(parts)\n"
                )
            },
        )
        hits = findings_for(findings, "key-determinism")
        assert len(hits) == 1
        assert hits[0].severity == "error"
        assert "time.time" in hits[0].message
        assert (
            "artifacts.content_key -> artifacts._mix -> artifacts._stamp"
            in hits[0].message
        )

    def test_cross_module_chain_flagged(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "src/repro/pipeline/stages.py": (
                    "from repro.util.hashing import digest_parts\n"
                    "\n"
                    "\n"
                    "def params_key(params):\n"
                    "    return digest_parts(params)\n"
                ),
                "src/repro/util/hashing.py": (
                    "import os\n"
                    "\n"
                    "\n"
                    "def digest_parts(parts):\n"
                    "    return os.environ.get('SALT', '') + str(sorted(parts))\n"
                ),
            },
        )
        hits = findings_for(findings, "key-determinism")
        assert len(hits) == 1
        assert "os.environ" in hits[0].message
        assert "stages.params_key -> hashing.digest_parts" in hits[0].message
        # The finding lands in the module containing the source.
        assert hits[0].path.endswith("hashing.py")

    def test_unseeded_random_flagged_seeded_generator_clean(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "bad_keys.py": (
                    "import random\n"
                    "\n"
                    "\n"
                    "def component_digest(component):\n"
                    "    return str(random.random()) + str(component)\n"
                ),
                "good_keys.py": (
                    "import random\n"
                    "\n"
                    "\n"
                    "def compute_key(seed, parts):\n"
                    "    rng = random.Random(seed)\n"
                    "    return str(sorted(parts))\n"
                ),
            },
        )
        hits = findings_for(findings, "key-determinism")
        assert len(hits) == 1
        assert hits[0].path.endswith("bad_keys.py")
        assert "random.random" in hits[0].message

    def test_clean_hashlib_key_passes(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "keys.py": (
                    "import hashlib\n"
                    "\n"
                    "\n"
                    "def content_key(*parts):\n"
                    "    hasher = hashlib.sha256()\n"
                    "    for part in sorted(str(p) for p in parts):\n"
                    "        hasher.update(part.encode())\n"
                    "    return hasher.hexdigest()\n"
                )
            },
        )
        assert findings_for(findings, "key-determinism") == []

    def test_dynamic_call_in_closure_degrades_to_warning(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "dyn.py": (
                    "HANDLERS = {}\n"
                    "\n"
                    "\n"
                    "def compute_key(kind, payload):\n"
                    "    return HANDLERS[kind](payload)\n"
                )
            },
        )
        hits = findings_for(findings, "key-determinism")
        assert len(hits) == 1
        assert hits[0].severity == "warning"
        assert "cannot be proven deterministic" in hits[0].message

    def test_suppression_at_sink_line(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "keys.py": (
                    "import time\n"
                    "\n"
                    "\n"
                    "def content_key(parts):\n"
                    "    stamp = time.time()  # repro: ignore[key-determinism]\n"
                    "    return str(parts)\n"
                )
            },
        )
        assert findings_for(findings, "key-determinism") == []


_CACHE_CLASS = (
    "import threading\n"
    "\n"
    "\n"
    "class Cache:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._data = {}\n"
    "        self._put_locked('seed', 0)\n"
    "\n"
    "    def _put_locked(self, key, value):\n"
    "        self._data[key] = value\n"
    "\n"
    "    def _evict_locked(self):\n"
    "        self._put_locked('evicted', 1)\n"
    "\n"
)


class TestLockChainRule:
    def test_bare_call_to_locked_helper_flagged(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "serving/cache.py": _CACHE_CLASS
                + "    def put(self, key, value):\n"
                "        self._put_locked(key, value)\n"
            },
        )
        hits = findings_for(findings, "lock-chain")
        assert len(hits) == 1
        assert "'self._put_locked'" in hits[0].message
        assert "with self._lock:" in hits[0].message

    def test_call_under_lock_and_from_locked_helper_clean(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "serving/cache.py": _CACHE_CLASS
                + "    def put(self, key, value):\n"
                "        with self._lock:\n"
                "            self._put_locked(key, value)\n"
            },
        )
        # __init__ and _evict_locked callers are clean by construction.
        assert findings_for(findings, "lock-chain") == []

    def test_cluster_modules_are_in_lock_chain_scope(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "cluster/supervisor.py": _CACHE_CLASS
                + "    def put(self, key, value):\n"
                "        self._put_locked(key, value)\n"
            },
        )
        hits = findings_for(findings, "lock-chain")
        assert len(hits) == 1
        assert "'self._put_locked'" in hits[0].message

    def test_cross_object_call_requires_receivers_lock(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "serving/ops.py": (
                    "def bad(cache, key):\n"
                    "    cache._put_locked(key, None)\n"
                    "\n"
                    "\n"
                    "def good(cache, key):\n"
                    "    with cache._lock:\n"
                    "        cache._put_locked(key, None)\n"
                )
            },
        )
        hits = findings_for(findings, "lock-chain")
        assert len(hits) == 1
        assert hits[0].line == 2
        assert "'cache._put_locked'" in hits[0].message

    def test_wrong_receivers_lock_does_not_satisfy(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "serving/ops.py": (
                    "def confused(self, other):\n"
                    "    with self._lock:\n"
                    "        other._put_locked('k', None)\n"
                )
            },
        )
        assert len(findings_for(findings, "lock-chain")) == 1

    def test_checkout_context_manager_counts_as_lock(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "serving/runtime.py": (
                    "class Runtime:\n"
                    "    def view(self, sid):\n"
                    "        with self.sessions.checkout(sid) as entry:\n"
                    "            return self._view_locked(sid, entry)\n"
                    "\n"
                    "    def _view_locked(self, sid, entry):\n"
                    "        return entry\n"
                )
            },
        )
        assert findings_for(findings, "lock-chain") == []

    def test_outside_locking_layers_not_checked(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "core/free.py": (
                    "def loose(cache):\n"
                    "    cache._put_locked('k', None)\n"
                )
            },
        )
        assert findings_for(findings, "lock-chain") == []

    def test_suppression_at_call_line(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "serving/boot.py": (
                    "def warm(cache):\n"
                    "    cache._put_locked('k', 1)  # repro: ignore[lock-chain]\n"
                )
            },
        )
        assert findings_for(findings, "lock-chain") == []


class TestSubstrateImmutabilityRule:
    def test_inplace_and_numpy_mutations_flagged(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "pipeline/mut.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def tweak(probs, adjustment):\n"
                    "    probs.explore_mass += adjustment\n"
                    "    probs.result_counts[0] = 7\n"
                    "    np.add.at(probs.explore_mass, [0], 1.0)\n"
                    "    probs.result_counts.sort()\n"
                )
            },
        )
        hits = findings_for(findings, "substrate-immutability")
        assert len(hits) == 4
        assert all(h.severity == "error" for h in hits)
        messages = " | ".join(h.message for h in hits)
        assert "explore_mass" in messages
        assert "result_counts" in messages
        assert "'.sort()'" in messages

    def test_navigation_tree_buffer_writes_flagged(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "core/solver.py": (
                    "def reweight(tree, positions):\n"
                    "    tree._eparent[positions] = -1\n"
                    "    tree._res_off.sort()\n"
                    "    parents = tree._eparent[positions]\n"
                    "    parents[0] = -1\n"
                    "    return parents\n"
                )
            },
        )
        hits = findings_for(findings, "substrate-immutability")
        assert [h.line for h in hits] == [2, 3]

    def test_builder_methods_exempt(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "core/probabilities.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "class ProbabilityModel:\n"
                    "    def __init__(self, counts):\n"
                    "        self.result_counts = np.asarray(counts)\n"
                    "        self.explore_mass = self.result_counts * 2.0\n"
                    "        self.explore_mass += 1.0\n"
                    "        self.normalizer = float(self.explore_mass.sum())\n"
                )
            },
        )
        assert findings_for(findings, "substrate-immutability") == []

    def test_post_build_model_write_flagged(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "core/probabilities.py": (
                    "class ProbabilityModel:\n"
                    "    def rescale(self, factor):\n"
                    "        self.explore_mass *= factor\n"
                    "        self.normalizer = 1.0\n"
                ),
                "pipeline/use.py": (
                    "def retune(probs: 'ProbabilityModel'):\n"
                    "    probs.upper_threshold = 60\n"
                ),
            },
        )
        hits = findings_for(findings, "substrate-immutability")
        assert sorted((h.path.rsplit("/", 1)[-1], h.line) for h in hits) == [
            ("probabilities.py", 3),
            ("probabilities.py", 4),
            ("use.py", 2),
        ]

    def test_builder_exemption_is_self_only(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "core/wrap.py": (
                    "class Wrapper:\n"
                    "    def __init__(self, probs):\n"
                    "        probs.explore_mass[0] = 0.0\n"
                    "        self.probs = probs\n"
                )
            },
        )
        assert len(findings_for(findings, "substrate-immutability")) == 1

    def test_object_setattr_outside_artifacts_flagged(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "pipeline/patch.py": (
                    "def retag(nav, query):\n"
                    "    object.__setattr__(nav, 'query', query)\n"
                )
            },
        )
        hits = findings_for(findings, "substrate-immutability")
        assert len(hits) == 1
        assert "__setattr__" in hits[0].message

    def test_artifact_annotated_receiver_assignment_flagged(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "pipeline/use.py": (
                    "def relabel(nav: 'NavTreeArtifact', query):\n"
                    "    nav.query = query\n"
                )
            },
        )
        hits = findings_for(findings, "substrate-immutability")
        assert len(hits) == 1
        assert "NavTreeArtifact" in hits[0].message

    def test_subscript_store_through_artifact_flagged(self, tmp_path):
        findings = run_project(
            tmp_path,
            {
                "pipeline/use.py": (
                    "def record(nav: 'NavTreeArtifact', node, choice):\n"
                    "    nav.plans[node] = choice\n"
                    "    nav.counts[node] += 1\n"
                    "    del nav.plans[node]\n"
                )
            },
        )
        hits = findings_for(findings, "substrate-immutability")
        assert [hit.line for hit in hits] == [2, 3, 4]
        assert all("NavTreeArtifact" in hit.message for hit in hits)

    def test_runtime_arrays_are_frozen(self):
        if str(REPO_ROOT / "src") not in sys.path:
            sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.core.probabilities import ProbabilityModel
        from repro.hierarchy.concept import ConceptHierarchy

        hierarchy = ConceptHierarchy.from_parents([-1, 0], ["root", "child"])
        tree = tree_from_mapping(hierarchy, {1: {1, 2, 3}})
        probs = ProbabilityModel(tree, lambda n: 10)
        with pytest.raises(ValueError):
            probs.explore_mass[0] = 99.0
        with pytest.raises(ValueError):
            probs.result_counts[0] = 1
        with pytest.raises(ValueError):
            tree._eparent[0] = 0

    def test_every_artifact_type_is_a_class_under_src(self):
        # A deleted artifact class must not leave a stale rule entry.
        from tools.analyzer.rules.immutability import ARTIFACT_TYPES

        classes = {
            node.name
            for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
        }
        assert sorted(ARTIFACT_TYPES - classes) == []

    def test_field_lists_name_the_built_arrays(self):
        # A deleted array must not leave a stale rule entry, nor a new
        # one go unguarded: every list equals what a built object holds.
        if str(REPO_ROOT / "src") not in sys.path:
            sys.path.insert(0, str(REPO_ROOT / "src"))
        import numpy as np

        from repro.core.probabilities import ProbabilityModel
        from repro.hierarchy.concept import ConceptHierarchy
        from tests.test_navigation_tree_equivalence import TREE_ARRAYS
        from tools.analyzer.rules.immutability import TREE_FIELDS
        from tools.analyzer.rules.vectorize import (
            ARRAY_FIELDS,
            COLD_PATH_FIELDS,
            STORE_FIELDS,
        )

        def arrays(value):
            return {k for k, v in vars(value).items() if isinstance(v, np.ndarray)}

        hierarchy = ConceptHierarchy.from_parents([-1, 0, 1], ["root", "a", "b"])
        tree = tree_from_mapping(hierarchy, {1: {1, 2}, 2: {3}})
        assert set(TREE_FIELDS) == arrays(tree)
        assert set(COLD_PATH_FIELDS - STORE_FIELDS) == arrays(tree)
        assert set(TREE_ARRAYS) == arrays(tree)
        assert set(ARRAY_FIELDS) == arrays(ProbabilityModel(tree, lambda n: 10))


class TestInterproceduralCLI:
    def _write(self, tmp_path, relpath, source):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return target

    BAD_LOCK = (
        "class Cache:\n"
        "    def put(self, key):\n"
        "        self._put_locked(key)\n"
        "\n"
        "    def _put_locked(self, key):\n"
        "        self.key = key\n"
    )

    def test_write_baseline_refuses_interprocedural_findings(
        self, tmp_path, capsys
    ):
        self._write(tmp_path, "serving/cache.py", self.BAD_LOCK)
        baseline = tmp_path / "baseline.json"
        status = main(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        )
        assert status == 1
        assert not baseline.exists()
        err = capsys.readouterr().err
        assert "refusing to baseline" in err
        assert "lock-chain" in err

    def test_write_baseline_force_overrides(self, tmp_path):
        self._write(tmp_path, "serving/cache.py", self.BAD_LOCK)
        baseline = tmp_path / "baseline.json"
        status = main(
            [
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--write-baseline",
                "--force",
            ]
        )
        assert status == 0
        assert any(
            key.startswith("lock-chain::") for key in load_baseline(baseline)
        )

    def test_baseline_ratchet_blocks_growth(self, tmp_path, capsys, monkeypatch):
        from tools.analyzer import runner

        target = self._write(tmp_path, "mod.py", "VALUE = 1\n")
        baseline = tmp_path / "baseline.json"
        from tools.analyzer.core import Finding

        write_baseline(
            baseline, [Finding("unused-import", "m.py", 1, "msg", "warning")]
        )
        monkeypatch.setattr(runner, "_committed_baseline_total", lambda path: 0)
        status = main([str(target), "--baseline", str(baseline)])
        assert status == 1
        assert "baseline ratchet" in capsys.readouterr().err

    def test_baseline_ratchet_escape_hatch(
        self, tmp_path, capsys, monkeypatch
    ):
        from tools.analyzer import runner

        target = self._write(tmp_path, "mod.py", "VALUE = 1\n")
        baseline = tmp_path / "baseline.json"
        from tools.analyzer.core import Finding

        write_baseline(
            baseline, [Finding("unused-import", "m.py", 1, "msg", "warning")]
        )
        monkeypatch.setattr(runner, "_committed_baseline_total", lambda path: 0)
        monkeypatch.setenv("ANALYZE_ALLOW_BASELINE_GROWTH", "1")
        assert main([str(target), "--baseline", str(baseline)]) == 0

    def test_shrinking_baseline_passes_ratchet(self, tmp_path, monkeypatch):
        from tools.analyzer import runner

        target = self._write(tmp_path, "mod.py", "VALUE = 1\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, [])
        monkeypatch.setattr(runner, "_committed_baseline_total", lambda path: 5)
        assert main([str(target), "--baseline", str(baseline)]) == 0

    def test_wall_time_gate(self, tmp_path, capsys):
        target = self._write(tmp_path, "mod.py", "VALUE = 1\n")
        args = [str(target), "--baseline", str(tmp_path / "nb.json")]
        assert main(args + ["--max-seconds", "60"]) == 0
        assert main(args + ["--max-seconds", "0"]) == 1
        assert "exceeds" in capsys.readouterr().err

    def test_wall_time_always_reported(self, tmp_path, capsys):
        target = self._write(tmp_path, "mod.py", "VALUE = 1\n")
        main([str(target), "--baseline", str(tmp_path / "nb.json")])
        assert "analyze: wall time" in capsys.readouterr().err

    def test_sarif_output_file(self, tmp_path):
        self._write(tmp_path, "serving/cache.py", self.BAD_LOCK)
        out = tmp_path / "report.sarif"
        status = main(
            [
                str(tmp_path),
                "--baseline",
                str(tmp_path / "nb.json"),
                "--format",
                "sarif",
                "--output",
                str(out),
            ]
        )
        assert status == 1
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"key-determinism", "lock-chain", "substrate-immutability"} <= rule_ids
        results = run["results"]
        assert any(r["ruleId"] == "lock-chain" for r in results)
        assert all(
            r["locations"][0]["physicalLocation"]["region"]["startLine"] >= 1
            for r in results
        )


class TestSarifReporter:
    def test_sarif_levels_and_locations(self):
        from tools.analyzer.core import Finding
        from tools.analyzer.reporters import sarif_report

        payload = json.loads(
            sarif_report(
                [
                    Finding("determinism", "core/m.py", 7, "msg", "error"),
                    Finding("unused-import", "m.py", 0, "msg2", "warning"),
                ],
                files_analyzed=2,
            )
        )
        results = payload["runs"][0]["results"]
        assert [r["level"] for r in results] == ["error", "warning"]
        # Line 0 findings (whole-file) clamp to SARIF's 1-based minimum.
        assert results[1]["locations"][0]["physicalLocation"]["region"][
            "startLine"
        ] == 1
