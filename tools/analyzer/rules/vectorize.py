"""Vectorize rule: per-element Python loops over cost-model array fields.

:class:`~repro.core.probabilities.ProbabilityModel` lays the §IV cost
model out as per-node arrays so that hot-path aggregation over
per-concept quantities runs as numpy gathers and reductions, not Python
loops.  A ``for`` loop (or comprehension) marching element by element
over one of those array fields silently reintroduces the scalar
bottleneck the arrays were built to remove — usually without failing
any test, since the values stay correct.

Scope: modules under ``core`` directories (the solver layer) plus the
cold-query path — ``substrate/store.py`` and ``core/navigation_tree.py``
— whose mmap columns and embedded-tree buffers are equally hot.  The
rule flags iteration whose source is an attribute access on one of the
known array-field names — directly, through ``.tolist()``, or wrapped
in ``enumerate``/``zip``/``reversed``/``iter``.  Deliberate sequential
loops (the scalar oracle's bit-parity summation order) carry a
``# repro: ignore[vectorize]`` suppression at the site.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from tools.analyzer.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["VectorizeRule"]

#: ProbabilityModel's per-node array fields, whose element-wise
#: traversal is the anti-pattern this rule exists to catch.
ARRAY_FIELDS = {
    "result_counts",
    "explore_mass",
}

#: NavigationTree's arrays: its embedded-preorder buffers, rank → PMID
#: map and node → position map, frozen in its ``__init__``; solvers
#: index them and work on copies.
TREE_FIELDS = frozenset(
    {"_order", "_eparent", "_esize", "_res_off", "_res_val", "_result_pmids", "_pos_of"}
)

#: The mmap store's citation/concept columns.
STORE_FIELDS = frozenset(
    {
        "_pmids",
        "_years",
        "_cit_offsets",
        "_cit_concepts",
        "_concept_offsets",
        "_concept_citations",
        "_concept_counts",
        "_concept_lt",
    }
)

#: Cold-path array columns: the store's and the navigation tree's.  A
#: Python loop over any of these puts per-element work back on the cold
#: query path the arrays exist to keep in numpy.
COLD_PATH_FIELDS = STORE_FIELDS | TREE_FIELDS

#: Extra files (beyond ``core`` solver modules) the rule applies to.
_COLD_PATH_SUFFIXES = (("substrate", "store.py"), ("core", "navigation_tree.py"))

# Iteration wrappers that preserve element-by-element consumption.
_PASSTHROUGH_CALLS = {"enumerate", "zip", "reversed", "iter"}

_ALL_FIELDS = ARRAY_FIELDS | COLD_PATH_FIELDS


def _array_field_of(node: ast.expr) -> Optional[str]:
    """The array-field name an iteration source resolves to, if any.

    Recognizes ``x.result_counts``, ``x.result_counts.tolist()``, and
    passthrough wrappers like ``enumerate(x.explore_mass)``.
    """
    if isinstance(node, ast.Attribute) and node.attr in _ALL_FIELDS:
        return node.attr
    if isinstance(node, ast.Call):
        func = node.func
        # x.<field>.tolist() — still a per-element Python traversal.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "tolist"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr in _ALL_FIELDS
        ):
            return func.value.attr
        if isinstance(func, ast.Name) and func.id in _PASSTHROUGH_CALLS:
            for arg in node.args:
                found = _array_field_of(arg)
                if found is not None:
                    return found
    return None


class _LoopVisitor(ast.NodeVisitor):
    def __init__(self, rule: "VectorizeRule", module: ModuleInfo) -> None:
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []

    def _flag(self, node: ast.expr, field: str, context: str) -> None:
        self.findings.append(
            self.rule.finding(
                self.module,
                node.lineno,
                "per-element Python %s over array field '%s'; use a "
                "vectorized numpy gather/reduction (or mark a deliberate "
                "sequential order with # repro: ignore[vectorize])"
                % (context, field),
            )
        )

    def visit_For(self, node: ast.For) -> None:
        field = _array_field_of(node.iter)
        if field is not None:
            self._flag(node.iter, field, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node, context: str) -> None:
        for generator in node.generators:
            field = _array_field_of(generator.iter)
            if field is not None:
                self._flag(generator.iter, field, context)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, "list comprehension")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node, "set comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, "generator expression")


@register
class VectorizeRule(Rule):
    """Per-element Python loops over cost-model array fields."""

    id = "vectorize"
    severity = "warning"
    lint_level = False
    description = "Python loop over a cost-model array field defeats vectorization"

    def applies_to(self, module: ModuleInfo) -> bool:
        if "core" in module.parts:
            return True
        parts = module.parts
        return any(
            len(parts) >= len(suffix) and tuple(parts[-len(suffix):]) == suffix
            for suffix in _COLD_PATH_SUFFIXES
        )

    def check(self, module: ModuleInfo, index: ProjectIndex) -> List[Finding]:
        if module.tree is None:
            return []
        visitor = _LoopVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
