"""Float-discipline rule: no ``==``/``!=`` on float-valued expressions.

The solver's prune (`OptEdgeCut._search_cuts`) is exact only because
cost comparisons use strict ``<`` with first-minimum tie-breaking, and
costs are accumulated in one canonical order.  Equality tests on floats
undermine that: two mathematically equal costs computed along different
association orders can differ in the last ulp, so ``==`` silently picks
sides.  Comparisons belong in the sanctioned helpers
(:func:`repro.core.cost_model.costs_equal` /
:func:`repro.core.cost_model.cost_improves`) or must be rewritten as
inequalities (``x <= 0.0`` for non-negative masses).

Scope: the cost model and every module that compares solver costs
(``cost_model.py``, ``probabilities.py``, ``opt_edgecut.py``,
``heuristic.py``, ``evaluation.py``, ``montecarlo.py``).  The helpers themselves are recognized by name and
exempt.
"""

from __future__ import annotations

import ast
from typing import List

from tools.analyzer.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["FloatEqualityRule"]

_SOLVER_MODULES = {
    "cost_model.py",
    "probabilities.py",
    "opt_edgecut.py",
    "heuristic.py",
    "evaluation.py",
    "montecarlo.py",
}

# Functions allowed to contain float comparisons: the tolerance/tie-break
# helpers themselves.
_SANCTIONED_FUNCTIONS = {"costs_equal", "cost_improves"}

_ARITHMETIC_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod)


def _is_floatish(node: ast.expr) -> bool:
    """Conservatively: does this expression look float-valued?

    Float constants, true division, ``float(...)`` casts, arithmetic over
    anything float-ish, and ``math.log``/``exp``/``sqrt`` calls qualify.
    Plain names do not — the rule prefers missing a disguised float to
    drowning integer comparisons in noise.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True  # true division always yields a float
        if isinstance(node.op, _ARITHMETIC_OPS):
            return _is_floatish(node.left) or _is_floatish(node.right)
        return False
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float":
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "log",
            "log2",
            "exp",
            "sqrt",
        ):
            return True
    return False


@register
class FloatEqualityRule(Rule):
    """``==``/``!=`` between float expressions in solver modules."""

    id = "float-equality"
    severity = "error"
    lint_level = False
    description = "float ==/!= outside the sanctioned tie-break helpers"

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.name in _SOLVER_MODULES

    def check(self, module: ModuleInfo, index: ProjectIndex) -> List[Finding]:
        if module.tree is None:
            return []
        findings: List[Finding] = []
        sanctioned_spans: List[range] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in _SANCTIONED_FUNCTIONS:
                    end = getattr(node, "end_lineno", node.lineno)
                    sanctioned_spans.append(range(node.lineno, end + 1))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if not (_is_floatish(left) or _is_floatish(right)):
                    continue
                if any(node.lineno in span for span in sanctioned_spans):
                    continue
                findings.append(
                    self.finding(
                        module,
                        node.lineno,
                        "float equality comparison; use "
                        "cost_model.costs_equal/cost_improves or an inequality",
                    )
                )
        return findings
