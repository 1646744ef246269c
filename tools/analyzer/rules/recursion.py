"""No-recursion rule for the tree-traversal modules.

``NavigationTree`` deliberately has no recursion-limit guard: real MeSH
navigation trees nest thousands of levels deep, so every traversal in
the tree modules was rewritten iteratively (explicit stacks over the
precomputed preorder).  A future "cleaner" recursive helper would pass
unit tests on shallow fixtures and then blow the interpreter stack in
production — exactly the kind of regression a type checker cannot see.

Scope: ``navigation_tree.py``, ``active_tree.py``, ``partition.py`` and
``relevance.py`` (its sibling ranking walks the visible tree).
Flagged: any function (including nested helpers) that calls itself,
directly (``f(...)`` inside ``def f``) or through ``self``/``cls``.
"""

from __future__ import annotations

import ast
from typing import List

from tools.analyzer.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["NoRecursionRule"]

_TRAVERSAL_MODULES = {
    "navigation_tree.py",
    "active_tree.py",
    "partition.py",
    "relevance.py",
}


def _self_calls(func: ast.AST, name: str) -> List[int]:
    """Line numbers of calls to ``name`` anywhere inside ``func``'s body."""
    lines: List[int] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name) and target.id == name:
            lines.append(node.lineno)
        elif (
            isinstance(target, ast.Attribute)
            and target.attr == name
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            lines.append(node.lineno)
    return lines


@register
class NoRecursionRule(Rule):
    """Self-recursive traversal in a module that must stay iterative."""

    id = "no-recursion"
    severity = "error"
    lint_level = False
    description = "recursive traversal in an iterative-only tree module"

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.name in _TRAVERSAL_MODULES

    def check(self, module: ModuleInfo, index: ProjectIndex) -> List[Finding]:
        if module.tree is None:
            return []
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for line in _self_calls(node, node.name):
                findings.append(
                    self.finding(
                        module,
                        line,
                        "'%s' calls itself; tree traversals here must be "
                        "iterative (deep trees overflow the stack)" % node.name,
                    )
                )
        return findings
