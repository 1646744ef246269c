"""Lock-discipline rule: shared state written outside the owning lock.

The serving layer's correctness rests on one convention: a class that
owns a lock (``self._lock`` assigned in ``__init__``) keeps *all* of its
shared mutable state behind it.  A stray ``self.hits += 1`` outside the
lock is exactly the kind of read-modify-write race the
``SingleFlightCache`` exists to eliminate, and it passes every
single-threaded test.  This rule makes the convention machine-checked
for the concurrent modules (``src/repro/serving/``, ``src/repro/web/``,
``src/repro/cluster/`` and the metrics registry ``src/repro/obs.py``):

* **Scope** — classes whose ``__init__`` binds ``self._lock``.  Classes
  without a lock (pure renderers, immutable facades) are not checked.
* **Flagged** — in any other method: assignment, augmented assignment,
  or deletion of a ``self`` attribute (``self.x = ...``), or of a
  subscript on one (``self._entries[k] = ...``), when the statement is
  not lexically inside a ``with`` whose context expression is a ``self``
  lock attribute (any attribute whose name contains ``lock``).
* **Exempt** — ``__init__`` (the object is not shared during
  construction) and methods whose names end in ``_locked``, the repo's
  convention for helpers documented as "caller holds the lock" (their
  call sites are inside ``with self._lock:`` blocks, which this rule
  checks).

Mutations through method calls (``self._entries.move_to_end(k)``) are
out of reach of a syntactic rule; the convention-reviewed ``_locked``
helpers plus the concurrency test suite cover those.  Genuinely safe
unlocked writes carry ``# repro: ignore[lock-discipline]``.
"""

from __future__ import annotations

import ast
from typing import List

from tools.analyzer.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["LockDisciplineRule"]


def _is_self_lock(expr: ast.expr) -> bool:
    """True for ``self.<attr>`` where ``<attr>`` names a lock."""
    if isinstance(expr, ast.Call):
        # ``with self._lock.acquire_timeout(...)``-style wrappers.
        expr = expr.func
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return expr.value.id == "self" and "lock" in expr.attr.lower()
    return False


def _self_attribute_of(target: ast.expr) -> str:
    """The mutated ``self`` attribute name, or '' when not one.

    Recognizes ``self.x`` and ``self.x[...]`` targets, through tuple
    and starred unpacking.
    """
    if isinstance(target, ast.Starred):
        return _self_attribute_of(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            name = _self_attribute_of(element)
            if name:
                return name
        return ""
    if isinstance(target, ast.Subscript):
        return _self_attribute_of(target.value)
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        if target.value.id == "self":
            return target.attr
    return ""


class _MethodWalker(ast.NodeVisitor):
    """Walks one method tracking whether the owning lock is held."""

    def __init__(self, rule: "LockDisciplineRule", module: ModuleInfo) -> None:
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []
        self.lock_depth = 0

    def visit_With(self, node: ast.With) -> None:
        holds = any(_is_self_lock(item.context_expr) for item in node.items)
        if holds:
            self.lock_depth += 1
        for child in node.body:
            self.visit(child)
        if holds:
            self.lock_depth -= 1

    def _flag(self, line: int, attr: str) -> None:
        if self.lock_depth == 0:
            self.findings.append(
                self.rule.finding(
                    self.module,
                    line,
                    "attribute 'self.%s' mutated outside `with self._lock:`" % attr,
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = _self_attribute_of(target)
            if attr:
                self._flag(node.lineno, attr)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _self_attribute_of(node.target)
        if attr:
            self._flag(node.lineno, attr)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            attr = _self_attribute_of(node.target)
            if attr:
                self._flag(node.lineno, attr)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = _self_attribute_of(target)
            if attr:
                self._flag(node.lineno, attr)
        self.generic_visit(node)


def _binds_self_lock(init: ast.FunctionDef) -> bool:
    """True when ``__init__`` assigns ``self._lock``."""
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr == "_lock"
                ):
                    return True
    return False


@register
class LockDisciplineRule(Rule):
    """Shared mutable state written outside the owning ``self._lock``."""

    id = "lock-discipline"
    severity = "error"
    lint_level = False
    description = "lock-owning class mutates shared state outside its lock"

    def applies_to(self, module: ModuleInfo) -> bool:
        return (
            "serving" in module.parts
            or "web" in module.parts
            or "cluster" in module.parts
            or tuple(module.parts[-2:]) == ("repro", "obs.py")
        )

    def check(self, module: ModuleInfo, index: ProjectIndex) -> List[Finding]:
        if module.tree is None:
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = [
                child
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            inits = [m for m in methods if m.name == "__init__"]
            if not inits or not _binds_self_lock(inits[0]):
                continue
            for method in methods:
                if method.name == "__init__" or method.name.endswith("_locked"):
                    continue
                walker = _MethodWalker(self, module)
                for statement in method.body:
                    walker.visit(statement)
                findings.extend(walker.findings)
        return findings
