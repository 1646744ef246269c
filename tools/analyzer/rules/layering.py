"""Layering rule: solvers are constructed through the registry only.

The staged pipeline collapsed six solver entry points behind
``repro.pipeline.registry.SolverRegistry``; every call site (facade,
CLI, serving runtime, workload harness) asks the registry by name and
receives an :class:`~repro.core.strategy.ExpansionStrategy`.  A direct
``from repro.core.heuristic import HeuristicReducedOpt`` outside the
core package re-creates the scattered wiring the refactor deleted and
bypasses the pipeline's cut cache and capability metadata, so this rule
makes the convention machine-checked:

* **Scope** — every semantic-rule target outside ``repro.core`` (solver
  modules may import each other) and outside the registry module itself,
  the single sanctioned importer.
* **Flagged** — ``import``/``from``-imports of a solver implementation
  module (``heuristic``, ``static_nav``, ``gopubmed``, ``paged_static``,
  ``opt_edgecut``, ``exact``), whether
  absolute (``repro.core.heuristic``), via the package
  (``from repro.core import heuristic``), or relative
  (``from .core.heuristic import ...``).
* **Not flagged** — importing solver *classes* re-exported by
  ``repro.core``/``repro`` (the public API surface), and non-solver core
  modules (``navigation_tree``, ``probabilities``, ...).

Tests and examples are lint-only targets, so they may still reach into
solver modules for white-box assertions.  Benchmarks receive the full
semantic set but are exempted *here* explicitly: the A/B benches
(``bench_opt_engine``, ``bench_opt_vs_heuristic``) deliberately compare
solver implementations side by side, which requires naming them.
"""

from __future__ import annotations

import ast
from typing import List

from tools.analyzer.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["SolverViaRegistryRule", "SOLVER_MODULES"]

#: Dotted paths of the solver implementation modules the registry owns.
SOLVER_MODULES = frozenset(
    "repro.core." + name
    for name in (
        "heuristic",
        "static_nav",
        "gopubmed",
        "paged_static",
        "opt_edgecut",
        "exact",
    )
)


def _is_solver_module(dotted: str) -> bool:
    """True when ``dotted`` is a solver module or something inside one."""
    return dotted in SOLVER_MODULES or any(
        dotted.startswith(mod + ".") for mod in SOLVER_MODULES
    )


def _absolutize(module: ModuleInfo, dotted: str, level: int) -> str:
    """Resolve a (possibly relative) import target to a dotted path.

    Only ``src/repro`` files can reach the solvers relatively; for them
    the package path is derived from the repo-relative file path.
    """
    if level == 0:
        return dotted
    parts = list(module.parts)
    try:
        anchor = parts.index("repro")
    except ValueError:
        return dotted
    package = parts[anchor:-1]
    if module.name != "__init__.py":
        package.append(module.name[:-3])
    base = package[: len(package) - level] if level <= len(package) else []
    return ".".join(base + ([dotted] if dotted else []))


@register
class SolverViaRegistryRule(Rule):
    """Direct solver-module import outside ``repro.core`` and the registry."""

    id = "solver-via-registry"
    severity = "error"
    lint_level = False
    description = "solver modules are imported only by core and the registry"

    def applies_to(self, module: ModuleInfo) -> bool:
        if "core" in module.parts:
            return False
        # White-box A/B benchmarks compare solver implementations
        # directly; the registry indirection would defeat their purpose.
        if "benchmarks" in module.parts:
            return False
        return not module.rel.endswith("pipeline/registry.py")

    def check(self, module: ModuleInfo, index: ProjectIndex) -> List[Finding]:
        if module.tree is None:
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_solver_module(alias.name):
                        findings.append(self._flag(module, node.lineno, alias.name))
            elif isinstance(node, ast.ImportFrom):
                base = _absolutize(module, node.module or "", node.level)
                if _is_solver_module(base):
                    findings.append(self._flag(module, node.lineno, base))
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    dotted = base + "." + alias.name if base else alias.name
                    if _is_solver_module(dotted):
                        findings.append(self._flag(module, node.lineno, dotted))
        return findings

    def _flag(self, module: ModuleInfo, line: int, dotted: str) -> Finding:
        return self.finding(
            module,
            line,
            "solver module '%s' imported directly; build solvers via "
            "repro.pipeline.registry" % dotted,
        )
