"""repro-analyze: rule-based static analysis for the BioNav reproduction.

The bitmask Opt-EdgeCut engine is only correct because of invariants the
code cannot express in types: enumeration order and first-minimum
tie-breaking must stay bit-identical to the reference oracle, tree
traversals must stay iterative, and the prefix-cost prune is only safe
with non-negative, monotonically rounded cost addends.  This package is
the static gate that keeps future changes from silently breaking them.

Architecture (multi-pass):

1. **Index pass** — every target file is parsed once into a
   :class:`~tools.analyzer.core.ModuleInfo` (source, AST, inline
   suppressions) and collected into a
   :class:`~tools.analyzer.core.ProjectIndex` rules may consult.
2. **Rule pass** — every registered :class:`~tools.analyzer.core.Rule`
   whose scope matches a module runs over it and emits
   :class:`~tools.analyzer.core.Finding` objects.
3. **Filter pass** — findings on lines carrying a
   ``# repro: ignore[rule-id]`` comment are dropped, then the committed
   baseline (``tools/analyzer/baseline.json``) absorbs grandfathered
   findings; anything left fails the run.

Run it with ``python -m tools.analyzer`` (or ``make analyze``); the
legacy ``tools/lint.py`` CLI is a thin shim running the lint-level rule
subset.  See CONTRIBUTING.md ("Static analysis gates") for the rule
catalog and DESIGN.md §8 for the solver invariants each rule guards.
"""

from __future__ import annotations

from tools.analyzer.core import (
    Finding,
    ModuleInfo,
    ProjectIndex,
    Rule,
    all_rules,
    register,
)
from tools.analyzer.runner import DEFAULT_TARGETS, LINT_ONLY_DIRS, analyze, main

__all__ = [
    "Finding",
    "ModuleInfo",
    "ProjectIndex",
    "Rule",
    "all_rules",
    "register",
    "analyze",
    "main",
    "DEFAULT_TARGETS",
    "LINT_ONLY_DIRS",
]
