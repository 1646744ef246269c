"""Substrate boundary rule: storage internals stay behind their API.

Corpus data has one interface, :class:`repro.substrate.store.MmapStore`;
what remains private to ``repro.storage`` is the keyword-index machinery
(``repro.storage.index``), which online layers reach through the names
``repro.storage`` re-exports.  A direct
``from repro.storage.index import InvertedIndex`` in, say, the serving
runtime would pin that layer to the module layout instead of the
package surface, so the convention is machine-checked:

* **Scope** — every semantic-rule target outside ``repro/storage`` (the
  owner), ``repro/substrate`` (the store layer), and ``repro/corpus``
  (the offline ingest side that feeds both).
* **Flagged** — ``import``/``from``-imports that name the
  ``repro.storage.index`` *module*, whether absolute, via the package
  (``from repro.storage import index``), or relative
  (``from ..storage.index import ...``).
* **Not flagged** — the classes re-exported by ``repro.storage``
  (``InvertedIndex``, ``tokenize``, ...): those are
  the sanctioned public surface, and ``repro.storage.database`` / other
  storage modules remain importable everywhere.

Tests and examples are lint-only targets, so white-box unit tests of the
index keep their direct imports.  Benchmarks are exempted explicitly:
storage micro-benches measure the internals by name.
"""

from __future__ import annotations

import ast
from typing import List

from tools.analyzer.core import Finding, ModuleInfo, ProjectIndex, Rule, register
from tools.analyzer.rules.layering import _absolutize

__all__ = ["SubstrateBoundaryRule", "RESTRICTED_STORAGE_MODULES"]

#: Storage-internal modules reachable only through the substrate boundary.
RESTRICTED_STORAGE_MODULES = frozenset({"repro.storage.index"})


def _is_restricted(dotted: str) -> bool:
    """True when ``dotted`` is a restricted module or something inside one."""
    return dotted in RESTRICTED_STORAGE_MODULES or any(
        dotted.startswith(mod + ".") for mod in RESTRICTED_STORAGE_MODULES
    )


@register
class SubstrateBoundaryRule(Rule):
    """Storage-internal import outside storage/substrate/corpus."""

    id = "substrate-boundary"
    severity = "error"
    lint_level = False
    description = "storage index internals are reached via the package API"

    def applies_to(self, module: ModuleInfo) -> bool:
        for owner in ("storage", "substrate", "corpus"):
            if owner in module.parts:
                return False
        # Storage micro-benches measure the internals directly.
        return "benchmarks" not in module.parts

    def check(self, module: ModuleInfo, index: ProjectIndex) -> List[Finding]:
        if module.tree is None:
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_restricted(alias.name):
                        findings.append(self._flag(module, node.lineno, alias.name))
            elif isinstance(node, ast.ImportFrom):
                base = _absolutize(module, node.module or "", node.level)
                if _is_restricted(base):
                    findings.append(self._flag(module, node.lineno, base))
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    dotted = base + "." + alias.name if base else alias.name
                    if _is_restricted(dotted):
                        findings.append(self._flag(module, node.lineno, dotted))
        return findings

    def _flag(self, module: ModuleInfo, line: int, dotted: str) -> Finding:
        return self.finding(
            module,
            line,
            "storage internal '%s' imported across the substrate boundary; "
            "go through repro.storage re-exports or the corpus store" % dotted,
        )
