"""Substrate-immutability rule: frozen artifacts stay frozen.

Bit-identical solves (BioNav §IV/§V) and sound per-stage caching both
assume the per-node arrays of
:class:`~repro.core.probabilities.ProbabilityModel` and the pipeline's
frozen artifacts never change after construction: a cached
``NavTreeArtifact`` is shared by every session of a query, so one
in-place ``probs.explore_mass += adjustment`` silently corrupts every
other session's solves — and numpy in-place ops bypass the frozen
dataclass machinery entirely.  The model backs this with a runtime
guarantee (``writeable=False`` on every per-node array); this rule
catches the violations statically, including the ones that would only
trip at runtime in a cold-cache path no test exercises:

* assignment, augmented assignment, deletion, or subscript-store on a
  known substrate array field (``x.explore_mass = ...``,
  ``x.result_counts[i] = ...``, ``x.explore_mass += ...``) or on one of
  NavigationTree's embedded-preorder buffers (``tree._eparent[i] = ...``);
* in-place numpy mutation of one (``np.add.at(x.explore_mass, ...)``,
  ``np.copyto``, ``np.place``, ``np.putmask``) and mutating array
  methods (``.sort()``, ``.fill()``, ``.setflags()``, …);
* ``object.__setattr__`` anywhere outside the artifact-defining
  modules (the only way to write a frozen dataclass, so any appearance
  elsewhere is a bypass);
* any store through a receiver annotated as a pipeline artifact type
  (``nav: NavTreeArtifact`` … ``nav.query = ...``): attribute
  assignment, augmented assignment and deletion, and the same stores
  into a container reached through one of its attributes
  (``nav.field[k] = v``, ``nav.field[k] += v``, ``del nav.field[k]``) —
  a frozen dataclass does not freeze what its fields hold.

Exempt: ``__init__`` methods assigning fresh arrays on ``self`` (the
model's constructor builds its arrays there).  Anything else
carries ``# repro: ignore[substrate-immutability]`` with a comment
explaining why the mutation is safe.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from tools.analyzer.core import Finding, ModuleInfo, ProjectIndex, Rule, register
from tools.analyzer.project import annotation_name
from tools.analyzer.rules.vectorize import ARRAY_FIELDS, TREE_FIELDS

__all__ = ["SubstrateImmutabilityRule"]

#: Every ProbabilityModel field backed by a (frozen) numpy array or
#: scalar, plus the navigation-tree buffers.
SUBSTRATE_FIELDS = ARRAY_FIELDS | TREE_FIELDS | {"normalizer"}

#: Frozen pipeline artifact types (plus the cost model itself).
ARTIFACT_TYPES = frozenset(
    {
        "ProbabilityModel",
        "ResultSet",
        "NavTreeArtifact",
        "CutPlan",
    }
)

#: ndarray methods that mutate in place.
_MUTATING_METHODS = frozenset(
    {"sort", "fill", "resize", "put", "itemset", "partition", "setflags", "byteswap"}
)

#: numpy module-level in-place writers: np.<name>(target, ...).
_NUMPY_INPLACE = frozenset({"copyto", "place", "putmask", "put"})

def _substrate_attr(expr: ast.expr) -> Optional[str]:
    """The substrate field an expression addresses (through subscripts)."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in SUBSTRATE_FIELDS:
        return node.attr
    return None


def _is_self_rooted(expr: ast.expr) -> bool:
    """True when the store target is an attribute chain on ``self``."""
    node = expr
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


class _Walker(ast.NodeVisitor):
    """Tracks (class, method) context and flags mutation sites."""

    def __init__(self, rule: "SubstrateImmutabilityRule", module: ModuleInfo) -> None:
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []
        self.class_stack: List[str] = []
        self.func_stack: List[str] = []
        #: per-function stack of {name: annotated artifact type}
        self.artifact_vars: List[dict] = []

    # -- context bookkeeping -------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _enter_function(self, node) -> None:
        self.func_stack.append(node.name)
        scope = {}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            name = annotation_name(arg.annotation)
            if name and name.rsplit(".", 1)[-1] in ARTIFACT_TYPES:
                scope[arg.arg] = name.rsplit(".", 1)[-1]
        self.artifact_vars.append(scope)
        for child in node.body:
            self.visit(child)
        self.artifact_vars.pop()
        self.func_stack.pop()

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    def _in_builder(self) -> bool:
        """Inside an ``__init__`` (where the arrays are built)."""
        return bool(self.func_stack) and self.func_stack[-1] == "__init__"

    def _artifact_type_of(self, name: str) -> Optional[str]:
        for scope in reversed(self.artifact_vars):
            if name in scope:
                return scope[name]
        return None

    # -- flagged sites --------------------------------------------------
    def _flag(self, line: int, message: str) -> None:
        self.findings.append(self.rule.finding(self.module, line, message))

    def _check_store(self, target: ast.expr, line: int, verb: str) -> None:
        field = _substrate_attr(target)
        if field is not None and not (self._in_builder() and _is_self_rooted(target)):
            self._flag(
                line,
                "substrate array field '%s' %s outside its builder; "
                "ProbabilityModel and NavigationTree arrays are immutable after "
                "construction" % (field, verb),
            )
            return
        # A store through an annotated artifact receiver: on one of its
        # attributes, or on a subscript or attribute chain below one.
        root = target
        while isinstance(root, (ast.Subscript, ast.Attribute)):
            root = root.value
        if root is not target and isinstance(root, ast.Name) and not self._in_builder():
            artifact = self._artifact_type_of(root.id)
            if artifact is not None:
                self._flag(
                    line,
                    "'%s' %s through frozen artifact type %s"
                    % (ast.unparse(target), verb, artifact),
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target, node.lineno, "assigned")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, node.lineno, "mutated in place")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store(node.target, node.lineno, "assigned")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store(target, node.lineno, "deleted")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # object.__setattr__(x, ...) — the frozen-dataclass bypass.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and self.module.name != "artifacts.py"
        ):
            self._flag(
                node.lineno,
                "object.__setattr__ bypasses frozen-dataclass immutability",
            )
        # x.<field>.sort() and friends.
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            field = _substrate_attr(func.value)
            if field is not None and not (
                self._in_builder() and _is_self_rooted(func.value)
            ):
                self._flag(
                    node.lineno,
                    "mutating method '.%s()' called on substrate array "
                    "field '%s'" % (func.attr, field),
                )
        # np.add.at(x.<field>, ...) / np.copyto(x.<field>, ...).
        if isinstance(func, ast.Attribute) and node.args:
            field = _substrate_attr(node.args[0])
            if field is not None and not (
                self._in_builder() and _is_self_rooted(node.args[0])
            ):
                if func.attr == "at" or func.attr in _NUMPY_INPLACE:
                    self._flag(
                        node.lineno,
                        "in-place numpy write '%s' targets substrate array "
                        "field '%s'" % (func.attr, field),
                    )
        self.generic_visit(node)


@register
class SubstrateImmutabilityRule(Rule):
    """Frozen artifact / cost-model array mutation outside construction."""

    id = "substrate-immutability"
    severity = "error"
    lint_level = False
    interprocedural = True
    description = "frozen artifact or ProbabilityModel field mutated after build"

    def check(self, module: ModuleInfo, index: ProjectIndex) -> List[Finding]:
        if module.tree is None:
            return []
        walker = _Walker(self, module)
        walker.visit(module.tree)
        return walker.findings
