"""Whole-program symbol table: the :class:`ProjectContext`.

The per-file passes of PR 2 see one module at a time; the invariants
added since then (deterministic content keys, cross-method lock
discipline, substrate immutability) are *cross-module* properties.  The
``ProjectContext`` is the shared substrate interprocedural rules build
on: every module parsed by the index pass is resolved into

* a **module map** — repo files addressable by dotted name, with
  suffix-based resolution so analysis of out-of-tree fixture targets
  (the test suite's ``tmp_path`` files) works identically;
* an **import table** per module — local name → target dotted path,
  covering ``import x``, ``import x.y as z``, ``from a import b as c``,
  and relative ``from ..pkg import name`` forms;
* **function and class symbols** — qualified names for every top-level
  function and every method (decorators, ``staticmethod``/
  ``classmethod`` markers, and parameter annotations recorded), plus
  per-class ``self.<attr>`` type inference from ``__init__`` bodies
  (``self.tree = tree`` with an annotated parameter, or
  ``self.probs = ProbabilityModel(...)``).

The context is built lazily — once per analysis run, on the first
interprocedural rule that asks — and cached on the
:class:`~tools.analyzer.core.ProjectIndex`, so the whole-program pass
adds one AST walk over the repo regardless of how many rules consume
it.  Resolution never raises on unknown names: anything the table
cannot place is reported as unresolved and the consuming analysis
degrades (see :mod:`tools.analyzer.callgraph`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple, Union

from tools.analyzer.core import ModuleInfo, ProjectIndex

__all__ = [
    "FunctionSymbol",
    "ClassSymbol",
    "ProjectContext",
    "module_dotted",
    "annotation_name",
]


def module_dotted(rel: str) -> str:
    """Dotted module name derived from a (possibly absolute) file path.

    ``src/repro/core/foo.py`` → ``src.repro.core.foo`` and package
    ``__init__.py`` files collapse onto their package.  Absolute fixture
    paths keep their directory prefix; suffix resolution (below) makes
    the extra segments harmless.
    """
    parts = [p for p in rel.split("/") if p]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def annotation_name(annotation: Optional[ast.expr]) -> Optional[str]:
    """The dotted type name an annotation spells, if it spells one.

    ``NavigationTree`` → ``NavigationTree``; ``repro.core.ProbabilityModel`` →
    ``repro.core.ProbabilityModel``; ``Optional[Foo]``/``"Foo"`` unwrap to
    ``Foo``.  Anything structural (unions, callables) returns None.
    """
    if annotation is None:
        return None
    target = annotation
    if isinstance(target, ast.Constant) and isinstance(target.value, str):
        head = target.value.split("[", 1)[0].strip()
        return head or None
    if isinstance(target, ast.Subscript):
        # Optional[X] / List[X]: the head name is what we can resolve.
        head = annotation_name(target.value)
        if head in ("Optional",):
            return annotation_name(
                target.slice if not isinstance(target.slice, ast.Tuple) else None
            )
        return head
    parts: List[str] = []
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
        return ".".join(reversed(parts))
    return None


class FunctionSymbol:
    """One function or method, addressable by qualified name."""

    __slots__ = (
        "qualname",
        "name",
        "module",
        "node",
        "class_name",
        "decorators",
        "is_static",
        "is_classmethod",
        "param_types",
    )

    def __init__(
        self,
        qualname: str,
        module: ModuleInfo,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        class_name: Optional[str] = None,
    ):
        self.qualname = qualname
        self.name = node.name
        self.module = module
        self.node = node
        self.class_name = class_name
        self.decorators = tuple(
            name for name in (annotation_name(d) for d in node.decorator_list) if name
        )
        self.is_static = "staticmethod" in self.decorators
        self.is_classmethod = "classmethod" in self.decorators
        #: parameter name → annotated type name (dotted, unresolved)
        self.param_types: Dict[str, str] = {}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            name = annotation_name(arg.annotation)
            if name:
                self.param_types[arg.arg] = name

    @property
    def display(self) -> str:
        """Stable human-readable name for findings (no line numbers).

        ``<module-basename>.<Class>.<name>`` — short enough for a call
        chain, unique enough to locate, and free of path/line churn so
        baseline fingerprints stay stable.
        """
        stem = self.module.name[: -len(".py")] if self.module.name.endswith(".py") else self.module.name
        if self.class_name:
            return "%s.%s.%s" % (stem, self.class_name, self.name)
        return "%s.%s" % (stem, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FunctionSymbol(%s)" % self.qualname


class ClassSymbol:
    """One class: its methods, bases, and inferred attribute types."""

    __slots__ = ("qualname", "name", "module", "node", "methods", "bases", "attr_types")

    def __init__(self, qualname: str, module: ModuleInfo, node: ast.ClassDef):
        self.qualname = qualname
        self.name = node.name
        self.module = module
        self.node = node
        #: method name → FunctionSymbol
        self.methods: Dict[str, FunctionSymbol] = {}
        #: base-class names as written (resolved lazily through imports)
        self.bases: Tuple[str, ...] = tuple(
            name for name in (annotation_name(b) for b in node.bases) if name
        )
        #: ``self.<attr>`` → type name inferred from ``__init__``
        self.attr_types: Dict[str, str] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ClassSymbol(%s)" % self.qualname


def _collect_bindings(module: ModuleInfo, dotted: str) -> Dict[str, str]:
    """Local name → imported dotted target for one module."""
    bindings: Dict[str, str] = {}
    if module.tree is None:
        return bindings
    package_parts = dotted.split(".") if dotted else []
    if module.name != "__init__.py" and package_parts:
        package_parts = package_parts[:-1]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    bindings[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                drop = node.level - 1
                base_parts = (
                    package_parts[: len(package_parts) - drop]
                    if drop <= len(package_parts)
                    else []
                )
                base = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                bindings[local] = base + "." + alias.name if base else alias.name
    return bindings


class ProjectContext:
    """The whole-program symbol table interprocedural rules consult."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionSymbol] = {}
        self.classes: Dict[str, ClassSymbol] = {}
        #: module dotted name → {local name → imported dotted target}
        self.bindings: Dict[str, Dict[str, str]] = {}
        #: module rel path → its dotted name
        self.module_names: Dict[str, str] = {}
        #: dotted suffix → full dotted names ending in it
        self._suffixes: Dict[str, List[str]] = {}
        #: scratch space for analyses cached per context (taint, graph)
        self._cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, index: ProjectIndex) -> "ProjectContext":
        """One pass over every parsed module in the index."""
        context = cls()
        for module in index:
            if module.tree is None:
                continue
            dotted = module_dotted(module.rel)
            context.modules[dotted] = module
            context.module_names[module.rel] = dotted
            parts = dotted.split(".")
            for start in range(len(parts)):
                context._suffixes.setdefault(
                    ".".join(parts[start:]), []
                ).append(dotted)
            context.bindings[dotted] = _collect_bindings(module, dotted)
            context._collect_symbols(module, dotted)
        for symbol in context.classes.values():
            context._infer_attr_types(symbol)
        return context

    def _collect_symbols(self, module: ModuleInfo, dotted: str) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = dotted + "." + node.name
                self.functions[qualname] = FunctionSymbol(qualname, module, node)
            elif isinstance(node, ast.ClassDef):
                class_qual = dotted + "." + node.name
                symbol = ClassSymbol(class_qual, module, node)
                self.classes[class_qual] = symbol
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qual = class_qual + "." + child.name
                        method = FunctionSymbol(
                            method_qual, module, child, class_name=node.name
                        )
                        symbol.methods[child.name] = method
                        self.functions[method_qual] = method

    def _infer_attr_types(self, symbol: ClassSymbol) -> None:
        """``self.<attr>`` types from annotated-parameter/constructor
        assignments in ``__init__``."""
        init = symbol.methods.get("__init__")
        if init is None:
            return
        for node in ast.walk(init.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                value = node.value
                if isinstance(value, ast.Name):
                    annotated = init.param_types.get(value.id)
                    if annotated:
                        symbol.attr_types[target.attr] = annotated
                elif isinstance(value, ast.Call):
                    name = annotation_name(value.func)
                    if name:
                        resolved = self.resolve_name(
                            self.module_names.get(symbol.module.rel, ""), name
                        )
                        if isinstance(resolved, ClassSymbol):
                            symbol.attr_types[target.attr] = name

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_module(self, dotted: str) -> Optional[str]:
        """Full dotted name of the project module ``dotted`` names.

        Exact match first; otherwise the *unique* module whose dotted
        name ends with ``dotted`` (fixture files live under temp
        directories, so repo-style targets resolve by suffix).  An
        ambiguous suffix resolves to nothing.
        """
        if dotted in self.modules:
            return dotted
        matches = self._suffixes.get(dotted, [])
        if len(matches) == 1:
            return matches[0]
        return None

    def resolve(
        self, dotted: str
    ) -> Optional[Union[FunctionSymbol, ClassSymbol, ModuleInfo]]:
        """Resolve a dotted path to a project module, class, or function."""
        full = self.resolve_module(dotted)
        if full is not None:
            return self.modules[full]
        if "." not in dotted:
            return None
        head, last = dotted.rsplit(".", 1)
        container = self.resolve(head)
        if isinstance(container, ModuleInfo):
            base = self.module_names[container.rel]
            qualname = base + "." + last
            if qualname in self.functions:
                return self.functions[qualname]
            if qualname in self.classes:
                return self.classes[qualname]
        elif isinstance(container, ClassSymbol):
            return container.methods.get(last)
        return None

    def resolve_name(
        self, module_dotted_name: str, name: str
    ) -> Optional[Union[FunctionSymbol, ClassSymbol, ModuleInfo]]:
        """Resolve a bare name as seen from inside ``module_dotted_name``.

        Module-local definitions shadow imports, mirroring runtime
        scoping closely enough for analysis.
        """
        local = module_dotted_name + "." + name
        if local in self.functions:
            return self.functions[local]
        if local in self.classes:
            return self.classes[local]
        target = self.bindings.get(module_dotted_name, {}).get(name)
        if target:
            return self.resolve(target)
        return None

    def import_target(self, module_dotted_name: str, name: str) -> Optional[str]:
        """The dotted path ``name`` is bound to by an import, if any."""
        return self.bindings.get(module_dotted_name, {}).get(name)

    def class_of(self, name: str, seen_from: str) -> Optional[ClassSymbol]:
        """Resolve a type name (as written) to a project class."""
        resolved = self.resolve_name(seen_from, name)
        if isinstance(resolved, ClassSymbol):
            return resolved
        # Fully qualified annotation ("repro.core.probabilities.ProbabilityModel").
        resolved = self.resolve(name)
        if isinstance(resolved, ClassSymbol):
            return resolved
        return None

    def method_on(
        self, cls: ClassSymbol, name: str, _depth: int = 0
    ) -> Optional[FunctionSymbol]:
        """Method lookup through the class and its resolvable bases."""
        if name in cls.methods:
            return cls.methods[name]
        if _depth >= 8:  # defensive: cyclic base annotations
            return None
        seen_from = self.module_names.get(cls.module.rel, "")
        for base in cls.bases:
            base_cls = self.class_of(base, seen_from)
            if base_cls is not None and base_cls is not cls:
                found = self.method_on(base_cls, name, _depth + 1)
                if found is not None:
                    return found
        return None

    def functions_in(self, module: ModuleInfo) -> List[FunctionSymbol]:
        """Every function/method symbol defined in ``module``."""
        return [
            symbol
            for symbol in self.functions.values()
            if symbol.module.rel == module.rel
        ]

    def cached(self, key: str, compute) -> object:
        """Per-context memo for whole-program analyses (taint, graph)."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def iter_calls(node: ast.AST) -> Iterable[ast.Call]:
    """Every call expression in a function body, nested defs included."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child
