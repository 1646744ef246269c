"""Guards on public API surfaces that other code binds to by name or type.

* ``perfbench/spans.py`` wraps the entry points in its ``TARGETS`` by
  module and attribute name when a ``--trace 1`` server starts; renaming
  one of them makes that server fail at start-up, which no other tier-1
  test notices.
* The navigation core has one component form (the interval
  :class:`~repro.core.edgecut.Component`) and one result form (CSR
  arrays), so no public function or method of the core, pipeline,
  serving or viz packages takes or returns a member set.
  ``repro.complexity`` is exempt: its §V reduction is set-theoretic.
"""

from __future__ import annotations

import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path
from typing import Iterator, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = REPO_ROOT / "perfbench" / "spans.py"

SET_PACKAGES = ("repro.core", "repro.pipeline", "repro.serving", "repro.viz")
SET_TYPE = re.compile(r"\b(FrozenSet|AbstractSet|Set|frozenset|set)\b")


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name,path,layer", _span_targets())
def test_span_target_exists(module_name, path, layer):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    assert attr in vars(owner), "%s.%s (layer %s) is gone" % (module_name, path, layer)


def _modules() -> Iterator[object]:
    for package_name in SET_PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__, package_name + "."):
            yield importlib.import_module(info.name)


def _public_callables() -> Iterator[Tuple[str, object]]:
    for module in _modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield "%s.%s" % (module.__name__, name), obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield "%s.%s.%s" % (module.__name__, name, attr), member


def test_no_public_api_takes_or_returns_a_member_set():
    offenders = []
    checked = 0
    for qualname, func in _public_callables():
        checked += 1
        for param, annotation in func.__annotations__.items():
            if SET_TYPE.search(str(annotation)):
                offenders.append("%s(%s: %s)" % (qualname, param, annotation))
    assert checked > 100
    assert offenders == []
