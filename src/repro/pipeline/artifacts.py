"""Typed, immutable stage artifacts with deterministic content keys.

The paper's online path (§VII) — ESearch result → navigation tree →
EdgeCut — becomes three artifact types, one per cached stage.  Each
artifact carries a ``content_key``: a deterministic digest of everything
the artifact's content depends on, so equal keys mean interchangeable
values.  The keys chain: a result set's key folds in the deployment's
digest (:meth:`~repro.storage.database.BioNavDatabase.content_digest`),
a navigation tree's key folds in the deployment digest and the result
set's key, and a cut's key folds in the tree's key, which is what lets
the serving layer cache *per stage* — navigation trees are shared by
every session of a query, and only the cut stage re-runs on EXPAND.

Artifacts are frozen dataclasses: stages may only communicate through
them, never through side channels, which is what makes per-stage caching
sound.  EdgeCut decisions are remembered in one place only: the cut
stage's :class:`CutPlan` entries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.active_tree import ComponentStats
from repro.core.edgecut import Component
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.core.strategy import CutDecision

__all__ = [
    "KEY_FORMAT_VERSION",
    "content_key",
    "component_digest",
    "ResultSet",
    "NavTreeArtifact",
    "CutPlan",
]


#: Version of the key schemes and of the artifact layouts they address.
#: Every content key and the cross-process L2's directory names fold it
#: in, so a store written by code with other keys or other pickled
#: layouts is never read.  Version 2: cut keys and decision caches name a
#: component by ``(root, excluded)`` instead of by its member set.
#: Version 3: cut keys fold in the session's solver options.  Version 4:
#: the §VI-B memo harvest and the navigation tree's decision store are
#: gone (plans are fresh solves), so the options string and the pickled
#: :class:`NavTreeArtifact` layout changed.  Version 5: the navigation
#: tree lost its per-node result-set caches and :class:`NavTreeArtifact`
#: carries the tree's distinct-citation count, so the pickled layout
#: changed.  Version 6: :class:`CutPlan` and :class:`NavTreeArtifact`
#: carry component statistics, so both pickled layouts changed.
#: Version 7: the navigation tree stores parent positions in
#: ``_eparent`` (node ids before) and no depth or children arrays, and
#: the probability model no ``log_lt``, so the pickled
#: :class:`NavTreeArtifact` layout changed.
KEY_FORMAT_VERSION = 7


def content_key(*parts: str) -> str:
    """Deterministic digest of ordered string parts (sha-256, 40 hex chars).

    The parts are prefixed with :data:`KEY_FORMAT_VERSION`.  40 hex
    characters (160 bits) keep keys short enough for stats output while
    leaving collisions out of practical reach.
    """
    joined = "|".join(("v%d" % KEY_FORMAT_VERSION,) + parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:40]


def component_digest(component: Component) -> str:
    """Digest of a component's ``(root, excluded)`` interval key.

    Runs on every EXPAND (the cut-stage key folds it in); it hashes the
    root and the cut-away positions as one little-endian int64 buffer, so
    it costs O(cut edges), not O(members).
    """
    ids = np.array((component.root,) + component.excluded, dtype="<i8")
    hasher = hashlib.sha256(b"component\x1e")
    hasher.update(ids.tobytes())
    return hasher.hexdigest()[:40]


@dataclass(frozen=True)
class ResultSet:
    """Stage 1 — one keyword query resolved to its citation ids.

    Attributes:
        query: the keyword query as issued.
        pmids: the matching citation ids, in ESearch order.
        content_key: digest chaining the deployment digest and the query.
    """

    query: str
    pmids: Tuple[int, ...]
    content_key: str

    @property
    def count(self) -> int:
        """Number of citations in the result."""
        return len(self.pmids)


@dataclass(frozen=True, eq=False)
class NavTreeArtifact:
    """Stage 2 — the query's navigation tree and probability model.

    Shared by every session of the query: the tree and probability model
    are immutable after construction.

    Attributes:
        query: the keyword query.
        tree: the navigation tree embedded in the hierarchy.
        probs: EXPLORE/EXPAND probability estimates over ``tree``
            (the per-node cost-model arrays, read-only).
        root_stats: the root component's display statistics (its count
            is the tree's distinct citations); computed once at build,
            without a relevance (no view ranks the root row).
        content_key: digest chaining the deployment digest and the
            result-set key.
    """

    query: str
    tree: NavigationTree
    probs: ProbabilityModel
    root_stats: ComponentStats
    content_key: str


@dataclass(frozen=True)
class CutPlan:
    """Stage 3 — one EXPAND's chosen EdgeCut, addressable by content.

    Cached per (navigation tree, component, root, solver, cost params):
    the same component expanded in any session of the query — today or
    after a BACKTRACK — replays the plan without re-solving.

    Attributes:
        solver: canonical registry name of the deciding solver.
        root: root concept of the expanded component.
        decision: the strategy's cut (with instrumentation).
        content_key: digest identifying this plan's full input closure.
        stats: display statistics of the components the cut creates,
            upper first, then the lowers in cut order (empty: unknown);
            an upper component rooted at the tree root has no relevance.
    """

    solver: str
    root: int
    decision: CutDecision
    content_key: str
    stats: Tuple[ComponentStats, ...] = ()
