"""Typed, immutable stage artifacts with deterministic content keys.

The paper's dataflow (§II–§VI) — concept hierarchy → query result →
navigation tree → active tree → EdgeCut — becomes five artifact types,
one per stage boundary.  Each artifact carries a ``content_key``: a
deterministic digest of everything the artifact's content depends on, so
equal keys mean interchangeable values.  The keys chain: a navigation
tree's key folds in the hierarchy snapshot's key and the result set's
key, which is what lets the serving layer cache *per stage* — the
hierarchy snapshot is one entry shared by every query of a deployment,
navigation trees are shared by every session of a query, and only the
active-tree / cut stages re-run on EXPAND.

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
from repro.core.session import NavigationSession
from repro.core.strategy import CutDecision
from repro.hierarchy.concept import ConceptHierarchy
from repro.storage.database import BioNavDatabase

__all__ = [
    "KEY_FORMAT_VERSION",
    "content_key",
    "component_digest",
    "HierarchySnapshot",
    "ResultSet",
    "NavTreeArtifact",
    "ActiveTreeArtifact",
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
KEY_FORMAT_VERSION = 6


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
class HierarchySnapshot:
    """Stage 1 — the deployment's concept hierarchy plus its database.

    One snapshot serves every query and session of a deployment; its
    content key is the database's deployment identity
    (:meth:`~repro.storage.database.BioNavDatabase.content_digest`),
    derived from the corpus store's build manifest digest alone.  That
    digest covers the hierarchy, the citation table, every association
    array and the ``LT(n)`` counts (and, for a toy deployment, its
    keyword text), so a corpus revision gets a new key — and with it
    every result-set, navigation-tree and cut key chained below it —
    while two deployments of the same build share keys.

    Attributes:
        database: the off-line BioNav database (corpus store, index).
        hierarchy: the concept hierarchy the database was built over.
        content_key: deterministic fingerprint of the deployment.
    """

    database: BioNavDatabase
    hierarchy: ConceptHierarchy
    content_key: str


@dataclass(frozen=True)
class ResultSet:
    """Stage 2 — one keyword query resolved to its citation ids.

    Attributes:
        query: the keyword query as issued.
        pmids: the matching citation ids, in ESearch order.
        content_key: digest chaining the hierarchy key and the query.
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
    """Stage 3 — the query's navigation tree and probability model.

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
        content_key: digest chaining the hierarchy and result-set keys.
    """

    query: str
    tree: NavigationTree
    probs: ProbabilityModel
    root_stats: ComponentStats
    content_key: str


@dataclass(frozen=True, eq=False)
class ActiveTreeArtifact:
    """Stage 4 — one session's live active tree over a navigation tree.

    Per-session and therefore never cached across sessions: the session
    object mutates as the user EXPANDs and BACKTRACKs.  The artifact
    pins the shared navigation-tree artifact it was activated from and
    the solver driving its EXPANDs.

    Attributes:
        nav: the shared navigation-tree artifact.
        solver: canonical registry name of the session's solver.
        session: the live navigation session (active tree + cost ledger).
        content_key: unique per activation (chains the nav key, the
            solver, and an activation ordinal).
    """

    nav: NavTreeArtifact
    solver: str
    session: NavigationSession
    content_key: str


@dataclass(frozen=True)
class CutPlan:
    """Stage 5 — one EXPAND's chosen EdgeCut, addressable by content.

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
