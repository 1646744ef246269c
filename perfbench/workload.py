"""Seeded, stratified navigation-session scripts for the BioNav benchmark.

A script is a list of sessions. Each session is one ``[mh]`` concept
query plus a *target* concept inside its result; the client plays a
TOPDOWN user (paper §III) who expands the target's deepest visible
ancestor until the target is visible, then asks for its citations.

Scripts are built only from the substrate directory's ``.npy`` arrays,
read here with numpy, never through the program under test. The seed
chooses *which* concepts are queried; the shape of the workload does
not depend on it:

* queries are drawn from fixed result-size bands (strata), and the
  navigation tree's size follows the result size closely, so every seed
  gets the same number of sessions per stratum and the same tree-size
  distribution;
* the order in which the warm universe is revisited is a fixed Zipf
  sequence, and the fleet universe is revisited round robin, so
  per-stratum session counts are identical across seeds.

The same seed gives a byte-identical script (:func:`script_bytes`).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "SPECS",
    "WorkloadSpec",
    "Substrate",
    "make_script",
    "script_bytes",
    "stratum_counts",
]

#: Hierarchy depth of every session's target concept (the root is 0).
TARGET_DEPTH = 1
#: A target must annotate at least this many citations of the result.
TARGET_MIN_HITS = 3
#: Upper bound on one session's EXPANDs, the first one included.
MAX_EXPANDS = 2
#: Timed rounds generated for cold workloads; a run stops earlier.
COLD_ROUNDS = 8
#: Timed sessions generated for warm and fleet workloads.
ZIPF_LENGTH = 160
#: Zipf exponent of the universe revisit order.
ZIPF_EXPONENT = 0.6
#: Seed of the revisit order. Fixed, so that it is the same for every
#: workload seed: only the concepts behind each rank change.
ZIPF_ORDER_SEED = 20090329


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload.

    Attributes:
        name: the workload's name on the command line.
        citations: synthetic corpus size built in set-up.
        bands: result-size strata, ``[low, high)`` citations each.
        mode: ``"cold"`` (every session a distinct query), ``"warm"``
            (a small universe revisited in Zipf order) or ``"fleet"``
            (a small universe revisited round robin by a cluster, plus
            never-seen queries).
        universe_per_band: scripts per band in the revisited universe.
        novel_every: in fleet mode, every n-th timed session is a
            never-seen query from the last band.
        tree_cache: the serving runtime's result-set / navigation-tree
            cache bound (L1).
        session_seconds: nominal time of one timed session on a 2-core
            x86-64 host; sizes the timed phase (see ``run.py``).
        replays: times each server plays the timed sessions, its stage
            caches dropped in between (cold workloads), so each request
            gets more plays from the same state.
    """

    name: str
    citations: int
    bands: Tuple[Tuple[int, int], ...]
    mode: str
    universe_per_band: int = 0
    novel_every: int = 0
    tree_cache: int = 32
    session_seconds: float = 1.0
    replays: int = 1

    @property
    def period(self) -> int:
        """Sessions in one repeat of the timed pattern."""
        return len(self.bands) if self.mode == "cold" else self.novel_every or 1


SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="cold_paper",
            citations=100_000,
            bands=((330, 380), (380, 430), (430, 480)),
            mode="cold",
            session_seconds=0.28,
            replays=2,
        ),
        WorkloadSpec(
            name="warm_zipf",
            citations=100_000,
            bands=((400, 480),),
            mode="warm",
            universe_per_band=4,
            session_seconds=0.11,
        ),
        WorkloadSpec(
            name="fleet_churn",
            citations=100_000,
            bands=((300, 360),),
            mode="fleet",
            universe_per_band=4,
            novel_every=4,
            tree_cache=1,
            session_seconds=0.3,
        ),
    )
}


class Substrate:
    """Read-only numpy view of a built substrate directory."""

    def __init__(self, path: str):
        self.path = path

        def load(name: str) -> np.ndarray:
            return np.load(os.path.join(path, name + ".npy"), mmap_mode="r")

        self.concept_offsets = np.asarray(load("concept_offsets"))
        self.concept_citations = load("concept_citations")
        self.cit_offsets = load("cit_concept_offsets")
        self.cit_concepts = load("cit_concepts")
        self.pmids = load("pmids")
        self.parents = np.asarray(load("hier_parents"))
        self.depths = np.asarray(load("hier_depths"))
        self.positions = np.asarray(load("hier_positions"))
        self.subtree_sizes = np.asarray(load("hier_subtree_sizes"))
        self.root = int(np.flatnonzero(self.parents < 0)[0])

    @property
    def num_concepts(self) -> int:
        """Concept id space of the corpus."""
        return len(self.concept_offsets) - 1

    def posting_sizes(self) -> np.ndarray:
        """Citations per concept: the result size of a one-concept query."""
        return np.diff(self.concept_offsets)

    def result_ordinals(self, concepts: Sequence[int]) -> np.ndarray:
        """Citation ordinals matching every concept (sorted)."""
        result = None
        for concept in concepts:
            posting = self.concept_citations[
                self.concept_offsets[concept] : self.concept_offsets[concept + 1]
            ]
            result = (
                np.asarray(posting)
                if result is None
                else np.intersect1d(result, posting, assume_unique=True)
            )
        return result if result is not None else np.empty(0, dtype=np.int64)

    def concept_hits(self, ordinals: np.ndarray) -> np.ndarray:
        """Per-concept count of the given citations it annotates."""
        starts = np.asarray(self.cit_offsets[ordinals], dtype=np.int64)
        lengths = np.asarray(self.cit_offsets[ordinals + 1], dtype=np.int64) - starts
        rows = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        index = rows + np.arange(int(lengths.sum()), dtype=np.int64)
        concepts = np.asarray(self.cit_concepts[index], dtype=np.int64)
        return np.bincount(concepts, minlength=self.num_concepts)

    def ancestors(self, node: int) -> List[int]:
        """``node`` followed by its hierarchy ancestors up to the root."""
        chain = [node]
        while self.parents[chain[-1]] >= 0:
            chain.append(int(self.parents[chain[-1]]))
        return chain

    def descends_from(self, nodes: np.ndarray, ancestor: int) -> np.ndarray:
        """Mask of ``nodes`` strictly inside ``ancestor``'s subtree."""
        low = self.positions[ancestor]
        high = low + self.subtree_sizes[ancestor]
        position = self.positions[nodes]
        return (position > low) & (position < high)


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _pick_concepts(
    sizes: np.ndarray, band: Tuple[int, int], count: int, rng: np.random.Generator,
    exclude: Sequence[int] = (),
) -> List[int]:
    """``count`` distinct one-concept queries whose result size is in ``band``."""
    low, high = band
    candidates = np.flatnonzero((sizes >= low) & (sizes < high))
    candidates = np.setdiff1d(candidates, np.asarray(exclude, dtype=np.int64))
    if len(candidates) < count:
        raise ValueError(
            "band %r has %d candidate queries, %d needed"
            % (band, len(candidates), count)
        )
    return [int(c) for c in rng.choice(candidates, size=count, replace=False)]


def _pick_target(
    sub: Substrate, concept: int, rng: np.random.Generator
) -> int:
    """A concept at :data:`TARGET_DEPTH` annotating enough of the result."""
    hits = sub.concept_hits(sub.result_ordinals([concept]))
    candidates = np.flatnonzero(
        (hits >= TARGET_MIN_HITS) & (sub.depths == TARGET_DEPTH)
    )
    if len(candidates) == 0:
        raise ValueError("query %d has no target at depth %d" % (concept, TARGET_DEPTH))
    return int(rng.choice(candidates))


def _session(
    sub: Substrate, sizes: np.ndarray, concept: int, stratum: int,
    rng: np.random.Generator,
) -> Dict[str, object]:
    target = _pick_target(sub, concept, rng)
    return {
        "concepts": [concept],
        "target": target,
        "stratum": stratum,
        "result_size": int(sizes[concept]),
        "script": "%d>%d" % (concept, target),
        "novel": False,
    }


def _zipf_order(universe: int) -> List[int]:
    """The fixed revisit order over ``universe`` ranks."""
    weights = 1.0 / np.arange(1, universe + 1) ** ZIPF_EXPONENT
    rng = np.random.default_rng(ZIPF_ORDER_SEED)
    ranks = rng.choice(universe, size=ZIPF_LENGTH, p=weights / weights.sum())
    return [int(rank) for rank in ranks]


def make_script(spec: WorkloadSpec, sub: Substrate, seed: int) -> Dict[str, object]:
    """The workload's warm-up and timed sessions for ``seed``.

    Cold workloads: one warm-up session from the smallest band, then
    rounds of one distinct query per band, bands in ascending order.
    Warm and fleet workloads: the universe (``universe_per_band``
    queries per band, bands interleaved) is the warm-up, so every
    stage is built before timing starts; the timed phase revisits it in
    the fixed Zipf order (warm) or round robin (fleet, so that with an
    L1 of one tree every revisit loads from L2), and in fleet mode every
    ``novel_every``-th session is a query never seen before.
    """
    sizes = sub.posting_sizes()
    warmup: List[Dict[str, object]] = []
    timed: List[Dict[str, object]] = []
    if spec.mode == "cold":
        per_band = [
            _pick_concepts(sizes, band, COLD_ROUNDS + 1, _rng(seed, 1, stratum))
            for stratum, band in enumerate(spec.bands)
        ]
        warmup.append(
            _session(sub, sizes, per_band[0][0], 0, _rng(seed, 2, 0, 0))
        )
        for round_index in range(1, COLD_ROUNDS + 1):
            for stratum, concepts in enumerate(per_band):
                timed.append(
                    _session(
                        sub, sizes, concepts[round_index], stratum,
                        _rng(seed, 2, stratum, round_index),
                    )
                )
    else:
        per_band = [
            _pick_concepts(sizes, band, spec.universe_per_band, _rng(seed, 1, stratum))
            for stratum, band in enumerate(spec.bands)
        ]
        universe = [
            _session(
                sub, sizes, per_band[stratum][slot], stratum,
                _rng(seed, 2, stratum, slot),
            )
            for slot in range(spec.universe_per_band)
            for stratum in range(len(spec.bands))
        ]
        warmup.extend(universe)
        if spec.mode == "fleet":
            order = itertools.cycle(range(len(universe)))
        else:
            order = iter(_zipf_order(len(universe)))
        novel: List[int] = []
        if spec.novel_every:
            count = ZIPF_LENGTH // spec.novel_every
            novel = _pick_concepts(
                sizes, spec.bands[-1], count, _rng(seed, 3),
                exclude=[c for concepts in per_band for c in concepts],
            )
        novel_iter = iter(novel)
        for index in range(ZIPF_LENGTH):
            if spec.novel_every and index % spec.novel_every == spec.novel_every - 1:
                concept = next(novel_iter)
                session = _session(
                    sub, sizes, concept, len(spec.bands), _rng(seed, 4, index)
                )
                session["novel"] = True
                timed.append(session)
            else:
                timed.append(dict(universe[next(order)]))
    for prefix, sessions in (("w", warmup), ("t", timed)):
        for index, session in enumerate(sessions):
            session["id"] = "%s%04d" % (prefix, index)
    return {
        "workload": spec.name,
        "seed": seed,
        "citations": spec.citations,
        "bands": [list(band) for band in spec.bands],
        "warmup": warmup,
        "timed": timed,
    }


def script_bytes(script: Dict[str, object]) -> bytes:
    """Canonical serialization: equal scripts give equal bytes."""
    return json.dumps(script, sort_keys=True, separators=(",", ":")).encode("utf-8")


def stratum_counts(sessions: Sequence[Dict[str, object]]) -> Dict[int, int]:
    """Sessions per stratum (never-seen queries form their own stratum)."""
    counts: Dict[int, int] = {}
    for session in sessions:
        stratum = int(session["stratum"])  # type: ignore[arg-type]
        counts[stratum] = counts.get(stratum, 0) + 1
    return dict(sorted(counts.items()))
