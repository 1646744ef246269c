"""The ``CorpusStore`` interface and its two backends.

Every online layer that needs corpus data — search, the eutils client,
the BioNav database, the navigation-tree builder, cluster workers —
consumes this one interface instead of reaching into in-memory tables:

* :class:`InMemoryStore` wraps the toy
  :class:`~repro.corpus.medline.MedlineDatabase`, so seed tests and
  small fixtures keep their exact behaviour;
* :class:`MmapStore` opens a directory built by
  :class:`~repro.substrate.builder.SubstrateBuilder` read-only with
  ``np.load(mmap_mode="r")``.  Nothing is copied at open time, and a
  store pickled across a process boundary (``fork`` cluster workers,
  spawn-based tests) reopens by path — every worker maps the same
  files, so the corpus lives once in the OS page cache.

Both backends answer the same questions with the same values: citation
lookup, per-concept membership (as pmid arrays or compressed bitmaps),
boolean-AND concept queries, the ``annotations_for_result`` restriction
the navigation tree consumes, and the ``LT(n)`` MEDLINE-wide counts.
The equivalence suite in ``tests/test_substrate_equivalence.py`` holds
them bit-identical end to end (ResultSets and Opt-EdgeCut cuts).
"""

from __future__ import annotations

import json
import os
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.arrays import HierarchyArrays
from repro.hierarchy.concept import ConceptHierarchy
from repro.substrate.roaring import RoaringBitmap, intersect_serialized

__all__ = ["CorpusStore", "InMemoryStore", "MmapStore"]


class CorpusStore:
    """Read-only corpus access: citations, concept membership, counts.

    Subclasses implement the primitive accessors; shared derived
    answers (grouping a result set by concept, multi-concept AND) are
    provided here in terms of them but may be overridden with faster
    backend-specific paths.
    """

    #: Human-readable backend name, surfaced in ``store_info()``.
    backend = "abstract"

    # -- identity -------------------------------------------------------
    @property
    def manifest_digest(self) -> Optional[str]:
        """Digest of the offline build manifest (None when not built)."""
        return None

    def store_info(self) -> Dict[str, object]:
        """Observability block for ``health()`` endpoints."""
        return {
            "backend": self.backend,
            "path": getattr(self, "path", None),
            "manifest": self.manifest_digest,
            "citations": len(self),
        }

    def hierarchy(self) -> Optional[ConceptHierarchy]:
        """The hierarchy captured at build time (None for raw corpora)."""
        return None

    # -- citation table -------------------------------------------------
    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, pmid: int) -> bool:
        raise NotImplementedError

    def get(self, pmid: int) -> Citation:
        """One citation; raises KeyError for unknown PMIDs."""
        raise NotImplementedError

    def get_many(self, pmids: Sequence[int]) -> List[Citation]:
        """Several citations, preserving the requested order."""
        return [self.get(pmid) for pmid in pmids]

    def iter_citations(self) -> Iterator[Citation]:
        """Stream every citation in ascending-PMID order."""
        raise NotImplementedError

    def pmids(self) -> List[int]:
        """All stored PMIDs, ascending."""
        raise NotImplementedError

    def concepts_of(self, pmid: int) -> Tuple[int, ...]:
        """Sorted association set of one citation (KeyError when absent)."""
        raise NotImplementedError

    # -- concept membership ---------------------------------------------
    @property
    def num_concepts(self) -> int:
        """Size of the concept id space the store was built over."""
        raise NotImplementedError

    def citations_for_concept(self, concept: int) -> np.ndarray:
        """Ascending int64 PMIDs associated with ``concept``."""
        raise NotImplementedError

    def concept_bitmap(self, concept: int) -> RoaringBitmap:
        """Compressed citation-ordinal set of ``concept``.

        Ordinals index the ascending PMID order of :meth:`pmids`.
        """
        raise NotImplementedError

    def result_count(self, concept: int) -> int:
        """Citations in *this corpus* associated with ``concept``."""
        raise NotImplementedError

    def medline_count(self, concept: int) -> int:
        """``LT(n)``: corpus count plus the simulated background mass."""
        raise NotImplementedError

    # -- derived answers ------------------------------------------------
    def boolean_and(self, concepts: Sequence[int]) -> np.ndarray:
        """PMIDs associated with *every* concept, ascending (int64).

        This is the substrate half of a ``term[mh]`` conjunctive query;
        backends may override with bitmap kernels.
        """
        if not concepts:
            return np.empty(0, dtype=np.int64)
        sets = sorted(
            (self.citations_for_concept(c) for c in concepts), key=len
        )
        result = sets[0]
        for other in sets[1:]:
            if result.size == 0:
                break
            result = np.intersect1d(result, other, assume_unique=True)
        return result.astype(np.int64, copy=False)

    def concepts_of_citations(
        self, pmids: Sequence[int]
    ) -> Dict[int, Tuple[int, ...]]:
        """Concept lists for a query result; missing PMIDs are skipped."""
        out: Dict[int, Tuple[int, ...]] = {}
        for pmid in pmids:
            if pmid in self:
                out[pmid] = self.concepts_of(pmid)
        return out

    def annotations_for_result(
        self, pmids: Sequence[int]
    ) -> Dict[int, FrozenSet[int]]:
        """concept → set of result PMIDs attached to it.

        Exactly the association-table restriction the initial
        navigation tree is built from.
        """
        by_concept: Dict[int, set] = {}
        for pmid, concepts in self.concepts_of_citations(pmids).items():
            for concept in concepts:
                by_concept.setdefault(concept, set()).add(pmid)
        return {concept: frozenset(ids) for concept, ids in by_concept.items()}

    def annotation_arrays(
        self, pmids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR form of :meth:`annotations_for_result`.

        Returns ``(concepts, offsets, values)``: annotated concept ids
        sorted ascending (int64), int64 CSR offsets, and per-concept
        sorted result PMIDs (int64) — the buffers the array-native
        navigation-tree build consumes directly.  The generic
        implementation flattens the dict answer; ``MmapStore`` overrides
        it with a pure-array gather.
        """
        annotations = self.annotations_for_result(pmids)
        concepts = np.asarray(sorted(annotations), dtype=np.int64)
        rows = [sorted(annotations[c]) for c in concepts.tolist()]
        lengths = np.fromiter(
            (len(row) for row in rows), dtype=np.int64, count=len(rows)
        )
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values = np.fromiter(
            (pmid for row in rows for pmid in row),
            dtype=np.int64,
            count=int(offsets[-1]),
        )
        return concepts, offsets, values


class InMemoryStore(CorpusStore):
    """Adapter presenting a :class:`MedlineDatabase` as a ``CorpusStore``.

    Concept-major views (pmid arrays, bitmaps) are derived lazily on
    first use and cached; citation access delegates straight through,
    so wrapping is free for code paths that never ask concept-major
    questions.
    """

    backend = "memory"

    def __init__(
        self,
        medline: MedlineDatabase,
        hierarchy: Optional[ConceptHierarchy] = None,
        manifest_digest: Optional[str] = None,
    ):
        self._medline = medline
        self._hierarchy = hierarchy
        self._digest = manifest_digest
        self._by_concept: Optional[Dict[int, np.ndarray]] = None
        self._sorted_pmids: Optional[np.ndarray] = None

    @property
    def medline(self) -> MedlineDatabase:
        """The wrapped in-memory corpus."""
        return self._medline

    @property
    def manifest_digest(self) -> Optional[str]:
        """Digest of a substrate build this corpus was loaded from, if any."""
        return self._digest

    def hierarchy(self) -> Optional[ConceptHierarchy]:
        return self._hierarchy

    # -- citation table -------------------------------------------------
    def __len__(self) -> int:
        return len(self._medline)

    def __contains__(self, pmid: int) -> bool:
        return pmid in self._medline

    def get(self, pmid: int) -> Citation:
        return self._medline.get(pmid)

    def get_many(self, pmids: Sequence[int]) -> List[Citation]:
        return self._medline.get_many(pmids)

    def iter_citations(self) -> Iterator[Citation]:
        for pmid in self._medline.pmids():
            yield self._medline.get(pmid)

    def pmids(self) -> List[int]:
        return self._medline.pmids()

    def concepts_of(self, pmid: int) -> Tuple[int, ...]:
        return tuple(sorted(set(self._medline.get(pmid).concepts)))

    # -- concept membership ---------------------------------------------
    def _concept_index(self) -> Dict[int, np.ndarray]:
        if self._by_concept is None:
            buckets: Dict[int, List[int]] = {}
            for citation in self._medline.iter_citations():
                for concept in set(citation.concepts):
                    buckets.setdefault(concept, []).append(citation.pmid)
            self._by_concept = {
                concept: np.array(sorted(ids), dtype=np.int64)
                for concept, ids in buckets.items()
            }
        return self._by_concept

    def _pmid_order(self) -> np.ndarray:
        if self._sorted_pmids is None:
            self._sorted_pmids = np.array(self._medline.pmids(), dtype=np.int64)
        return self._sorted_pmids

    @property
    def num_concepts(self) -> int:
        """Hierarchy size when known, else one past the max observed concept."""
        if self._hierarchy is not None:
            return len(self._hierarchy)
        index = self._concept_index()
        return max(index) + 1 if index else 0

    def citations_for_concept(self, concept: int) -> np.ndarray:
        return self._concept_index().get(concept, np.empty(0, dtype=np.int64))

    def concept_bitmap(self, concept: int) -> RoaringBitmap:
        members = self.citations_for_concept(concept)
        ordinals = np.searchsorted(self._pmid_order(), members)
        return RoaringBitmap.from_sorted(ordinals.astype(np.uint32))

    def result_count(self, concept: int) -> int:
        return self._medline.corpus_count(concept)

    def medline_count(self, concept: int) -> int:
        return self._medline.medline_count(concept)

    def background_counts(self) -> Dict[int, int]:
        """Simulated out-of-corpus counts (persistence passthrough)."""
        return self._medline.background_counts()


class MmapStore(CorpusStore):
    """Zero-copy read-only view over a built substrate directory.

    All columnar files open as ``np.load(..., mmap_mode="r")`` memmaps:
    opening a 1M-citation store touches only headers, and N processes
    opening the same directory share one set of pages.  Pickling (the
    cluster wire format) reduces to the directory path, so shipping a
    store to a worker costs bytes, not the corpus.
    """

    backend = "mmap"

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        with open(os.path.join(self.path, "manifest.json"), "rb") as handle:
            self._manifest_bytes = handle.read()
        self.manifest: Dict[str, object] = json.loads(self._manifest_bytes)
        if self.manifest.get("format_version") != 2:
            raise ValueError(
                "unsupported substrate format_version %r"
                % self.manifest.get("format_version")
            )

        def _mm(name: str) -> np.ndarray:
            target = os.path.join(self.path, name)
            try:
                return np.load(target, mmap_mode="r")
            except ValueError:
                # Zero-length arrays cannot be mmapped; load eagerly.
                return np.load(target)

        self._pmids = _mm("pmids.npy")
        self._years = _mm("years.npy")
        self._cit_offsets = _mm("cit_concept_offsets.npy")
        self._cit_concepts = _mm("cit_concepts.npy")
        self._concept_offsets = _mm("concept_offsets.npy")
        self._concept_citations = _mm("concept_citations.npy")
        self._concept_counts = _mm("concept_counts.npy")
        self._concept_lt = _mm("concept_lt.npy")
        self._bitmap_offsets = _mm("bitmap_offsets.npy")
        self._bitmap_blob = _mm("bitmap_blob.npy")
        params = self.manifest.get("params", {})
        self._array_max = int(params.get("array_max", 4096))
        self._hierarchy_cache: Optional[ConceptHierarchy] = None

    @classmethod
    def open(cls, path: str) -> "MmapStore":  # repro: ignore[shadowed-builtin]
        """Open a directory written by ``SubstrateBuilder``."""
        return cls(path)

    def __reduce__(self):
        # Reopen-by-path: the memmaps themselves never cross process
        # boundaries, each process maps the shared files directly.
        return (MmapStore.open, (self.path,))

    @property
    def manifest_digest(self) -> Optional[str]:
        """The build manifest digest — the directory's content identity."""
        return str(self.manifest["digest"])

    def hierarchy(self) -> Optional[ConceptHierarchy]:
        """The build-time hierarchy, mmapped from its positional arrays.

        Opening the ``hier_*.npy`` files is a handful of header reads, so
        a cold hierarchy access costs file opens.  ``None`` when the
        directory was built without a hierarchy.
        """
        if self._hierarchy_cache is None and HierarchyArrays.present(self.path):
            self._hierarchy_cache = ConceptHierarchy.open(self.path)
        return self._hierarchy_cache

    # -- citation table -------------------------------------------------
    def __len__(self) -> int:
        return int(self._pmids.size)

    def _ordinal(self, pmid: int) -> int:
        pos = int(np.searchsorted(self._pmids, pmid))
        if pos >= self._pmids.size or int(self._pmids[pos]) != pmid:
            raise KeyError(pmid)
        return pos

    def __contains__(self, pmid: int) -> bool:
        try:
            self._ordinal(pmid)
        except KeyError:
            return False
        return True

    def _citation_at(self, ordinal: int) -> Citation:
        pmid = int(self._pmids[ordinal])
        concepts = tuple(
            int(c)
            for c in self._cit_concepts[
                int(self._cit_offsets[ordinal]) : int(self._cit_offsets[ordinal + 1])
            ]
        )
        return Citation(
            pmid=pmid,
            title="Synthetic citation %d" % pmid,
            year=int(self._years[ordinal]),
            index_concepts=concepts,
        )

    def get(self, pmid: int) -> Citation:
        return self._citation_at(self._ordinal(pmid))

    def iter_citations(self) -> Iterator[Citation]:
        for ordinal in range(len(self)):
            yield self._citation_at(ordinal)

    def pmids(self) -> List[int]:
        return self._pmids.tolist()

    def pmid_array(self) -> np.ndarray:
        """The ascending PMID column itself (zero-copy memmap)."""
        return self._pmids

    def concepts_of(self, pmid: int) -> Tuple[int, ...]:
        ordinal = self._ordinal(pmid)
        row = self._cit_concepts[
            int(self._cit_offsets[ordinal]) : int(self._cit_offsets[ordinal + 1])
        ]
        return tuple(int(c) for c in row)

    # -- concept membership ---------------------------------------------
    @property
    def num_concepts(self) -> int:
        """Concept id space recorded at build time (counts-array length)."""
        return int(self._concept_counts.size)

    def _check_concept(self, concept: int) -> None:
        if not 0 <= concept < self.num_concepts:
            raise IndexError("concept %d outside store universe" % concept)

    def _concept_ordinals(self, concept: int) -> np.ndarray:
        self._check_concept(concept)
        return self._concept_citations[
            int(self._concept_offsets[concept]) : int(self._concept_offsets[concept + 1])
        ]

    def citations_for_concept(self, concept: int) -> np.ndarray:
        ordinals = self._concept_ordinals(concept)
        return np.asarray(self._pmids[ordinals], dtype=np.int64)

    def concept_bitmap(self, concept: int) -> RoaringBitmap:
        self._check_concept(concept)
        start = int(self._bitmap_offsets[concept])
        stop = int(self._bitmap_offsets[concept + 1])
        return RoaringBitmap.deserialize(
            self._bitmap_blob,
            offset=start,
            array_max=self._array_max,
            length=stop - start,
        )

    def result_count(self, concept: int) -> int:
        self._check_concept(concept)
        return int(self._concept_counts[concept])

    def medline_count(self, concept: int) -> int:
        if not 0 <= concept < self.num_concepts:
            return 0
        return int(self._concept_lt[concept])

    def medline_counts(self, concepts: np.ndarray) -> np.ndarray:
        """:meth:`medline_count` of every id in ``concepts``, one gather."""
        inside = (concepts >= 0) & (concepts < self.num_concepts)
        counts = np.zeros(len(concepts), dtype=np.int64)
        counts[inside] = self._concept_lt[concepts[inside]]
        return counts

    # -- derived answers (bitmap-accelerated) ---------------------------
    def boolean_and(self, concepts: Sequence[int]) -> np.ndarray:
        """AND over the serialized roaring blob, no bitmap inflation.

        :func:`~repro.substrate.roaring.intersect_serialized` galloping
        over the per-concept byte spans touches only the containers
        whose 16-bit key appears in *every* operand; everything else in
        the memmapped blob stays cold on disk.
        """
        if not concepts:
            return np.empty(0, dtype=np.int64)
        spans = []
        for concept in concepts:
            self._check_concept(concept)
            start = int(self._bitmap_offsets[concept])
            stop = int(self._bitmap_offsets[concept + 1])
            spans.append((start, stop - start))
        ordinals = intersect_serialized(
            self._bitmap_blob, spans, array_max=self._array_max
        )
        return np.asarray(self._pmids[ordinals.astype(np.int64)], dtype=np.int64)

    def _result_ordinals(self, pmids: Sequence[int]) -> np.ndarray:
        """Citation ordinals of the PMIDs present in the store (batched).

        One ``np.searchsorted`` over the PMID column answers the whole
        request; missing PMIDs are dropped.  Order follows the input.
        """
        requested = np.asarray(pmids, dtype=np.int64)
        if requested.size == 0 or self._pmids.size == 0:
            return np.empty(0, dtype=np.int64)
        found = np.minimum(
            np.searchsorted(self._pmids, requested), self._pmids.size - 1
        )
        present = self._pmids[found] == requested
        return found[present]

    def _concept_rows(
        self, ordinals: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened concept rows of ``ordinals`` plus per-row lengths."""
        begins = self._cit_offsets[ordinals].astype(np.int64)
        lengths = self._cit_offsets[ordinals + 1].astype(np.int64) - begins
        total = int(lengths.sum())
        base = np.repeat(begins, lengths)
        reset = np.repeat(np.cumsum(lengths) - lengths, lengths)
        flat = self._cit_concepts[base + np.arange(total) - reset]
        return flat, lengths

    def concepts_of_citations(
        self, pmids: Sequence[int]
    ) -> Dict[int, Tuple[int, ...]]:
        """Concept rows for a result, via one batched table lookup.

        The per-PMID ``_ordinal`` + tuple loop this replaces sat on the
        tree-annotation path of every cold query; here the ordinal
        resolution is a single ``searchsorted`` and the rows come back
        as CSR slice views converted once.
        """
        ordinals = self._result_ordinals(pmids)
        if ordinals.size == 0:
            return {}
        flat, lengths = self._concept_rows(ordinals)
        flat_list = flat.tolist()
        bounds = np.zeros(len(ordinals) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        bound_list = bounds.tolist()
        found_pmids = self._pmids[ordinals].tolist()
        return {
            pmid: tuple(flat_list[bound_list[i] : bound_list[i + 1]])
            for i, pmid in enumerate(found_pmids)
        }

    def annotation_arrays(
        self, pmids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR annotations straight from the citation table (no dicts).

        Gathers the result's concept rows, inverts them with one stable
        sort by concept (ordinals ascend within the input, so each
        concept's PMID run comes out sorted), and groups with
        ``np.unique`` — the exact buffers ``NavigationTree._embed``
        ingests.
        """
        ordinals = np.unique(self._result_ordinals(pmids))
        if ordinals.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.zeros(1, dtype=np.int64), empty
        flat, lengths = self._concept_rows(ordinals)
        flat_pmids = np.repeat(self._pmids[ordinals].astype(np.int64), lengths)
        order = np.argsort(flat, kind="stable")
        concepts_sorted = np.asarray(flat, dtype=np.int64)[order]
        values = flat_pmids[order]
        concepts, starts = np.unique(concepts_sorted, return_index=True)
        offsets = np.append(starts, len(values)).astype(np.int64)
        return concepts.astype(np.int64), offsets, values
