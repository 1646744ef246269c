"""The corpus store: one array-backed view of a built substrate.

Every online layer that needs corpus data — search, the eutils client,
the BioNav database, the navigation-tree builder, cluster workers —
reads it through :class:`MmapStore`, over the arrays
:class:`~repro.substrate.builder.SubstrateBuilder` produced:

* **mapped** — :meth:`MmapStore.open` maps a built directory read-only
  with ``np.load(mmap_mode="r")``.  Nothing is copied at open time, and
  a store pickled across a process boundary (``fork`` cluster workers,
  spawn-based tests) reopens by path, so every worker maps the same
  files and the corpus lives once in the OS page cache;
* **in memory** — an in-memory build (toy corpora, see
  :func:`~repro.substrate.builder.medline_store`) hands its arrays over
  directly; such a store pickles by value.

Either way the answers come from the same code: citation lookup,
per-concept membership (as pmid arrays or compressed bitmaps),
boolean-AND concept queries over the serialized bitmaps, the CSR
annotation restriction the navigation tree consumes, and the ``LT(n)``
MEDLINE-wide counts.  Persistence is the substrate directory.  The
equivalence suite in ``tests/test_substrate_equivalence.py`` pins both
forms to a dict-based oracle end to end (ResultSets and Opt-EdgeCut
cuts).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.citation import Citation
from repro.hierarchy.arrays import HierarchyArrays
from repro.hierarchy.concept import ConceptHierarchy
from repro.substrate.roaring import RoaringBitmap, intersect_serialized

__all__ = ["CORPUS_FILES", "FORMAT_VERSION", "MmapStore"]

#: Substrate layout version, written by the builder and checked on open.
FORMAT_VERSION = 2

#: The corpus arrays of a substrate, in the order the manifest hashes them.
CORPUS_FILES: Tuple[str, ...] = (
    "pmids.npy",
    "years.npy",
    "cit_concept_offsets.npy",
    "cit_concepts.npy",
    "concept_offsets.npy",
    "concept_citations.npy",
    "concept_counts.npy",
    "concept_lt.npy",
    "bitmap_offsets.npy",
    "bitmap_blob.npy",
)


class MmapStore:
    """Read-only corpus store over a built substrate's arrays.

    The arrays are memmaps when the store was opened from a directory
    (opening a 1M-citation store touches only headers, and N processes
    opening it share one set of pages) and plain read-only arrays for an
    in-memory build.  Pickling (the cluster wire format) reduces to the
    directory path when there is one, so shipping a mapped store to a
    worker costs bytes, not the corpus; an in-memory store ships its
    arrays.

    Args:
        manifest: the build manifest (``digest``, ``params``, ...).
        arrays: the :data:`CORPUS_FILES` arrays, by file name.
        path: the substrate directory the arrays were mapped from.
        hierarchy: the build-time hierarchy of an in-memory build; a
            directory store reopens its own ``hier_*.npy`` files.
    """

    def __init__(
        self,
        manifest: Mapping[str, object],
        arrays: Mapping[str, np.ndarray],
        path: Optional[str] = None,
        hierarchy: Optional[ConceptHierarchy] = None,
    ):
        _check_format(manifest)
        self.manifest = dict(manifest)
        self.path = path
        self._arrays = {name: _frozen(arrays[name]) for name in CORPUS_FILES}
        self._pmids = self._arrays["pmids.npy"]
        self._years = self._arrays["years.npy"]
        self._cit_offsets = self._arrays["cit_concept_offsets.npy"]
        self._cit_concepts = self._arrays["cit_concepts.npy"]
        self._concept_offsets = self._arrays["concept_offsets.npy"]
        self._concept_citations = self._arrays["concept_citations.npy"]
        self._concept_counts = self._arrays["concept_counts.npy"]
        self._concept_lt = self._arrays["concept_lt.npy"]
        self._bitmap_offsets = self._arrays["bitmap_offsets.npy"]
        self._bitmap_blob = self._arrays["bitmap_blob.npy"]
        params = self.manifest.get("params", {})
        self._array_max = int(params.get("array_max", 4096))
        self._hierarchy_cache = hierarchy

    @classmethod
    def open(cls, path: str) -> "MmapStore":  # repro: ignore[shadowed-builtin]
        """Map a directory written by ``SubstrateBuilder``."""
        path = os.path.abspath(path)
        with open(os.path.join(path, "manifest.json"), "rb") as handle:
            manifest = json.loads(handle.read())
        _check_format(manifest)

        def _mm(name: str) -> np.ndarray:
            target = os.path.join(path, name)
            try:
                return np.load(target, mmap_mode="r")
            except ValueError:
                # Zero-length arrays cannot be mmapped; load eagerly.
                return np.load(target)

        return cls(manifest, {name: _mm(name) for name in CORPUS_FILES}, path=path)

    def __reduce__(self):
        if self.path is not None:
            # Reopen-by-path: the memmaps themselves never cross process
            # boundaries, each process maps the shared files directly.
            return (MmapStore.open, (self.path,))
        return (MmapStore, (self.manifest, self._arrays, None, self._hierarchy_cache))

    @property
    def backend(self) -> str:
        """``"mmap"`` for a mapped directory, ``"memory"`` otherwise."""
        return "mmap" if self.path is not None else "memory"

    @property
    def manifest_digest(self) -> str:
        """The build manifest digest — the substrate's content identity."""
        return str(self.manifest["digest"])

    def store_info(self) -> Dict[str, object]:
        """Observability block for ``health()`` endpoints."""
        return {
            "backend": self.backend,
            "path": self.path,
            "manifest": self.manifest_digest,
            "citations": len(self),
        }

    def hierarchy(self) -> Optional[ConceptHierarchy]:
        """The build-time hierarchy (``None`` when built without one).

        A directory store maps it from its positional arrays on first
        access — a handful of header reads.
        """
        if (
            self._hierarchy_cache is None
            and self.path is not None
            and HierarchyArrays.present(self.path)
        ):
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
        """One citation (synthetic title); raises KeyError for unknown PMIDs."""
        return self._citation_at(self._ordinal(pmid))

    def iter_citations(self) -> Iterator[Citation]:
        """Stream every citation in ascending-PMID order."""
        for ordinal in range(len(self)):
            yield self._citation_at(ordinal)

    def pmids(self) -> List[int]:
        """All stored PMIDs, ascending."""
        return self._pmids.tolist()

    def pmid_array(self) -> np.ndarray:
        """The ascending PMID column itself (zero-copy, read-only)."""
        return self._pmids

    def year_array(self) -> np.ndarray:
        """Publication years aligned with :meth:`pmid_array` (read-only)."""
        return self._years

    def concepts_of(self, pmid: int) -> Tuple[int, ...]:
        """Sorted association set of one citation (KeyError when absent)."""
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
        """Ascending int64 PMIDs associated with ``concept``."""
        ordinals = self._concept_ordinals(concept)
        return np.asarray(self._pmids[ordinals], dtype=np.int64)

    def concept_bitmap(self, concept: int) -> RoaringBitmap:
        """Compressed citation-ordinal set of ``concept``.

        Ordinals index the ascending PMID order of :meth:`pmids`.
        """
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
        """Citations in *this corpus* associated with ``concept``."""
        self._check_concept(concept)
        return int(self._concept_counts[concept])

    def medline_count(self, concept: int) -> int:
        """``LT(n)``: corpus count plus the background mass (0 off-range)."""
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

    def annotation_arrays(
        self, pmids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """concept → result PMIDs, in CSR form, from the citation table.

        Returns ``(concepts, offsets, values)``: the annotated concept
        ids ascending (int64), int64 CSR offsets, and each concept's
        sorted result PMIDs (int64); PMIDs not in the store are skipped.
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


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only (memmaps opened with ``mode="r"`` are)."""
    if array.flags.writeable:
        array.setflags(write=False)
    return array


def _check_format(manifest: Mapping[str, object]) -> None:
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            "unsupported substrate format_version %r"
            % manifest.get("format_version")
        )
