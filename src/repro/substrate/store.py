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

Either way the answers come from the same code: batched citation
lookup (ESummary display records gathered from the title and author
columns, ELink neighbours ranked over the concept CSR),
per-concept membership, boolean-AND concept queries over the concept
CSR's sorted ordinal slices, the citation → concept rows the
navigation tree embeds, and the ``LT(n)`` MEDLINE-wide counts.  The
concept CSR is the one postings form: the concept–citation association
table (paper §VII) is stored once in each direction and nowhere else.
Persistence is the substrate directory.  The equivalence suite in
``tests/test_substrate_equivalence.py`` pins both forms to a dict-based
oracle end to end (ResultSets and Opt-EdgeCut cuts).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.citation import DocSummary
from repro.hierarchy.arrays import HierarchyArrays
from repro.hierarchy.concept import ConceptHierarchy

__all__ = [
    "AUTHOR_SEPARATOR",
    "CORPUS_FILES",
    "DISPLAY_COLUMNS",
    "FORMAT_VERSION",
    "MmapStore",
    "SubstrateError",
]

#: Substrate layout version, written by the builder and checked on open.
FORMAT_VERSION = 4

#: Joins one citation's author names in the author blob; the builder
#: rejects it inside a name.
AUTHOR_SEPARATOR = "\x1f"

#: The display columns (paper §VII's denormalized citation table), as
#: ``(offsets, blob)`` pairs: int64[N+1] CSR offsets into a UTF-8 blob.
DISPLAY_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("title_offsets.npy", "title_blob.npy"),
    ("author_offsets.npy", "author_blob.npy"),
)

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
) + tuple(name for pair in DISPLAY_COLUMNS for name in pair)


class SubstrateError(ValueError):
    """A substrate the store cannot serve: wrong format or broken columns."""


class MmapStore:
    """Read-only corpus store over a built substrate's arrays.

    The arrays are memmaps when the store was opened from a directory
    (opening a 1M-citation store reads the headers plus one pass over
    every CSR's offsets, and N processes opening it share one set of
    pages) and plain read-only arrays for an in-memory build.
    Pickling (the cluster wire format) reduces to the directory path
    when there is one, so shipping a mapped store to a worker costs
    bytes, not the corpus; an in-memory store ships its arrays.

    Args:
        manifest: the build manifest (``digest``, ``params``, ...).
        arrays: the :data:`CORPUS_FILES` arrays, by file name.
        path: the substrate directory the arrays were mapped from.
        hierarchy: the build-time hierarchy of an in-memory build; a
            directory store reopens its own ``hier_*.npy`` files.

    Raises:
        SubstrateError: the manifest's ``format_version`` is not
            :data:`FORMAT_VERSION`; the PMID column does not strictly
            ascend; the year column is not one entry per citation; the
            ``LT(n)`` and result-count columns differ in length; or the
            offsets of a display column or of an association table are
            not a CSR over its values.
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
        # Plain views of the two columns every batched gather reads:
        # indexing a memmap goes through its Python-level __getitem__.
        self._pmids = np.asarray(self._arrays["pmids.npy"])
        self._years = np.asarray(self._arrays["years.npy"])
        self._concept_counts = self._arrays["concept_counts.npy"]
        self._concept_lt = self._arrays["concept_lt.npy"]
        citations, concepts = self._pmids.size, self._concept_counts.size
        # _lookup binary-searches the PMID column; out of order, it would
        # silently miss stored PMIDs.
        if bool((self._pmids[1:] <= self._pmids[:-1]).any()):
            raise SubstrateError("pmids.npy does not strictly ascend")
        if self._years.shape != (citations,):
            raise SubstrateError("years.npy does not hold one year per citation")
        if self._concept_lt.shape != (concepts,):
            raise SubstrateError(
                "concept_lt.npy and concept_counts.npy differ in length"
            )
        self._cit_offsets, self._cit_concepts = _checked_csr(
            self._arrays, "cit_concept_offsets.npy", "cit_concepts.npy", citations
        )
        self._concept_offsets, self._concept_citations = _checked_csr(
            self._arrays, "concept_offsets.npy", "concept_citations.npy", concepts
        )
        # Rows are sliced from memoryviews of the blobs: per-row memmap
        # slicing costs microseconds, a memoryview slice a fraction of one.
        self._titles, self._authors = [
            _display_column(self._arrays, offsets, blob, citations)
            for offsets, blob in DISPLAY_COLUMNS
        ]
        self._hierarchy_cache = hierarchy

    @classmethod
    def open(cls, path: str) -> "MmapStore":  # repro: ignore[shadowed-builtin]
        """Map a directory written by ``SubstrateBuilder``.

        A directory holding ``hier_*.npy`` files has them mapped and
        checked against the corpus here (see :func:`_check_hierarchy`).

        Raises:
            SubstrateError: see the class docstring; also a corpus file
                that does not hold the array its header describes, or
                hierarchy arrays that do not describe the corpus's
                concepts.
        """
        path = os.path.abspath(path)
        with open(os.path.join(path, "manifest.json"), "rb") as handle:
            manifest = json.loads(handle.read())
        _check_format(manifest)

        def _mm(name: str) -> np.ndarray:
            target = os.path.join(path, name)
            try:
                return np.load(target, mmap_mode="r")
            except ValueError:
                pass
            # Zero-length arrays cannot be mmapped; load eagerly.  A file
            # shorter than its header says fails both ways.
            try:
                return np.load(target)
            except ValueError as exc:
                raise SubstrateError("%s is unreadable: %s" % (name, exc)) from exc

        store = cls(manifest, {name: _mm(name) for name in CORPUS_FILES}, path=path)
        if HierarchyArrays.present(path):
            _check_hierarchy(path, store._concept_counts.size)
        return store

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

    def _lookup(self, pmids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``searchsorted`` positions of ``pmids`` and which are stored."""
        requested = np.asarray(pmids, dtype=np.int64)
        found = np.searchsorted(self._pmids, requested)
        if self._pmids.size == 0:
            return found, np.zeros(requested.shape, dtype=bool)
        last = self._pmids.size - 1
        return found, self._pmids.take(np.minimum(found, last)) == requested

    def _ordinals(self, pmids: Sequence[int]) -> np.ndarray:
        """Citation ordinals of ``pmids``, in input order.

        Raises:
            KeyError: naming the first PMID not in the store.
        """
        found, present = self._lookup(pmids)
        if not present.all():
            raise KeyError(int(np.asarray(pmids, dtype=np.int64)[np.argmin(present)]))
        return found

    def summaries(self, pmids: Sequence[int]) -> List[DocSummary]:
        """ESummary display records of ``pmids``, in input order.

        One ``searchsorted`` over the PMID column and one gather per
        display column; duplicates are answered as often as asked.

        Raises:
            KeyError: naming the first PMID not in the store.
        """
        ordinals = self._ordinals(pmids)
        authors = [
            tuple(names.split(AUTHOR_SEPARATOR)) if names else ()
            for names in _decode(self._authors, ordinals)
        ]
        rows = zip(
            self._pmids[ordinals].tolist(),
            _decode(self._titles, ordinals),
            authors,
            self._years[ordinals].tolist(),
        )
        return [DocSummary(*row) for row in rows]

    def related(self, pmid: int, limit: int) -> List[int]:
        """Up to ``limit`` PMIDs sharing concepts with ``pmid``.

        Ranked by shared-concept count, descending, then by PMID; the
        anchor itself is excluded.  One ``np.bincount`` over the
        concept-major ordinals of the anchor's concepts scores every
        citation at once.

        Raises:
            KeyError: ``pmid`` is not in the store.
        """
        anchor = self._ordinals([pmid])
        concepts, _ = self._concept_rows(anchor)
        begins = self._concept_offsets[concepts].astype(np.int64)
        lengths = self._concept_offsets[concepts + 1].astype(np.int64) - begins
        shared = np.bincount(
            self._concept_citations[_csr_positions(begins, lengths)],
            minlength=len(self),
        )
        shared[anchor] = 0
        candidates = np.flatnonzero(shared)
        # Ordinals ascend with PMIDs, so a stable sort on -shared breaks
        # ties by PMID.
        order = np.argsort(-shared[candidates], kind="stable")
        return self._pmids[candidates[order[:limit]]].tolist()

    def pmids(self) -> List[int]:
        """All stored PMIDs, ascending."""
        return self._pmids.tolist()

    def pmid_array(self) -> np.ndarray:
        """The ascending PMID column itself (zero-copy, read-only)."""
        return self._arrays["pmids.npy"]

    def year_array(self) -> np.ndarray:
        """Publication years aligned with :meth:`pmid_array` (read-only)."""
        return self._arrays["years.npy"]

    def concepts_of(self, pmid: int) -> Tuple[int, ...]:
        """Sorted association set of one citation (KeyError when absent)."""
        flat, _ = self._concept_rows(self._ordinals([pmid]))
        return tuple(flat.tolist())

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

    # -- derived answers ------------------------------------------------
    def boolean_and(self, concepts: Sequence[int]) -> np.ndarray:
        """PMIDs associated with every concept, ascending (int64).

        Each concept's ``concept_citations`` slice is already a sorted
        ordinal run.  The slices are taken smallest first; the running
        set is narrowed against each larger slice with one
        ``np.searchsorted``, keeping the ordinals whose probe hits, so
        the work is bounded by the smallest operand.  A one-concept
        query is its slice, gathered to PMIDs.

        Raises:
            IndexError: a concept is outside the store universe.
        """
        if not concepts:
            return np.empty(0, dtype=np.int64)
        slices = sorted((self._concept_ordinals(c) for c in concepts), key=len)
        ordinals = slices[0]
        for other in slices[1:]:
            if ordinals.size == 0:
                break
            probe = np.minimum(np.searchsorted(other, ordinals), other.size - 1)
            ordinals = ordinals[other[probe] == ordinals]
        return np.asarray(self._pmids[ordinals], dtype=np.int64)

    def _result_ordinals(self, pmids: Sequence[int]) -> np.ndarray:
        """Citation ordinals of the PMIDs present in the store (batched).

        One ``np.searchsorted`` over the PMID column answers the whole
        request; missing PMIDs are dropped.  Order follows the input.
        """
        found, present = self._lookup(pmids)
        return found[present]

    def _concept_rows(
        self, ordinals: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened concept rows of ``ordinals`` plus per-row lengths."""
        begins = self._cit_offsets[ordinals].astype(np.int64)
        lengths = self._cit_offsets[ordinals + 1].astype(np.int64) - begins
        return self._cit_concepts[_csr_positions(begins, lengths)], lengths

    def annotation_rows(
        self, pmids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The result's citation → concept rows, from the citation table.

        Returns ``(pmids, lengths, concepts)``: the distinct requested
        PMIDs held by the store, ascending (int64), each one's concept
        count, and their concept rows concatenated in that order — the
        gather ``NavigationTree.from_store`` embeds.
        """
        ordinals = np.unique(self._result_ordinals(pmids))
        concepts, lengths = self._concept_rows(ordinals)
        return self._pmids[ordinals].astype(np.int64), lengths, concepts


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only (memmaps opened with ``mode="r"`` are)."""
    if array.flags.writeable:
        array.setflags(write=False)
    return array


def _csr_positions(begins: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat value positions of the CSR rows ``[begin, begin + length)``."""
    base = np.repeat(begins, lengths)
    reset = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return base + np.arange(int(lengths.sum())) - reset


def _checked_csr(
    arrays: Mapping[str, np.ndarray], offsets_name: str, values_name: str, rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One CSR as plain (offsets, values) views, checked at open.

    Raises:
        SubstrateError: the offsets are not ``rows + 1`` long, do not
            start at 0, decrease, or do not end at the values length.
    """
    offsets = np.asarray(arrays[offsets_name])
    values = np.asarray(arrays[values_name])
    if (
        offsets.shape != (rows + 1,)
        or int(offsets[0]) != 0
        or bool((offsets[1:] < offsets[:-1]).any())
        or int(offsets[-1]) != values.size
    ):
        raise SubstrateError(
            "%s is not a CSR over %s for %d rows" % (offsets_name, values_name, rows)
        )
    return offsets, values


def _check_hierarchy(path: str, concepts: int) -> None:
    """Check a directory's ``hier_*.npy`` set against its corpus.

    Mapping reads the headers; the process keeps the mapping, so the
    first :meth:`MmapStore.hierarchy` call reuses it.

    Raises:
        SubstrateError: a file is unreadable; ``concept_counts.npy``
            and the hierarchy disagree on the concept count; a per-node
            array is not one entry per concept; or the children or a
            string pool's offsets are not a CSR over the concepts.
    """
    try:
        arrays = HierarchyArrays.load(path)
    except ValueError as exc:
        raise SubstrateError("hier_*.npy is unreadable: %s" % exc) from exc
    if len(arrays) != concepts:
        raise SubstrateError(
            "concept_counts.npy holds %d concepts, hier_parents.npy %d"
            % (concepts, len(arrays))
        )
    for field in ("depths", "preorder", "positions", "subtree_sizes"):
        if getattr(arrays, field).shape != (concepts,):
            raise SubstrateError("hier_%s.npy is not one entry per concept" % field)
    for offsets, values in (
        ("child_offsets", "children"),
        ("label_offsets", "label_blob"),
        ("uid_offsets", "uid_blob"),
    ):
        _checked_csr(
            {"hier_%s.npy" % name: getattr(arrays, name) for name in (offsets, values)},
            "hier_%s.npy" % offsets,
            "hier_%s.npy" % values,
            concepts,
        )


def _display_column(
    arrays: Mapping[str, np.ndarray], offsets_name: str, blob_name: str, rows: int
) -> Tuple[np.ndarray, memoryview]:
    """One display column as (offsets, blob memoryview), checked as a CSR."""
    offsets, blob = _checked_csr(arrays, offsets_name, blob_name, rows)
    return offsets, memoryview(blob)


def _decode(column: Tuple[np.ndarray, memoryview], ordinals: np.ndarray) -> List[str]:
    """The UTF-8 strings of ``ordinals`` in one display column."""
    offsets, blob = column
    starts = offsets[ordinals].tolist()
    stops = offsets[ordinals + 1].tolist()
    return [blob[start:stop].tobytes().decode() for start, stop in zip(starts, stops)]


def _check_format(manifest: Mapping[str, object]) -> None:
    if manifest.get("format_version") != FORMAT_VERSION:
        raise SubstrateError(
            "unsupported substrate format_version %r (this store reads %d)"
            % (manifest.get("format_version"), FORMAT_VERSION)
        )
