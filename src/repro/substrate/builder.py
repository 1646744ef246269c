"""Streaming offline build of the columnar substrate directory.

:class:`SubstrateBuilder` is the reproduction of the paper's ~20-day
offline pre-processing pass (§VII): it consumes a *stream* of citation
chunks and produces a directory of mmap-able ``.npy`` files without ever
holding the corpus as Python objects.  Peak memory is bounded by the
chunk size plus a handful of per-concept ``int64`` vectors — the
association elements themselves stage through raw temp files and are
finalized into ``.npy`` memmaps with windowed copies.

On-disk layout (all arrays little-endian, loadable with
``np.load(mmap_mode="r")``):

================================  =====================================
``pmids.npy``          int64[N]   citation table key, strictly ascending
``years.npy``          int16[N]   publication years
``cit_concept_offsets.npy``       CSR offsets, citation→concepts
                       int64[N+1]
``cit_concepts.npy``   int32[P]   per-citation sorted concept rows
``concept_offsets.npy``           CSR offsets, concept→citations
                       int64[C+1]
``concept_citations.npy``         citation *ordinals* per concept,
                       uint32[P]  ascending within each concept
``concept_counts.npy`` int64[C]   per-concept result counts
``concept_lt.npy``     int64[C]   counts + background = ``LT(n)``
``bitmap_offsets.npy`` int64[C+1] byte offsets into the bitmap blob
``bitmap_blob.npy``    uint8[B]   serialized roaring bitmaps
``hier_*.npy``                    positional hierarchy arrays (11 files,
                                  see ``repro.hierarchy.arrays``)
``manifest.json``                 file hashes, counts, params, digest
================================  =====================================

The build runs three passes: (1) stream chunks → citation columns plus
raw association elements and per-concept counts; (2) windowed
counting-sort scatter of citation ordinals into the concept-major CSR;
(3) per-concept roaring encoding into the bitmap blob.  Every byte
written is a pure function of the input stream and the builder params,
so two same-seed builds produce byte-identical files and therefore
byte-identical manifest digests — the determinism gate CI asserts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Union

import numpy as np

from repro.corpus.citation import Citation
from repro.hierarchy.arrays import HIERARCHY_ARRAY_FILES
from repro.hierarchy.concept import ConceptHierarchy
from repro.substrate.roaring import ARRAY_CONTAINER_MAX, RoaringBitmap

__all__ = ["CitationChunk", "citation_chunks", "BuildManifest", "SubstrateBuilder"]

_FORMAT_VERSION = 2

#: Elements per windowed pass over the association tables.
_WINDOW = 1 << 21


@dataclass(frozen=True)
class CitationChunk:
    """One columnar slice of the citation stream.

    Attributes:
        pmids: int64, strictly ascending (also across chunks).
        years: int16 publication years, aligned with ``pmids``.
        lengths: int32 per-citation concept counts.
        concepts: int32 concatenation of the per-citation concept rows;
            each row strictly ascending (sorted, duplicate-free).
    """

    pmids: np.ndarray
    years: np.ndarray
    lengths: np.ndarray
    concepts: np.ndarray

    def __post_init__(self) -> None:
        if self.pmids.size != self.years.size or self.pmids.size != self.lengths.size:
            raise ValueError("chunk columns must be aligned")
        if int(self.lengths.sum()) != self.concepts.size:
            raise ValueError("lengths do not cover the concept buffer")


def citation_chunks(
    citations: Iterable[Citation], chunk_size: int = 8192
) -> Iterator[CitationChunk]:
    """Adapt a citation iterable into builder chunks.

    Rows are deduplicated and sorted here, so any ``Citation`` stream
    with ascending PMIDs (e.g. ``MedlineDatabase`` iteration order or a
    streamed JSONL corpus) is a valid builder input.
    """
    pmids, years, lengths, rows = [], [], [], []
    for citation in citations:
        row = np.unique(np.asarray(citation.concepts, dtype=np.int32))
        pmids.append(citation.pmid)
        years.append(citation.year)
        lengths.append(row.size)
        rows.append(row)
        if len(pmids) >= chunk_size:
            yield _make_chunk(pmids, years, lengths, rows)
            pmids, years, lengths, rows = [], [], [], []
    if pmids:
        yield _make_chunk(pmids, years, lengths, rows)


def _make_chunk(pmids, years, lengths, rows) -> CitationChunk:
    return CitationChunk(
        pmids=np.asarray(pmids, dtype=np.int64),
        years=np.asarray(years, dtype=np.int16),
        lengths=np.asarray(lengths, dtype=np.int32),
        concepts=(
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int32)
        ).astype(np.int32, copy=False),
    )


@dataclass(frozen=True)
class BuildManifest:
    """Outcome of one offline build.

    Attributes:
        path: the substrate directory.
        digest: sha-256 over the canonical manifest payload — equal
            digests mean byte-identical substrate directories.
        citations: rows in the citation table.
        pairs: (concept, citation) association elements.
        concepts: size of the concept id space.
    """

    path: str
    digest: str
    citations: int
    pairs: int
    concepts: int


class SubstrateBuilder:
    """Builds one substrate directory from a chunked citation stream.

    Args:
        out_dir: target directory (created; existing files overwritten).
        num_concepts: size of the concept id space (``len(hierarchy)``).
        array_max: roaring array→bitmap threshold recorded in the
            manifest and used when reopening bitmaps.
    """

    def __init__(
        self,
        out_dir: str,
        num_concepts: int,
        array_max: int = ARRAY_CONTAINER_MAX,
    ):
        if num_concepts <= 0:
            raise ValueError("num_concepts must be positive")
        self.out_dir = os.path.abspath(out_dir)
        self.num_concepts = num_concepts
        self.array_max = array_max

    # ------------------------------------------------------------------
    def build(
        self,
        chunks: Iterable[CitationChunk],
        hierarchy: Optional[ConceptHierarchy] = None,
        background: Union[None, Dict[int, int], np.ndarray] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> BuildManifest:
        """Stream ``chunks`` to disk and write the manifest.

        Args:
            chunks: the citation stream (see :class:`CitationChunk`).
            hierarchy: saved as its ``hier_*.npy`` positional arrays when
                given, so ``MmapStore.hierarchy()`` can reopen the exact
                tree the substrate was built over.
            background: per-concept out-of-corpus MEDLINE mass added to
                the result counts to form ``LT(n)``.
            meta: caller-supplied provenance (seed, generator name)
                folded into the manifest — and therefore the digest.
        """
        os.makedirs(self.out_dir, exist_ok=True)
        raw_concepts = os.path.join(self.out_dir, "cit_concepts.raw")

        counts = np.zeros(self.num_concepts, dtype=np.int64)
        pmid_parts, year_parts, length_parts = [], [], []
        last_pmid = -1
        pairs = 0
        with open(raw_concepts, "wb") as raw:
            for chunk in chunks:
                self._validate_chunk(chunk, last_pmid)
                if chunk.pmids.size:
                    last_pmid = int(chunk.pmids[-1])
                counts += np.bincount(chunk.concepts, minlength=self.num_concepts)
                raw.write(np.ascontiguousarray(chunk.concepts, dtype="<i4").tobytes())
                pairs += chunk.concepts.size
                pmid_parts.append(np.ascontiguousarray(chunk.pmids, dtype=np.int64))
                year_parts.append(np.ascontiguousarray(chunk.years, dtype=np.int16))
                length_parts.append(
                    np.ascontiguousarray(chunk.lengths, dtype=np.int64)
                )

        pmids = _concat(pmid_parts, np.int64)
        years = _concat(year_parts, np.int16)
        lengths = _concat(length_parts, np.int64)
        citations = int(pmids.size)

        cit_offsets = np.zeros(citations + 1, dtype=np.int64)
        np.cumsum(lengths, out=cit_offsets[1:])
        concept_offsets = np.zeros(self.num_concepts + 1, dtype=np.int64)
        np.cumsum(counts, out=concept_offsets[1:])

        self._save("pmids.npy", pmids)
        self._save("years.npy", years)
        self._save("cit_concept_offsets.npy", cit_offsets)
        self._save("concept_offsets.npy", concept_offsets)
        self._save("concept_counts.npy", counts)
        self._save("concept_lt.npy", counts + self._background_array(background))
        self._raw_to_npy(raw_concepts, "cit_concepts.npy", np.int32, pairs)

        self._scatter_concept_citations(cit_offsets, concept_offsets, pairs)
        self._encode_bitmaps(concept_offsets)
        arrays_key = None
        if hierarchy is not None:
            if len(hierarchy) != self.num_concepts:
                raise ValueError(
                    "hierarchy has %d concepts, builder configured for %d"
                    % (len(hierarchy), self.num_concepts)
                )
            arrays = hierarchy.arrays()
            arrays.save(self.out_dir)
            arrays_key = arrays.content_key

        digest = self._write_manifest(
            citations, pairs, hierarchy is not None, meta, arrays_key
        )
        return BuildManifest(
            path=self.out_dir,
            digest=digest,
            citations=citations,
            pairs=pairs,
            concepts=self.num_concepts,
        )

    # ------------------------------------------------------------------
    # Pass 1 helpers
    # ------------------------------------------------------------------
    def _validate_chunk(self, chunk: CitationChunk, last_pmid: int) -> None:
        if chunk.pmids.size == 0:
            return
        if int(chunk.pmids[0]) <= last_pmid or (
            chunk.pmids.size > 1 and not bool(np.all(np.diff(chunk.pmids) > 0))
        ):
            raise ValueError("citation stream must have strictly ascending pmids")
        if chunk.concepts.size:
            if int(chunk.concepts.min()) < 0 or int(
                chunk.concepts.max()
            ) >= self.num_concepts:
                raise ValueError("concept id outside [0, num_concepts)")
            # Rows must be strictly ascending; only check within-row
            # adjacency (row boundaries may legitimately descend).
            if chunk.concepts.size > 1:
                starts = np.cumsum(chunk.lengths)[:-1]
                interior = np.ones(chunk.concepts.size - 1, dtype=bool)
                boundary = starts[(starts > 0) & (starts <= interior.size)]
                interior[boundary - 1] = False
                if not bool(np.all(np.diff(chunk.concepts)[interior] > 0)):
                    raise ValueError(
                        "per-citation concept rows must be sorted unique"
                    )

    def _background_array(
        self, background: Union[None, Dict[int, int], np.ndarray]
    ) -> np.ndarray:
        out = np.zeros(self.num_concepts, dtype=np.int64)
        if background is None:
            return out
        if isinstance(background, dict):
            for concept, count in background.items():
                if 0 <= concept < self.num_concepts:
                    out[concept] = count
            return out
        arr = np.asarray(background, dtype=np.int64)
        if arr.size != self.num_concepts:
            raise ValueError("background array must have num_concepts entries")
        return arr

    # ------------------------------------------------------------------
    # Pass 2: concept-major CSR via windowed counting-sort scatter
    # ------------------------------------------------------------------
    def _scatter_concept_citations(
        self, cit_offsets: np.ndarray, concept_offsets: np.ndarray, pairs: int
    ) -> None:
        if pairs == 0:
            self._save("concept_citations.npy", np.empty(0, dtype=np.uint32))
            return
        out = np.lib.format.open_memmap(
            os.path.join(self.out_dir, "concept_citations.npy"),
            mode="w+",
            dtype=np.uint32,
            shape=(pairs,),
        )
        src = np.load(os.path.join(self.out_dir, "cit_concepts.npy"), mmap_mode="r")
        cursors = concept_offsets[:-1].copy()
        for lo in range(0, pairs, _WINDOW):
            hi = min(pairs, lo + _WINDOW)
            concepts = np.asarray(src[lo:hi], dtype=np.int64)
            # Element index → owning citation ordinal.  Elements arrive
            # in ascending-ordinal order, so processing windows in file
            # order keeps each concept's ordinal list ascending.
            ordinals = (
                np.searchsorted(cit_offsets, np.arange(lo, hi), side="right") - 1
            )
            order = np.argsort(concepts, kind="stable")
            sorted_concepts = concepts[order]
            sorted_ordinals = ordinals[order]
            uniq, starts, group_sizes = np.unique(
                sorted_concepts, return_index=True, return_counts=True
            )
            within = np.arange(sorted_concepts.size) - np.repeat(starts, group_sizes)
            positions = cursors[sorted_concepts] + within
            out[positions] = sorted_ordinals.astype(np.uint32)
            cursors[uniq] += group_sizes
        out.flush()
        del out

    # ------------------------------------------------------------------
    # Pass 3: compressed bitmaps
    # ------------------------------------------------------------------
    def _encode_bitmaps(self, concept_offsets: np.ndarray) -> None:
        members = np.load(
            os.path.join(self.out_dir, "concept_citations.npy"), mmap_mode="r"
        )
        raw_blob = os.path.join(self.out_dir, "bitmap_blob.raw")
        offsets = np.zeros(self.num_concepts + 1, dtype=np.int64)
        with open(raw_blob, "wb") as blob:
            for concept in range(self.num_concepts):
                lo = int(concept_offsets[concept])
                hi = int(concept_offsets[concept + 1])
                bitmap = RoaringBitmap.from_sorted(
                    np.asarray(members[lo:hi]), array_max=self.array_max
                )
                data = bitmap.serialize()
                blob.write(data)
                offsets[concept + 1] = offsets[concept] + len(data)
        self._save("bitmap_offsets.npy", offsets)
        self._raw_to_npy(raw_blob, "bitmap_blob.npy", np.uint8, int(offsets[-1]))

    # ------------------------------------------------------------------
    # File plumbing
    # ------------------------------------------------------------------
    def _save(self, name: str, array: np.ndarray) -> None:
        np.save(os.path.join(self.out_dir, name.replace(".npy", "")), array)

    def _raw_to_npy(self, raw_path: str, name: str, dtype, count: int) -> None:
        """Finalize a raw temp file into ``.npy`` with windowed copies."""
        if count == 0:
            self._save(name, np.empty(0, dtype=dtype))
            os.remove(raw_path)
            return
        out = np.lib.format.open_memmap(
            os.path.join(self.out_dir, name), mode="w+", dtype=dtype, shape=(count,)
        )
        itemsize = np.dtype(dtype).itemsize
        with open(raw_path, "rb") as src:
            position = 0
            while position < count:
                step = min(_WINDOW, count - position)
                buffer = src.read(step * itemsize)
                out[position : position + step] = np.frombuffer(buffer, dtype=dtype)
                position += step
        out.flush()
        del out
        os.remove(raw_path)

    def _write_manifest(
        self,
        citations: int,
        pairs: int,
        with_hierarchy: bool,
        meta: Optional[Dict[str, object]],
        hierarchy_arrays_key: Optional[str] = None,
    ) -> str:
        names = [
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
        ]
        if with_hierarchy:
            names.extend(HIERARCHY_ARRAY_FILES)
        files = {}
        for name in names:
            path = os.path.join(self.out_dir, name)
            files[name] = {
                "sha256": _file_sha256(path),
                "bytes": os.path.getsize(path),
            }
        payload = {
            "format_version": _FORMAT_VERSION,
            "citations": citations,
            "pairs": pairs,
            "concepts": self.num_concepts,
            "params": {
                "array_max": self.array_max,
                "num_concepts": self.num_concepts,
            },
            "meta": meta or {},
            "files": files,
        }
        if hierarchy_arrays_key is not None:
            payload["hierarchy_arrays"] = hierarchy_arrays_key
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        payload["digest"] = digest
        manifest_path = os.path.join(self.out_dir, "manifest.json")
        tmp_path = manifest_path + ".tmp"
        with open(tmp_path, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
        os.replace(tmp_path, manifest_path)
        return digest


def _concat(parts, dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


def _file_sha256(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()
