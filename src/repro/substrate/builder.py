"""Streaming offline build of the columnar corpus substrate.

:class:`SubstrateBuilder` is the reproduction of the paper's ~20-day
offline pre-processing pass (§VII): it consumes a *stream* of citation
chunks and produces the substrate arrays without ever holding the corpus
as Python objects.  It has two targets that run the same passes:

* a **directory** of mmap-able ``.npy`` files — peak memory is bounded
  by the chunk size plus a handful of per-concept ``int64`` vectors; the
  association elements stage through raw temp files and are finalized
  into ``.npy`` memmaps with windowed copies;
* **memory** (``out_dir=None``) — the same arrays kept in process, which
  is how toy corpora (:func:`medline_store`) are built.

The manifest hashes each array as its ``.npy`` serialization in both
cases, so one stream gives one digest whatever the target.

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
``title_offsets.npy``  int64[N+1] CSR byte offsets into the title blob
``title_blob.npy``     uint8[T]   UTF-8 titles, concatenated
``author_offsets.npy`` int64[N+1] CSR byte offsets into the author blob
``author_blob.npy``    uint8[A]   UTF-8 author names, each citation's
                                  joined by ``AUTHOR_SEPARATOR``
``hier_*.npy``                    positional hierarchy arrays (11 files,
                                  see ``repro.hierarchy.arrays``)
``manifest.json``                 file hashes, counts, params, digest
================================  =====================================

The build runs two passes: (1) stream chunks → citation columns (the
display columns among them) plus raw association elements and
per-concept counts; (2) windowed counting-sort scatter of citation
ordinals into the concept-major CSR, which is also the postings form
boolean AND reads.  Every byte
written is a pure function of the input stream and the builder params,
so two same-seed builds produce byte-identical files and therefore
byte-identical manifest digests — the determinism gate CI asserts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.arrays import HIERARCHY_ARRAY_FILES
from repro.hierarchy.concept import ConceptHierarchy
from repro.substrate.store import (
    AUTHOR_SEPARATOR,
    CORPUS_FILES,
    DISPLAY_COLUMNS,
    FORMAT_VERSION,
    MmapStore,
)

__all__ = [
    "CitationChunk",
    "citation_chunks",
    "BuildManifest",
    "SubstrateBuilder",
    "medline_store",
]

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
        title_lengths: int32 per-citation UTF-8 byte lengths of the title.
        titles: uint8 concatenation of the UTF-8 titles.
        author_lengths: int32 per-citation byte lengths of the author field.
        authors: uint8 concatenation of the author fields: each
            citation's names in UTF-8, joined by ``AUTHOR_SEPARATOR``.
    """

    pmids: np.ndarray
    years: np.ndarray
    lengths: np.ndarray
    concepts: np.ndarray
    title_lengths: np.ndarray
    titles: np.ndarray
    author_lengths: np.ndarray
    authors: np.ndarray

    def __post_init__(self) -> None:
        if self.years.size != self.pmids.size:
            raise ValueError("chunk columns must be aligned")
        for lengths, buffer in (
            (self.lengths, self.concepts),
            (self.title_lengths, self.titles),
            (self.author_lengths, self.authors),
        ):
            if lengths.size != self.pmids.size:
                raise ValueError("chunk columns must be aligned")
            if int(lengths.sum()) != buffer.size:
                raise ValueError("row lengths do not cover their buffer")


def citation_chunks(
    citations: Iterable[Citation], chunk_size: int = 8192
) -> Iterator[CitationChunk]:
    """Adapt a citation iterable into builder chunks.

    Rows are deduplicated and sorted here, so any ``Citation`` stream
    with ascending PMIDs (e.g. ``MedlineDatabase`` iteration order or a
    streamed JSONL corpus) is a valid builder input.

    Raises:
        ValueError: an author name is empty or contains
            ``AUTHOR_SEPARATOR``, so the joined field would not split
            back into the same names.
    """
    rows: List[Citation] = []
    for citation in citations:
        rows.append(citation)
        if len(rows) >= chunk_size:
            yield _make_chunk(rows)
            rows = []
    if rows:
        yield _make_chunk(rows)


def _make_chunk(citations: List[Citation]) -> CitationChunk:
    concept_rows = [sorted(set(citation.concepts)) for citation in citations]
    titles = [citation.title.encode("utf-8") for citation in citations]
    authors = [_author_field(citation) for citation in citations]
    return CitationChunk(
        pmids=np.asarray([citation.pmid for citation in citations], dtype=np.int64),
        years=np.asarray([citation.year for citation in citations], dtype=np.int16),
        lengths=np.asarray([len(row) for row in concept_rows], dtype=np.int32),
        concepts=np.asarray(
            [concept for row in concept_rows for concept in row], dtype=np.int32
        ),
        title_lengths=np.asarray([len(title) for title in titles], dtype=np.int32),
        titles=np.frombuffer(b"".join(titles), dtype=np.uint8),
        author_lengths=np.asarray([len(field) for field in authors], dtype=np.int32),
        authors=np.frombuffer(b"".join(authors), dtype=np.uint8),
    )


def _author_field(citation: Citation) -> bytes:
    if any(not name or AUTHOR_SEPARATOR in name for name in citation.authors):
        raise ValueError(
            "pmid %d: an author name is empty or contains the author separator"
            % citation.pmid
        )
    return AUTHOR_SEPARATOR.join(citation.authors).encode("utf-8")


@dataclass(frozen=True)
class BuildManifest:
    """Outcome of one offline build.

    Attributes:
        path: the substrate directory (``None`` for an in-memory build).
        digest: sha-256 over the canonical manifest payload — equal
            digests mean byte-identical substrate directories.
        citations: rows in the citation table.
        pairs: (concept, citation) association elements.
        concepts: size of the concept id space.
    """

    path: Optional[str]
    digest: str
    citations: int
    pairs: int
    concepts: int


def medline_store(
    medline: MedlineDatabase,
    num_concepts: int,
    hierarchy: Optional[ConceptHierarchy] = None,
    meta: Optional[Dict[str, object]] = None,
) -> MmapStore:
    """In-memory substrate of a simulated MEDLINE snapshot.

    Citations stream in ascending-PMID order and the snapshot's
    background counts complete ``LT(n)``; see :meth:`SubstrateBuilder.build`
    for ``hierarchy`` and ``meta``.
    """
    builder = SubstrateBuilder(None, num_concepts)
    builder.build(
        citation_chunks(medline.get(pmid) for pmid in medline.pmids()),
        hierarchy=hierarchy,
        background=medline.background_counts(),
        meta=meta,
    )
    return builder.open()


class _DiskSink:
    """Build target that writes every array as a ``.npy`` file."""

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        os.makedirs(self.path, exist_ok=True)

    def _file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def save(self, name: str, array: np.ndarray) -> None:
        np.save(self._file(name), array)

    @contextlib.contextmanager
    def staged(self, name: str, dtype) -> Iterator[BinaryIO]:
        """Raw bytes written here become array ``name`` on exit.

        They stage through a temp file and are finalized into ``.npy``
        with windowed copies, so the payload is never held in memory.
        """
        raw_path = self._file(name.replace(".npy", ".raw"))
        with open(raw_path, "wb") as raw:
            yield raw
        itemsize = np.dtype(dtype).itemsize
        count = os.path.getsize(raw_path) // itemsize
        if count == 0:
            self.save(name, np.empty(0, dtype=dtype))
        else:
            out = self.allocate(name, dtype, count)
            with open(raw_path, "rb") as src:
                position = 0
                while position < count:
                    step = min(_WINDOW, count - position)
                    buffer = src.read(step * itemsize)
                    out[position : position + step] = np.frombuffer(buffer, dtype=dtype)
                    position += step
            self.seal(name, out)
        os.remove(raw_path)

    def allocate(self, name: str, dtype, count: int) -> np.ndarray:
        return np.lib.format.open_memmap(
            self._file(name), mode="w+", dtype=dtype, shape=(count,)
        )

    def seal(self, name: str, array: np.ndarray) -> None:
        array.flush()

    def load(self, name: str) -> np.ndarray:
        return np.load(self._file(name), mmap_mode="r")

    def digest(self, name: str) -> Dict[str, object]:
        path = self._file(name)
        return {"sha256": _file_sha256(path), "bytes": os.path.getsize(path)}

    def write_manifest(self, payload: Dict[str, object]) -> None:
        manifest_path = self._file("manifest.json")
        tmp_path = manifest_path + ".tmp"
        with open(tmp_path, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
        os.replace(tmp_path, manifest_path)


class _MemorySink:
    """Build target that keeps every array in memory.

    Digests hash the exact bytes ``np.save`` would write, so an
    in-memory build and a disk build of one stream agree on every file
    hash and on the manifest digest.
    """

    path = None

    def __init__(self) -> None:
        self.arrays: Dict[str, np.ndarray] = {}

    def save(self, name: str, array: np.ndarray) -> None:
        self.arrays[name] = array

    @contextlib.contextmanager
    def staged(self, name: str, dtype) -> Iterator[BinaryIO]:
        buffer = io.BytesIO()
        yield buffer
        self.arrays[name] = np.frombuffer(buffer.getvalue(), dtype=dtype)

    def allocate(self, name: str, dtype, count: int) -> np.ndarray:
        return np.empty(count, dtype=dtype)

    def seal(self, name: str, array: np.ndarray) -> None:
        self.arrays[name] = array

    def load(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def digest(self, name: str) -> Dict[str, object]:
        writer = _HashingWriter()
        np.save(writer, self.arrays[name])
        return {"sha256": writer.hasher.hexdigest(), "bytes": writer.size}

    def write_manifest(self, payload: Dict[str, object]) -> None:
        pass


class _HashingWriter:
    """File-like sink for ``np.save`` that only hashes and counts bytes."""

    def __init__(self) -> None:
        self.hasher = hashlib.sha256()
        self.size = 0

    def write(self, data: bytes) -> int:
        self.hasher.update(data)
        self.size += len(data)
        return len(data)


class SubstrateBuilder:
    """Builds one substrate from a chunked citation stream.

    Args:
        out_dir: target directory (created; existing files overwritten),
            or ``None`` to keep the arrays in memory.  Both targets run
            the same passes and produce the same manifest digest.
        num_concepts: size of the concept id space (``len(hierarchy)``).
    """

    def __init__(self, out_dir: Optional[str], num_concepts: int):
        if num_concepts < 0:
            raise ValueError("num_concepts must be non-negative")
        self._sink: Union[_DiskSink, _MemorySink] = (
            _MemorySink() if out_dir is None else _DiskSink(out_dir)
        )
        self.out_dir = self._sink.path
        self.num_concepts = num_concepts
        self._payload: Optional[Dict[str, object]] = None
        self._hierarchy: Optional[ConceptHierarchy] = None

    # ------------------------------------------------------------------
    def build(
        self,
        chunks: Iterable[CitationChunk],
        hierarchy: Optional[ConceptHierarchy] = None,
        background: Union[None, Dict[int, int], np.ndarray] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> BuildManifest:
        """Stream ``chunks`` into the target and write the manifest.

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
        sink = self._sink
        counts = np.zeros(self.num_concepts, dtype=np.int64)
        pmid_parts, year_parts, length_parts = [], [], []
        title_parts, author_parts = [], []
        last_pmid = -1
        pairs = 0
        with contextlib.ExitStack() as stack:
            raw = stack.enter_context(sink.staged("cit_concepts.npy", np.int32))
            title_blob, author_blob = [
                stack.enter_context(sink.staged(blob, np.uint8))
                for _, blob in DISPLAY_COLUMNS
            ]
            for chunk in chunks:
                self._validate_chunk(chunk, last_pmid)
                if chunk.pmids.size:
                    last_pmid = int(chunk.pmids[-1])
                counts += np.bincount(chunk.concepts, minlength=self.num_concepts)
                raw.write(np.ascontiguousarray(chunk.concepts, dtype="<i4").tobytes())
                title_blob.write(chunk.titles.tobytes())
                author_blob.write(chunk.authors.tobytes())
                pairs += chunk.concepts.size
                pmid_parts.append(np.ascontiguousarray(chunk.pmids, dtype=np.int64))
                year_parts.append(np.ascontiguousarray(chunk.years, dtype=np.int16))
                length_parts.append(chunk.lengths)
                title_parts.append(chunk.title_lengths)
                author_parts.append(chunk.author_lengths)

        pmids = _concat(pmid_parts, np.int64)
        years = _concat(year_parts, np.int16)
        citations = int(pmids.size)
        cit_offsets = _offsets(length_parts)
        concept_offsets = np.zeros(self.num_concepts + 1, dtype=np.int64)
        np.cumsum(counts, out=concept_offsets[1:])

        sink.save("pmids.npy", pmids)
        sink.save("years.npy", years)
        sink.save("cit_concept_offsets.npy", cit_offsets)
        for (offsets_name, _), parts in zip(DISPLAY_COLUMNS, (title_parts, author_parts)):
            sink.save(offsets_name, _offsets(parts))
        sink.save("concept_offsets.npy", concept_offsets)
        sink.save("concept_counts.npy", counts)
        sink.save("concept_lt.npy", counts + self._background_array(background))

        self._scatter_concept_citations(cit_offsets, concept_offsets, pairs)
        arrays_key = None
        if hierarchy is not None:
            if len(hierarchy) != self.num_concepts:
                raise ValueError(
                    "hierarchy has %d concepts, builder configured for %d"
                    % (len(hierarchy), self.num_concepts)
                )
            arrays = hierarchy.arrays()
            for name, array in arrays.files():
                sink.save(name, array)
            arrays_key = arrays.content_key

        self._payload = self._write_manifest(
            citations, pairs, hierarchy is not None, meta, arrays_key
        )
        self._hierarchy = hierarchy
        return BuildManifest(
            path=self.out_dir,
            digest=str(self._payload["digest"]),
            citations=citations,
            pairs=pairs,
            concepts=self.num_concepts,
        )

    def open(self) -> "MmapStore":  # repro: ignore[shadowed-builtin]
        """The store over what :meth:`build` produced.

        A directory build reopens its files memory-mapped; an in-memory
        build wraps its arrays and the hierarchy it was given.
        """
        if self._payload is None:
            raise ValueError("nothing built yet")
        if self.out_dir is not None:
            return MmapStore.open(self.out_dir)
        arrays = {name: self._sink.load(name) for name in CORPUS_FILES}
        return MmapStore(self._payload, arrays, hierarchy=self._hierarchy)

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
        sink = self._sink
        if pairs == 0:
            sink.save("concept_citations.npy", np.empty(0, dtype=np.uint32))
            return
        out = sink.allocate("concept_citations.npy", np.uint32, pairs)
        src = sink.load("cit_concepts.npy")
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
        sink.seal("concept_citations.npy", out)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _write_manifest(
        self,
        citations: int,
        pairs: int,
        with_hierarchy: bool,
        meta: Optional[Dict[str, object]],
        hierarchy_arrays_key: Optional[str] = None,
    ) -> Dict[str, object]:
        names = list(CORPUS_FILES)
        if with_hierarchy:
            names.extend(HIERARCHY_ARRAY_FILES)
        payload: Dict[str, object] = {
            "format_version": FORMAT_VERSION,
            "citations": citations,
            "pairs": pairs,
            "concepts": self.num_concepts,
            "params": {"num_concepts": self.num_concepts},
            "meta": meta or {},
            "files": {name: self._sink.digest(name) for name in names},
        }
        if hierarchy_arrays_key is not None:
            payload["hierarchy_arrays"] = hierarchy_arrays_key
        payload["digest"] = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        self._sink.write_manifest(payload)
        return payload


def _concat(parts, dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


def _offsets(length_parts) -> np.ndarray:
    """int64 CSR offsets (leading 0) of the concatenated row lengths."""
    lengths = _concat(length_parts, np.int64)
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _file_sha256(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()
