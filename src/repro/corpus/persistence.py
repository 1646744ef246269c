"""JSONL persistence for the simulated MEDLINE corpus.

The BioNav database persists as its substrate directory; the corpus
itself is written here as one JSON object per citation (the JSONL
convention), plus a header object carrying the background LT counts.
The interface is streaming: :func:`write_citations_jsonl` consumes any
citation iterable and :func:`read_citations_jsonl` yields citations
lazily, so a MEDLINE-scale corpus flows through in constant memory
(this is the interchange path between the substrate builder and
standard JSONL tooling).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, Mapping, Optional, TextIO, Tuple

from repro.corpus.citation import Citation

__all__ = ["write_citations_jsonl", "read_citations_jsonl"]

_HEADER_KIND = "medline-header"
_CITATION_KIND = "citation"
_FORMAT_VERSION = 1


def write_citations_jsonl(
    citations: Iterable[Citation],
    handle: TextIO,
    background_counts: Optional[Mapping[int, int]] = None,
) -> int:
    """Stream citations as JSON lines; returns citations written.

    The first line is a header with the format version and the simulated
    background counts; each further line is one citation.  ``citations``
    may be any iterable (including a generator such as
    :func:`repro.corpus.loader.stream_medline_text`) — records are written
    as they arrive, one in memory at a time.
    """
    background = {
        str(concept): count for concept, count in (background_counts or {}).items()
    }
    header = {
        "kind": _HEADER_KIND,
        "version": _FORMAT_VERSION,
        "background_counts": background,
    }
    handle.write(json.dumps(header) + "\n")
    written = 0
    for citation in citations:
        record = {
            "kind": _CITATION_KIND,
            "pmid": citation.pmid,
            "title": citation.title,
            "abstract": citation.abstract,
            "authors": list(citation.authors),
            "year": citation.year,
            "mesh_annotations": list(citation.mesh_annotations),
            "index_concepts": list(citation.index_concepts),
        }
        handle.write(json.dumps(record) + "\n")
        written += 1
    return written


def read_citations_jsonl(
    handle: TextIO,
) -> Tuple[Dict[int, int], Iterator[Citation]]:
    """Open a JSONL corpus: ``(background_counts, lazy citation iterator)``.

    The header is validated eagerly; citations stream from the returned
    iterator one at a time, so the file never has to fit in memory.  The
    iterator borrows ``handle`` — keep it open until iteration finishes.

    Raises:
        ValueError: missing/invalid header or unsupported version;
            iterating raises on an unknown record kind.
    """
    first = handle.readline()
    if not first.strip():
        raise ValueError("empty file: expected a medline-header line")
    header = json.loads(first)
    if header.get("kind") != _HEADER_KIND:
        raise ValueError("first line is not a medline-header record")
    if header.get("version") != _FORMAT_VERSION:
        raise ValueError("unsupported format version %r" % header.get("version"))
    background = {
        int(concept): count
        for concept, count in header.get("background_counts", {}).items()
    }
    return background, _iter_citation_lines(handle)


def _iter_citation_lines(handle: TextIO) -> Iterator[Citation]:
    for line in handle:
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("kind") != _CITATION_KIND:
            raise ValueError("unexpected record kind %r" % record.get("kind"))
        yield Citation(
            pmid=record["pmid"],
            title=record["title"],
            abstract=record.get("abstract", ""),
            authors=tuple(record.get("authors", ())),
            year=record.get("year", 2008),
            mesh_annotations=tuple(record.get("mesh_annotations", ())),
            index_concepts=tuple(record.get("index_concepts", ())),
        )
