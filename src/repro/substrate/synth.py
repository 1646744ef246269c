"""Deterministic MEDLINE-scale synthetic citation streams.

The substrate bench needs 1M–10M citations with a realistic association
profile (~24 index concepts per citation, paper §VII reports ~90 for
real PubMed at full MeSH density) without ever materializing them as
Python objects.  :func:`synthetic_chunks` generates columnar
:class:`~repro.substrate.builder.CitationChunk` slices directly with
vectorized numpy, one chunk at a time, so the whole stream costs one
chunk of memory.

Determinism: chunk ``i`` of a given spec is produced by
``np.random.default_rng(SeedSequence([seed, i]))``, so the stream is
reproducible per chunk regardless of how far it is consumed — the
property the two-builds-same-digest determinism gate relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.substrate.builder import CitationChunk

__all__ = ["SynthSpec", "synthetic_chunks", "synthetic_background"]

#: First synthetic PMID; mirrors the corpus generator's numbering block.
_PMID_BASE = 10_000_001

#: Every synthetic title is this prefix plus the decimal PMID.
_TITLE_PREFIX = "Synthetic citation "


@dataclass(frozen=True)
class SynthSpec:
    """Shape of one synthetic citation stream.

    Attributes:
        citations: stream length.
        num_concepts: concept id space (``len(hierarchy)``).
        mean_concepts: average association-row length.
        seed: stream seed (chunk ``i`` derives from ``(seed, i)``).
        chunk_size: citations per generated chunk.
    """

    citations: int
    num_concepts: int
    mean_concepts: float = 24.0
    seed: int = 0
    chunk_size: int = 65_536

    def __post_init__(self) -> None:
        if self.citations < 0:
            raise ValueError("citations must be non-negative")
        if self.num_concepts <= 1:
            raise ValueError("num_concepts must exceed 1")
        if not 1.0 <= self.mean_concepts < self.num_concepts:
            raise ValueError("mean_concepts must be in [1, num_concepts)")


def synthetic_chunks(spec: SynthSpec) -> Iterator[CitationChunk]:
    """Generate the stream described by ``spec``, chunk by chunk.

    Each citation draws a Zipf-flavored *anchor* concept (popular
    concepts are shared by many citations, giving the dense bitmap
    containers their workload) plus a geometric halo of nearby ids
    (locality: related concepts co-occur), deduplicated per row.  Titles
    read ``"Synthetic citation <pmid>"``; author fields are empty.
    """
    produced = 0
    chunk_index = 0
    while produced < spec.citations:
        n = min(spec.chunk_size, spec.citations - produced)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, chunk_index]))
        pmids = _PMID_BASE + np.arange(produced, produced + n, dtype=np.int64)
        years = (1990 + rng.integers(0, 19, size=n)).astype(np.int16)

        lengths_target = 1 + rng.poisson(spec.mean_concepts - 1.0, size=n)
        total = int(lengths_target.sum())
        # Anchors: squared-uniform over the id space — a heavy head of
        # popular concepts plus a long sparse tail, like MeSH usage.
        anchors = (
            (rng.random(size=total) ** 2) * spec.num_concepts
        ).astype(np.int64)
        halo = rng.geometric(0.05, size=total).astype(np.int64)
        sign = rng.integers(0, 2, size=total) * 2 - 1
        concepts = np.clip(anchors + sign * halo, 0, spec.num_concepts - 1)

        # Per-row sort + dedupe, vectorized: order by (row, concept) and
        # drop adjacent duplicates within a row.
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths_target)
        order = np.lexsort((concepts, rows))
        rows = rows[order]
        concepts = concepts[order]
        keep = np.ones(concepts.size, dtype=bool)
        if concepts.size > 1:
            same_row = rows[1:] == rows[:-1]
            same_val = concepts[1:] == concepts[:-1]
            keep[1:] = ~(same_row & same_val)
        rows = rows[keep]
        concepts = concepts[keep]
        lengths = np.bincount(rows, minlength=n).astype(np.int32)

        numbers = [str(pmid) for pmid in pmids.tolist()]
        titles = _TITLE_PREFIX + _TITLE_PREFIX.join(numbers)
        digits = np.fromiter(map(len, numbers), dtype=np.int32, count=n)
        yield CitationChunk(
            pmids=pmids,
            years=years,
            lengths=lengths,
            concepts=concepts.astype(np.int32),
            title_lengths=(len(_TITLE_PREFIX) + digits).astype(np.int32),
            titles=np.frombuffer(titles.encode("ascii"), dtype=np.uint8),
            author_lengths=np.zeros(n, dtype=np.int32),
            authors=np.empty(0, dtype=np.uint8),
        )
        produced += n
        chunk_index += 1


def synthetic_background(num_concepts: int, seed: int = 0) -> np.ndarray:
    """Deterministic per-concept out-of-corpus MEDLINE mass.

    The EXPLORE probability divides by ``LT(n)``; giving every concept
    a nonzero simulated background keeps the IDF surface realistic at
    substrate scale without materializing background citations.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBEEF]))
    return rng.integers(50, 5000, size=num_concepts).astype(np.int64)
