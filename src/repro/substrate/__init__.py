"""MEDLINE-scale corpus substrate: offline build + mmap columnar store.

The paper runs BioNav over an Oracle-backed MEDLINE snapshot — ~48k MeSH
concepts over millions of citations — populated once by a ~20-day offline
pre-processing pass and then queried interactively (§VII).  This package
is that split at reproduction scale:

* **Offline** — :class:`~repro.substrate.builder.SubstrateBuilder`
  streams citations in bounded memory into the substrate arrays
  (PMID-sorted citation table, the concept–citation association table
  as a CSR in each direction, per-concept counts, display columns) plus
  a deterministic build manifest — written as a directory of mmap-able
  numpy files, or kept in memory for toy corpora; both give the same
  digest.
* **Online** — one store, :class:`~repro.substrate.store.MmapStore`,
  over either form: a built directory opened read-only via
  ``np.load(mmap_mode="r")``, so every cluster worker shares one OS
  page cache instead of N private corpus copies, or the arrays of an
  in-memory build.  Persistence is the substrate directory.

The concept→citation CSR is the one postings form: each concept's
sorted citation-ordinal slice answers membership and boolean AND alike.
"""

from repro.substrate.builder import (
    BuildManifest,
    SubstrateBuilder,
    citation_chunks,
    medline_store,
)
from repro.substrate.store import MmapStore
from repro.substrate.synth import SynthSpec, synthetic_background, synthetic_chunks

__all__ = [
    "BuildManifest",
    "SubstrateBuilder",
    "citation_chunks",
    "medline_store",
    "MmapStore",
    "SynthSpec",
    "synthetic_background",
    "synthetic_chunks",
]
