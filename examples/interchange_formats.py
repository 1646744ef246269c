"""Interchange formats: real MeSH and MEDLINE file formats round-tripped.

Run with::

    python examples/interchange_formats.py

Shows the reproduction speaking the ecosystem's actual file formats:

1. dump the synthetic hierarchy as MeSH ASCII descriptors (``d2008.bin``
   style) and reload it;
2. dump a slice of the corpus as MEDLINE text (``.nbib``) and reload it;
3. freeze the whole corpus to JSONL and rebuild the BioNav database from
   the reloaded copy — proving a workload can be shared as plain files.
"""

from __future__ import annotations

import io

from repro.corpus.loader import dump_medline_text, load_medline_text
from repro.corpus.medline import MedlineDatabase
from repro.corpus.persistence import read_citations_jsonl, write_citations_jsonl
from repro.hierarchy.mesh_loader import dump_mesh_ascii, load_mesh_ascii
from repro.storage.database import BioNavDatabase
from repro.workload.builder import build_workload


def main() -> None:
    print("Materializing a small workload...")
    workload = build_workload(hierarchy_size=800, background_citations=40)

    print("\n1. MeSH ASCII descriptors")
    buffer = io.StringIO()
    written = dump_mesh_ascii(workload.hierarchy, buffer)
    text = buffer.getvalue()
    print("   wrote %d descriptor records (%.0f KiB)" % (written, len(text) / 1024))
    print("   sample record:")
    for line in text.splitlines()[:5]:
        print("     " + line)
    reloaded = load_mesh_ascii(io.StringIO(text))
    print("   reloaded %d concepts (match: %s)" % (
        len(reloaded), len(reloaded) == len(workload.hierarchy)))

    print("\n2. MEDLINE text (.nbib)")
    pmids = workload.entrez.esearch_all("prothymosin")[:3]
    citations = workload.medline.get_many(pmids)
    buffer = io.StringIO()
    dump_medline_text(citations, buffer, hierarchy=workload.hierarchy)
    nbib = buffer.getvalue()
    print("   sample record:")
    for line in nbib.splitlines()[:8]:
        print("     " + line)
    back = load_medline_text(io.StringIO(nbib), hierarchy=workload.hierarchy)
    print("   round-tripped %d citations (PMIDs preserved: %s)" % (
        len(back), [c.pmid for c in back] == pmids))

    print("\n3. Corpus JSONL freeze → rebuild the BioNav database")
    medline = workload.medline
    buffer = io.StringIO()
    count = write_citations_jsonl(
        (medline.get(pmid) for pmid in medline.pmids()),
        buffer,
        medline.background_counts(),
    )
    print("   froze %d citations (%.0f KiB)" % (count, len(buffer.getvalue()) / 1024))
    background, citations = read_citations_jsonl(io.StringIO(buffer.getvalue()))
    thawed = MedlineDatabase(background_counts=background)
    thawed.add_all(citations)
    database = BioNavDatabase.build(workload.hierarchy, thawed)
    print("   rebuilt database: %d association pairs over %d citations" % (
        int(database.store.manifest["pairs"]), len(database.store)))
    match = database.content_digest() == workload.database.content_digest()
    print("   identical to the original build: %s" % match)
    assert match


if __name__ == "__main__":
    main()
