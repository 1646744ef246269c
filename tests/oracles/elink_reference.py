"""The Python-scan ELink ranking, retained as a test oracle.

``related_by_scan`` is the original ``EntrezClient.elink_related`` body:
it walks every citation of a :class:`~repro.corpus.medline.MedlineDatabase`
and intersects concept sets one citation at a time.  The production
client ranks with one ``np.bincount`` over the store's concept-major
CSR (:meth:`repro.substrate.store.MmapStore.related`); the equivalence
test in ``tests/test_eutils.py`` pins the two to the same lists.

Do not use this function in production code paths.
"""

from __future__ import annotations

from typing import List

from repro.corpus.medline import MedlineDatabase

__all__ = ["related_by_scan"]


def related_by_scan(medline: MedlineDatabase, pmid: int, retmax: int) -> List[int]:
    """Up to ``retmax`` PMIDs ranked by ``(-shared concepts, pmid)``.

    The anchor itself is excluded; citations sharing no concept are not
    listed.  Raises ``KeyError`` for an unknown ``pmid``.
    """
    anchor = set(medline.get(pmid).concepts)
    scored = []
    for citation in medline.iter_citations():
        if citation.pmid == pmid:
            continue
        shared = len(anchor & set(citation.concepts))
        if shared:
            scored.append((-shared, citation.pmid))
    scored.sort()
    return [p for _, p in scored[:retmax]]
