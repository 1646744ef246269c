"""The paper's off-line association harvest (§VII), faithfully.

BioNav's associations were not read out of MEDLINE directly: "For each
concept in the MeSH hierarchy, we issued a query on PubMed using the
concept as the keyword" — almost 20 days of rate-limited eutils calls
yielding 747M (concept, citationId) tuples plus each concept's
MEDLINE-wide count.

:class:`ConceptHarvester` reproduces that process against the simulated
eutils: one ESearch per concept label (paging included), respecting the
client's request quota by resetting it between windows and counting how
many windows the harvest consumed — the quantity that made the real run
take 20 days.  A test asserts the harvested association table matches the
directly-extracted one, validating the shortcut
:meth:`~repro.storage.database.BioNavDatabase.build` takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.eutils.errors import RateLimitExceeded
from repro.hierarchy.concept import ConceptHierarchy

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from repro.eutils.client import EntrezClient

__all__ = ["HarvestResult", "ConceptHarvester"]


@dataclass(frozen=True)
class HarvestResult:
    """Outcome of one full harvest.

    Attributes:
        associations: the (concept, citationId) relation, as each
            queried concept's ascending int64 PMIDs; its lengths are the
            per-concept result counts (``LT(n)`` restricted to the
            materialized corpus).
        concepts_queried: concepts for which a query was issued.
        requests_issued: total eutils requests.
        quota_windows: rate-limit windows consumed (each window is a
            quota reset — wall-clock time in the real system).
    """

    associations: Dict[int, np.ndarray]
    concepts_queried: int
    requests_issued: int
    quota_windows: int


class ConceptHarvester:
    """Issue one concept-label query per MeSH concept, like the paper."""

    def __init__(self, hierarchy: ConceptHierarchy, client: "EntrezClient"):
        self.hierarchy = hierarchy
        self.client = client

    def harvest(
        self,
        concepts: Optional[Iterable[int]] = None,
        page_size: int = 200,
    ) -> HarvestResult:
        """Run the harvest over ``concepts`` (default: every non-root one).

        When the client enforces a request quota, the harvester waits out
        the window (simulated as :meth:`EntrezClient.reset_quota`) and
        retries — mirroring the paper's pacing against NCBI limits.
        """
        if concepts is None:
            concepts = [n for n in range(len(self.hierarchy)) if n != self.hierarchy.root]
        associations: Dict[int, np.ndarray] = {}
        requests_before = self.client.total_requests
        windows = 0
        queried = 0
        for concept in concepts:
            # The paper queries PubMed with the concept as the keyword;
            # PubMed's MeSH translation resolves it to the indexed concept.
            # We issue the translated form directly ([mh:noexp] matches the
            # stored annotation without subtree explosion).
            term = '"%s"[mh:noexp]' % self.hierarchy.label(concept)
            pmids, extra_windows = self._search_all_with_quota(term, page_size)
            windows += extra_windows
            queried += 1
            associations[concept] = np.unique(np.asarray(pmids, dtype=np.int64))
        return HarvestResult(
            associations=associations,
            concepts_queried=queried,
            requests_issued=self.client.total_requests - requests_before,
            quota_windows=windows,
        )

    # ------------------------------------------------------------------
    def _search_all_with_quota(
        self, term: str, page_size: int
    ) -> Tuple[List[int], int]:
        """ESearch with paging, riding out rate-limit windows."""
        pmids: List[int] = []
        start = 0
        windows = 0
        while True:
            try:
                page = self.client.esearch(term, retstart=start, retmax=page_size)
            except RateLimitExceeded:
                # A new rate-limit window: in the real system this is a
                # sleep; in the simulation the quota simply refills.
                self.client.reset_quota()
                windows += 1
                continue
            pmids.extend(page.ids)
            start += len(page.ids)
            if start >= page.count or not page.ids:
                return pmids, windows
