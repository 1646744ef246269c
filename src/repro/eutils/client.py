"""Simulated Entrez Programming Utilities (eutils) client.

The paper's online phase talks to PubMed exclusively through eutils
(paper §VII): ESearch resolves a keyword query to citation IDs, ESummary
fetches display summaries for SHOWRESULTS, EFetch retrieves full records.
This module reproduces that surface over the local corpus store so the
whole online pipeline exercises the same code path shapes, including
``retstart``/``retmax`` paging and the request-rate quota that constrained
the paper's 20-day harvest.  ESummary, EFetch and ELink read the store's
columns (titles, authors, years, the concept CSR) with one batched
lookup per request.  ESearch delegates to the one
:class:`~repro.search.engine.SearchEngine` the caller built over the
corpus store; the client never builds an engine of its own.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.corpus.citation import Citation, DocSummary
from repro.eutils.errors import BadRequestError, RateLimitExceeded, UnknownIdError
from repro.search.engine import SearchEngine
from repro.substrate.store import MmapStore

__all__ = ["ESearchResult", "EntrezClient"]

_DEFAULT_RETMAX = 20
_MAX_RETMAX = 100_000


@dataclass(frozen=True)
class ESearchResult:
    """ESearch response: total hit count plus one page of ranked IDs."""

    count: int
    retstart: int
    retmax: int
    ids: Tuple[int, ...]
    query: str


class EntrezClient:
    """ESearch / ESummary / EFetch / ELink over the corpus store."""

    def __init__(
        self,
        store: MmapStore,
        engine: SearchEngine,
        rate_limit: Optional[int] = None,
    ):
        """
        Args:
            store: the corpus store; ESummary, EFetch and ELink read its
                display columns and concept rows.
            engine: the keyword search engine ESearch runs, usually
                ``SearchEngine(database.store, database.index)``.
            rate_limit: optional maximum number of requests this client will
                serve before raising :class:`RateLimitExceeded`; ``None``
                disables the quota.  Call :meth:`reset_quota` to refill.
        """
        self._store = store
        self._engine = engine
        self._rate_limit = rate_limit
        self._requests_served = 0
        self._total_requests = 0

    # ------------------------------------------------------------------
    # ESearch
    # ------------------------------------------------------------------
    def esearch(
        self, term: str, retstart: int = 0, retmax: int = _DEFAULT_RETMAX
    ) -> ESearchResult:
        """Resolve a keyword query to ranked PMIDs, with paging."""
        self._consume_quota()
        if retstart < 0:
            raise BadRequestError("retstart must be non-negative")
        if not 0 <= retmax <= _MAX_RETMAX:
            raise BadRequestError("retmax out of range [0, %d]" % _MAX_RETMAX)
        if not term.strip():
            raise BadRequestError("empty query term")
        result = self._engine.search(term)
        page = result.pmids[retstart : retstart + retmax]
        return ESearchResult(
            count=result.count,
            retstart=retstart,
            retmax=retmax,
            ids=page,
            query=term,
        )

    def esearch_all(self, term: str, page_size: int = 500) -> List[int]:
        """All PMIDs for a query, paging through ESearch like real clients."""
        ids: List[int] = []
        start = 0
        while True:
            page = self.esearch(term, retstart=start, retmax=page_size)
            ids.extend(page.ids)
            start += len(page.ids)
            if start >= page.count or not page.ids:
                break
        return ids

    # ------------------------------------------------------------------
    # ESummary / EFetch
    # ------------------------------------------------------------------
    def esummary(self, pmids: Sequence[int]) -> List[DocSummary]:
        """Display summaries for SHOWRESULTS (title, authors, year)."""
        self._consume_quota()
        if not pmids:
            raise BadRequestError("esummary requires at least one id")
        with _known_ids():
            return self._store.summaries(pmids)

    def efetch(self, pmids: Sequence[int]) -> List[Citation]:
        """Citation records: the display fields plus the index concepts.

        The store keeps no abstract and no separate MEDLINE annotation
        set, so those fields are empty.
        """
        self._consume_quota()
        if not pmids:
            raise BadRequestError("efetch requires at least one id")
        with _known_ids():
            return [
                Citation(
                    pmid=summary.pmid,
                    title=summary.title,
                    authors=summary.authors,
                    year=summary.year,
                    index_concepts=self._store.concepts_of(summary.pmid),
                )
                for summary in self._store.summaries(pmids)
            ]

    # ------------------------------------------------------------------
    # ELink
    # ------------------------------------------------------------------
    def elink_related(self, pmid: int, retmax: int = _DEFAULT_RETMAX) -> List[int]:
        """PubMed's "related articles": citations sharing MeSH concepts.

        Returns up to ``retmax`` PMIDs ranked by the number of concepts
        shared with ``pmid`` (ties broken by PMID), excluding the query
        citation itself — the neighbor-document linkage eutils' ELink
        exposes, computed here from the concept associations.
        """
        self._consume_quota()
        if retmax < 0:
            raise BadRequestError("retmax must be non-negative")
        with _known_ids():
            return self._store.related(pmid, retmax)

    # ------------------------------------------------------------------
    # Quota bookkeeping
    # ------------------------------------------------------------------
    @property
    def requests_served(self) -> int:
        """Requests served in the current rate-limit window."""
        return self._requests_served

    @property
    def total_requests(self) -> int:
        """Lifetime request count (survives quota resets)."""
        return self._total_requests

    def reset_quota(self) -> None:
        """Refill the simulated request quota (a new rate-limit window)."""
        self._requests_served = 0

    def _consume_quota(self) -> None:
        if self._rate_limit is not None and self._requests_served >= self._rate_limit:
            raise RateLimitExceeded(
                "request quota of %d exhausted" % self._rate_limit
            )
        self._requests_served += 1
        self._total_requests += 1


@contextlib.contextmanager
def _known_ids() -> Iterator[None]:
    """Report the store's unknown-PMID ``KeyError`` as ``UnknownIdError``."""
    try:
        yield
    except KeyError as missing:
        raise UnknownIdError("unknown pmid %d" % missing.args[0]) from None
