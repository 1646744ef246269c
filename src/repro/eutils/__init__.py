"""Simulated Entrez Programming Utilities (ESearch/ESummary/EFetch/ELink).

:class:`EntrezClient` wraps the one :class:`~repro.search.engine.SearchEngine`
with eutils' paging and request-quota conventions.
"""

from repro.eutils.client import EntrezClient, ESearchResult
from repro.eutils.errors import BadRequestError, EutilsError, RateLimitExceeded, UnknownIdError

__all__ = [
    "BadRequestError",
    "ESearchResult",
    "EntrezClient",
    "EutilsError",
    "RateLimitExceeded",
    "UnknownIdError",
]
