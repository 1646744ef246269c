"""The Table I query workload.

Ten real PubMed queries chosen by the paper's biomedical collaborators,
each with a designated *target concept* the simulated user navigates to.
Citation counts for ``prothymosin`` (313) and ``vardenafil`` (486) are
stated in the paper's prose and honored exactly; the remaining counts are
plausible values in the paper's range (the source table is OCR-garbled —
see DESIGN.md §4).  Topic breadth encodes the paper's observation that
e.g. prothymosin correlates with many research fields while vardenafil is
narrowly targeted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["WorkloadQuery", "TABLE_I_QUERIES", "query_by_keyword"]


@dataclass(frozen=True)
class WorkloadQuery:
    """One Table I row (inputs only; tree statistics are measured).

    Attributes:
        keyword: the PubMed query string.
        n_citations: number of citations in the query result.
        target_label: the target MeSH concept's name (paper Table I).
        target_depth: MeSH level of the target concept (root = 0).
        n_topics: number of distinct research-field anchors the result
            spreads over (breadth of the literature).
        target_share: fraction of the result citations attached at or
            below the target's branch — controls L(n) of the target and
            hence its EXPLORE probability.  The paper's hardest case
            ("ice nucleation" → Plants, Genetically Modified) has very low
            selectivity; easy cases are high.
        seed: per-query RNG stream.
    """

    keyword: str
    n_citations: int
    target_label: str
    target_depth: int
    n_topics: int
    target_share: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_citations <= 0:
            raise ValueError("n_citations must be positive")
        if not 2 <= self.target_depth <= 10:
            raise ValueError("target_depth must be between 2 and 10")
        if self.n_topics < 1:
            raise ValueError("n_topics must be at least 1")
        if not 0.0 < self.target_share <= 1.0:
            raise ValueError("target_share must be in (0, 1]")


# The ten Table I queries.  Target labels are the paper's; depths follow
# the real MeSH tree positions (shallow for Mice/Plants organisms, deeper for
# specific proteins).
TABLE_I_QUERIES: List[WorkloadQuery] = [
    WorkloadQuery(
        keyword="LbetaT2",
        n_citations=152,
        target_label="Mice, Transgenic",
        target_depth=3,
        n_topics=3,
        target_share=0.45,
        seed=101,
    ),
    WorkloadQuery(
        keyword="melibiose permease",
        n_citations=155,
        target_label="Substrate Specificity",
        target_depth=3,
        n_topics=3,
        target_share=0.40,
        seed=102,
    ),
    WorkloadQuery(
        keyword="varenicline",
        n_citations=161,
        target_label="Nicotinic Agonists",
        target_depth=4,
        n_topics=2,
        target_share=0.50,
        seed=103,
    ),
    WorkloadQuery(
        keyword="Na+/I- symporter",
        n_citations=181,
        target_label="Perchloric Acid",
        target_depth=4,
        n_topics=3,
        target_share=0.25,
        seed=104,
    ),
    WorkloadQuery(
        keyword="prothymosin",
        n_citations=313,  # stated in the paper's prose
        target_label="Histones",
        target_depth=4,
        n_topics=6,
        target_share=0.30,
        seed=105,
    ),
    WorkloadQuery(
        keyword="ice nucleation",
        n_citations=264,
        target_label="Plants, Genetically Modified",
        target_depth=2,
        n_topics=4,
        # The paper's worst case: the target has extremely low selectivity
        # (L(n) = 2 out of 264), so BioNav needs many EXPANDs to reveal it.
        target_share=0.02,
        seed=106,
    ),
    WorkloadQuery(
        keyword="vardenafil",
        n_citations=486,  # stated in the paper's prose
        target_label="Phosphodiesterase Inhibitors",
        target_depth=3,
        n_topics=2,
        target_share=0.55,
        seed=107,
    ),
    WorkloadQuery(
        keyword="dyslexia genetics",
        n_citations=233,
        target_label="Polymorphism, Single Nucleotide",
        target_depth=3,
        n_topics=4,
        target_share=0.35,
        seed=108,
    ),
    WorkloadQuery(
        keyword="syntaxin 1A",
        n_citations=172,
        target_label="GABA Plasma Membrane Transport Proteins",
        target_depth=5,
        n_topics=3,
        target_share=0.35,
        seed=109,
    ),
    WorkloadQuery(
        keyword="follistatin",
        n_citations=487,
        target_label="Follicle Stimulating Hormone",
        target_depth=4,
        n_topics=3,
        target_share=0.45,
        seed=110,
    ),
]


def query_by_keyword(keyword: str) -> WorkloadQuery:
    """Look up a Table I query; raises KeyError when absent."""
    for query in TABLE_I_QUERIES:
        if query.keyword == keyword:
            return query
    raise KeyError("no workload query with keyword %r" % keyword)
