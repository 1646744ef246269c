"""The BioNav database: association tables, keyword index, persistence."""

from repro.storage.database import BioNavDatabase
from repro.storage.harvest import ConceptHarvester, HarvestResult
from repro.storage.index import InvertedIndex, tokenize
from repro.storage.positional import PositionalIndex
from repro.storage.tables import AssociationTable, ConceptStatsTable, DenormalizedCitationTable

__all__ = [
    "AssociationTable",
    "BioNavDatabase",
    "ConceptHarvester",
    "ConceptStatsTable",
    "DenormalizedCitationTable",
    "HarvestResult",
    "InvertedIndex",
    "PositionalIndex",
    "tokenize",
]
