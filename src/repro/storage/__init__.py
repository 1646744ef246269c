"""The BioNav database: corpus store, keyword index, association harvest."""

from repro.storage.database import BioNavDatabase
from repro.storage.harvest import ConceptHarvester, HarvestResult
from repro.storage.index import InvertedIndex, tokenize

__all__ = [
    "BioNavDatabase",
    "ConceptHarvester",
    "HarvestResult",
    "InvertedIndex",
    "tokenize",
]
