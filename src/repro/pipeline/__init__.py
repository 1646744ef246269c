"""The staged navigation pipeline (query flow as explicit dataflow).

The paper's online path (§VII) is three steps — ESearch result set →
navigation tree → EdgeCut — and this package makes each a cached stage
whose artifact carries a deterministic content key, produced through a
per-stage single-flight cache and solved through a unified solver
registry.  Every call site (BioNav facade, CLI, serving runtime,
workload harness, benchmarks) builds trees and cuts exclusively through
:class:`NavigationPipeline` + :class:`SolverRegistry`; the
``solver-via-registry`` analyzer rule enforces the layering.
"""

from repro.pipeline.artifacts import (
    CutPlan,
    NavTreeArtifact,
    ResultSet,
    component_digest,
    content_key,
)
from repro.pipeline.cache import DEFAULT_STAGE_CAPACITY, StageCache
from repro.pipeline.concurrency import SingleFlightCache
from repro.pipeline.pipeline import NavigationPipeline, PipelineStrategy
from repro.pipeline.registry import SolverRegistry, default_registry
from repro.pipeline.stages import CutStage, NavTreeStage, SearchStage, params_key

__all__ = [
    "component_digest",
    "content_key",
    "CutPlan",
    "CutStage",
    "DEFAULT_STAGE_CAPACITY",
    "default_registry",
    "NavigationPipeline",
    "NavTreeArtifact",
    "NavTreeStage",
    "params_key",
    "PipelineStrategy",
    "ResultSet",
    "SearchStage",
    "SingleFlightCache",
    "SolverRegistry",
    "StageCache",
]
