"""BioNav's Fig. 8 and Fig. 9 columns, pinned to EXPERIMENTS.md.

``benchmarks/bench_fig8_navigation_cost.py`` and
``bench_fig9_expand_actions.py`` assert only the figures' shape, so a
solver change that moves individual rows passes them silently.  This
test replays their BioNav navigations on the same Table I workload
(hierarchy of 2,500 concepts, seed 7) and pins every row to the
published tables.  A change that moves a row must update EXPERIMENTS.md
and these values together.
"""

from __future__ import annotations

from repro.core.simulator import navigate_to_target
from repro.pipeline.registry import default_registry
from repro.workload.builder import build_workload

#: keyword → (Fig. 8 navigation cost, Fig. 9 EXPAND actions) for BioNav.
EXPERIMENTS_MD = {
    "LbetaT2": (10, 4),
    "melibiose permease": (27, 11),
    "varenicline": (16, 7),
    "Na+/I- symporter": (12, 5),
    "prothymosin": (32, 14),
    "ice nucleation": (14, 7),
    "vardenafil": (26, 13),
    "dyslexia genetics": (12, 6),
    "syntaxin 1A": (20, 9),
    "follistatin": (21, 8),
}


def test_bionav_rows_match_experiments_md():
    rows = {}
    for prepared in build_workload(hierarchy_size=2500, seed=7).prepare_all():
        solver = default_registry().create(
            "heuristic", prepared.tree, prepared.probs, max_reduced_nodes=10
        )
        outcome = navigate_to_target(
            prepared.tree, solver, prepared.target_node, show_results=False
        )
        assert outcome.reached
        rows[prepared.spec.keyword] = (outcome.navigation_cost, outcome.expand_actions)
    assert rows == EXPERIMENTS_MD
