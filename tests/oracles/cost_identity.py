"""Bit-for-bit identity of two probability models' cost-model inputs.

Two :class:`~repro.core.probabilities.ProbabilityModel` instances that
pass :func:`models_identical` feed every solver the same numbers, so
they yield identical navigation costs and cuts.  The equivalence suites
and ``benchmarks/bench_coldpath.py`` use it to compare a model built
over the array-native navigation tree with one built over the dict
oracle, or one fed per-node LT calls with one fed the batch lookup.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.probabilities import ProbabilityModel

__all__ = ["model_arrays", "models_identical"]


def model_arrays(model: ProbabilityModel) -> List[np.ndarray]:
    """Everything a solve reads from ``model``, as arrays.

    The tree's preorder node ids and results CSR, the per-node result
    counts and EXPLORE mass, the normalizer, and the EXPAND thresholds
    with the IDF switch.
    """
    tree = model.tree
    return [
        np.asarray(tree.preorder_array(), dtype=np.int64),
        np.asarray(tree.result_offsets_array(), dtype=np.int64),
        np.asarray(tree.result_values_array(), dtype=np.int64),
        model.result_counts,
        model.explore_mass,
        np.asarray([model.normalizer], dtype=np.float64),
        np.asarray(
            [model.upper_threshold, model.lower_threshold, model.use_idf],
            dtype=np.int64,
        ),
    ]


def models_identical(first: ProbabilityModel, second: ProbabilityModel) -> bool:
    """True when both models' arrays agree in dtype, shape and bytes."""
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(model_arrays(first), model_arrays(second))
    )
