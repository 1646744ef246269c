"""Unit tests for exponential runtime fitting."""

from __future__ import annotations

import pytest

from repro.analysis.runtime import fit_exponential
from tests.oracles.member_sets import tree_from_mapping


class TestFitExponential:
    def test_recovers_known_exponential(self):
        sizes = [4, 6, 8, 10, 12]
        times = [0.001 * (2.0 ** n) for n in sizes]
        fit = fit_exponential(sizes, times)
        assert fit.base == pytest.approx(2.0, rel=1e-6)
        assert fit.scale == pytest.approx(0.001, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_exponential([1, 2, 3], [2.0, 4.0, 8.0])
        assert fit.predict(4) == pytest.approx(16.0, rel=1e-6)

    def test_linear_data_has_base_near_one(self):
        sizes = list(range(1, 12))
        times = [0.5 * n for n in sizes]
        fit = fit_exponential(sizes, times)
        assert 1.0 < fit.base < 1.5

    def test_noise_tolerated(self):
        sizes = [4, 6, 8, 10, 12, 14]
        times = [0.001 * (2.0 ** n) * factor for n, factor in zip(sizes, (1.1, 0.9, 1.05, 0.95, 1.2, 0.85))]
        fit = fit_exponential(sizes, times)
        assert 1.7 < fit.base < 2.3
        assert fit.r_squared > 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_exponential([1, 2], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_exponential([1, 2, 3], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_exponential([1, 2, 3], [1.0, 0.0, 2.0])

    def test_opt_edgecut_measurements_fit_exponential(self):
        """The §VI complexity claim, measured and fitted."""
        import time

        from repro.core.edgecut import Component
        from repro.core.opt_edgecut import CutTree, OptEdgeCut
        from repro.core.probabilities import ProbabilityModel
        from repro.hierarchy.generator import generate_hierarchy

        sizes = []
        times = []
        for n_nodes in (6, 8, 10, 12, 14):
            hierarchy = generate_hierarchy(target_size=n_nodes * 3, seed=31)
            annotations = {}
            count = 0
            for node in hierarchy.iter_dfs():
                if node == hierarchy.root:
                    continue
                annotations[node] = set(range(count, count + 4))
                count += 1
                if count >= n_nodes - 1:
                    break
            tree = tree_from_mapping(hierarchy, annotations)
            probs = ProbabilityModel(tree, lambda n: 100)
            cut_tree = CutTree.from_component(tree, probs, Component(tree, tree.root))
            started = time.perf_counter()
            OptEdgeCut(cut_tree, probs, max_nodes=16).solve()
            times.append(max(time.perf_counter() - started, 1e-6))
            sizes.append(len(cut_tree))
        fit = fit_exponential(sizes, times)
        assert fit.base > 1.3  # decidedly super-polynomial over this range


class TestSolverProfile:
    """The per-EXPAND solver profile: the ``solver.decision_seconds``
    histogram and the ``solver`` block ``/api/stats`` renders from it."""

    def _metrics(self):
        from repro.obs import Metrics

        metrics = Metrics()
        for i, seconds in enumerate((0.010, 0.020, 0.030, 0.040)):
            metrics.observe("solver.decision_seconds", seconds)
            metrics.add("solver.reduced_size", 4 + i)
        return metrics

    @staticmethod
    def _summary(metrics):
        from repro.serving.runtime import render_stats

        return render_stats(metrics.snapshot(), {})["solver"]

    def test_record_and_aggregates(self):
        summary = self._summary(self._metrics())
        assert summary["expands"] == 4
        assert summary["total_ms"] == pytest.approx(100.0)
        assert summary["mean_ms"] == pytest.approx(25.0)

    def test_percentiles(self):
        from repro.obs import quantile

        series = self._metrics().snapshot()["histograms"]["solver.decision_seconds"]
        assert 0.010 <= quantile(series, 0.0) < 0.010 * 1.19
        assert quantile(series, 1.0) == pytest.approx(0.040)
        with pytest.raises(ValueError):
            quantile(series, 1.01)

    def test_summary_keys_and_units(self):
        summary = self._summary(self._metrics())
        assert summary["expands"] == 4
        assert summary["mean_ms"] == pytest.approx(25.0)
        assert summary["max_ms"] == pytest.approx(40.0)
        assert summary["mean_reduced_size"] == pytest.approx(5.5)
        assert summary["p99_ms"] >= summary["p95_ms"] >= summary["p50_ms"] >= 20.0

    def test_empty_profile_summary(self):
        from repro.obs import Metrics

        summary = self._summary(Metrics())
        assert summary["expands"] == 0
        assert summary["mean_ms"] == 0.0
        assert summary["p99_ms"] == 0.0

    def test_negative_seconds_rejected(self):
        from repro.obs import Metrics

        with pytest.raises(ValueError):
            Metrics().observe("solver.decision_seconds", -0.1)
