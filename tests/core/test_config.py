"""Unit tests for solver configuration and presets."""

import numpy as np
import pytest

from repro.core.config import DELTA_INFINITY, PRESETS, SolverConfig, preset


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.delta == 25
        assert not cfg.use_ios and not cfg.use_pruning and not cfg.use_hybrid

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(delta=0)
        with pytest.raises(ValueError):
            SolverConfig(tau=1.5)
        with pytest.raises(ValueError):
            SolverConfig(pushpull_mode="maybe")
        with pytest.raises(ValueError):
            SolverConfig(pushpull_sequence=("push", "shove"))
        with pytest.raises(ValueError):
            SolverConfig(imbalance_weight=-1)
        with pytest.raises(ValueError):
            SolverConfig(pushpull_estimator="guess")

    def test_nan_imbalance_weight_is_refused(self):
        """NaN passed the ``< 0`` check, read every push/pull estimate as
        NaN and silently sent every ``auto`` bucket to pull."""
        for bad in (float("nan"), np.nan, -0.5, float("-inf")):
            with pytest.raises(ValueError, match="imbalance_weight must be non-negative"):
                SolverConfig(imbalance_weight=bad)
        assert SolverConfig(imbalance_weight=0.0).imbalance_weight == 0.0

    @pytest.mark.parametrize(
        "field", ["delta", "rho", "radius_k", "histogram_bins"]
    )
    def test_counts_must_be_integers(self, field):
        """A float Δ solved without error and got distances wrong: every
        count is an integer (NumPy's too), never a float or a bool."""
        assert getattr(SolverConfig(**{field: np.int64(3)}), field) == 3
        for bad in (2.5, 25.0, np.float64(7.9), True, "3"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SolverConfig(**{field: bad})

    def test_float_delta_preset_is_refused(self):
        with pytest.raises(ValueError, match="delta must be an integer"):
            preset("opt", 7.9)

    @pytest.mark.parametrize("field", ["heavy_degree", "split_degree"])
    def test_degree_thresholds_are_positive_integers_when_set(self, field):
        assert getattr(SolverConfig(**{field: None}), field) is None
        assert getattr(SolverConfig(**{field: np.int32(5)}), field) == 5
        for bad in (0, -4):
            with pytest.raises(ValueError, match=f"{field} must be >= 1"):
                SolverConfig(**{field: bad})
        for bad in (4.5, 8.0, False):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SolverConfig(**{field: bad})

    def test_bellman_ford_detection(self):
        assert SolverConfig(delta=DELTA_INFINITY).is_bellman_ford
        assert not SolverConfig(delta=25).is_bellman_ford

    def test_derived_heavy_degree(self):
        cfg = SolverConfig()
        assert cfg.derived_heavy_degree(10.0) == 40
        assert SolverConfig(heavy_degree=7).derived_heavy_degree(10.0) == 7
        assert cfg.derived_heavy_degree(0.1) == 8  # floor

    def test_derived_split_degree(self):
        cfg = SolverConfig()
        assert cfg.derived_split_degree(10.0) == 160
        assert SolverConfig(split_degree=99).derived_split_degree(10.0) == 99
        assert cfg.derived_split_degree(0.1) == 64  # floor

    def test_evolve(self):
        cfg = SolverConfig().evolve(delta=7, use_ios=True)
        assert cfg.delta == 7 and cfg.use_ios


class TestPresets:
    def test_all_presets_constructible(self):
        for name in PRESETS:
            cfg = preset(name, 25)
            assert isinstance(cfg, SolverConfig)

    def test_dijkstra_is_delta_one(self):
        assert preset("dijkstra").delta == 1

    def test_bellman_ford_is_delta_infinity(self):
        assert preset("bellman-ford").is_bellman_ford

    def test_del_is_plain(self):
        cfg = preset("delta", 40)
        assert cfg.delta == 40
        assert not cfg.use_pruning and not cfg.use_hybrid

    def test_prune_composition(self):
        cfg = preset("prune", 25)
        assert cfg.use_ios and cfg.use_pruning and not cfg.use_hybrid

    def test_opt_composition(self):
        cfg = preset("opt", 25)
        assert cfg.use_ios and cfg.use_pruning and cfg.use_hybrid
        assert cfg.tau == 0.4

    def test_lb_opt_composition(self):
        cfg = preset("lb-opt", 25)
        assert cfg.intra_lb and not cfg.inter_split

    def test_lb_opt_split_composition(self):
        cfg = preset("lb-opt-split", 25)
        assert cfg.intra_lb and cfg.inter_split

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            preset("quantum")

    def test_case_insensitive(self):
        assert preset("OPT", 25) == preset("opt", 25)
