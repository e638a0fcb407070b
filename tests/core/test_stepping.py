"""Conformance suite for the pluggable stepping strategies.

Every strategy behind :mod:`repro.core.stepping` must produce distances
bit-identical to the sequential Dijkstra reference — on the hand-built
fixtures, on the structured generators (grid / geometric / social /
RMAT), and on hypothesis-generated graphs that include disconnected
vertices and zero-weight edges. The orchestrated and SPMD engines must
additionally agree on distances *and* on the full metrics summary for
every strategy, the same parity discipline the delta family already has.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DELTA_INFINITY, SolverConfig, preset
from repro.core.reference import dijkstra_reference
from repro.core.solver import solve_sssp
from repro.core.stepping import (
    STRATEGIES,
    DeltaStepping,
    RadiusStepping,
    RhoStepping,
    Step,
    make_strategy,
    vertex_radii,
)
from repro.graph.builder import from_undirected_edges
from repro.graph.grid import grid_graph, random_geometric_graph
from repro.graph.rmat import rmat_graph
from repro.graph.social import synthetic_social_graph
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping
from tests.core.test_transport_parity import assert_parity

ALGORITHMS = ("delta", "radius", "rho")

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=2)


def config_for(algorithm: str) -> SolverConfig:
    """Small-instance config per strategy (tiny ρ so batching is visible)."""
    if algorithm == "delta":
        return SolverConfig(delta=25)
    if algorithm == "rho":
        return SolverConfig(strategy="rho", rho=8)
    return preset(algorithm)


class TestRegistry:
    def test_registry_matches_config_choices(self):
        assert set(STRATEGIES) == {"delta", "radius", "rho"}

    def test_make_strategy_dispatches(self):
        assert isinstance(make_strategy(SolverConfig()), DeltaStepping)
        assert isinstance(
            make_strategy(SolverConfig(strategy="radius")), RadiusStepping
        )
        assert isinstance(
            make_strategy(SolverConfig(strategy="rho")), RhoStepping
        )

    def test_make_strategy_rejects_unknown(self):
        class Bogus:
            strategy = "bogus"

        with pytest.raises(ValueError, match="bogus"):
            make_strategy(Bogus())

    def test_selection_collective_widths(self):
        """One scalar for Δ and radius, the ρ smallest candidates for ρ."""
        cfg = SolverConfig(rho=37)
        assert DeltaStepping(cfg).width == 1
        assert RadiusStepping(cfg).width == 1
        assert RhoStepping(cfg).width == 37

    def test_windowed_strategies_are_short_phase_only(self):
        assert not DeltaStepping.short_phase_only
        assert RadiusStepping.short_phase_only
        assert RhoStepping.short_phase_only

    def test_classification_widths(self):
        assert make_strategy(SolverConfig(delta=7)).classification_width() == 7
        for name in ("radius", "rho"):
            width = make_strategy(
                SolverConfig(strategy=name)
            ).classification_width()
            assert width == DELTA_INFINITY


class TestVertexRadii:
    def test_path_graph_radii(self, path_graph):
        g = path_graph.sorted_by_weight()
        # path 0 -5- 1 -3- 2 -7- 3 -1- 4: vertex 1 sees {5, 3}.
        r1 = vertex_radii(g, 1)
        r2 = vertex_radii(g, 2)
        assert r1[1] == 3 and r2[1] == 5
        # endpoints have degree 1: k clamps to the only incident weight
        assert r1[0] == 5 and r2[0] == 5
        assert r1[4] == 1 and r2[4] == 1

    def test_isolated_vertex_radius_zero(self, disconnected_graph):
        g = disconnected_graph.sorted_by_weight()
        r = vertex_radii(g, 2)
        isolated = np.nonzero(g.degrees == 0)[0]
        assert isolated.size > 0
        assert np.all(r[isolated] == 0)

    def test_k_exceeding_degree_clamps(self, star_graph):
        g = star_graph.sorted_by_weight()
        assert np.array_equal(vertex_radii(g, 100), vertex_radii(g, g.num_vertices))


class TestFixtureConformance:
    """Bit-identity to the reference on every hand-built fixture."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "fixture",
        ["path_graph", "star_graph", "diamond_graph", "disconnected_graph",
         "fig6_graph"],
    )
    def test_matches_reference(self, algorithm, fixture, request):
        graph = request.getfixturevalue(fixture)
        res = solve_sssp(
            graph, 0, algorithm="custom", config=config_for(algorithm),
            num_ranks=2, threads_per_rank=2,
        )
        assert np.array_equal(res.distances, dijkstra_reference(graph, 0))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_rmat_matches_reference(self, algorithm, rmat1_small):
        res = solve_sssp(
            rmat1_small, 3, algorithm="custom", config=config_for(algorithm),
            num_ranks=4, threads_per_rank=2, validate=True,
        )
        assert np.array_equal(
            res.distances, dijkstra_reference(rmat1_small, 3)
        )


class TestGeneratorConformance:
    """Structured generators: grid, geometric, social, RMAT."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_grid(self, algorithm):
        g = grid_graph(12, 12, seed=5)
        res = solve_sssp(
            g, 0, algorithm="custom", config=config_for(algorithm),
            num_ranks=4, threads_per_rank=2,
        )
        assert np.array_equal(res.distances, dijkstra_reference(g, 0))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_geometric(self, algorithm):
        g = random_geometric_graph(150, radius=0.15, seed=11)
        res = solve_sssp(
            g, 7, algorithm="custom", config=config_for(algorithm),
            num_ranks=4, threads_per_rank=2,
        )
        assert np.array_equal(res.distances, dijkstra_reference(g, 7))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_social(self, algorithm):
        g = synthetic_social_graph("orkut", scale=9, seed=3)
        res = solve_sssp(
            g, 1, algorithm="custom", config=config_for(algorithm),
            num_ranks=4, threads_per_rank=2,
        )
        assert np.array_equal(res.distances, dijkstra_reference(g, 1))


class TestSpmdParity:
    """Orchestrated vs SPMD: identical distances AND identical metrics
    (rows of ``test_transport_parity.assert_parity``)."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_distances_and_metrics_parity(self, algorithm, rmat1_small):
        assert_parity(rmat1_small, 0, MACHINE, config_for(algorithm))

    @pytest.mark.parametrize("algorithm", ("radius", "rho"))
    def test_parity_under_paranoid_guards(self, algorithm, rmat1_small):
        cfg = config_for(algorithm).evolve(paranoid=True)
        assert_parity(rmat1_small, 0, MACHINE, cfg)


class TestHybridComposition:
    """use_hybrid composes with every strategy (BF stage is always exact)."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_hybrid_bit_identity(self, algorithm, rmat1_small):
        cfg = config_for(algorithm).evolve(use_hybrid=True, tau=0.2)
        res = solve_sssp(
            rmat1_small, 3, algorithm="custom", config=cfg,
            num_ranks=4, threads_per_rank=2,
        )
        assert np.array_equal(
            res.distances, dijkstra_reference(rmat1_small, 3)
        )


class TestPresetsAndNaming:
    def test_radius_rho_presets_solve_and_validate(self, rmat1_small):
        for algo in ("radius", "rho"):
            res = solve_sssp(
                rmat1_small, 3, algorithm=algo,
                num_ranks=4, threads_per_rank=2, validate=True,
            )
            assert res.algorithm == algo  # delta-free: no "-25" suffix
            assert res.config.strategy == algo

    def test_rho_parameter_changes_stepping_not_distances(self, rmat1_small):
        ref = dijkstra_reference(rmat1_small, 0)
        epochs = set()
        for rho in (1, 8, 512):
            cfg = SolverConfig(strategy="rho", rho=rho)
            res = solve_sssp(
                rmat1_small, 0, algorithm="custom", config=cfg,
                num_ranks=2, threads_per_rank=2,
            )
            assert np.array_equal(res.distances, ref)
            epochs.add(res.metrics.buckets_processed)
        assert len(epochs) > 1  # ρ genuinely changes the step schedule

    def test_radius_k_changes_stepping_not_distances(self, rmat1_small):
        ref = dijkstra_reference(rmat1_small, 0)
        for k in (1, 2, 4):
            cfg = SolverConfig(strategy="radius", radius_k=k)
            res = solve_sssp(
                rmat1_small, 0, algorithm="custom", config=cfg,
                num_ranks=2, threads_per_rank=2,
            )
            assert np.array_equal(res.distances, ref)


class TestConfigValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="stepping strategy"):
            SolverConfig(strategy="bogus")

    @pytest.mark.parametrize("field", ["rho", "radius_k"])
    def test_positive_parameters_required(self, field):
        with pytest.raises(ValueError):
            SolverConfig(**{field: 0})

    @pytest.mark.parametrize(
        "flag", ["use_ios", "use_pruning", "collect_census"]
    )
    @pytest.mark.parametrize("strategy", ["radius", "rho"])
    def test_delta_specific_flags_rejected(self, strategy, flag):
        with pytest.raises(ValueError, match=flag):
            SolverConfig(strategy=strategy, **{flag: True})

    def test_is_bellman_ford_requires_delta_strategy(self):
        assert SolverConfig(delta=DELTA_INFINITY).is_bellman_ford
        assert not SolverConfig(strategy="rho").is_bellman_ford


def _random_graph(seed: int):
    """Undirected graph with zero-weight edges and disconnected vertices."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    m = int(rng.integers(0, 3 * n))
    tails = rng.integers(0, n, m)
    heads = rng.integers(0, n, m)
    keep = tails != heads
    tails, heads = tails[keep], heads[keep]
    # weights start at 0: zero-weight edges are part of the contract
    weights = rng.integers(0, 12, tails.size)
    return from_undirected_edges(tails, heads, weights, n)


class TestHypothesisConformance:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(ALGORITHMS))
    def test_matches_reference_on_random_graphs(self, seed, algorithm):
        graph = _random_graph(seed)
        root = seed % graph.num_vertices
        res = solve_sssp(
            graph, root, algorithm="custom", config=config_for(algorithm),
            num_ranks=2, threads_per_rank=1,
        )
        assert np.array_equal(
            res.distances, dijkstra_reference(graph, root)
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(("radius", "rho")))
    def test_spmd_matches_orchestrated_on_random_graphs(self, seed, algorithm):
        graph = _random_graph(seed)
        root = seed % graph.num_vertices
        cfg = config_for(algorithm)
        machine = MachineConfig(num_ranks=2, threads_per_rank=1)
        res = solve_sssp(
            graph, root, algorithm="custom", config=cfg, machine=machine
        )
        d_spmd, ctx_spmd = spmd_delta_stepping(graph, root, machine, config=cfg)
        assert np.array_equal(res.distances, d_spmd)
        assert res.metrics.summary() == ctx_spmd.metrics.summary()


class TestStepContract:
    def test_step_is_frozen_and_ordered(self):
        s = Step(key=3, lo=0, hi=17)
        with pytest.raises((AttributeError, TypeError)):
            s.hi = 20
        assert s.lo < s.hi
