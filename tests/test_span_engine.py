"""Property tests for the span-batched engine paths.

The span paths advance the Lemma 1 queue recurrence and the rate-0 fault
engines one numpy step per *event* instead of per round. These tests
assert they are **bit-identical** to the per-round replays — receipts,
rounds, bits, drops, and the fault RNG stream — on randomized graphs and
fault plans, including the single-node boundary, pin the ``drop_rate=1.0``
boundary (which always replays) to the simulator, and check that the
frontier kernel's SpMV and gather layers pick the same parents in any
mix.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.engine.verify import (
    check_bfs_batch,
    check_faulty_bfs_replay,
    check_faulty_step_strategies,
    check_redundant_broadcast,
    check_step_strategies,
    gate_settings,
    random_connected_graph,
    random_edge_masks,
    random_fault_plan,
    spmv_gates,
)
from repro.graphs import Graph, thick_cycle
from repro.primitives.bfs import run_bfs, run_bfs_batch

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSpanPipelineEquivalence:
    """Lemma 1 upcast spans + SpMV frontiers vs the per-round reference."""

    @_SETTINGS
    @given(
        n=st.integers(2, 18),
        extra=st.integers(0, 24),
        seed=st.integers(0, 10_000),
        parts=st.integers(1, 3),
        k=st.integers(0, 30),
    )
    def test_span_equals_round(self, n, extra, seed, parts, k):
        g = random_connected_graph(n, extra, seed=seed)
        masks = random_edge_masks(g, parts, seed=seed + 1)
        assert check_step_strategies(g, masks, k, seed=seed + 2) == []

    def test_single_node_graph(self):
        g = Graph(1, [])
        masks = [np.zeros(0, dtype=bool)]
        assert check_step_strategies(g, masks, 3, seed=1) == []

    def test_two_node_graph(self):
        g = Graph(2, [(0, 1)])
        masks = [np.ones(1, dtype=bool)]
        assert check_step_strategies(g, masks, 5, seed=2) == []

    def test_deep_path_many_items(self):
        """A long path stresses the busy scan's layer shifting."""
        g = Graph(40, [(v, v + 1) for v in range(39)])
        masks = [np.ones(g.m, dtype=bool)]
        assert check_step_strategies(g, masks, 60, seed=3) == []


class TestSpanFaultEquivalence:
    """Span fault paths (and their rate>0 fallback) vs per-round walk."""

    @_SETTINGS
    @given(
        n=st.integers(2, 16),
        extra=st.integers(0, 20),
        seed=st.integers(0, 10_000),
        k=st.integers(0, 20),
        parts=st.integers(1, 3),
    )
    def test_faulty_span_equals_round(self, n, extra, seed, k, parts):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_faulty_step_strategies(g, k, seed=seed + 1, parts=parts) == []

    @_SETTINGS
    @given(seed=st.integers(0, 10_000), k=st.integers(0, 16))
    def test_total_loss_boundary(self, seed, k):
        """drop_rate=1.0: every coin flipped, nothing delivered — the
        replay must match the simulator's report and RNG stream."""
        from repro.congest.adversary import FaultPlan

        g = thick_cycle(6, 4)
        plan = FaultPlan(drop_rate=1.0)
        assert check_redundant_broadcast(g, k, seed, redundancy=2, plan=plan) == []

    def test_single_node_faulty_bfs(self):
        g = Graph(1, [])
        plan = random_fault_plan(g, seed=1, rate=0.0)
        assert check_faulty_bfs_replay(g, 0, plan, 2) == []


def _rule_breaks(g: Graph, root: int) -> int:
    """Vectorized BFS parents that are not the smallest previous-layer
    neighbour (the simulator's adoption rule)."""
    res = run_bfs(g, root, backend="vectorized")
    ref = kernels.tree_parents(g.n, g._indptr, g._indices, res.dist, root)
    return int((res.parent != ref).sum())


class TestScipyFallback:
    """Narrow layers fall back from the scipy matvec to the numpy gather;
    any mix of the two must keep the smallest-neighbour parent rule."""

    def test_frontier_sweep_matches_fallback(self):
        g = random_connected_graph(30, 40, seed=5)
        indptr, indices = g._indptr, g._indices
        _parent, base = kernels.frontier_sweep(g.n, indptr, indices, 0)
        for _tag, min_arcs, layer_arcs in gate_settings(indptr, indices, [base]):
            with spmv_gates(min_arcs, layer_arcs):
                parent, dist = kernels.frontier_sweep(g.n, indptr, indices, 0)
            assert np.array_equal(dist, base)
            ref = kernels.tree_parents(g.n, indptr, indices, dist, 0)
            assert np.array_equal(parent, ref)

    def test_spmv_to_gather_transition_keeps_parent_rule(self):
        """A wide SpMV layer hands an unsorted candidate list to the next
        gather layer unless the kernel sorts it."""
        with spmv_gates(0, 4096):
            assert _rule_breaks(thick_cycle(40, 30), 0) == 0

    def test_bfs_batch_gate_mixes_match_simulator(self):
        g = thick_cycle(12, 10)
        assert check_bfs_batch(g, [0, 0, 57]) == []
        mask = random_edge_masks(g, 1, seed=4)[0]
        assert check_bfs_batch(g, [3, 90], edge_mask=mask) == []

    @pytest.mark.slow
    def test_thick_cycle_n10k_matches_simulator(self):
        """n = 10⁴, where default gates first mix SpMV and gather layers.

        A two-query plane on the same host covers multi-query SpMV layers:
        its row 0 must equal the simulator run, its row ``r`` the solo
        vectorized run and the smallest-neighbour parent rule."""
        g = thick_cycle(125, 80)
        sim = run_bfs(g, 0, backend="simulator")
        vec = run_bfs(g, 0, backend="vectorized")
        assert np.array_equal(sim.dist, vec.dist)
        assert np.array_equal(sim.parent, vec.parent)
        assert sim.rounds == vec.rounds
        r = g.n // 2
        row0, row_r = run_bfs_batch(g, [0, r], backend="vectorized")
        assert np.array_equal(row0.dist, sim.dist)
        assert np.array_equal(row0.parent, sim.parent)
        assert row0.rounds == sim.rounds
        solo = run_bfs(g, r, backend="vectorized")
        assert np.array_equal(row_r.dist, solo.dist)
        assert np.array_equal(row_r.parent, solo.parent)
        assert row_r.rounds == solo.rounds
        ref = kernels.tree_parents(g.n, g._indptr, g._indices, row_r.dist, r)
        assert np.array_equal(row_r.parent, ref)
