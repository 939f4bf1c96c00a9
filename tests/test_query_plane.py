"""Property tests for the multi-query frontier plane (ISSUE 9).

:class:`~repro.engine.plane.QueryPlane` packs many (root, seed,
channel-set) BFS queries into one bit-packed (queries × nodes) plane and
answers them in one shared layer loop. These tests pin the bit-identity
contract on the edges the randomized verify sweep is least likely to hit:
batch size 1, duplicate queries, single-node graphs, forced SpMV layers,
chunked planes, and the all-queries-dead-on-round-0 boundary under
``drop_rate=1.0``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.adversary import FaultPlan
from repro.engine import kernels
from repro.engine.faults import faulty_bfs_grid
from repro.engine.plane import QueryPlane, masked_union_bfs, plane_sweep
from repro.engine.verify import (
    check_bfs_batch,
    check_broadcast_batch,
    check_fault_grid,
    check_packing_candidates,
    gate_settings,
    random_connected_graph,
    random_edge_masks,
    spmv_gates,
)
from repro.graphs import Graph, thick_cycle
from repro.primitives.bfs import run_bfs, run_bfs_batch
from repro.util.errors import ValidationError
from repro.util.rng import rng_from_seed

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPlaneVsSolo:
    @_SETTINGS
    @given(
        n=st.integers(2, 18),
        extra=st.integers(0, 24),
        seed=st.integers(0, 10_000),
        q=st.integers(1, 9),
    )
    def test_plane_rows_equal_solo_sweeps(self, n, extra, seed, q):
        g = random_connected_graph(n, extra, seed=seed)
        rng = rng_from_seed(seed + 1)
        roots = rng.integers(0, n, size=q).tolist()
        indptr, indices = g.masked_csr(None)
        parent, dist, rounds = plane_sweep(g.n, indptr, indices, roots)
        for i, r in enumerate(roots):
            solo = run_bfs(g, int(r), backend="vectorized")
            assert np.array_equal(parent[i], solo.parent)
            assert np.array_equal(dist[i], solo.dist)
            assert int(rounds[i]) == solo.rounds

    @_SETTINGS
    @given(
        n=st.integers(2, 16),
        extra=st.integers(0, 20),
        seed=st.integers(0, 10_000),
    )
    def test_batch_of_one_equals_unbatched(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed=seed)
        root = int(rng_from_seed(seed).integers(n))
        for backend in ("simulator", "vectorized"):
            solo = run_bfs(g, root, backend=backend)
            (batched,) = run_bfs_batch(g, [root], backend=backend)
            assert np.array_equal(batched.parent, solo.parent)
            assert np.array_equal(batched.dist, solo.dist)
            assert batched.rounds == solo.rounds
            assert batched.children == solo.children

    @_SETTINGS
    @given(
        n=st.integers(2, 16),
        extra=st.integers(0, 20),
        seed=st.integers(0, 10_000),
    )
    def test_duplicate_queries_share_identical_rows(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed=seed)
        root = int(rng_from_seed(seed).integers(n))
        other = (root + 1) % n
        batch = run_bfs_batch(g, [root, other, root, root], backend="vectorized")
        solo = run_bfs(g, root, backend="vectorized")
        for i in (0, 2, 3):
            assert np.array_equal(batch[i].parent, solo.parent)
            assert np.array_equal(batch[i].dist, solo.dist)
            assert batch[i].rounds == solo.rounds
        assert batch[1].root == other

    def test_masked_queries(self):
        g = thick_cycle(5, 4)
        masks = random_edge_masks(g, 2, seed=7)
        batch = run_bfs_batch(g, [0, 3, 9], edge_mask=masks[0], backend="vectorized")
        for r, res in zip([0, 3, 9], batch):
            solo = run_bfs(g, r, edge_mask=masks[0], backend="vectorized")
            assert np.array_equal(res.parent, solo.parent)
            assert np.array_equal(res.dist, solo.dist)
            assert res.rounds == solo.rounds

    def test_chunked_plane_equals_resident_plane(self):
        g = thick_cycle(6, 3)
        indptr, indices = g.masked_csr(None)
        roots = list(range(g.n)) * 2
        full = plane_sweep(g.n, indptr, indices, roots)
        tiny = plane_sweep(g.n, indptr, indices, roots, max_cells=2 * g.n)
        for a, b in zip(full, tiny):
            assert np.array_equal(a, b)

    def test_forced_spmv_layers_match_gather(self):
        g = thick_cycle(8, 4)
        indptr, indices = g.masked_csr(None)
        roots = [0, 5, 17, 5]
        base = plane_sweep(g.n, indptr, indices, roots)
        for _tag, min_arcs, layer_arcs in gate_settings(indptr, indices, base[1]):
            with spmv_gates(min_arcs, layer_arcs):
                parent, dist, rounds = plane_sweep(g.n, indptr, indices, roots)
            assert np.array_equal(dist, base[1])
            assert np.array_equal(rounds, base[2])
            for q, r in enumerate(roots):
                ref = kernels.tree_parents(g.n, indptr, indices, dist[q], r)
                assert np.array_equal(parent[q], ref)


    def test_mixed_gates_on_wide_host(self):
        """Wide host: the mixed gate sends the widest plane layer through
        SpMV and gathers the rest, per query the smallest-neighbour rule."""
        g = thick_cycle(40, 30)
        indptr, indices = g.masked_csr(None)
        roots = [0, 7, 600]
        dists = plane_sweep(g.n, indptr, indices, roots)[1]
        for _tag, min_arcs, layer_arcs in gate_settings(indptr, indices, dists):
            with spmv_gates(min_arcs, layer_arcs):
                parent, dist, _rounds = plane_sweep(g.n, indptr, indices, roots)
            for q, r in enumerate(roots):
                ref = kernels.tree_parents(g.n, indptr, indices, dist[q], r)
                assert np.array_equal(parent[q], ref)


class TestPlaneEdges:
    def test_single_node_graph(self):
        g = Graph(1, [])
        for backend in ("simulator", "vectorized"):
            (res,) = run_bfs_batch(g, [0], backend=backend)
            assert res.parent.tolist() == [0]
            assert res.dist.tolist() == [0]
            assert res.rounds == 0
        indptr, indices = g.masked_csr(None)
        parent, dist, rounds = plane_sweep(1, indptr, indices, [0, 0, 0])
        assert parent.shape == (3, 1) and rounds.tolist() == [0, 0, 0]

    def test_empty_batch(self):
        g = thick_cycle(3, 3)
        assert run_bfs_batch(g, [], backend="vectorized") == []
        assert run_bfs_batch(g, [], backend="simulator") == []

    def test_root_out_of_range_rejected(self):
        g = thick_cycle(3, 3)
        indptr, indices = g.masked_csr(None)
        with pytest.raises(ValidationError):
            QueryPlane(g.n, indptr, indices, [0, g.n])
        with pytest.raises(ValidationError):
            run_bfs_batch(g, [0, -1], backend="vectorized")

    def test_seed_discipline(self):
        g = thick_cycle(3, 3)
        indptr, indices = g.masked_csr(None)
        plane = QueryPlane(g.n, indptr, indices, [0, 1], seeds=[3, 9])
        streams = plane.rng_streams()
        assert [s.integers(1 << 30) for s in streams] == [
            rng_from_seed(3).integers(1 << 30),
            rng_from_seed(9).integers(1 << 30),
        ]
        with pytest.raises(ValidationError):
            QueryPlane(g.n, indptr, indices, [0, 1], seeds=[3])
        with pytest.raises(ValidationError):
            QueryPlane(g.n, indptr, indices, [0, 1]).rng_streams()

    @_SETTINGS
    @given(
        n=st.integers(1, 14),
        extra=st.integers(0, 12),
        seed=st.integers(0, 10_000),
    )
    def test_all_queries_dead_on_round_0_total_loss(self, n, extra, seed):
        """Under ``drop_rate=1.0`` every query's flood dies on round 0: the
        grid must report bare-root forests, one round of wholly dropped
        announces (zero for portless roots), and the exact post-draw RNG
        states — bit-identical to the solo calls on both backends."""
        g = random_connected_graph(n, extra, seed=seed) if n > 1 else Graph(1, [])
        rng = rng_from_seed(seed)
        roots = rng.integers(0, n, size=4).tolist()
        fault_seeds = rng.integers(0, 16, size=4).tolist()
        plan = FaultPlan(drop_rate=1.0)
        sim = faulty_bfs_grid(
            g, roots, plan=plan, fault_seeds=fault_seeds, backend="simulator"
        )
        vec = faulty_bfs_grid(
            g, roots, plan=plan, fault_seeds=fault_seeds, backend="vectorized"
        )
        for r, a, b in zip(roots, sim, vec):
            deg = int(g.degrees()[r])
            for o in (a, b):
                assert (o.result.dist >= 0).sum() == 1  # the bare root
                assert o.result.rounds == (1 if deg else 0)
                assert o.dropped == deg
            assert np.array_equal(a.result.parent, b.result.parent)
            assert np.array_equal(a.result.dist, b.result.dist)
            assert a.fault_rng_state == b.fault_rng_state


class TestMaskedUnionPlane:
    def test_overlapping_masks_across_groups(self):
        g = thick_cycle(4, 4)
        masks = random_edge_masks(g, 2, seed=5)
        # same masks twice: groups overlap each other but not internally
        results = masked_union_bfs(
            g, masks + masks, [0, 1, 0, 1], group_sizes=[2, 2]
        )
        for mask, root, res in zip(masks + masks, [0, 1, 0, 1], results):
            solo = run_bfs(g, root, edge_mask=mask, backend="vectorized")
            assert np.array_equal(res.parent, solo.parent)
            assert np.array_equal(res.dist, solo.dist)
            assert res.rounds == solo.rounds

    def test_shape_validation(self):
        g = thick_cycle(3, 3)
        masks = random_edge_masks(g, 2, seed=1)
        with pytest.raises(ValidationError):
            masked_union_bfs(g, masks, [0])
        with pytest.raises(ValidationError):
            masked_union_bfs(g, masks, [0, g.n])
        with pytest.raises(ValidationError):
            masked_union_bfs(g, masks, [0, 1], group_sizes=[3])


class TestBatchChecksDeterministic:
    """Deterministic anchors of the new verify.py checks on a packing host."""

    def test_bfs_batch_check(self):
        g = thick_cycle(6, 4)
        assert check_bfs_batch(g, [0, 7, 0, 13]) == []
        masks = random_edge_masks(g, 2, seed=2)
        assert check_bfs_batch(g, [0, 7], edge_mask=masks[0]) == []

    def test_broadcast_batch_check(self):
        g = thick_cycle(5, 4)
        assert check_broadcast_batch(g, 8, seed=3) == []

    def test_packing_candidates_check(self):
        g = thick_cycle(5, 4)
        assert check_packing_candidates(g, 2, seed=4) == []

    def test_fault_grid_check(self):
        g = thick_cycle(5, 4)
        assert check_fault_grid(g, 6, seed=5, parts=2) == []
