"""Tests for exact edge connectivity, minimum cuts, and Stoer–Wagner."""

import numpy as np
import pytest

import networkx as nx

from repro.graphs import (
    Graph,
    barbell,
    complete_graph,
    cycle_graph,
    edge_connectivity,
    hypercube,
    local_edge_connectivity,
    min_cut,
    path_graph,
    path_of_cliques,
    random_regular,
    stoer_wagner,
    thick_cycle,
    torus_grid,
)
from repro.graphs.connectivity import greedy_dominating_set
from repro.util.errors import ValidationError


class TestEdgeConnectivity:
    def test_known_families(self):
        assert edge_connectivity(complete_graph(6)) == 5
        assert edge_connectivity(cycle_graph(7)) == 2
        assert edge_connectivity(path_graph(5)) == 1
        assert edge_connectivity(hypercube(4)) == 4

    def test_barbell_is_one(self):
        assert edge_connectivity(barbell(6, bridge_len=2)) == 1

    def test_path_of_cliques_equals_bridge_width(self):
        for w in (1, 2, 4):
            g = path_of_cliques(3, 6, w)
            assert edge_connectivity(g) == w

    def test_thick_cycle(self):
        g = thick_cycle(8, 3)
        assert edge_connectivity(g) == 6  # 2 * group_size

    def test_random_regular_lambda_equals_d(self):
        for d, seed in ((4, 1), (6, 2), (8, 3)):
            g = random_regular(48, d, seed=seed)
            assert edge_connectivity(g) == d

    def test_matches_networkx(self):
        for seed in range(3):
            g = random_regular(36, 5, seed=seed) if seed != 1 else barbell(7)
            assert edge_connectivity(g) == nx.edge_connectivity(g.to_networkx())

    def test_disconnected_is_zero(self):
        assert edge_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0

    def test_single_node(self):
        assert edge_connectivity(Graph(1, [])) == 0

    def test_star_dominating_set_edge_case(self):
        # Star: greedy dominating set is just the hub.
        from repro.graphs import star_graph

        assert edge_connectivity(star_graph(8)) == 1


class TestLocalConnectivity:
    def test_scipy_matches_reference(self):
        g = random_regular(30, 4, seed=9)
        for s, t in ((0, 15), (3, 29), (7, 8)):
            fast = local_edge_connectivity(g, s, t, method="scipy")
            ref = local_edge_connectivity(g, s, t, method="reference")
            assert fast == ref

    def test_cutoff_truncates(self):
        g = complete_graph(8)
        assert local_edge_connectivity(g, 0, 1, cutoff=3, method="reference") == 3

    def test_same_node_raises(self):
        with pytest.raises(ValidationError):
            local_edge_connectivity(complete_graph(3), 1, 1)

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            local_edge_connectivity(complete_graph(3), 0, 1, method="magic")


class TestMinCut:
    def test_cut_size_equals_lambda(self):
        g = random_regular(40, 5, seed=4)
        side, cut = min_cut(g)
        assert len(cut) == edge_connectivity(g)

    def test_cut_edges_actually_cross(self):
        g = path_of_cliques(3, 5, 2)
        side, cut = min_cut(g)
        for eid in cut.tolist():
            u, v = g.edge_endpoints(eid)
            assert side[u] != side[v]

    def test_nontrivial_sides(self):
        g = barbell(6, bridge_len=2)
        side, cut = min_cut(g)
        assert len(cut) == 1
        assert 0 < side.sum() < g.n

    def test_single_node_raises(self):
        with pytest.raises(ValidationError):
            min_cut(Graph(1, []))


class TestDominatingSet:
    def test_dominates(self):
        g = random_regular(50, 6, seed=21)
        dom = greedy_dominating_set(g)
        covered = np.zeros(g.n, dtype=bool)
        for v in dom:
            covered[v] = True
            covered[g.neighbors(v)] = True
        assert covered.all()

    def test_smaller_than_n_for_dense(self):
        g = complete_graph(20)
        assert len(greedy_dominating_set(g)) == 1

    @pytest.mark.parametrize(
        "g",
        [torus_grid(20, 20), hypercube(8), thick_cycle(20, 10),
         random_regular(300, 12, seed=2), path_of_cliques(5, 20, 3)],
        ids=["torus", "hypercube", "thick", "regular", "cliques"],
    )
    def test_greedy_size_bound(self, g):
        # The max-coverage greedy meets n(1 + ln(δ+1))/(δ+1); a static
        # degree-order scan keeps 90 % of a torus and half a hypercube.
        dom = greedy_dominating_set(g)
        delta = g.min_degree()
        assert len(dom) <= g.n * (1 + np.log(delta + 1)) / (delta + 1)
        assert dom[0] == int(np.argmax(g.degrees()))
        assert len(set(dom)) == len(dom)


class TestMatulaReference:
    @pytest.mark.parametrize(
        "g", [path_of_cliques(3, 6, 2), barbell(5, bridge_len=2), hypercube(4)]
    )
    def test_reference_flows_agree(self, g):
        assert edge_connectivity(g, method="reference") == edge_connectivity(g)


class TestStoerWagner:
    def test_matches_lambda_unweighted(self):
        g = random_regular(24, 4, seed=6)
        val, side = stoer_wagner(g)
        assert val == edge_connectivity(g)
        assert 0 < side.sum() < g.n

    def test_weighted_planted_cut(self):
        # Two triangles joined by one light edge: min cut = that edge.
        g = Graph(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            weights=[10, 10, 10, 10, 10, 10, 0.5],
        )
        val, side = stoer_wagner(g)
        assert val == pytest.approx(0.5)
        assert sorted(np.nonzero(side)[0].tolist()) in ([0, 1, 2], [3, 4, 5])

    def test_matches_networkx_weighted(self):
        from repro.graphs import random_weights

        g = random_weights(random_regular(18, 4, seed=2), seed=3)
        val, _ = stoer_wagner(g)
        nx_val, _ = nx.stoer_wagner(g.to_networkx())
        assert val == pytest.approx(nx_val)
