"""Output checks that do not trust the code under test.

BFS trees are checked against ``scipy.sparse.csgraph.shortest_path`` for
distances and against the documented adoption rule for parents: every
reached non-root node's parent is its smallest neighbour one layer closer
to the root. Batched and grid results are compared element-wise with the
solo call they claim to equal. Each check returns a list of failure
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


class BfsOracle:
    """Reference BFS trees over one (optionally edge-masked) graph.

    The adjacency is built once from the graph's edge list with scipy and
    its rows sorted, so the first previous-layer arc of a row is that
    node's smallest previous-layer neighbour.
    """

    def __init__(self, graph, edge_mask=None):
        u, v = graph.edge_u, graph.edge_v
        if edge_mask is not None:
            keep = np.asarray(edge_mask, dtype=bool)
            u, v = u[keep], v[keep]
        n = self.n = graph.n
        a = np.concatenate([u, v]).astype(np.int64)
        b = np.concatenate([v, u]).astype(np.int64)
        adj = csr_matrix((np.ones(a.size, dtype=np.int8), (a, b)), shape=(n, n))
        adj.sum_duplicates()
        adj.sort_indices()
        self.adj = adj
        self.rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
        self.cols = adj.indices.astype(np.int64)

    def reference(self, root: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dist, parent)`` of a BFS from ``root`` (-1 = unreached)."""
        d = shortest_path(self.adj, unweighted=True, indices=[root])[0]
        dist = np.where(np.isinf(d), -1, d).astype(np.int64)
        dr = dist[self.rows]
        prev = np.flatnonzero((dr > 0) & (dist[self.cols] == dr - 1))
        parent = np.full(self.n, -1, dtype=np.int64)
        if prev.size:
            rows = self.rows[prev]
            first = np.ones(prev.size, dtype=bool)
            first[1:] = rows[1:] != rows[:-1]
            parent[rows[first]] = self.cols[prev[first]]
        parent[root] = root
        return dist, parent

    def check(self, root, parent, dist, label: str) -> list[str]:
        """``dist`` and ``parent`` of one BFS tree against the reference."""
        ref_dist, ref_parent = self.reference(int(root))
        out = []
        bad = np.flatnonzero(np.asarray(dist) != ref_dist)
        if bad.size:
            v = int(bad[0])
            out.append(f"{label}: {bad.size} dist entries differ from shortest_path "
                       f"(node {v}: {int(dist[v])} vs {int(ref_dist[v])})")
        bad = np.flatnonzero(np.asarray(parent) != ref_parent)
        if bad.size:
            v = int(bad[0])
            out.append(f"{label}: {bad.size} parents break the smallest "
                       f"previous-layer-neighbour rule (node {v}: {int(parent[v])} "
                       f"vs {int(ref_parent[v])})")
        return out


def check_bfs_tree(graph, root, parent, dist, label: str, edge_mask=None) -> list[str]:
    """One-off :meth:`BfsOracle.check` of a single tree."""
    return BfsOracle(graph, edge_mask).check(root, parent, dist, label)


def check_packing_trees(graph, packing, label: str) -> list[str]:
    """Every packed tree is a correct BFS tree of its colour class."""
    out = []
    masks = packing.class_masks or [None] * packing.size
    for i, (tree, mask) in enumerate(zip(packing.trees, masks)):
        out += check_bfs_tree(graph, tree.root, tree.parent, tree.depth_of,
                              f"{label}.tree[{i}]", edge_mask=mask)
    return out


def check_broadcast(res, n: int, k: int, label: str) -> list[str]:
    """Certified-ledger sanity of one :class:`BroadcastResult`.

    Delivery, ``rounds == sum(phases)`` and the sizes it reports.
    """
    out = []
    if not res.delivered:
        out.append(f"{label}: delivered is False")
    if res.rounds != sum(res.phases.values()):
        out.append(f"{label}: rounds {res.rounds} != sum(phases) {sum(res.phases.values())}")
    if (res.n, res.k) != (n, k) or res.parts < 1:
        out.append(f"{label}: reports n={res.n} k={res.k} parts={res.parts}, "
                   f"expected n={n} k={k} parts>=1")
    return out


def diff_fields(a, b, fields, label: str) -> list[str]:
    """Field-wise equality of two result objects (arrays compared exactly)."""
    out = []
    for f in fields:
        x, y = getattr(a, f), getattr(b, f)
        same = (np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray)
                else x == y)
        if not same:
            out.append(f"{label}: {f} differs")
    return out


BFS_FIELDS = ("root", "parent", "dist", "rounds", "children")
BROADCAST_FIELDS = ("algorithm", "n", "k", "parts", "phases", "max_congestion",
                    "packing_max_depth", "delivered")
REPORT_FIELDS = ("k", "redundancy", "rounds", "dropped_messages", "per_message_coverage",
                 "receipts", "fault_rng_state", "total_messages", "total_bits")


def diff_faulty_bfs(a, b, label: str) -> list[str]:
    out = diff_fields(a.result, b.result, BFS_FIELDS, label)
    if a.dropped != b.dropped:
        out.append(f"{label}: dropped {a.dropped} vs {b.dropped}")
    if a.fault_rng_state != b.fault_rng_state:
        out.append(f"{label}: fault RNG states differ")
    return out


def diff_packings(a, b, label: str) -> list[str]:
    out = []
    if a.size != b.size or a.construction_rounds != b.construction_rounds:
        out.append(f"{label}: size/rounds {a.size}/{a.construction_rounds} "
                   f"vs {b.size}/{b.construction_rounds}")
        return out
    for i, (x, y) in enumerate(zip(a.trees, b.trees)):
        out += diff_fields(x, y, ("root", "parent", "depth_of"), f"{label}.tree[{i}]")
    return out
