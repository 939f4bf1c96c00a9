"""Multi-query frontier planes: one sweep answering batches of BFS queries.

Every vectorized entry point used to serve exactly one (root, channel-set)
configuration per call, so grid workloads — E16 adversary sweeps, packing
retries, λ-search guesses, the E17 tournament — paid the whole per-call
dispatch price once per cell. This module packs many independent queries
into one array plane and lets the engine's single BFS layer loop
(:mod:`repro.engine.kernels`) amortize all of it, the minibatch idiom of
graph samplers applied to the CONGEST engine.

Two batching shapes cover every caller:

* :func:`plane_sweep` — Q queries over **one shared CSR** (same
  channel-set, different roots). The ``(Q, n)`` ``parent``/``dist`` output
  planes are the layer loop's working arrays: node ``v`` of query ``q``
  has the flat key ``q·n + v``, visited means ``dist ≥ 0``, and one masked
  gather — or, on wide layers, one boolean SpMV of the ``(Q, n)`` frontier
  matrix against the shared adjacency — expands every live query's
  frontier per layer.

* :func:`masked_union_bfs` — queries with **heterogeneous channel-sets**
  (parallel-BFS channels, packing attempts, λ-search iterations). Each
  query's masked subgraph is laid out on its own node block of one big
  CSR and a single :func:`~repro.engine.kernels.frontier_sweep` serves all
  blocks on a shared layer clock; masks of *different* groups need not be
  disjoint.

**Bit-identity contract.** Each query's outputs equal its standalone run,
element for element. The layer loop stable-sorts fresh candidates by their
flat key and adopts the first occurrence per (query, node) — arcs
enumerate the sorted frontier in order, so that first arc comes from the
**smallest** previous-layer neighbor, the exact
:func:`~repro.engine.kernels.tree_parents` adoption rule of the solo
sweeps.

Per-layer working memory is bounded by chunking query rows:
:func:`plane_sweep` sweeps at most :data:`_PLANE_MAX_CELLS` (query × node)
cells at a time, writing each chunk straight into its output rows, so
the layer loop's candidate arrays and SpMV frontier matrix stay bounded
for batch sizes far beyond that budget.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.engine.kernels import _sweep, frontier_sweep
from repro.util.errors import ValidationError

__all__ = ["masked_union_bfs", "plane_sweep"]

# One chunk sweeps at most 2^24 (query × node) cells, bounding the layer
# loop's per-chunk candidate arrays and SpMV frontier matrix.
_PLANE_MAX_CELLS = 1 << 24


def plane_sweep(
    n: int, indptr: np.ndarray, indices: np.ndarray, roots
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched BFS over one shared CSR: ``(parent, dist, rounds)`` planes.

    ``parent``/``dist`` have shape ``(Q, n)``; row ``i`` is bit-identical
    to ``frontier_sweep(n, indptr, indices, roots[i])`` and ``rounds[i]``
    to the solo round count of ``vectorized_bfs`` (depth + 1 when the root
    has a usable port — the final round delivers the deepest layer's
    notifications — else 0). Query rows are swept in chunks of at most
    ``_PLANE_MAX_CELLS // n`` rows, each straight into its output rows.
    """
    roots = np.atleast_1d(np.asarray(roots, dtype=np.int64))
    if roots.size and (int(roots.min()) < 0 or int(roots.max()) >= n):
        raise ValidationError("plane roots out of range")
    q = int(roots.size)
    chunk = max(1, _PLANE_MAX_CELLS // max(1, int(n)))
    obs.count("plane.queries", q)
    obs.count("plane.chunks", -(-q // chunk))
    parent = np.full((q, n), -1, dtype=np.int64)
    dist = np.full((q, n), -1, dtype=np.int64)
    for lo in range(0, q, chunk):
        sub = roots[lo : lo + chunk]
        keys = np.arange(sub.size, dtype=np.int64) * n + sub  # sorted
        flat_parent = parent[lo : lo + sub.size].reshape(-1)  # views
        flat_dist = dist[lo : lo + sub.size].reshape(-1)
        flat_dist[keys] = 0
        _sweep(n, indptr, indices, keys, flat_dist, flat_parent)
        flat_parent[keys] = sub
    has_port = indptr[roots + 1] > indptr[roots]
    rounds = np.where(has_port, dist.max(axis=1, initial=0) + 1, 0)
    if obs.enabled():  # occupancy is an O(Q·n) pass: only when traced
        obs.count("plane.occupied_cells", int(np.count_nonzero(dist >= 0)))
        obs.count("plane.cells", q * n)
    return parent, dist, rounds


def masked_union_bfs(graph, masks, roots, group_sizes=None) -> list:
    """BFS every ``(edge_mask, root)`` channel query in one union sweep.

    ``group_sizes`` partitions ``masks`` into consecutive groups that are
    internally pairwise disjoint (one group per packing attempt or
    λ-search iteration, or a single group holding every channel of
    ``run_parallel_bfs``; default: every mask its own group). Masks of
    different groups may overlap. Each group's CSRs are built with the
    fused one-gather builder, every channel subgraph is laid out on its
    own node block ``[c·n, (c+1)·n)`` of one big CSR, and a single
    multi-root :func:`frontier_sweep` serves all blocks — blocks are
    disconnected, so overlapping masks never meet and each block's sweep
    proceeds exactly as its solo sweep would.

    Returns one :class:`~repro.primitives.bfs.BFSResult` per mask,
    bit-identical to ``run_bfs(graph, root, edge_mask=mask,
    backend="vectorized")`` (solo round accounting included).
    """
    from repro.primitives.bfs import BFSResult

    c = len(masks)
    if len(roots) != c:
        raise ValidationError("masked_union_bfs: one root per mask required")
    n = graph.n
    roots_local = np.asarray(roots, dtype=np.int64)
    if c and (int(roots_local.min()) < 0 or int(roots_local.max()) >= n):
        raise ValidationError("masked_union_bfs: root out of range")
    if group_sizes is None:
        group_sizes = [1] * c
    if sum(group_sizes) != c:
        raise ValidationError("group_sizes must partition the mask list")
    csrs = []
    i = 0
    for gs in group_sizes:
        if gs == 1:
            csrs.append(graph.masked_csr(masks[i]))
        else:
            csrs.extend(graph.disjoint_masked_csrs(list(masks[i : i + gs])))
        i += gs
    # Shift each channel's neighbor ids into its node block, writing
    # straight into the union array (no per-channel temporaries).
    big_indptr = np.empty(c * n + 1, dtype=np.int64)
    big_indptr[0] = 0
    big_indices = np.empty(sum(int(ind.size) for _iptr, ind in csrs), dtype=np.int64)
    pos = 0
    for ci, (iptr, ind) in enumerate(csrs):
        np.add(iptr[1:], pos, out=big_indptr[ci * n + 1 : (ci + 1) * n + 1])
        np.add(ind, ci * n, out=big_indices[pos : pos + ind.size])
        pos += int(ind.size)
    roots_arr = roots_local + np.arange(c, dtype=np.int64) * n
    parent, dist = frontier_sweep(c * n, big_indptr, big_indices, roots_arr)
    results = []
    for ci, (iptr, _ind) in enumerate(csrs):
        off = ci * n
        pb = parent[off : off + n]
        rt = int(roots_local[ci])
        dc = dist[off : off + n]
        rnd = int(dc.max()) + 1 if int(iptr[rt + 1]) > int(iptr[rt]) else 0
        results.append(
            BFSResult(
                root=rt,
                parent=np.where(pb >= 0, pb - off, pb),
                dist=dc,
                children=None,  # derived lazily from parent — identical lists
                rounds=rnd,
            )
        )
    return results
