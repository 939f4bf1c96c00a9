"""Shared array kernels for the vectorized backend: CSR builders, the
boolean SpMV frontier sweep, and the event-batched span algebra.

Two primitives collapse the O(rounds) Python loops of
:mod:`repro.engine.fastpath` and :mod:`repro.engine.faults` into
O(events) numpy steps:

* **Frontier sweeps as boolean SpMV** — :func:`frontier_sweep` runs one
  BFS layer loop over the Graph CSR arrays. A wide layer advances as one
  ``(1 × n) @ (n × n)`` boolean sparse matvec (:mod:`scipy.sparse`, a
  hard dependency); a narrow layer, or any layer of a small subgraph,
  advances by a numpy gather. Parents are adopted inline as each layer
  lands; :func:`tree_parents` is the whole-array reference the verify
  sweep cross-checks.

* **Event-batched span stepping** — between queue-drain events the
  pipelined-broadcast recurrence is closed-form, so
  :func:`upcast_spans` advances the Lemma 1 upcast one *tree layer* at a
  time instead of one *round* at a time: per layer, child send intervals
  are overlaid into arrival-rate spans (:func:`_overlay_spans`) and the
  work-conserving unit-rate queues are folded with a segmented max-plus
  scan (:func:`_busy_scan`). Total work is O((n + events) · depth-layers)
  with no per-round Python iteration.

No caller picks between span and per-round stepping. The fault-free
pipelined broadcast accepts only BFS-layered trees and always takes
:func:`upcast_spans`; :func:`upcast_rounds` survives solely as the
per-round reference the verify sweep expands the spans against. The
fault engine (:mod:`repro.engine.faults`) decides from its input: span
paths need a BFS layering, ``drop_rate ∈ {0, 1}`` with no mobile set
where the closed form requires it, and a memory guard; any other input
runs a private per-round replay. Span and replay are **bit-identical**
wherever both apply (same rounds, bits, receipts, drops and fault-RNG
consumption); the verify sweep calls the replays directly to enforce it.

Exactness of the batch-at-start model used throughout: an arrival span
of rate ``ρ ≥ 1`` over rounds ``[a, b]`` delivers item ``i`` at
``a + ⌊i/ρ⌋``; a unit-rate server that starts the span at round
``max(prev_finish + 1, a)`` sends item ``i`` no earlier than ``a + i ≥
a + ⌊i/ρ⌋``, so availability never binds mid-span and the whole span
behaves exactly like a batch of ``ρ·(b−a+1)`` items landing at ``a``.
Overlay rates are counts of concurrently-busy children, hence always
``≥ 1``.
"""

from __future__ import annotations

import numpy as np

from repro import obs

__all__ = [
    "children_csr",
    "children_lists",
    "expand_csr_rows",
    "frontier_sweep",
    "in_sorted",
    "last_send_round_spans",
    "lists_to_csr",
    "tree_parents",
    "upcast_rounds",
    "upcast_spans",
]


# --------------------------------------------------------------------------- #
# CSR builders shared by fastpath / faults / broadcast call sites
# --------------------------------------------------------------------------- #

def expand_csr_rows(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat slot indices of all CSR adjacency entries of ``rows``.

    Returns ``(sel, counts, offs)``: ``sel`` indexes the CSR data array with
    each row's block contiguous in row order, ``counts`` is the per-row
    block length, and ``offs`` the within-block rank of each entry. Shared
    by every whole-frontier sweep in the engine.
    """
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    base = np.repeat(indptr[rows], counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return base + offs, counts, offs


def in_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in the sorted array ``table``."""
    if table.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(table, values), table.size - 1)
    return table[pos] == values


def children_csr(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, child_ids)`` of a parent array, children ascending.

    Self-parents (roots) and ``-1`` (unreached) contribute no children;
    each child block is sorted ascending — the canonical order every
    simulator tree uses (ports are numbered by neighbor id).
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    kids = np.nonzero((parent >= 0) & (parent != np.arange(n)))[0]
    order = np.argsort(parent[kids], kind="stable")  # kids already ascending
    kids = kids[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent[kids], minlength=n), out=indptr[1:])
    return indptr, kids


def children_lists(parent: np.ndarray) -> list[list[int]]:
    """Per-node sorted child lists from a parent array (canonical order)."""
    indptr, kids = children_csr(parent)
    flat = kids.tolist()
    bounds = indptr.tolist()
    return [flat[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]


def lists_to_csr(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, flat)`` of a ragged list-of-lists of ints."""
    counts = np.fromiter(
        (len(block) for block in lists), dtype=np.int64, count=len(lists)
    )
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    flat = np.fromiter(
        (v for block in lists for v in block), dtype=np.int64, count=total
    )
    return indptr, flat


# --------------------------------------------------------------------------- #
# Boolean CSR SpMV frontier kernel
# --------------------------------------------------------------------------- #

# Below this many CSR arcs the csr_matrix construction dominates the sweep;
# verify checks drop it to 0 to exercise the SpMV path on tiny graphs.
_SPMV_MIN_ARCS = 2048

# Per-layer gate: a sparse-sparse matvec costs ~300µs of scipy object
# construction regardless of size, which a deep narrow graph would pay
# once per layer; below this many frontier out-arcs the numpy gather wins.
_SPMV_LAYER_ARCS = 32768


def _spmv_layer(
    sp,
    adj,
    indptr: np.ndarray,
    indices: np.ndarray,
    dist: np.ndarray,
    parent: np.ndarray,
    frontier: np.ndarray,
    d: int,
) -> np.ndarray:
    """One boolean-matvec layer step: returns the sorted fresh layer and
    adopts its parents in place.

    The matvec only yields the candidate set, whose ``indices`` scipy does
    not promise to sort; the fresh layer is sorted here because the next
    gather step's first-occurrence rule needs a sorted frontier. Parents
    come from scanning each fresh node's own CSR row for its first
    (= smallest-id) neighbor at depth ``d``. ``sp`` is the
    :mod:`scipy.sparse` module that :func:`frontier_sweep` loaded.
    """
    n = dist.size
    x = sp.csr_matrix(
        (
            np.ones(frontier.size, dtype=bool),
            (np.zeros(frontier.size, dtype=np.int64), frontier),
        ),
        shape=(1, n),
    )
    cand = (x @ adj).indices.astype(np.int64, copy=False)
    fresh = np.sort(cand[dist[cand] < 0])
    if not fresh.size:
        return fresh
    fsel, fcounts, _offs = expand_csr_rows(indptr, fresh)
    nb = indices[fsel]
    good = np.flatnonzero(dist[nb] == d)  # fresh rows still hold -1
    rows = np.repeat(np.arange(fresh.size, dtype=np.int64), fcounts)[good]
    first = np.empty(good.size, dtype=bool)
    first[0] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    parent[fresh[rows[first]]] = nb[good[first]]
    return fresh


def _advance_layer(
    indptr: np.ndarray,
    indices: np.ndarray,
    dist: np.ndarray,
    parent: np.ndarray,
    frontier: np.ndarray,
) -> np.ndarray:
    """One gather layer step: returns the sorted fresh layer and adopts
    its parents in place.

    Filtering visited candidates *before* the sort discards most of a
    layered graph's candidates ahead of the O(c log c) work. The stable
    argsort keeps arc order within ties, and arcs enumerate the (sorted)
    frontier in order — so the first occurrence of each fresh node pairs
    it with its **smallest** previous-layer neighbor, exactly the
    :func:`tree_parents` adoption rule, with no whole-graph pass.
    """
    sel, counts, _offs = expand_csr_rows(indptr, frontier)
    if sel.size == 0:
        return np.empty(0, dtype=np.int64)
    cand = indices[sel]
    unv = dist[cand] < 0
    cand = cand[unv]
    if cand.size == 0:
        return cand
    src = np.repeat(frontier, counts)[unv]
    order = np.argsort(cand, kind="stable")
    cand = cand[order]
    first = np.empty(cand.size, dtype=bool)
    first[0] = True
    np.not_equal(cand[1:], cand[:-1], out=first[1:])
    fresh = cand[first]
    parent[fresh] = src[order[first]]
    return fresh


def tree_parents(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    dist: np.ndarray,
    root: int | np.ndarray,
) -> np.ndarray:
    """BFS-tree parents from distances, in one whole-array pass.

    Every reached non-root node adopts its **smallest** neighbor in the
    previous layer — exactly the simulator's first-port adoption, since
    ports are numbered in neighbor-id order and all previous-layer
    neighbors announce in the same round. CSR rows keep neighbors
    ascending, so the *first* valid arc of each row is that smallest
    neighbor; one mask + first-occurrence diff finds every adoption
    without per-row reductions (``minimum.reduceat`` / ``minimum.at``
    both degrade badly once the row count reaches the hundreds of
    thousands).

    ``root`` may be a single node or an array of roots — one per
    connected component, as in the disjoint-union sweep of
    ``vectorized_parallel_bfs``.
    """
    deg = np.diff(indptr)
    rows_all = np.repeat(np.arange(n, dtype=np.int64), deg)
    dv = dist[rows_all]
    ok_idx = np.flatnonzero((dv > 0) & (dist[indices] == dv - 1))
    parent = np.full(n, -1, dtype=np.int64)
    if ok_idx.size:
        rows = rows_all[ok_idx]  # non-decreasing: CSR arc order
        first = np.empty(ok_idx.size, dtype=bool)
        first[0] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        parent[rows[first]] = indices[ok_idx[first]]
    parent[root] = root
    return parent


def frontier_sweep(
    n: int, indptr: np.ndarray, indices: np.ndarray, root: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """BFS ``(parent, dist)`` over a CSR subgraph, SpMV-accelerated.

    One layer loop: a layer advances by boolean sparse matvec when the
    subgraph clears :data:`_SPMV_MIN_ARCS` and the layer's frontier has at
    least :data:`_SPMV_LAYER_ARCS` out-arcs, and by a numpy gather
    otherwise. Both steps yield the same sorted layer and the same
    parents, so the gates only move the wall clock.

    ``root`` may be a single node or a sorted array of roots lying in
    pairwise-disconnected components (the disjoint-union batching of
    ``vectorized_parallel_bfs``): each component's sweep proceeds exactly
    as a solo sweep from its root would, on one shared layer clock.

    Parents are adopted inline as each layer lands (the candidate gather
    the dedup already pays carries the source of every arc), avoiding
    :func:`tree_parents`'s whole-graph ``dist`` gather — that function
    stays as the reference the verify sweep cross-checks against.
    """
    roots = np.atleast_1d(np.asarray(root, dtype=np.int64))
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[roots] = 0
    spmv_ok = indices.size >= _SPMV_MIN_ARCS
    adj = None
    frontier = roots
    d = 0
    while frontier.size:
        obs.count("kernels.frontier_nodes", frontier.size)
        obs.count("kernels.frontier_peak", frontier.size, "max")
        if spmv_ok and int(
            (indptr[frontier + 1] - indptr[frontier]).sum()
        ) >= _SPMV_LAYER_ARCS:
            obs.count("kernels.spmv_layers")
            if adj is None:  # built lazily on the first wide layer
                # scipy loads here, not at module import, so callers that
                # never sweep a wide layer (the simulator backend) skip it.
                import scipy.sparse as sp

                adj = sp.csr_matrix(
                    (np.ones(indices.size, dtype=bool), indices, indptr),
                    shape=(n, n),
                )
            frontier = _spmv_layer(
                sp, adj, indptr, indices, dist, parent, frontier, d
            )
        else:
            obs.count("kernels.gather_layers")
            frontier = _advance_layer(indptr, indices, dist, parent, frontier)
        if not frontier.size:
            break
        d += 1
        dist[frontier] = d
    parent[roots] = roots
    return parent, dist


# --------------------------------------------------------------------------- #
# Event-batched span algebra (Lemma 1 upcast)
# --------------------------------------------------------------------------- #

def _overlay_spans(
    p: np.ndarray, s0: np.ndarray, e0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Overlay unit-rate busy intervals into per-parent arrival spans.

    Each input interval ``[s0, e0]`` (inclusive) delivers one item per
    round to parent ``p``. Returns ``(nodes, starts, ends, rates)``:
    maximal constant-rate spans, rates ``≥ 1``, grouped by node and
    sorted by start within each node.
    """
    if p.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    ones = np.ones(p.size, dtype=np.int64)
    ev_p = np.concatenate([p, p])
    ev_r = np.concatenate([s0, e0 + 1])
    ev_d = np.concatenate([ones, -ones])
    order = np.lexsort((ev_r, ev_p))
    ev_p = ev_p[order]
    ev_r = ev_r[order]
    # Per-parent deltas sum to zero, so the plain cumulative sum carries no
    # residue across parent blocks — no segmented reset needed.
    rate = np.cumsum(ev_d[order])
    last = np.empty(ev_p.size, dtype=bool)
    last[-1] = True
    last[:-1] = (ev_p[1:] != ev_p[:-1]) | (ev_r[1:] != ev_r[:-1])
    ev_p = ev_p[last]
    ev_r = ev_r[last]
    rate = rate[last]
    # A span [r_i, r_{i+1} - 1] exists wherever the running rate is positive
    # and the next event belongs to the same parent (a block's final event
    # always has rate 0: every interval closed).
    same = np.zeros(ev_p.size, dtype=bool)
    same[:-1] = ev_p[1:] == ev_p[:-1]
    keep = same & (rate > 0)
    idx = np.nonzero(keep)[0]
    return ev_p[idx], ev_r[idx], ev_r[idx + 1] - 1, rate[idx]


def _busy_scan(
    nodes: np.ndarray, s: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Busy intervals of per-node unit-rate queues fed by batches.

    ``w[j]`` items land at node ``nodes[j]`` at round ``s[j]`` (sorted by
    ``(node, s)``, starts distinct within a node); each node sends one
    item per round while its queue is nonempty. Returns the maximal busy
    intervals ``(nodes, starts, ends)`` — exactly the node's send rounds.

    The finish-round recurrence ``f_j = max(f_{j-1}, s_j - 1) + w_j``
    folds into a segmented max-plus scan: with ``W`` the segmented
    inclusive cumsum of ``w`` and ``g_j = s_j - 1 - W_{j-1}``,
    ``f_j = W_j + max_{i ≤ j} g_i``; the segmented running max rides a
    single ``np.maximum.accumulate`` over ``seg·off + (g - gmin)`` keys.
    """
    head = np.empty(nodes.size, dtype=bool)
    head[0] = True
    head[1:] = nodes[1:] != nodes[:-1]
    seg = np.cumsum(head) - 1
    cw = np.cumsum(w)
    head_idx = np.nonzero(head)[0]
    W = cw - (cw - w)[head_idx][seg]
    g = s - 1 - (W - w)
    gmin = int(g.min())
    off = int(g.max()) - gmin + 1
    key = seg * off + (g - gmin)
    f = W + np.maximum.accumulate(key) - seg * off + gmin
    gap = head.copy()
    gap[1:] |= s[1:] > f[:-1] + 1  # f[:-1] is same-segment wherever head is False
    end = np.empty(nodes.size, dtype=bool)
    end[-1] = True
    end[:-1] = gap[1:]
    return nodes[gap], s[gap], f[end]


def upcast_spans(
    up: np.ndarray, flat_parents: np.ndarray, flat_dist: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Root arrival spans of the Lemma 1 upcast, layer-batched.

    ``up[v]`` items start queued at flat node ``v`` (roots hold 0);
    ``flat_dist`` must be a proper BFS layering (root depth 0, child
    depth = parent depth + 1 — the caller gates on this). Bottom-up, one
    iteration per tree layer: child send intervals shift by one round
    (an item received in round r is sendable in round r + 1), overlay
    into arrival spans, and merge with the layer's own batches (queued
    before round 1) through the busy scan. The final overlay onto the
    roots is **unshifted**: a root arrival in round r is the child's
    send round, matching the per-round reference's hit bookkeeping.

    Returns ``(nodes, starts, ends, rates)`` — per flat root, the rounds
    where ``rates`` children deliver simultaneously. Expanding each span
    into per-round batches reproduces :func:`upcast_rounds` exactly.
    """
    empty = np.empty(0, dtype=np.int64)
    if flat_dist.size == 0:
        return empty, empty, empty, empty
    order = np.argsort(flat_dist, kind="stable")
    maxd = int(flat_dist.max())
    bounds = np.searchsorted(flat_dist[order], np.arange(maxd + 2))
    iv_node = iv_b = iv_e = empty
    for d in range(maxd, 0, -1):
        layer = order[bounds[d] : bounds[d + 1]]
        if iv_node.size:
            anodes, astarts, aends, arates = _overlay_spans(
                flat_parents[iv_node], iv_b + 1, iv_e + 1
            )
            aw = (aends - astarts + 1) * arates
        else:
            anodes = astarts = aw = empty
        onodes = layer[up[layer] > 0]
        if onodes.size:
            nodes = np.concatenate([onodes, anodes])
            starts = np.concatenate([np.ones(onodes.size, dtype=np.int64), astarts])
            w = np.concatenate([up[onodes], aw])
        else:
            nodes, starts, w = anodes, astarts, aw
        if nodes.size == 0:
            iv_node = iv_b = iv_e = empty
            continue
        obs.count("engine.span_batches")
        obs.count("engine.spans", nodes.size)
        obs.count("engine.span_batch_peak", nodes.size, "max")
        mo = np.lexsort((starts, nodes))
        iv_node, iv_b, iv_e = _busy_scan(nodes[mo], starts[mo], w[mo])
    if iv_node.size == 0:
        return empty, empty, empty, empty
    return _overlay_spans(flat_parents[iv_node], iv_b, iv_e)


def upcast_rounds(
    up: np.ndarray, flat_parents: np.ndarray, is_root: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-round replay of the Lemma 1 upcast.

    One sparse sweep over the nonempty UP queues per round; returns the
    root arrival stream ``(flat_targets, counts, rounds)`` in hit order.
    ``up`` is not mutated. No engine path calls it: it is the bit-identity
    reference that the verify sweep checks :func:`upcast_spans` against.
    """
    up = np.asarray(up, dtype=np.int64).copy()
    active = np.nonzero(up > 0)[0]
    hit_flat: list[np.ndarray] = []
    hit_count: list[np.ndarray] = []
    hit_round: list[np.ndarray] = []
    r = 0
    while active.size:  # `active` is kept sorted and duplicate-free
        obs.count("engine.queue_rounds")
        obs.count("engine.queue_depth_peak", active.size, "max")
        up[active] -= 1  # every nonempty UP queue sends one item to its parent
        r += 1
        tgt = flat_parents[active]
        tgt.sort()
        head = np.empty(tgt.size, dtype=bool)
        head[0] = True
        np.not_equal(tgt[1:], tgt[:-1], out=head[1:])
        starts = np.nonzero(head)[0]
        targets = tgt[starts]
        counts = np.diff(starts, append=tgt.size)
        at_root = is_root[targets]
        if at_root.any():
            hit_flat.append(targets[at_root])
            hit_count.append(counts[at_root])
            hit_round.append(np.full(int(at_root.sum()), r, dtype=np.int64))
        relayed = targets[~at_root]
        up[relayed] += counts[~at_root]
        # Merge (sorted ∪ sorted): survivors of the decrement + relay targets.
        merged = np.concatenate([active[up[active] > 0], relayed])
        merged.sort()
        keep = np.empty(merged.size, dtype=bool)
        if merged.size:
            keep[0] = True
            np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        active = merged[keep]
    if hit_flat:
        return (
            np.concatenate(hit_flat),
            np.concatenate(hit_count),
            np.concatenate(hit_round),
        )
    empty = np.empty(0, dtype=np.int64)
    return empty, empty, empty


def last_send_round_spans(
    starts: np.ndarray, ends: np.ndarray, rates: np.ndarray
) -> int:
    """Last send round of a unit-rate queue fed by arrival spans.

    Span ``j`` delivers ``rates[j]`` items per round over
    ``[starts[j], ends[j]]`` (spans disjoint, sorted by start, rates
    ``≥ 1``; a rate may be 0 only for a degenerate single-round batch
    such as the root's own items at round 0 — the batch-at-start model
    is exact either way since a width-1 span has no mid-span rounds).
    The per-item recurrence ``t_i = max(a_i, t_{i-1} + 1)`` folds into
    the maximum of ``start_j + (items not yet arrived before span j)``,
    attained at span starts because the objective's slope inside a span
    is ``1 - rate ≤ 0``.
    """
    w = (ends - starts + 1) * rates
    cum_before = np.cumsum(w) - w
    total = int(cum_before[-1] + w[-1])
    return int((starts + (total - cum_before)).max()) - 1
