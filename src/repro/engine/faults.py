"""Fault-aware vectorized engine: drop masks threaded through the sweeps.

The fault-free fast path (:mod:`repro.engine.fastpath`) never materializes
messages — round counts collapse to closed forms because *no delivery can
fail*. Under a :class:`~repro.congest.adversary.FaultPlan` that shortcut is
gone: which message is on which edge in which round decides what survives,
so this module re-runs the protocols' queue dynamics round by round, but as
whole-network numpy batches instead of per-node Python state machines:

* :func:`vectorized_faulty_bfs` — the Lemma 2 flood with per-round edge
  drop masks applied to each frontier sweep (an announce that dies leaves
  the subtree to adopt later, or never);
* :func:`vectorized_faulty_broadcast` — the Lemma 1 upcast/downcast queue
  recurrence with drops at delivery time, tracking exact per-node receipt
  sets for :func:`repro.core.resilient.redundant_broadcast`.

**Bit-identical contract.** Both kernels replicate the corresponding
:class:`~repro.congest.faults.FaultySimulator` execution exactly: the same
deliveries fail, the same receipt sets result, the same round totals are
reported, and the fault RNG stream is consumed *in the simulator's delivery
order* (node id ascending, then channel, then the node's send order), so
the final RNG state matches bit for bit. This works because the simulator
activates nodes in canonical ascending order and NumPy's ``Generator.random``
consumes the PCG64 stream identically whether drawn one-by-one or batched.
The contract is enforced by :mod:`repro.engine.verify` checks
(``check_faulty_bfs``, ``check_redundant_broadcast``) in the CI sweep.

Like the fault-free engine, sends are still "bit-priced" in the sense that
faults act at delivery time only — a dropped message spent its bandwidth,
which is why :class:`DeliveryReport` drop counts agree with the simulator's
``Metrics`` (which records every send).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.congest.adversary import FaultPlan
from repro.engine.kernels import expand_csr_rows, frontier_sweep
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng

__all__ = [
    "FaultStream",
    "FaultyBFSOutcome",
    "FaultyBroadcastOutcome",
    "faulty_bfs",
    "faulty_bfs_grid",
    "vectorized_faulty_bfs",
    "vectorized_faulty_broadcast",
]


class FaultStream:
    """Applies a :class:`FaultPlan` to one round's ordered delivery batch.

    Mirrors ``FaultySimulator._deliverable`` exactly: dead edges first, then
    the round's mobile set, then one fault-RNG coin per *surviving* message,
    drawn in delivery order (batched — PCG64 draws are identical either way).
    """

    def __init__(self, graph: Graph, plan: FaultPlan, fault_seed=0):
        plan.validate_for(graph.m)
        self.rng = ensure_rng(fault_seed)
        self.rate = plan.drop_rate
        self.mobile = plan.mobile
        self.m = graph.m
        self.dead = np.zeros(graph.m, dtype=bool)
        if plan.dead_edges:
            self.dead[
                np.fromiter(plan.dead_edges, dtype=np.int64, count=len(plan.dead_edges))
            ] = True
        self.dropped = 0

    def deliver_mask(self, rnd: int, eids: np.ndarray) -> np.ndarray:
        """True where the message on ``eids[i]`` survives delivery round ``rnd``."""
        drop = self.dead[eids]
        spot = self.mobile.get(rnd)
        if spot:
            mob = np.zeros(self.m, dtype=bool)
            mob[np.fromiter(spot, dtype=np.int64, count=len(spot))] = True
            drop = drop | mob[eids]
        else:
            drop = drop.copy()
        if self.rate > 0.0:
            alive_idx = np.nonzero(~drop)[0]
            if alive_idx.size:
                obs.count("rng.fault_coins", alive_idx.size)
                coin = self.rng.random(alive_idx.size) < self.rate
                drop[alive_idx[coin]] = True
        n_dropped = int(drop.sum())
        self.dropped += n_dropped
        if n_dropped:
            obs.count("faults.dropped", n_dropped)
        return ~drop

    @property
    def rng_state(self) -> dict:
        return self.rng.bit_generator.state


def _popcount_rows(bits: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a packed uint8 matrix."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    out = np.zeros(bits.shape[0], dtype=np.int64)  # pragma: no cover - numpy<2
    for lo in range(0, bits.shape[0], 4096):
        chunk = bits[lo : lo + 4096]
        out[lo : lo + chunk.shape[0]] = np.unpackbits(chunk, axis=1).sum(
            axis=1, dtype=np.int64
        )
    return out


# --------------------------------------------------------------------------- #
# Lemma 2 under faults — BFS flood with per-round drop masks
# --------------------------------------------------------------------------- #

@dataclass
class FaultyBFSOutcome:
    """A (possibly partial) BFS forest grown under faults."""

    result: BFSResult
    dropped: int
    fault_rng_state: dict


_KIND_CHILD = 0  # canonical per-node send order: CHILD notice first,
_KIND_ANNOUNCE = 1  # then layer announces on the remaining ports ascending


def _span_faulty_bfs(
    graph: Graph,
    root: int,
    stream: FaultStream,
    edge_mask: np.ndarray | None,
    indptr: np.ndarray,
    indices: np.ndarray,
) -> FaultyBFSOutcome:
    """Closed-form faulty BFS when the only faults are dead edges.

    With no coin drops and no mobile set, the adversary is a static edge
    deletion: adoption is plain BFS on the masked graph *minus* the dead
    edges (one :func:`frontier_sweep`, no per-round loop), every surviving
    child-notice arrives (the notice rides the adoption edge, which is by
    definition alive), and the drop count is exactly one crossing per
    (dead masked edge, adopted endpoint) pair — an adopted node sends on
    *every* masked port exactly once.
    """
    n = graph.n
    if stream.dead.any():
        base = (
            np.asarray(edge_mask, dtype=bool)
            if edge_mask is not None
            else np.ones(graph.m, dtype=bool)
        )
        pindptr, pindices = graph.masked_csr(base & ~stream.dead)
    else:
        pindptr, pindices = indptr, indices
    parent, dist = frontier_sweep(n, pindptr, pindices, root)
    # The clock runs off the *masked* graph: the root's round-1 batch exists
    # as soon as it has any usable port, dead or not.
    rounds = int(dist.max()) + 1 if indptr[root + 1] > indptr[root] else 0
    dropped = 0
    if stream.dead.any():
        de = np.nonzero(stream.dead)[0]
        if edge_mask is not None:
            de = de[np.asarray(edge_mask, dtype=bool)[de]]
        dropped = int(
            (dist[graph.edge_u[de]] >= 0).sum() + (dist[graph.edge_v[de]] >= 0).sum()
        )
    result = BFSResult(
        root=root,
        parent=parent,
        dist=dist,
        children=None,  # rate-0 plans drop no child-notices: parent-derived
        rounds=rounds,
    )
    return FaultyBFSOutcome(
        result=result, dropped=dropped, fault_rng_state=stream.rng_state
    )


def _span_faulty_bfs_total_loss(
    graph: Graph,
    root: int,
    stream: FaultStream,
    indptr: np.ndarray,
) -> FaultyBFSOutcome:
    """Closed-form faulty BFS under pure uniform total loss (rate 1.0).

    ``random() < 1.0`` always holds, so the root's round-1 announce batch
    is drawn and dropped wholesale and the flood dies immediately: the
    forest is the bare root, rounds is 1 when the root has any usable port
    (else 0), and exactly one coin per masked root port is consumed — one
    batched draw leaves the PCG64 stream where the per-round replay does.

    Only the *total*-loss boundary admits this pre-drawn plane: for rates
    in (0, 1) the number of coins drawn each round depends on which
    earlier sends survived (drops change who adopts, hence who sends), so
    any fixed-shape pre-draw would desynchronize the fault RNG stream the
    equivalence contract certifies. Those plans stay on the round path.
    Dead edges and mobile schedules also stay there: they shrink the coin
    batch per round, which this closed form does not model.
    """
    n = graph.n
    parent = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    dist[root] = 0
    deg = int(indptr[root + 1] - indptr[root])
    rounds = 0
    if deg:
        stream.rng.random(deg)  # the round-1 coin batch — every send drops
        stream.dropped += deg
        rounds = 1
    result = BFSResult(
        root=root,
        parent=parent,
        dist=dist,
        children=None,  # nothing delivered: parent-derived lists are empty
        rounds=rounds,
    )
    return FaultyBFSOutcome(
        result=result, dropped=stream.dropped, fault_rng_state=stream.rng_state
    )


@obs.traced("faulty_bfs")
def vectorized_faulty_bfs(
    graph: Graph,
    root: int,
    plan: FaultPlan | None = None,
    fault_seed=0,
    edge_mask: np.ndarray | None = None,
) -> FaultyBFSOutcome:
    """Fast-path twin of the Lemma 2 flood on a :class:`FaultySimulator`.

    Per round, the frontier's announces and child-notices form one ordered
    delivery batch; the drop mask is applied to the whole batch at once. A
    node adopts the smallest *surviving* announcing neighbor of the round it
    first hears one — which may be rounds later than the fault-free flood,
    with a larger dist, or never (``dist = -1``). A dropped child-notice
    leaves the child out of its parent's ``children`` list even though the
    child keeps the parent pointer, exactly like the simulator.

    Plans with no mobile adversary and either no coin drops or pure total
    loss take one closed-form sweep; every other plan replays the flood
    per round (:func:`_round_faulty_bfs`). Both are bit-identical where
    both apply.
    """
    if not (0 <= root < graph.n):
        raise ValidationError(f"root {root} out of range")
    plan = plan if plan is not None else FaultPlan()
    stream = FaultStream(graph, plan, fault_seed)
    indptr, indices = graph.masked_csr(
        None if edge_mask is None else np.asarray(edge_mask, dtype=bool)
    )
    if not stream.mobile:
        if stream.rate == 0.0:
            return _span_faulty_bfs(
                graph, root, stream, edge_mask, indptr, indices
            )
        if stream.rate == 1.0 and not stream.dead.any():
            return _span_faulty_bfs_total_loss(graph, root, stream, indptr)
    return _round_faulty_bfs(graph, root, stream, indptr, indices)


def _round_faulty_bfs(
    graph: Graph,
    root: int,
    stream: FaultStream,
    indptr: np.ndarray,
    indices: np.ndarray,
) -> FaultyBFSOutcome:
    """Per-round replay of the faulty flood over the masked CSR.

    Required whenever drops depend on history (rates in (0, 1)) or on the
    round (mobile sets); the verify sweep also runs it against the
    closed-form paths on the plans those cover.
    """
    n = graph.n
    degs = np.diff(indptr)
    arc_eids = (
        graph.edge_ids_for_pairs(np.repeat(np.arange(n), degs), indices)
        if indices.size
        else np.empty(0, dtype=np.int64)
    )

    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    adopted = np.zeros(n, dtype=bool)
    dist[root] = 0
    parent[root] = root
    adopted[root] = True
    child_src: list[np.ndarray] = []
    child_dst: list[np.ndarray] = []

    def expand(adopters: np.ndarray):
        """Canonically ordered send batch of freshly adopted nodes.

        Per node: CHILD to the parent first (the root sends none), then an
        announce on every other usable port in ascending-neighbor order —
        the exact outbox insertion order of ``BFSProgram``.
        """
        sel, counts, offs = expand_csr_rows(indptr, adopters)
        if sel.size == 0:
            return None
        src = np.repeat(adopters, counts)
        dst = indices[sel]
        eid = arc_eids[sel]
        is_parent_arc = dst == parent[src]
        kind = np.where(is_parent_arc, _KIND_CHILD, _KIND_ANNOUNCE)
        keep = ~(is_parent_arc & (src == root))  # root: no parent, no CHILD
        src, dst, eid, kind, sub = (
            src[keep],
            dst[keep],
            eid[keep],
            kind[keep],
            offs[keep],
        )
        if not src.size:
            return None
        order = np.lexsort((sub, kind, src))
        return src[order], dst[order], eid[order], kind[order]

    batch = expand(np.array([root], dtype=np.int64))
    rnd = 0
    rounds = 0
    while batch is not None:
        rnd += 1
        rounds = rnd
        src, dst, eid, kind = batch
        alive = stream.deliver_mask(rnd, eid)
        notice = alive & (kind == _KIND_CHILD)
        if notice.any():
            child_src.append(src[notice])
            child_dst.append(dst[notice])
        ann = alive & (kind == _KIND_ANNOUNCE) & ~adopted[dst]
        batch = None
        if ann.any():
            a_src = src[ann]
            a_dst = dst[ann]
            order = np.lexsort((a_src, a_dst))
            a_src, a_dst = a_src[order], a_dst[order]
            first = np.ones(a_dst.size, dtype=bool)
            first[1:] = a_dst[1:] != a_dst[:-1]
            winners = a_dst[first]
            announcers = a_src[first]  # smallest port == smallest neighbor id
            dist[winners] = dist[announcers] + 1
            parent[winners] = announcers
            adopted[winners] = True
            batch = expand(winners)

    children: list[list[int]] = [[] for _ in range(n)]
    if child_src:
        cs = np.concatenate(child_src)
        cd = np.concatenate(child_dst)
        for p, c in zip(cd.tolist(), cs.tolist()):
            children[p].append(c)
        for lst in children:
            lst.sort()  # canonical order, as _collect_results does
    result = BFSResult(
        root=root, parent=parent, dist=dist, children=children, rounds=rounds
    )
    return FaultyBFSOutcome(
        result=result, dropped=stream.dropped, fault_rng_state=stream.rng_state
    )


def faulty_bfs(
    graph: Graph,
    root: int,
    plan: FaultPlan | None = None,
    fault_seed=0,
    edge_mask: np.ndarray | None = None,
    backend: str = "simulator",
) -> FaultyBFSOutcome:
    """Lemma 2's flood under a fault plan, on either backend.

    ``backend="simulator"`` runs :class:`~repro.primitives.bfs.BFSProgram`
    on a :class:`~repro.congest.faults.FaultySimulator`;
    ``backend="vectorized"`` produces the bit-identical outcome (forest,
    round count, drop count, fault RNG state) via
    :func:`vectorized_faulty_bfs`.
    """
    from repro.engine import validate_backend

    if validate_backend(backend) == "vectorized":
        return vectorized_faulty_bfs(
            graph,
            root,
            plan=plan,
            fault_seed=fault_seed,
            edge_mask=edge_mask,
        )
    from repro.congest.faults import FaultySimulator
    from repro.congest.network import Network
    from repro.primitives.bfs import BFSProgram, _collect_results

    if not (0 <= root < graph.n):
        raise ValidationError(f"root {root} out of range")
    plan = plan if plan is not None else FaultPlan()
    network = Network(graph)
    if edge_mask is not None:
        mask = np.asarray(edge_mask, dtype=bool)
        ports = {v: network.ports_for_edges(v, mask) for v in range(graph.n)}
    else:
        ports = {v: None for v in range(graph.n)}

    programs: list[BFSProgram] = []

    def factory(v: int) -> BFSProgram:
        prog = BFSProgram(v, {0: root}, {0: ports[v]})
        programs.append(prog)
        return prog

    sim = FaultySimulator(network, factory, plan=plan, fault_seed=fault_seed)
    result = sim.run()
    for prog in programs:
        prog.finalize()
    res = _collect_results(graph, network, programs, {0: root}, result.metrics.rounds)[0]
    return FaultyBFSOutcome(
        result=res,
        dropped=sim.dropped,
        fault_rng_state=sim._fault_rng.bit_generator.state,
    )


@obs.traced("faulty_bfs_grid")
def faulty_bfs_grid(
    graph: Graph,
    roots,
    plan: FaultPlan | None = None,
    fault_seeds=None,
    edge_mask: np.ndarray | None = None,
    backend: str = "vectorized",
) -> list[FaultyBFSOutcome]:
    """A whole (root × fault-seed) grid of faulty floods in one plane sweep.

    Element ``i`` is bit-identical to
    ``faulty_bfs(graph, roots[i], plan, fault_seeds[i], ...)`` — same
    forest, rounds, drop count, and fault RNG state. When the plan draws
    no coins and has no mobile set (the static dead-edge regime the span
    path already collapses per query), the whole grid reduces to one
    :func:`repro.engine.plane.plane_sweep` over the distinct roots on the
    dead-subtracted CSR: the coin RNG is untouched, so outcomes across
    fault seeds differ only in their (pristine) recorded RNG state, and
    queries sharing a root share read-only forest rows. Every other plan —
    positive rates, mobile schedules, the simulator backend — falls back
    to the per-query loop, which is the contract's definition anyway.

    ``fault_seeds`` defaults to all zeros; when given it must match
    ``roots`` in length.
    """
    from repro.engine import validate_backend

    plan = plan if plan is not None else FaultPlan()
    root_list = [int(r) for r in roots]
    seeds = list(fault_seeds) if fault_seeds is not None else [0] * len(root_list)
    if len(seeds) != len(root_list):
        raise ValidationError(
            f"fault_seeds length {len(seeds)} != roots length {len(root_list)}"
        )
    if (
        validate_backend(backend) != "vectorized"
        or plan.mobile
        or plan.drop_rate != 0.0
        or not root_list
    ):
        return [
            faulty_bfs(
                graph, r, plan=plan, fault_seed=s, edge_mask=edge_mask,
                backend=backend,
            )
            for r, s in zip(root_list, seeds)
        ]

    from repro.engine.plane import plane_sweep

    plan.validate_for(graph.m)
    for r in root_list:
        if not (0 <= r < graph.n):
            raise ValidationError(f"root {r} out of range")
    base = None if edge_mask is None else np.asarray(edge_mask, dtype=bool)
    indptr, indices = graph.masked_csr(base)
    n = graph.n
    de = np.empty(0, dtype=np.int64)
    if plan.dead_edges:
        dead = np.zeros(graph.m, dtype=bool)
        dead[
            np.fromiter(plan.dead_edges, dtype=np.int64, count=len(plan.dead_edges))
        ] = True
        full = np.ones(graph.m, dtype=bool) if base is None else base
        pindptr, pindices = graph.masked_csr(full & ~dead)
        de = np.nonzero(dead)[0]
        if base is not None:
            de = de[base[de]]
    else:
        pindptr, pindices = indptr, indices
    uniq, inverse = np.unique(np.asarray(root_list, dtype=np.int64), return_inverse=True)
    parent, dist, _ = plane_sweep(n, pindptr, pindices, uniq)
    # The clock runs off the *masked* graph, exactly like _span_faulty_bfs:
    # the root's round-1 batch exists as soon as any usable port does.
    rounds_u = np.where(indptr[uniq + 1] > indptr[uniq], dist.max(axis=1) + 1, 0)
    if de.size:
        dropped_u = (dist[:, graph.edge_u[de]] >= 0).sum(axis=1) + (
            dist[:, graph.edge_v[de]] >= 0
        ).sum(axis=1)
    else:
        dropped_u = np.zeros(uniq.size, dtype=np.int64)
    out: list[FaultyBFSOutcome] = []
    for i, (r, s) in enumerate(zip(root_list, seeds)):
        q = int(inverse[i])
        res = BFSResult(
            root=r,
            parent=parent[q],
            dist=dist[q],
            children=None,  # rate-0 plans drop no child-notices
            rounds=int(rounds_u[q]),
        )
        out.append(
            FaultyBFSOutcome(
                result=res,
                dropped=int(dropped_u[q]),
                fault_rng_state=ensure_rng(s).bit_generator.state,
            )
        )
    return out


# --------------------------------------------------------------------------- #
# Lemma 1 under faults — tracking upcast/downcast queue recurrence
# --------------------------------------------------------------------------- #

@dataclass
class FaultyBroadcastOutcome:
    """Exact delivery bookkeeping of one faulted multi-tree broadcast.

    ``total_messages``/``total_bits`` charge every *send* (drops included —
    a dropped message spent its bandwidth) with the simulator's exact
    :func:`~repro.util.bits.bits_for_payload` price of the ``(kind, cid,
    mid)`` tuples ``_TrackingProgram`` puts on the wire, so they equal the
    ``Metrics`` totals of the twin simulator run bit for bit.
    """

    rounds: int
    dropped: int
    mids: np.ndarray  # sorted distinct message ids
    receipt_counts: np.ndarray  # distinct receiving nodes per mid
    receipt_bits: np.ndarray  # packed (len(mids), ceil(n/8)) receipt matrix
    n: int
    fault_rng_state: dict
    total_messages: int = 0
    total_bits: int = 0

    def coverage(self) -> dict[int, float]:
        return {
            int(m): int(c) / self.n
            for m, c in zip(self.mids.tolist(), self.receipt_counts.tolist())
        }

    def receipts(self) -> dict[int, frozenset[int]]:
        """Exact per-message receipt sets (unpacked on demand)."""
        out: dict[int, frozenset[int]] = {}
        for i, m in enumerate(self.mids.tolist()):
            nodes = np.nonzero(
                np.unpackbits(self.receipt_bits[i], bitorder="little")[: self.n]
            )[0]
            out[int(m)] = frozenset(nodes.tolist())
        return out


class _Channel:
    """Vectorized state of one broadcast channel (tree + queues)."""

    __slots__ = (
        "root",
        "parent",
        "dist",
        "up_eid",
        "cindptr",
        "cind",
        "ceid",
        "up_q",
        "root_dq",
        "root_head",
        "down_mid",
    )

    def __init__(self, graph: Graph, tree: BFSResult, placement: dict[int, list[int]]):
        n = graph.n
        self.root = int(tree.root)
        self.parent = np.asarray(tree.parent, dtype=np.int64)
        self.dist = np.asarray(tree.dist, dtype=np.int64)
        ids = np.arange(n)
        nonroot = self.parent != ids
        self.up_eid = np.full(n, -1, dtype=np.int64)
        vs = np.nonzero(nonroot)[0]
        if vs.size:
            self.up_eid[vs] = graph.edge_ids_for_pairs(self.parent[vs], vs)
        self.cindptr, self.cind = tree.children_as_csr()
        self.ceid = (
            graph.edge_ids_for_pairs(
                np.repeat(ids, np.diff(self.cindptr)), self.cind
            )
            if self.cind.size
            else np.empty(0, dtype=np.int64)
        )
        # Queues, seeded exactly like _TrackingProgram.__init__: the root's
        # own items go straight to its down stream (and count as received);
        # everyone else's own items start in the up queue.
        self.up_q: dict[int, deque[int]] = {}
        self.root_dq: list[int] = []
        self.root_head = 0
        for v, mids in placement.items():
            if not mids:
                continue
            if int(v) == self.root:
                self.root_dq.extend(int(m) for m in mids)
            else:
                self.up_q[int(v)] = deque(int(m) for m in mids)
        self.down_mid = np.full(n, -1, dtype=np.int64)


def _span_broadcast_viable(n: int, chans: list[_Channel], kmax: list[int]) -> bool:
    """Preconditions of the closed-form downcast, checked per channel.

    The span path needs a proper BFS layering of the children arcs (root
    depth 0, child depth = parent depth + 1, at most one parent arc per
    node, all depths known) so emissions pipeline at exactly one layer
    per round, and a bounded packed hole matrix (n × ceil(K/8) bytes,
    capped at ~256 MB using the a-priori bound K ≤ items placed on the
    channel). Anything else falls back to the per-round replay.
    """
    for st, k in zip(chans, kmax):
        if n * ((k + 7) // 8) > (1 << 28):
            return False
        if st.dist[st.root] != 0 or np.any(st.dist < 0):
            return False
        if st.cind.size:
            if np.bincount(st.cind, minlength=n).max() > 1:
                return False
            arc_parent = np.repeat(np.arange(n, dtype=np.int64), np.diff(st.cindptr))
            if not np.array_equal(st.dist[st.cind], st.dist[arc_parent] + 1):
                return False
    return True


def _mobile_down_kills(
    st: _Channel, plan: FaultPlan, r_emit: np.ndarray, arc_dead: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mobile-adversary hits on the downcast, as (arc index, emission index).

    The crossing of emission ``i`` on the arc into a depth-``d`` child
    happens in round ``r_emit[i] + d - 1``, so a mobile fault at round ρ
    on that arc's edge kills emission ``i = r_emit⁻¹(ρ - d + 1)`` — if
    that round is an actual emission round and the arc is not already
    dead (dead edges drop first; the crossing must not double-count).
    """
    empty = np.empty(0, dtype=np.int64)
    if not plan.mobile or st.ceid.size == 0:
        return empty, empty
    order = np.argsort(st.ceid, kind="stable")
    sc = st.ceid[order]
    dep_child = st.dist[st.cind]
    arcs_l: list[np.ndarray] = []
    idx_l: list[np.ndarray] = []
    for rho, edges in plan.mobile.items():
        if not edges:
            continue
        arr = np.fromiter(edges, dtype=np.int64, count=len(edges))
        pos = np.minimum(np.searchsorted(sc, arr), sc.size - 1)
        arcs = order[pos[sc[pos] == arr]]  # ≤ one arc per edge per tree
        if not arcs.size:
            continue
        t = rho - dep_child[arcs] + 1
        i = np.minimum(np.searchsorted(r_emit, t), r_emit.size - 1)
        ok = (r_emit[i] == t) & (t >= 1) & ~arc_dead[arcs]
        arcs_l.append(arcs[ok])
        idx_l.append(i[ok])
    if not arcs_l:
        return empty, empty
    return np.concatenate(arcs_l), np.concatenate(idx_l)


def _span_faulty_broadcast(
    graph: Graph,
    chans: list[_Channel],
    stream: FaultStream,
    plan: FaultPlan,
    mid_index: np.ndarray,
    mid_row: dict[int, int],
    recv: np.ndarray,
    cid_bits: np.ndarray,
) -> FaultyBroadcastOutcome:
    """Event-batched twin of the per-round faulty broadcast (rate-0 plans).

    Phase 1 replays only the upcast per round (its total volume is the
    sum of origin depths — the cheap part), collecting each root's
    emission availability schedule. Phase 2 is closed-form per channel:
    the root's emission rounds follow ``r_i = max(avail_i, r_{i-1}+1)``,
    every emission pipelines down one layer per round, and which
    emissions reach which node is propagated layer-by-layer through a
    packed *hole matrix* ``H`` (bit set = emission missing): a live arc
    copies the parent's holes, a dead arc keeps the child all-holes
    (charging one drop per emission the parent forwards), and each
    mobile hit punches one extra hole. Receipt rows, drop totals,
    send-time message/bit charges, and the final round all read off
    ``H`` — with the fault RNG untouched, exactly like the per-round
    replay at rate 0.
    """
    from repro.util.bits import bits_for_int_array

    n = graph.n
    total_messages = 0
    total_bits = 0
    rounds = 0
    dropped_down = 0

    # ---- phase 1: per-round upcast replay ------------------------------- #
    avails: list[list[int]] = [[1] * len(st.root_dq) for st in chans]
    rnd = 0
    while any(st.up_q for st in chans):
        rnd += 1
        rounds = rnd
        # Splitting the round's batch per channel is exact at rate 0: dead
        # and mobile lookups are elementwise and the coin RNG is never drawn.
        for ci, st in enumerate(chans):
            if not st.up_q:
                continue
            uvs = sorted(st.up_q)
            uarr = np.asarray(uvs, dtype=np.int64)
            umids = np.fromiter(
                (st.up_q[v][0] for v in uvs), dtype=np.int64, count=uarr.size
            )
            total_messages += uarr.size
            total_bits += int((2 + cid_bits[ci] + bits_for_int_array(umids)).sum())
            alive = stream.deliver_mask(rnd, st.up_eid[uarr])
            for v in uvs:  # pops precede deliveries, as in send_phase()
                q = st.up_q[v]
                q.popleft()
                if not q:
                    del st.up_q[v]
            for j, v in enumerate(uvs):
                if not alive[j]:
                    continue
                d = int(st.parent[v])
                m_ = int(umids[j])
                if d == st.root:
                    recv[mid_row[m_], d >> 3] |= np.uint8(1 << (d & 7))
                    st.root_dq.append(m_)
                    avails[ci].append(rnd + 1)  # poppable from the next round
                else:
                    q = st.up_q.get(d)
                    if q is None:
                        q = st.up_q[d] = deque()
                    q.append(m_)

    # ---- phase 2: closed-form downcast per channel ----------------------- #
    for ci, st in enumerate(chans):
        K = len(st.root_dq)
        if K == 0:
            continue
        dmids = np.asarray(st.root_dq, dtype=np.int64)
        av = np.asarray(avails[ci], dtype=np.int64)
        ar = np.arange(K, dtype=np.int64)
        r_emit = ar + np.maximum.accumulate(av - ar)  # r_i = max(a_i, r_{i-1}+1)
        nchild = np.diff(st.cindptr)
        if int(nchild[st.root]) == 0:
            # Childless root (single-node graph): no sends, but draining the
            # queue keeps the simulator's busy flag up for K - 1 more rounds.
            rounds = max(rounds, K - 1)
            continue
        bits_w = 2 + int(cid_bits[ci]) + bits_for_int_array(dmids)
        dep = st.dist
        Kb = (K + 7) // 8
        H = np.full((n, Kb), 0xFF, dtype=np.uint8)  # bit set = emission missing
        seed = np.zeros(Kb, dtype=np.uint8)
        if K & 7:
            seed[-1] = np.uint8((0xFF << (K & 7)) & 0xFF)  # padding stays holes
        H[st.root] = seed
        R = np.zeros(n, dtype=np.int64)  # received-emission count per node
        B = np.zeros(n, dtype=np.int64)  # received-emission bit-price sum
        R[st.root] = K
        B[st.root] = int(bits_w.sum())

        arc_parent = np.repeat(np.arange(n, dtype=np.int64), nchild)
        arc_dead = stream.dead[st.ceid]
        kill_arc, kill_i = _mobile_down_kills(st, plan, r_emit, arc_dead)
        kill_dep = dep[st.cind[kill_arc]]
        arc_dep = dep[st.cind]
        order = np.argsort(arc_dep, kind="stable")
        sdep = arc_dep[order]
        for d in range(1, int(arc_dep.max()) + 1):
            la = order[np.searchsorted(sdep, d) : np.searchsorted(sdep, d + 1)]
            if not la.size:
                continue
            dead = arc_dead[la]
            if dead.any():
                # The parent forwards everything it received on dead arcs
                # too; every one of those crossings is a counted drop.
                dropped_down += int(R[arc_parent[la[dead]]].sum())
            live = la[~dead]
            if live.size:
                cs = st.cind[live]
                ps = arc_parent[live]
                H[cs] = H[ps]
                R[cs] = R[ps]
                B[cs] = B[ps]
            ks = np.nonzero(kill_dep == d)[0]
            if ks.size:
                ka = kill_arc[ks]
                ki = kill_i[ks]
                ps = arc_parent[ka]
                cs = st.cind[ka]
                # A mobile hit only drops a crossing the parent made.
                sent = (H[ps, ki >> 3] >> (ki & 7)) & 1 == 0
                np.bitwise_or.at(H, (cs, ki >> 3), (1 << (ki & 7)).astype(np.uint8))
                dropped_down += int(sent.sum())
                np.subtract.at(R, cs[sent], 1)
                np.subtract.at(B, cs[sent], bits_w[ki[sent]])
        total_messages += int((R * nchild).sum())
        total_bits += int((B * nchild).sum())

        # Receipts: transpose ~H into the packed (mid, node) matrix. The
        # OR-accumulate handles duplicate mids within and across channels.
        rows = np.searchsorted(mid_index, dmids)
        chanrecv = np.zeros((K, recv.shape[1]), dtype=np.uint8)
        for lo in range(0, n, 4096):
            hi = min(lo + 4096, n)
            bits = np.unpackbits(~H[lo:hi], axis=1, bitorder="little")[:, :K]
            pk = np.packbits(bits.T, axis=1, bitorder="little")
            chanrecv[:, lo >> 3 : (lo >> 3) + pk.shape[1]] |= pk
        np.bitwise_or.at(recv, rows, chanrecv)

        # Last crossing: every sender forwards its latest-received emission
        # j at round r_emit[j] + depth (crossings on dead arcs included).
        senders = np.nonzero((nchild > 0) & (R > 0))[0]
        for lo in range(0, senders.size, 4096):
            vs = senders[lo : lo + 4096]
            bits = np.unpackbits(~H[vs], axis=1, bitorder="little")[:, :K]
            j = K - 1 - np.argmax(bits[:, ::-1], axis=1)
            rounds = max(rounds, int((r_emit[j] + dep[vs]).max()))

    return FaultyBroadcastOutcome(
        rounds=rounds,
        dropped=stream.dropped + dropped_down,
        mids=mid_index,
        receipt_counts=_popcount_rows(recv),
        receipt_bits=recv,
        n=n,
        fault_rng_state=stream.rng_state,
        total_messages=total_messages,
        total_bits=total_bits,
    )


def _span_faulty_broadcast_total_loss(
    chans: list[_Channel],
    stream: FaultStream,
    mid_index: np.ndarray,
    recv: np.ndarray,
    cid_bits: np.ndarray,
    n: int,
) -> FaultyBroadcastOutcome:
    """Closed-form faulty broadcast under pure uniform total loss (rate 1.0).

    Nothing ever crosses an edge, so the queue dynamics collapse: a non-root
    node with ``L`` own items pumps its up-queue head in rounds ``1..L``
    (each crossing dropped, never re-sent, never received), and the root
    pops one own item per round, emitting it to each tree child in rounds
    ``1..K`` — a childless root (single-node graph) still drains for
    ``K - 1`` extra busy rounds with no sends, exactly like the per-round
    replay's wake condition. Receipts stay at the roots' pre-marked own
    items, every crossing is both a counted send and a counted drop, and
    one batched coin draw per channel consumes the same PCG64 stream the
    per-round batches would (``random(a)`` then ``random(b)`` equals
    ``random(a + b)``).

    Like the BFS twin, only the total-loss boundary admits this: rates in
    (0, 1) make each round's coin count depend on earlier survivals, and
    dead edges / mobile schedules shrink the per-round coin batch. Those
    plans keep the round path (or the rate-0 span path).
    """
    from repro.util.bits import bits_for_int_array

    total_messages = 0
    total_bits = 0
    rounds = 0
    for ci, st in enumerate(chans):
        cb = int(cid_bits[ci])
        up_mids = [m for q in st.up_q.values() for m in q]
        if st.up_q:
            rounds = max(rounds, max(len(q) for q in st.up_q.values()))
        crossings = len(up_mids)
        bits = (
            int((2 + cb + bits_for_int_array(np.asarray(up_mids, dtype=np.int64))).sum())
            if up_mids
            else 0
        )
        K = len(st.root_dq)
        if K:
            nchild_root = int(st.cindptr[st.root + 1] - st.cindptr[st.root])
            if nchild_root:
                crossings += K * nchild_root
                bits += nchild_root * int(
                    (2 + cb + bits_for_int_array(np.asarray(st.root_dq, dtype=np.int64))).sum()
                )
                rounds = max(rounds, K)
            else:
                rounds = max(rounds, K - 1)
        total_messages += crossings
        total_bits += bits
        if crossings:
            stream.rng.random(crossings)
            stream.dropped += crossings
    return FaultyBroadcastOutcome(
        rounds=rounds,
        dropped=stream.dropped,
        mids=mid_index,
        receipt_counts=_popcount_rows(recv),
        receipt_bits=recv,
        n=n,
        fault_rng_state=stream.rng_state,
        total_messages=total_messages,
        total_bits=total_bits,
    )


@obs.traced("faulty_broadcast")
def vectorized_faulty_broadcast(
    graph: Graph,
    trees: dict[int, BFSResult],
    messages: dict[int, dict[int, list[int]]],
    plan: FaultPlan | None = None,
    fault_seed=0,
) -> FaultyBroadcastOutcome:
    """Fast-path twin of the tracking broadcast on a faulty simulator.

    Replays the pump-while-busy dynamics of
    :class:`repro.core.resilient._TrackingProgram` as per-round numpy
    batches: every nonempty up-queue sends its head to the parent, every
    nonempty down-queue pops one id (forwarded to all tree children), all
    crossings of a round form one delivery batch in the simulator's
    canonical order — node ascending, channel ascending, up-send before
    down-sends, children in ``tree.children`` order — and the fault plan
    drops from that batch exactly as ``FaultySimulator._deliverable`` would
    (same drops, same RNG stream). Receipts are tracked in a packed bitset,
    one row per message id.

    ``trees``/``messages`` take the same shapes as
    :func:`repro.engine.fastpath.vectorized_tree_broadcast`; channels are
    processed in sorted-cid order, which matches any driver that builds its
    per-node channel specs over ``{0: ..., 1: ..., ...}`` in cid order.

    The downcast — the bulk of the work — runs closed-form via
    :func:`_span_faulty_broadcast` whenever the plan draws no coins
    (``drop_rate == 0``; dead edges and the mobile adversary are fine) and
    the trees are BFS-layered within the memory guard, and via
    :func:`_span_faulty_broadcast_total_loss` under pure uniform total
    loss (``drop_rate == 1.0``, no dead edges, no mobile set). Every other
    input takes the per-round replay :func:`_round_faulty_broadcast`. All
    three are bit-identical where they apply.
    """
    plan = plan if plan is not None else FaultPlan()
    state = _faulty_broadcast_state(graph, trees, messages, plan, fault_seed)
    chans, stream, mid_index, mid_row, recv, cid_bits = state
    if plan.drop_rate == 0.0:
        kmax = [
            sum(len(ms) for ms in messages.get(cid, {}).values())
            for cid in sorted(trees)
        ]
        if _span_broadcast_viable(graph.n, chans, kmax):
            return _span_faulty_broadcast(
                graph, chans, stream, plan, mid_index, mid_row, recv, cid_bits
            )
    elif plan.drop_rate == 1.0 and not plan.mobile and not stream.dead.any():
        return _span_faulty_broadcast_total_loss(
            chans, stream, mid_index, recv, cid_bits, graph.n
        )
    return _round_faulty_broadcast(graph, *state)


def _faulty_broadcast_state(
    graph: Graph,
    trees: dict[int, BFSResult],
    messages: dict[int, dict[int, list[int]]],
    plan: FaultPlan,
    fault_seed,
) -> tuple:
    """Validated starting state shared by every faulty-broadcast path.

    Returns ``(chans, stream, mid_index, mid_row, recv, cid_bits)``: the
    per-channel queues, the fault stream, the sorted message ids with
    their receipt-row lookup, the packed receipt matrix (roots already
    hold their own items) and the per-channel cid bit prices.
    """
    from repro.util.bits import bits_for_int_array

    n = graph.n
    cids = sorted(trees)
    for cid in messages:
        if cid not in trees:
            raise ValidationError(f"messages given for unknown channel {cid}")
    for cid in cids:
        if not trees[cid].spans():
            raise ValidationError(f"channel {cid} tree does not span the graph")
    if n > 1 and len(cids) > 1:
        use = np.zeros(graph.m, dtype=np.int64)
        for cid in cids:
            t = trees[cid]
            vs = np.nonzero(t.parent != np.arange(n))[0]
            use[graph.edge_ids_for_pairs(t.parent[vs], vs)] += 1
        if use.max() > 1:
            raise ValidationError(
                "trees must be edge-disjoint (the simulator would refuse the "
                "double-send)"
            )

    all_mids = sorted(
        {int(m) for pl in messages.values() for ms in pl.values() for m in ms}
    )
    mid_index = np.asarray(all_mids, dtype=np.int64)
    mid_row = {m: i for i, m in enumerate(all_mids)}
    recv = np.zeros((len(all_mids), max(1, (n + 7) // 8)), dtype=np.uint8)

    chans = [_Channel(graph, trees[cid], messages.get(cid, {})) for cid in cids]
    stream = FaultStream(graph, plan, fault_seed)
    # Send-time bit pricing: bits_for_payload((kind, cid, mid)) with
    # kind ∈ {0, 1} → 2 bits, plus the cid and mid integer sizes.
    cid_bits = (
        bits_for_int_array(np.asarray(cids, dtype=np.int64))
        if cids
        else np.empty(0, dtype=np.int64)
    )

    # Roots know their own messages from the start (per _TrackingProgram).
    for ci, cid in enumerate(cids):
        st = chans[ci]
        own = messages.get(cid, {}).get(st.root, [])
        if own:
            rows = np.searchsorted(mid_index, np.asarray(own, dtype=np.int64))
            np.bitwise_or.at(
                recv, (rows, st.root >> 3), np.uint8(1 << (st.root & 7))
            )
    return chans, stream, mid_index, mid_row, recv, cid_bits


def _round_faulty_broadcast(
    graph: Graph,
    chans: list[_Channel],
    stream: FaultStream,
    mid_index: np.ndarray,
    mid_row: dict[int, int],
    recv: np.ndarray,
    cid_bits: np.ndarray,
) -> FaultyBroadcastOutcome:
    """Per-round replay of the faulty broadcast from its starting state.

    Required for coin rates in (0, 1), mixed total-loss plans and
    non-BFS-layered trees; the verify sweep also runs it against the
    closed-form paths on the plans those cover.
    """
    from repro.util.bits import bits_for_int_array

    n = graph.n
    total_messages = 0
    total_bits = 0

    def send_phase():
        """Pump every nonempty queue once, in canonical order; pop heads.

        Returns ``(batch, busy)``: the ordered crossing arrays (or None) and
        whether any queue still holds items after the pops (the simulator's
        wake condition — it keeps the round clock running even when a pop
        produces no sends, e.g. a single-node root draining its own list).
        """
        node_l, chan_l, kind_l, sub_l, dst_l, eid_l, mid_l = (
            [], [], [], [], [], [], []
        )
        busy = False
        for ci, st in enumerate(chans):
            if st.up_q:
                uvs = np.fromiter(sorted(st.up_q), dtype=np.int64, count=len(st.up_q))
                umids = np.fromiter(
                    (st.up_q[v][0] for v in uvs.tolist()),
                    dtype=np.int64,
                    count=uvs.size,
                )
                node_l.append(uvs)
                chan_l.append(np.full(uvs.size, ci, dtype=np.int64))
                kind_l.append(np.zeros(uvs.size, dtype=np.int64))
                sub_l.append(np.zeros(uvs.size, dtype=np.int64))
                dst_l.append(st.parent[uvs])
                eid_l.append(st.up_eid[uvs])
                mid_l.append(umids)
                for v in uvs.tolist():
                    q = st.up_q[v]
                    q.popleft()
                    if q:
                        busy = True
                    else:
                        del st.up_q[v]
            dvs = np.nonzero(st.down_mid >= 0)[0]
            dmids = st.down_mid[dvs]
            if st.root_head < len(st.root_dq):
                pos = int(np.searchsorted(dvs, st.root))
                dvs = np.insert(dvs, pos, st.root)
                dmids = np.insert(dmids, pos, st.root_dq[st.root_head])
                st.root_head += 1
                if st.root_head < len(st.root_dq):
                    busy = True
            if dvs.size:
                st.down_mid[dvs] = -1
                sel, counts, offs = expand_csr_rows(st.cindptr, dvs)
                if sel.size:
                    node_l.append(np.repeat(dvs, counts))
                    chan_l.append(np.full(sel.size, ci, dtype=np.int64))
                    kind_l.append(np.ones(sel.size, dtype=np.int64))
                    sub_l.append(offs)
                    dst_l.append(st.cind[sel])
                    eid_l.append(st.ceid[sel])
                    mid_l.append(np.repeat(dmids, counts))
        if not node_l:
            return None, busy
        node = np.concatenate(node_l)
        chan = np.concatenate(chan_l)
        kind = np.concatenate(kind_l)
        sub = np.concatenate(sub_l)
        order = np.lexsort((sub, kind, chan, node))
        return (
            (
                chan[order],
                kind[order],
                np.concatenate(dst_l)[order],
                np.concatenate(eid_l)[order],
                np.concatenate(mid_l)[order],
            ),
            busy,
        )

    batch, busy = send_phase()
    rnd = 0
    rounds = 0
    while batch is not None or busy:
        rnd += 1
        rounds = rnd
        if batch is not None:
            chan, kind, dst, eid, mid = batch
            total_messages += int(chan.size)
            total_bits += int((2 + cid_bits[chan] + bits_for_int_array(mid)).sum())
            alive = stream.deliver_mask(rnd, eid)
            # UP deliveries in order (Python loop: volume is only the sum of
            # origin depths, the sparse-upcast term).
            for i in np.nonzero(alive & (kind == 0))[0].tolist():
                st = chans[chan[i]]
                d = int(dst[i])
                m_ = int(mid[i])
                if d == st.root:
                    recv[mid_row[m_], d >> 3] |= np.uint8(1 << (d & 7))
                    st.root_dq.append(m_)
                else:
                    q = st.up_q.get(d)
                    if q is None:
                        q = st.up_q[d] = deque()
                    q.append(m_)
            # DOWN deliveries — the bulk — vectorized per channel.
            down_alive = alive & (kind == 1)
            for ci, st in enumerate(chans):
                sel = np.nonzero(down_alive & (chan == ci))[0]
                if not sel.size:
                    continue
                dd = dst[sel]
                mm = mid[sel]
                rows = np.searchsorted(mid_index, mm)
                np.bitwise_or.at(
                    recv, (rows, dd >> 3), (1 << (dd & 7)).astype(np.uint8)
                )
                st.down_mid[dd] = mm
        batch, busy = send_phase()

    return FaultyBroadcastOutcome(
        rounds=rounds,
        dropped=stream.dropped,
        mids=mid_index,
        receipt_counts=_popcount_rows(recv),
        receipt_bits=recv,
        n=n,
        fault_rng_state=stream.rng_state,
        total_messages=total_messages,
        total_bits=total_bits,
    )
