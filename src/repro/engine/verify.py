"""Equivalence harness: the vectorized backend vs the simulator, bit for bit.

The fast path inherits the simulator's certification *by testing*: every
kernel in :mod:`repro.engine.fastpath` is cross-checked here against the
corresponding simulator-driven protocol on randomized inputs — parent
arrays, dists, round counts, congestion, and message/bit totals must match
exactly. ``tests/test_engine_equivalence.py`` drives these checks in CI;
``python -m repro.engine.verify`` runs a standalone sweep.

Every check returns a list of human-readable mismatch strings (empty =
equivalent), so a failure names the exact field that diverged.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph
from repro.util.rng import ensure_rng

__all__ = [
    "random_connected_graph",
    "random_edge_masks",
    "random_fault_plan",
    "check_bfs",
    "check_parallel_bfs",
    "check_leader",
    "check_numbering",
    "check_tree_broadcast",
    "check_broadcast_pipeline",
    "check_combined_broadcast",
    "check_unknown_lambda_broadcast",
    "check_weighted_apsp",
    "check_clustering",
    "check_spanner",
    "check_sparsifier",
    "check_apsp_pipeline",
    "check_cuts_pipeline",
    "check_faulty_bfs",
    "check_faulty_bfs_replay",
    "check_faulty_broadcast_replay",
    "check_step_strategies",
    "check_faulty_step_strategies",
    "gate_settings",
    "spmv_gates",
    "check_bfs_batch",
    "check_broadcast_batch",
    "check_packing_candidates",
    "check_fault_grid",
    "check_redundant_broadcast",
    "check_root_policies",
    "check_coverage_repair",
    "check_tournament",
    "check_trace_transparency",
    "EquivalenceReport",
    "verify_equivalence",
]


def random_connected_graph(n: int, extra_edges: int, seed) -> Graph:
    """Random spanning tree plus ``extra_edges`` random non-tree edges."""
    rng = ensure_rng(seed)
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.add((u, v))
    tries = 0
    while len(edges) < (n - 1) + extra_edges and tries < 20 * (extra_edges + 1):
        tries += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_edge_masks(graph: Graph, parts: int, seed) -> list[np.ndarray]:
    """Disjoint random edge masks (not necessarily covering every edge)."""
    rng = ensure_rng(seed)
    colors = rng.integers(parts + 1, size=graph.m)  # color `parts` = unused
    return [colors == i for i in range(parts)]


def _diff_bfs(a, b, label: str) -> list[str]:
    out = []
    if not np.array_equal(a.parent, b.parent):
        out.append(f"{label}: parent arrays differ")
    if not np.array_equal(a.dist, b.dist):
        out.append(f"{label}: dist arrays differ")
    if a.rounds != b.rounds:
        out.append(f"{label}: rounds {a.rounds} != {b.rounds}")
    if a.children != b.children:
        out.append(f"{label}: children lists differ")
    return out


def check_bfs(graph: Graph, root: int, edge_mask=None) -> list[str]:
    """run_bfs: simulator vs vectorized."""
    from repro.primitives.bfs import run_bfs

    sim = run_bfs(graph, root, edge_mask=edge_mask, backend="simulator")
    vec = run_bfs(graph, root, edge_mask=edge_mask, backend="vectorized")
    return _diff_bfs(sim, vec, "bfs")


def check_parallel_bfs(graph: Graph, masks, roots=None) -> list[str]:
    """run_parallel_bfs: simulator vs vectorized (shared round clock)."""
    from repro.primitives.bfs import run_parallel_bfs

    sim, sim_rounds = run_parallel_bfs(graph, masks, roots=roots, backend="simulator")
    vec, vec_rounds = run_parallel_bfs(graph, masks, roots=roots, backend="vectorized")
    out = []
    if sim_rounds != vec_rounds:
        out.append(f"parallel-bfs: rounds {sim_rounds} != {vec_rounds}")
    for c, (a, b) in enumerate(zip(sim, vec)):
        out.extend(_diff_bfs(a, b, f"parallel-bfs[channel {c}]"))
    return out


def check_leader(graph: Graph) -> list[str]:
    from repro.engine.fastpath import vectorized_elect_leader
    from repro.primitives.leader import elect_leader

    sim = elect_leader(graph)
    vec = vectorized_elect_leader(graph)
    if sim != vec:
        return [f"leader: simulator {sim} != vectorized {vec}"]
    return []


def check_numbering(graph: Graph, counts: np.ndarray) -> list[str]:
    """Lemma 3 numbering over the same BFS tree, both backends."""
    from repro.engine.fastpath import vectorized_numbering
    from repro.primitives.bfs import run_bfs
    from repro.primitives.numbering import assign_item_numbers

    tree = run_bfs(graph, 0, backend="simulator")
    sim_starts, sim_rounds = assign_item_numbers(graph, tree, counts)
    vec_starts, vec_rounds = vectorized_numbering(graph, tree, counts)
    out = []
    if sim_rounds != vec_rounds:
        out.append(f"numbering: rounds {sim_rounds} != {vec_rounds}")
    if not np.array_equal(sim_starts, vec_starts):
        out.append("numbering: starts differ")
    return out


def check_tree_broadcast(
    graph: Graph, masks, k: int, seed, roots=None
) -> list[str]:
    """Lemma 1 pipeline over edge-disjoint trees: exact rounds and metrics.

    Channels whose mask does not induce a spanning subgraph are dropped
    (both backends require spanning trees).
    """
    from repro.engine.fastpath import vectorized_tree_broadcast
    from repro.primitives.bfs import run_parallel_bfs
    from repro.primitives.pipeline import run_tree_broadcast

    results, _ = run_parallel_bfs(graph, masks, roots=roots, backend="vectorized")
    trees = {c: r for c, r in enumerate(results) if r.spans()}
    if not trees:
        return []
    rng = ensure_rng(seed)
    cids = sorted(trees)
    messages: dict[int, dict[int, list[int]]] = {c: {} for c in cids}
    for j in range(1, k + 1):
        c = cids[int(rng.integers(len(cids)))]
        v = int(rng.integers(graph.n))
        messages[c].setdefault(v, []).append(j)

    sim = run_tree_broadcast(graph, trees, messages)
    vec = vectorized_tree_broadcast(graph, trees, messages)
    out = []
    if sim.rounds != vec.rounds:
        out.append(f"pipeline: rounds {sim.rounds} != {vec.rounds}")
    if sim.max_congestion != vec.max_congestion:
        out.append(
            f"pipeline: congestion {sim.max_congestion} != {vec.max_congestion}"
        )
    if not np.array_equal(sim.metrics.edge_messages, vec.metrics.edge_messages):
        out.append("pipeline: per-edge message counts differ")
    if sim.metrics.total_messages != vec.metrics.total_messages:
        out.append(
            f"pipeline: total_messages {sim.metrics.total_messages} != "
            f"{vec.metrics.total_messages}"
        )
    if sim.metrics.total_bits != vec.metrics.total_bits:
        out.append(
            f"pipeline: total_bits {sim.metrics.total_bits} != "
            f"{vec.metrics.total_bits}"
        )
    if sim.per_channel_k != vec.per_channel_k:
        out.append("pipeline: per-channel k differ")
    return out


def check_broadcast_pipeline(graph: Graph, k: int, seed, lam: int | None = None) -> list[str]:
    """End-to-end textbook + fast broadcast: full phase ledgers must agree."""
    from repro.core.broadcast import (
        fast_broadcast,
        textbook_broadcast,
        uniform_random_placement,
    )
    from repro.graphs.connectivity import edge_connectivity
    from repro.util.errors import ValidationError

    placement = uniform_random_placement(graph.n, k, seed=seed)
    out = []
    sim = textbook_broadcast(graph, placement, backend="simulator")
    vec = textbook_broadcast(graph, placement, backend="vectorized")
    if sim.phases != vec.phases:
        out.append(f"textbook: phases {sim.phases} != {vec.phases}")
    if sim.max_congestion != vec.max_congestion:
        out.append("textbook: congestion differs")

    lam = edge_connectivity(graph) if lam is None else lam

    def attempt(backend):
        # The w.h.p. event of Theorem 2 may legitimately fail on tiny random
        # graphs; what matters is that both backends fail identically.
        try:
            return fast_broadcast(
                graph, placement, lam=lam, seed=seed, backend=backend
            ), None
        except ValidationError as err:
            return None, str(err)

    fsim, esim = attempt("simulator")
    fvec, evec = attempt("vectorized")
    if (fsim is None) != (fvec is None):
        out.append(f"fast: backends disagree on failure (sim={esim!r}, vec={evec!r})")
    elif fsim is None:
        if esim != evec:
            out.append(f"fast: failure messages differ (sim={esim!r}, vec={evec!r})")
    else:
        if fsim.phases != fvec.phases:
            out.append(f"fast: phases {fsim.phases} != {fvec.phases}")
        if fsim.max_congestion != fvec.max_congestion:
            out.append("fast: congestion differs")
        if fsim.packing_max_depth != fvec.packing_max_depth:
            out.append("fast: packing depth differs")
    return out


def check_combined_broadcast(graph: Graph, k: int, seed) -> list[str]:
    """Section 3.2's min(textbook, fast): both backends must predict the
    same winner and report identical phase ledgers."""
    from repro.core.broadcast import combined_broadcast, uniform_random_placement
    from repro.util.errors import ValidationError

    placement = uniform_random_placement(graph.n, k, seed=seed)

    def attempt(backend):
        try:
            return combined_broadcast(
                graph, placement, seed=seed, backend=backend
            ), None
        except ValidationError as err:
            return None, str(err)

    sim, esim = attempt("simulator")
    vec, evec = attempt("vectorized")
    if (sim is None) != (vec is None) or (sim is None and esim != evec):
        return [f"combined: backends disagree on failure (sim={esim!r}, vec={evec!r})"]
    if sim is None:
        return []
    out = []
    if sim.algorithm != vec.algorithm:
        out.append(f"combined: winner {sim.algorithm} != {vec.algorithm}")
    if sim.phases != vec.phases:
        out.append(f"combined: phases {sim.phases} != {vec.phases}")
    if sim.max_congestion != vec.max_congestion:
        out.append("combined: congestion differs")
    return out


def check_unknown_lambda_broadcast(graph: Graph, k: int, seed) -> list[str]:
    """§1.1 Remark: the λ-unknown broadcast — the full exponential-search
    trace (guesses, per-iteration validation rounds, seeds) plus the final
    broadcast ledger must be identical across backends."""
    from repro.core.broadcast import uniform_random_placement
    from repro.core.lambda_search import broadcast_unknown_lambda
    from repro.util.errors import ValidationError

    placement = uniform_random_placement(graph.n, k, seed=seed)

    def attempt(backend):
        try:
            return broadcast_unknown_lambda(
                graph, placement, seed=seed, backend=backend
            ), None
        except ValidationError as err:
            return None, str(err)

    sim, esim = attempt("simulator")
    vec, evec = attempt("vectorized")
    if (sim is None) != (vec is None) or (sim is None and esim != evec):
        return [
            f"unknown-lambda: backends disagree on failure "
            f"(sim={esim!r}, vec={evec!r})"
        ]
    if sim is None:
        return []
    (sres, ssearch), (vres, vsearch) = sim, vec
    out = []
    if sres.phases != vres.phases:
        out.append(f"unknown-lambda: phases {sres.phases} != {vres.phases}")
    if sres.max_congestion != vres.max_congestion:
        out.append("unknown-lambda: congestion differs")
    if ssearch.guesses != vsearch.guesses:
        out.append(
            f"unknown-lambda: guess traces {ssearch.guesses} != {vsearch.guesses}"
        )
    if ssearch.validation_rounds != vsearch.validation_rounds:
        out.append("unknown-lambda: validation rounds differ")
    if ssearch.seeds != vsearch.seeds:
        out.append("unknown-lambda: iteration seeds differ")
    if ssearch.accepted_guess != vsearch.accepted_guess:
        out.append(
            f"unknown-lambda: accepted guess {ssearch.accepted_guess} != "
            f"{vsearch.accepted_guess}"
        )
    return out


def check_weighted_apsp(graph: Graph, k: int, seed) -> list[str]:
    """Theorem 5 end to end: spanner, estimates, and both round ledgers.

    Unweighted hosts get deterministic random weights first, so the check
    is runnable on any sweep graph.
    """
    from repro.apsp.weighted import approx_apsp_weighted
    from repro.graphs.generators import random_weights
    from repro.util.errors import ValidationError

    if graph.weights is None:
        graph = random_weights(graph, seed=seed)

    def attempt(backend):
        try:
            return approx_apsp_weighted(graph, k, seed=seed, backend=backend), None
        except ValidationError as err:
            return None, str(err)

    sim, esim = attempt("simulator")
    vec, evec = attempt("vectorized")
    if (sim is None) != (vec is None) or (sim is None and esim != evec):
        return [
            f"weighted-apsp: backends disagree on failure "
            f"(sim={esim!r}, vec={evec!r})"
        ]
    if sim is None:
        return []
    out = _diff_graph(sim.spanner.spanner, vec.spanner.spanner, "weighted-apsp")
    if not np.array_equal(sim.spanner.edge_ids, vec.spanner.edge_ids):
        out.append("weighted-apsp: spanner edge ids differ")
    if not np.array_equal(sim.estimate, vec.estimate):
        out.append("weighted-apsp: estimates differ")
    if sim.simulated_rounds != vec.simulated_rounds:
        out.append(
            f"weighted-apsp: simulated rounds {sim.simulated_rounds} != "
            f"{vec.simulated_rounds}"
        )
    if sim.charged_rounds != vec.charged_rounds:
        out.append(
            f"weighted-apsp: charged rounds {sim.charged_rounds} != "
            f"{vec.charged_rounds}"
        )
    return out


def check_clustering(graph: Graph, seed, c: float = 3.0) -> list[str]:
    """Theorem 4 cluster growth: O(n+m) numpy port vs the per-node loops.

    Replays the exact coin schedule of :func:`build_clustering` against the
    retained reference (:func:`repro.apsp.clustering._reference_attempt`);
    centers, assignments, and the contracted cluster graph must match, and
    both must exhaust retries on the same inputs.
    """
    from repro.apsp.clustering import (
        _reference_attempt,
        build_clustering,
        center_sampling_probability,
    )
    from repro.util.errors import ValidationError

    max_tries = 20  # passed explicitly so replay and builder stay locked
    try:
        cl = build_clustering(graph, c=c, seed=seed, max_tries=max_tries)
    except ValidationError:
        cl = None
    rng = ensure_rng(seed)
    p = center_sampling_probability(graph.n, graph.min_degree(), c)
    ref = None
    for _ in range(max_tries):
        is_center = rng.random(graph.n) < p
        if not is_center.any():
            continue
        ref = _reference_attempt(graph, is_center)
        if ref is not None:
            break
    if (cl is None) != (ref is None):
        return ["clustering: port and reference disagree on retry exhaustion"]
    if cl is None:
        return []
    out = []
    centers, s, cluster_graph = ref
    if centers != cl.centers:
        out.append("clustering: centers differ")
    if not np.array_equal(s, cl.s):
        out.append("clustering: cluster assignments differ")
    if cluster_graph != cl.cluster_graph:
        out.append("clustering: cluster graphs differ")
    if cl.rounds != 1:
        out.append(f"clustering: rounds {cl.rounds} != 1")
    return out


def _diff_graph(a: Graph, b: Graph, label: str) -> list[str]:
    out = []
    if a != b:
        out.append(f"{label}: edge sets differ")
    if (a.weights is None) != (b.weights is None) or (
        a.weights is not None and not np.array_equal(a.weights, b.weights)
    ):
        out.append(f"{label}: weights differ")
    return out


def check_spanner(graph: Graph, k: int, seed) -> list[str]:
    """[BS07] spanner: per-node rules vs whole-array twin, same coins."""
    from repro.apsp.spanner import baswana_sen_spanner

    sim = baswana_sen_spanner(graph, k, seed=seed, backend="simulator")
    vec = baswana_sen_spanner(graph, k, seed=seed, backend="vectorized")
    out = []
    if not np.array_equal(sim.edge_ids, vec.edge_ids):
        out.append(f"spanner(k={k}): edge id sets differ")
    out.extend(_diff_graph(sim.spanner, vec.spanner, f"spanner(k={k})"))
    if sim.charged_rounds != vec.charged_rounds:
        out.append(f"spanner(k={k}): charged rounds differ")
    return out


def check_sparsifier(
    graph: Graph, eps: float, seed, tau: int | None = None
) -> list[str]:
    """Koutis–Xu sparsifier: both backends through the whole level loop."""
    from repro.cuts.sparsifier import koutis_xu_sparsifier

    sim = koutis_xu_sparsifier(graph, eps, seed=seed, tau=tau, backend="simulator")
    vec = koutis_xu_sparsifier(graph, eps, seed=seed, tau=tau, backend="vectorized")
    out = _diff_graph(sim.sparsifier, vec.sparsifier, "sparsifier")
    if sim.levels != vec.levels:
        out.append(f"sparsifier: levels {sim.levels} != {vec.levels}")
    if sim.charged_rounds != vec.charged_rounds:
        out.append("sparsifier: charged rounds differ")
    if sim.bundle_sizes != vec.bundle_sizes:
        out.append("sparsifier: bundle sizes differ")
    return out


def _diff_ledgers(sim, vec, label: str) -> list[str]:
    out = []
    if sim.simulated_rounds != vec.simulated_rounds:
        out.append(
            f"{label}: simulated rounds {sim.simulated_rounds} != "
            f"{vec.simulated_rounds}"
        )
    if sim.charged_rounds != vec.charged_rounds:
        out.append(
            f"{label}: charged rounds {sim.charged_rounds} != {vec.charged_rounds}"
        )
    if not np.array_equal(sim.estimate, vec.estimate):
        out.append(f"{label}: estimates differ")
    return out


def check_apsp_pipeline(graph: Graph, seed, lam: int | None = None) -> list[str]:
    """Theorem 4 end to end: estimates + full round ledgers, both backends.

    The w.h.p. events (clustering coverage, Theorem 2 packing) may
    legitimately fail on tiny random hosts; both backends must then fail
    with the same error.
    """
    from repro.apsp.unweighted import approx_apsp_unweighted
    from repro.util.errors import ValidationError

    def attempt(backend):
        try:
            return (
                approx_apsp_unweighted(
                    graph, lam=lam, C=1.5, seed=seed, backend=backend
                ),
                None,
            )
        except ValidationError as err:
            return None, str(err)

    sim, esim = attempt("simulator")
    vec, evec = attempt("vectorized")
    if (sim is None) != (vec is None) or (sim is None and esim != evec):
        return [f"apsp: backends disagree on failure (sim={esim!r}, vec={evec!r})"]
    if sim is None:
        return []
    out = _diff_ledgers(sim, vec, "apsp")
    if sim.clustering.centers != vec.clustering.centers or not np.array_equal(
        sim.clustering.s, vec.clustering.s
    ):
        out.append("apsp: clusterings differ")
    return out


def check_cuts_pipeline(
    graph: Graph, eps: float, seed, lam: int | None = None, tau: int | None = None
) -> list[str]:
    """Theorem 7 end to end: sparsifier + ledgers, both backends."""
    from repro.cuts.approx import approx_all_cuts
    from repro.util.errors import ValidationError

    def attempt(backend):
        try:
            return (
                approx_all_cuts(
                    graph, eps=eps, lam=lam, C=1.5, seed=seed, tau=tau,
                    backend=backend,
                ),
                None,
            )
        except ValidationError as err:
            return None, str(err)

    sim, esim = attempt("simulator")
    vec, evec = attempt("vectorized")
    if (sim is None) != (vec is None) or (sim is None and esim != evec):
        return [f"cuts: backends disagree on failure (sim={esim!r}, vec={evec!r})"]
    if sim is None:
        return []
    out = _diff_graph(
        sim.sparsifier.sparsifier, vec.sparsifier.sparsifier, "cuts"
    )
    if sim.simulated_rounds != vec.simulated_rounds:
        out.append("cuts: simulated rounds differ")
    if sim.charged_rounds != vec.charged_rounds:
        out.append("cuts: charged rounds differ")
    return out


def random_fault_plan(graph: Graph, seed, rate: float | None = None):
    """A randomized :class:`~repro.congest.adversary.FaultPlan`: a few dead
    edges, a couple of mobile rounds, and a drop rate (``rate=None`` picks
    one of 0 / 0.3 / 1.0 — including the total-loss boundary)."""
    from repro.congest.adversary import FaultPlan

    rng = ensure_rng(seed)
    dead = set()
    if graph.m:
        dead = {
            int(e)
            for e in rng.choice(graph.m, size=int(rng.integers(0, min(graph.m, 4))), replace=False)
        }
    mobile = {}
    for _ in range(int(rng.integers(0, 3))):
        if graph.m:
            mobile[int(rng.integers(1, 8))] = {
                int(e) for e in rng.choice(graph.m, size=min(graph.m, 2), replace=False)
            }
    if rate is None:
        rate = [0.0, 0.3, 1.0][int(rng.integers(3))]
    return FaultPlan(dead_edges=dead, drop_rate=rate, mobile=mobile)


def check_faulty_bfs(
    graph: Graph, root: int, plan, fault_seed, edge_mask=None
) -> list[str]:
    """Lemma 2 flood under faults: forest, rounds, drops, and the fault RNG
    stream (final PCG64 state) must match across backends."""
    from repro.engine.faults import faulty_bfs

    sim = faulty_bfs(
        graph, root, plan=plan, fault_seed=fault_seed, edge_mask=edge_mask,
        backend="simulator",
    )
    vec = faulty_bfs(
        graph, root, plan=plan, fault_seed=fault_seed, edge_mask=edge_mask,
        backend="vectorized",
    )
    out = _diff_bfs(sim.result, vec.result, "faulty-bfs")
    if sim.dropped != vec.dropped:
        out.append(f"faulty-bfs: dropped {sim.dropped} != {vec.dropped}")
    if sim.fault_rng_state != vec.fault_rng_state:
        out.append("faulty-bfs: fault RNG streams diverged")
    return out


def check_redundant_broadcast(
    graph: Graph, k: int, seed, parts: int = 2, redundancy: int = 1, plan=None
) -> list[str]:
    """Redundant broadcast under an adversary: the full
    :class:`~repro.core.resilient.DeliveryReport` — exact per-message
    receipt sets, dropped counts, round totals — plus the fault RNG state
    must be bit-identical across backends.

    Builds a Theorem 2 packing first; if the w.h.p. packing event fails on
    the tiny random host, the check is vacuous (skipped).
    """
    from repro.core.broadcast import uniform_random_placement
    from repro.core.resilient import redundant_broadcast
    from repro.core.tree_packing import build_packing_with_retry
    from repro.util.errors import ValidationError

    try:
        packing, _ = build_packing_with_retry(
            graph, parts, seed=seed, distributed=False
        )
    except ValidationError:
        return []
    placement = uniform_random_placement(graph.n, k, seed=seed)
    if plan is None:
        plan = random_fault_plan(graph, seed=seed + 13)
    redundancy = min(max(1, redundancy), packing.size)

    def attempt(backend):
        return redundant_broadcast(
            graph,
            placement,
            packing,
            redundancy=redundancy,
            dead_edges=plan.dead_edges,
            drop_rate=plan.drop_rate,
            mobile=plan.mobile,
            seed=seed,
            fault_seed=seed + 1,
            backend=backend,
            collect_receipts=True,
        )

    sim = attempt("simulator")
    vec = attempt("vectorized")
    out = []
    if sim.rounds != vec.rounds:
        out.append(f"redundant: rounds {sim.rounds} != {vec.rounds}")
    if sim.dropped_messages != vec.dropped_messages:
        out.append(
            f"redundant: dropped {sim.dropped_messages} != {vec.dropped_messages}"
        )
    if sim.per_message_coverage != vec.per_message_coverage:
        out.append("redundant: per-message coverage differs")
    if sim.receipts != vec.receipts:
        out.append("redundant: receipt sets differ")
    if sim.fault_rng_state != vec.fault_rng_state:
        out.append("redundant: fault RNG streams diverged")
    if sim.total_messages != vec.total_messages:
        out.append(
            f"redundant: total_messages {sim.total_messages} != "
            f"{vec.total_messages}"
        )
    if sim.total_bits != vec.total_bits:
        out.append(
            f"redundant: total_bits {sim.total_bits} != {vec.total_bits}"
        )
    return out


def check_root_policies(graph: Graph, parts: int, seed) -> list[str]:
    """Root-assignment policies: :func:`resolve_roots` and the multi-root
    packing it feeds must be bit-identical across backends for every policy
    (plus an explicit root list).

    The w.h.p. packing event may legitimately fail on tiny random hosts;
    both backends must then fail with the same error.
    """
    from repro.core.tree_packing import (
        ROOT_POLICIES,
        build_packing_with_retry,
        resolve_roots,
    )
    from repro.util.errors import ValidationError

    out = []
    explicit = [int(i % graph.n) for i in range(parts)]
    for roots in (*ROOT_POLICIES, explicit):
        label = roots if isinstance(roots, str) else "explicit"

        def resolve(backend):
            # cut-aware runs Theorem 7, whose w.h.p. event may fail on tiny
            # hosts; both backends must then fail identically.
            try:
                return resolve_roots(
                    graph, parts, roots=roots, seed=seed, backend=backend
                ), None
            except ValidationError as err:
                return None, str(err)

        sim_roots, res = resolve("simulator")
        vec_roots, rev = resolve("vectorized")
        if (sim_roots is None) != (vec_roots is None) or (
            sim_roots is None and res != rev
        ):
            out.append(
                f"roots[{label}]: backends disagree on resolve failure "
                f"(sim={res!r}, vec={rev!r})"
            )
            continue
        if sim_roots is None:
            continue
        if sim_roots != vec_roots:
            out.append(f"roots[{label}]: {sim_roots} != {vec_roots}")
            continue

        def attempt(backend):
            try:
                return build_packing_with_retry(
                    graph, parts, seed=seed, distributed=False,
                    roots=roots, backend=backend,
                ), None
            except ValidationError as err:
                return None, str(err)

        sim, esim = attempt("simulator")
        vec, evec = attempt("vectorized")
        if (sim is None) != (vec is None) or (sim is None and esim != evec):
            out.append(
                f"roots[{label}]: backends disagree on failure "
                f"(sim={esim!r}, vec={evec!r})"
            )
            continue
        if sim is None:
            continue
        (spack, srounds), (vpack, vrounds) = sim, vec
        if srounds != vrounds:
            out.append(f"roots[{label}]: retry rounds {srounds} != {vrounds}")
        if spack.roots != vpack.roots:
            out.append(f"roots[{label}]: packed roots {spack.roots} != {vpack.roots}")
        if spack.construction_rounds != vpack.construction_rounds:
            out.append(f"roots[{label}]: construction rounds differ")
        for c, (a, b) in enumerate(zip(spack.trees, vpack.trees)):
            if not np.array_equal(a.parent, b.parent):
                out.append(f"roots[{label}]: tree {c} parents differ")
            if not np.array_equal(a.depth, b.depth):
                out.append(f"roots[{label}]: tree {c} depths differ")
    return out


def check_coverage_repair(
    graph: Graph, k: int, seed, parts: int = 2
) -> list[str]:
    """Graceful degradation: the whole :class:`~repro.core.resilient.RepairOutcome`
    — broken-channel detection, re-root choices, rebuild decisions, repair
    round charges, and both delivery reports — must match across backends.

    Kills a prefix of tree 0's edges so the repair path actually triggers;
    vacuous if the packing event fails on the tiny host.
    """
    from repro.core.broadcast import uniform_random_placement
    from repro.core.resilient import repair_coverage, tree_edge_ids
    from repro.core.tree_packing import build_packing_with_retry
    from repro.util.errors import ValidationError

    try:
        packing, _ = build_packing_with_retry(
            graph, parts, seed=seed, distributed=False, roots="spread"
        )
    except ValidationError:
        return []
    placement = uniform_random_placement(graph.n, k, seed=seed)
    dead = sorted(tree_edge_ids(packing, 0))[: max(1, graph.n // 4)]

    def attempt(backend):
        return repair_coverage(
            graph,
            placement,
            packing,
            redundancy=1,
            dead_edges=dead,
            seed=seed,
            fault_seed=seed + 1,
            backend=backend,
        )

    sim = attempt("simulator")
    vec = attempt("vectorized")
    out = []
    for phase in ("initial", "final"):
        a, b = getattr(sim, phase), getattr(vec, phase)
        if a.per_message_coverage != b.per_message_coverage:
            out.append(f"repair: {phase} coverage differs")
        if a.rounds != b.rounds:
            out.append(f"repair: {phase} rounds {a.rounds} != {b.rounds}")
        if a.dropped_messages != b.dropped_messages:
            out.append(f"repair: {phase} dropped counts differ")
        if a.total_messages != b.total_messages or a.total_bits != b.total_bits:
            out.append(f"repair: {phase} message/bit totals differ")
        if a.fault_rng_state != b.fault_rng_state:
            out.append(f"repair: {phase} fault RNG streams diverged")
    if sim.broken_channels != vec.broken_channels:
        out.append(
            f"repair: broken channels {sim.broken_channels} != "
            f"{vec.broken_channels}"
        )
    if sim.rerooted != vec.rerooted:
        out.append(f"repair: re-roots {sim.rerooted} != {vec.rerooted}")
    if sim.rebuilt != vec.rebuilt:
        out.append(f"repair: rebuilt {sim.rebuilt} != {vec.rebuilt}")
    if sim.repair_rounds != vec.repair_rounds:
        out.append(
            f"repair: repair rounds {sim.repair_rounds} != {vec.repair_rounds}"
        )
    if sim.attempts != vec.attempts:
        out.append(f"repair: attempts {sim.attempts} != {vec.attempts}")
    return out


def check_tournament(graph: Graph, k: int, seed) -> list[str]:
    """The scored tournament surface: :meth:`TournamentResult.to_payload`
    must be identical across backends except the ``backend`` tag itself —
    every cell score, every recorded attack, bit for bit.

    Runs a small grid (two cheap adversaries x two defenses); vacuous if
    the packing event fails on the tiny host.
    """
    from repro.congest.tournament import run_tournament
    from repro.util.errors import ValidationError

    def attempt(backend):
        try:
            return run_tournament(
                graph, k, parts=2,
                adversaries=["dead-tree", "loss"],
                defenses=["shared-r1", "spread-r1"],
                seed=seed, backend=backend,
            ), None
        except ValidationError as err:
            return None, str(err)

    sim, esim = attempt("simulator")
    vec, evec = attempt("vectorized")
    if (sim is None) != (vec is None) or (sim is None and esim != evec):
        return [
            f"tournament: backends disagree on failure "
            f"(sim={esim!r}, vec={evec!r})"
        ]
    if sim is None:
        return []
    spay, vpay = sim.to_payload(), vec.to_payload()
    spay["backend"] = vpay["backend"] = ""
    if spay != vpay:
        keys = [key for key in spay if spay[key] != vpay[key]]
        return [f"tournament: payloads differ in {keys}"]
    return []


@contextmanager
def spmv_gates(min_arcs: int, layer_arcs: int):
    """Temporarily set the frontier kernels' two SpMV gates.

    ``min_arcs`` stands in for ``kernels._SPMV_MIN_ARCS`` (the subgraph
    size below which every layer gathers) and ``layer_arcs`` for
    ``kernels._SPMV_LAYER_ARCS`` (the per-layer out-arc gate).
    """
    from repro.engine import kernels

    saved = (kernels._SPMV_MIN_ARCS, kernels._SPMV_LAYER_ARCS)
    kernels._SPMV_MIN_ARCS, kernels._SPMV_LAYER_ARCS = min_arcs, layer_arcs
    try:
        yield
    finally:
        kernels._SPMV_MIN_ARCS, kernels._SPMV_LAYER_ARCS = saved


def gate_settings(indptr, indices, dists) -> list[tuple[str, int, int]]:
    """The three ``(tag, min_arcs, layer_arcs)`` gate settings of every
    frontier check, for a CSR and the BFS ``dists`` of its queries.

    ``gather`` keeps every layer on the numpy gather and ``spmv`` sends
    every layer through the boolean matvec. ``mixed`` sets the layer gate
    to the widest layer's out-arc count, summed over the queries as the
    query plane sees it. That layer advances by SpMV and the narrower
    layers after it gather, so the sweep switches SpMV → gather mid-run.
    """
    deg = np.diff(indptr)
    arcs = np.zeros(1, dtype=np.int64)
    for dist in dists:
        reached = dist >= 0
        per = np.bincount(dist[reached], weights=deg[reached]).astype(np.int64)
        if per.size > arcs.size:
            per[: arcs.size] += arcs
            arcs = per
        else:
            arcs[: per.size] += per
    return [
        ("gather", int(indices.size) + 1, 0),
        ("spmv", 0, 0),
        ("mixed", 0, max(1, int(arcs.max()))),
    ]


def check_step_strategies(graph: Graph, masks, k: int, seed, roots=None) -> list[str]:
    """Span paths vs their per-round replays, plus direct identities of
    the :mod:`repro.engine.kernels` primitives.

    ``frontier_sweep`` must pick the smallest previous-layer neighbour
    (:func:`~repro.engine.kernels.tree_parents`) under every
    :func:`gate_settings` mix of SpMV and gather layers; ``upcast_spans``
    expanded per round must replay ``upcast_rounds`` on the
    channel-flattened trees of ``masks`` with ``k`` queued items (the
    pipeline's root service is shared code, so equal arrivals mean equal
    rounds); and the small CSR/membership helpers must match their numpy
    one-liners.
    """
    from repro.engine import kernels
    from repro.primitives.bfs import run_parallel_bfs

    out = []
    n = graph.n
    rng = ensure_rng(seed)

    # -- frontier_sweep: gather, SpMV and mixed layers vs tree_parents -- #
    root = int(rng.integers(n))
    indptr, indices = graph._indptr, graph._indices
    ref_parent, ref_dist = kernels.frontier_sweep(n, indptr, indices, root)
    for tag, min_arcs, layer_arcs in gate_settings(indptr, indices, [ref_dist]):
        with spmv_gates(min_arcs, layer_arcs):
            parent, dist = kernels.frontier_sweep(n, indptr, indices, root)
        if not np.array_equal(dist, ref_dist):
            out.append(f"kernels: frontier_sweep[{tag}] dists differ")
        if not np.array_equal(
            parent, kernels.tree_parents(n, indptr, indices, dist, root)
        ):
            out.append(f"kernels: frontier_sweep[{tag}] breaks the parent rule")

    # -- tree_parents: the python smallest-previous-layer-neighbor rule - #
    tp = kernels.tree_parents(n, indptr, indices, ref_dist, root)
    py_parent = np.full(n, -1, dtype=np.int64)
    py_parent[root] = root
    for v in range(n):
        if v == root or ref_dist[v] < 0:
            continue
        prev = [
            int(u)
            for u in indices[indptr[v] : indptr[v + 1]]
            if ref_dist[u] == ref_dist[v] - 1
        ]
        if prev:
            py_parent[v] = min(prev)
    if not np.array_equal(tp, py_parent):
        out.append("kernels: tree_parents differs from the python reference")

    # -- last_send_round_spans vs a per-round queue walk ---------------- #
    widths = rng.integers(1, 4, size=4)
    gaps = rng.integers(0, 3, size=4)
    starts_l, ends_l, prev_end = [], [], 0
    for wd, gp in zip(widths.tolist(), gaps.tolist()):
        s = prev_end + 1 + gp
        prev_end = s + wd - 1
        starts_l.append(s)
        ends_l.append(prev_end)
    rates = rng.integers(1, 4, size=4)
    arrivals: dict[int, int] = {}
    for s, e, rt in zip(starts_l, ends_l, rates.tolist()):
        for r in range(s, e + 1):
            arrivals[r] = arrivals.get(r, 0) + rt
    q = last_sim = 0
    for r in range(1, max(ends_l) + int(rates.sum() * widths.sum()) + 2):
        q += arrivals.get(r, 0)
        if q > 0:
            q -= 1
            last_sim = r
    got_last = kernels.last_send_round_spans(
        np.asarray(starts_l, dtype=np.int64),
        np.asarray(ends_l, dtype=np.int64),
        rates.astype(np.int64),
    )
    if got_last != last_sim:
        out.append(
            f"kernels: last_send_round_spans {got_last} != queue walk {last_sim}"
        )

    # -- CSR builders and membership helpers ---------------------------- #
    parent = ref_parent.copy()
    parent[root] = root  # tree convention: root is its own parent
    lists = kernels.children_lists(parent)
    ref_lists: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if v != root and parent[v] >= 0:
            ref_lists[int(parent[v])].append(v)
    if lists != ref_lists:
        out.append("kernels: children_lists differs from the python reference")
    cindptr, cind = kernels.children_csr(parent)
    lindptr, lind = kernels.lists_to_csr(lists)
    if not (np.array_equal(cindptr, lindptr) and np.array_equal(cind, lind)):
        out.append("kernels: children_csr != lists_to_csr(children_lists)")
    rows = rng.integers(0, n, size=min(n, 5))
    sel, counts, offs = kernels.expand_csr_rows(cindptr, rows)
    ref_counts = np.diff(cindptr)[rows]
    ref_vals = (
        np.concatenate([cind[cindptr[r] : cindptr[r + 1]] for r in rows])
        if rows.size
        else np.empty(0, dtype=np.int64)
    )
    ref_offs = (
        np.concatenate([np.arange(c) for c in ref_counts.tolist()])
        if rows.size
        else np.empty(0, dtype=np.int64)
    )
    if not (
        np.array_equal(cind[sel], ref_vals)
        and np.array_equal(counts, ref_counts)
        and np.array_equal(offs, ref_offs)
    ):
        out.append("kernels: expand_csr_rows differs from the numpy reference")
    table = np.unique(rng.integers(0, 2 * n, size=n))
    values = rng.integers(0, 2 * n, size=n)
    if not np.array_equal(kernels.in_sorted(values, table), np.isin(values, table)):
        out.append("kernels: in_sorted differs from np.isin")

    # -- upcast_spans expanded per round == upcast_rounds, on the channel-
    #    flattened trees and queues the Lemma 1 pipeline feeds them ------ #
    if graph.m:
        results, _ = run_parallel_bfs(graph, masks, roots=roots, backend="vectorized")
    else:  # edgeless host: run_parallel_bfs needs arcs to stack masks over
        from repro.primitives.bfs import run_bfs

        results = [run_bfs(graph, 0, backend="vectorized")]
    trees = [r for r in results if r.spans()]
    if trees:
        C = len(trees)
        parents = np.stack([np.asarray(t.parent) for t in trees])
        flat_parents = (parents + (np.arange(C) * n)[:, None]).ravel()
        flat_dist = np.concatenate([np.asarray(t.dist) for t in trees])
        is_root = (parents == np.arange(n)).ravel()
        up = np.bincount(rng.integers(0, C * n, size=k), minlength=C * n)
        up[is_root] = 0
        hf, hc, hr = kernels.upcast_rounds(up, flat_parents, is_root)
        sn, sb, se, sr = kernels.upcast_spans(up, flat_parents, flat_dist)
        widths = se - sb + 1
        ef = np.repeat(sn, widths)
        ec = np.repeat(sr, widths)
        er = (
            np.concatenate([np.arange(b, e + 1) for b, e in zip(sb, se)])
            if sn.size
            else np.empty(0, dtype=np.int64)
        )
        ref = np.lexsort((hf, hr))
        got = np.lexsort((ef, er))
        if not (
            np.array_equal(hf[ref], ef[got])
            and np.array_equal(hc[ref], ec[got])
            and np.array_equal(hr[ref], er[got])
        ):
            out.append("kernels: upcast_spans expansion != upcast_rounds")
    return out


def check_faulty_bfs_replay(graph: Graph, root: int, plan, fault_seed) -> list[str]:
    """Vectorized faulty flood vs its per-round replay, run directly past
    the span shortcuts: forest, rounds, drops and the fault RNG state."""
    from repro.engine.faults import (
        FaultStream,
        _round_faulty_bfs,
        vectorized_faulty_bfs,
    )

    got = vectorized_faulty_bfs(graph, root, plan=plan, fault_seed=fault_seed)
    stream = FaultStream(graph, plan, fault_seed)
    ref = _round_faulty_bfs(graph, root, stream, *graph.masked_csr(None))
    out = _diff_bfs(ref.result, got.result, "step-faulty-bfs")
    if ref.dropped != got.dropped:
        out.append("step-faulty-bfs: dropped counts differ")
    if ref.fault_rng_state != got.fault_rng_state:
        out.append("step-faulty-bfs: fault RNG streams diverged")
    return out


def check_faulty_broadcast_replay(
    graph: Graph, trees, messages, plan, fault_seed
) -> list[str]:
    """Vectorized faulty broadcast vs its per-round replay, run directly
    past the span shortcuts: rounds, drops, receipts, coverage, bit totals
    and the fault RNG state."""
    from repro.engine.faults import (
        _faulty_broadcast_state,
        _round_faulty_broadcast,
        vectorized_faulty_broadcast,
    )

    got = vectorized_faulty_broadcast(
        graph, trees, messages, plan=plan, fault_seed=fault_seed
    )
    state = _faulty_broadcast_state(graph, trees, messages, plan, fault_seed)
    ref = _round_faulty_broadcast(graph, *state)
    out = []
    if ref.rounds != got.rounds:
        out.append(f"step-redundant: rounds {ref.rounds} != {got.rounds}")
    if ref.dropped != got.dropped:
        out.append("step-redundant: dropped counts differ")
    if not np.array_equal(ref.receipt_counts, got.receipt_counts):
        out.append("step-redundant: coverage differs")
    if not np.array_equal(ref.receipt_bits, got.receipt_bits):
        out.append("step-redundant: receipt sets differ")
    if ref.fault_rng_state != got.fault_rng_state:
        out.append("step-redundant: fault RNG streams diverged")
    if (ref.total_messages, ref.total_bits) != (got.total_messages, got.total_bits):
        out.append("step-redundant: message/bit totals differ")
    return out


def check_faulty_step_strategies(
    graph: Graph, k: int, seed, parts: int = 2
) -> list[str]:
    """Fault engine: every path the input selects vs the per-round replay.

    Runs faulty BFS and a redundant faulty broadcast on a rate-0 plan
    (dead + mobile edges — the span path's home turf), a ``drop_rate>0``
    plan (where the engine itself replays per round) and a pure total-loss
    plan (closed-form), comparing the whole outcome with the replay.
    """
    from repro.congest.adversary import FaultPlan
    from repro.core.broadcast import _bfs_view
    from repro.core.tree_packing import build_packing_with_retry
    from repro.util.errors import ValidationError

    rng = ensure_rng(seed)
    root = int(rng.integers(graph.n))
    out = []
    plans = [
        random_fault_plan(graph, seed=seed + 1, rate=0.0),
        random_fault_plan(graph, seed=seed + 2, rate=0.3),
        # Pure uniform total loss — the boundary the span path collapses
        # closed-form (no dead/mobile: those force the round replay).
        FaultPlan(drop_rate=1.0),
    ]
    tags = ("rate0", "lossy", "total-loss")
    for tag, plan in zip(tags, plans):
        out.extend(
            f"{m} [{tag}]" for m in check_faulty_bfs_replay(graph, root, plan, seed)
        )

    try:
        packing, _ = build_packing_with_retry(
            graph, parts, seed=seed, distributed=False
        )
    except ValidationError:
        return out
    trees = {c: _bfs_view(packing, c) for c in range(packing.size)}
    redundancy = min(2, packing.size)
    messages: dict[int, dict[int, list[int]]] = {c: {} for c in trees}
    for j in range(1, k + 1):
        v = int(rng.integers(graph.n))
        for i in range(redundancy):  # copies ride distinct trees
            messages[(j + i) % packing.size].setdefault(v, []).append(j)
    for tag, plan in zip(tags, plans):
        out.extend(
            f"{m} [{tag}]"
            for m in check_faulty_broadcast_replay(
                graph, trees, messages, plan, seed + 1
            )
        )
    return out


def check_bfs_batch(graph: Graph, roots, edge_mask=None) -> list[str]:
    """run_bfs_batch == loop of run_bfs, element-wise, on both backends.

    The vectorized batch rides the :class:`~repro.engine.plane.QueryPlane`
    sweep; it also runs under every :func:`gate_settings` mix of SpMV and
    gather layers, so each layer step of the plane is certified against
    the simulator.
    """
    from repro.primitives.bfs import run_bfs, run_bfs_batch

    out = []
    solos = {}
    for backend in ("simulator", "vectorized"):
        solos[backend] = [
            run_bfs(graph, int(r), edge_mask=edge_mask, backend=backend)
            for r in roots
        ]
        batch = run_bfs_batch(graph, roots, edge_mask=edge_mask, backend=backend)
        for i, (a, b) in enumerate(zip(solos[backend], batch)):
            out.extend(_diff_bfs(a, b, f"bfs-batch[{backend}][{i}]"))
    mask = None if edge_mask is None else np.asarray(edge_mask, dtype=bool)
    indptr, indices = graph.masked_csr(mask)
    dists = [r.dist for r in solos["vectorized"]]
    for tag, min_arcs, layer_arcs in gate_settings(indptr, indices, dists):
        with spmv_gates(min_arcs, layer_arcs):
            batch = run_bfs_batch(
                graph, roots, edge_mask=edge_mask, backend="vectorized"
            )
        for i, (a, b) in enumerate(zip(solos["simulator"], batch)):
            out.extend(_diff_bfs(a, b, f"bfs-batch[{tag}][{i}]"))
    return out


def _diff_broadcast_result(a, b, label: str) -> list[str]:
    out = []
    if a.algorithm != b.algorithm:
        out.append(f"{label}: algorithm {a.algorithm} != {b.algorithm}")
    if (a.n, a.k, a.parts) != (b.n, b.k, b.parts):
        out.append(f"{label}: shape (n, k, parts) differs")
    if a.phases != b.phases:
        out.append(f"{label}: phase ledger {a.phases} != {b.phases}")
    if a.max_congestion != b.max_congestion:
        out.append(f"{label}: congestion {a.max_congestion} != {b.max_congestion}")
    if a.packing_max_depth != b.packing_max_depth:
        out.append(f"{label}: packing depth differs")
    if a.delivered != b.delivered:
        out.append(f"{label}: delivered flag differs")
    return out


def check_broadcast_batch(graph: Graph, k: int, seed) -> list[str]:
    """textbook/fast broadcast batches == loops of solo calls, both backends."""
    from repro.core.broadcast import (
        fast_broadcast,
        fast_broadcast_batch,
        textbook_broadcast,
        textbook_broadcast_batch,
        uniform_random_placement,
    )

    rng = ensure_rng(seed)
    placements = [
        uniform_random_placement(graph.n, int(kk), seed=seed + 17 * j)
        for j, kk in enumerate(rng.integers(0, max(1, k) + 1, size=3))
    ]
    seeds = [int(s) for s in rng.integers(0, 3, size=len(placements))]
    out = []
    for backend in ("simulator", "vectorized"):
        tb = textbook_broadcast_batch(graph, placements, backend=backend)
        for i, p in enumerate(placements):
            solo = textbook_broadcast(graph, p, backend=backend)
            out.extend(
                _diff_broadcast_result(solo, tb[i], f"textbook-batch[{backend}][{i}]")
            )
        fb = fast_broadcast_batch(graph, placements, seeds=seeds, backend=backend)
        for i, p in enumerate(placements):
            solo = fast_broadcast(graph, p, seed=seeds[i], backend=backend)
            out.extend(
                _diff_broadcast_result(solo, fb[i], f"fast-batch[{backend}][{i}]")
            )
    return out


def _diff_packing(a, b, label: str) -> list[str]:
    out = []
    if a.size != b.size or a.construction_rounds != b.construction_rounds:
        out.append(f"{label}: size/rounds differ")
    for i, (ta, tb) in enumerate(zip(a.trees, b.trees)):
        if ta.root != tb.root or not np.array_equal(ta.parent, tb.parent):
            out.append(f"{label}: tree {i} differs")
        elif not np.array_equal(ta.depth_of, tb.depth_of):
            out.append(f"{label}: tree {i} depths differ")
    ma, mb = a.class_masks, b.class_masks
    if (ma is None) != (mb is None) or (
        ma is not None and any(not np.array_equal(x, y) for x, y in zip(ma, mb))
    ):
        out.append(f"{label}: class masks differ")
    return out


def check_packing_candidates(graph: Graph, parts: int, seed) -> list[str]:
    """Candidate batching == the sequential walks it speculates over.

    ``build_packing_with_retry(batch=3)`` must return the same packing,
    attempt count, and failure message as the one-seed-at-a-time walk, and
    ``find_packing_unknown_lambda(lookahead=4)`` the same trace (guesses,
    validation rounds, seeds, accepted guess) and packing as the sequential
    halving loop — probes past the winner discarded unrecorded.
    """
    from repro.core.lambda_search import find_packing_unknown_lambda
    from repro.core.tree_packing import build_packing_with_retry
    from repro.util.errors import ValidationError

    out = []
    retry = {}
    for b in (1, 3):
        try:
            retry[b] = build_packing_with_retry(
                graph, parts, seed=seed, backend="vectorized", batch=b
            )
        except ValidationError as e:
            retry[b] = str(e)
    if isinstance(retry[1], str) or isinstance(retry[3], str):
        if retry[1] != retry[3]:
            out.append("packing-retry: sequential and batched failures differ")
    else:
        (pk1, n1), (pk3, n3) = retry[1], retry[3]
        if n1 != n3:
            out.append(f"packing-retry: attempts {n1} != {n3}")
        out.extend(_diff_packing(pk1, pk3, "packing-retry"))

    search = {}
    for lookahead in (1, 4):
        try:
            search[lookahead] = find_packing_unknown_lambda(
                graph, seed=seed, backend="vectorized", lookahead=lookahead
            )
        except ValidationError as e:
            search[lookahead] = str(e)
    a, b = search[1], search[4]
    if isinstance(a, str) or isinstance(b, str):
        if a != b:
            out.append("lambda-lookahead: sequential and batched failures differ")
        return out
    if (a.guesses, a.validation_rounds, a.seeds, a.accepted_guess) != (
        b.guesses, b.validation_rounds, b.seeds, b.accepted_guess
    ):
        out.append("lambda-lookahead: search traces differ")
    out.extend(_diff_packing(a.packing, b.packing, "lambda-lookahead"))
    return out


def _diff_report(a, b, label: str) -> list[str]:
    out = []
    if (a.k, a.redundancy, a.rounds) != (b.k, b.redundancy, b.rounds):
        out.append(f"{label}: k/redundancy/rounds differ")
    if a.dropped_messages != b.dropped_messages:
        out.append(f"{label}: dropped counts differ")
    if a.per_message_coverage != b.per_message_coverage:
        out.append(f"{label}: coverage differs")
    if a.receipts != b.receipts:
        out.append(f"{label}: receipt sets differ")
    if a.fault_rng_state != b.fault_rng_state:
        out.append(f"{label}: fault RNG streams diverged")
    if (a.total_messages, a.total_bits) != (b.total_messages, b.total_bits):
        out.append(f"{label}: message/bit totals differ")
    return out


def check_fault_grid(graph: Graph, k: int, seed, parts: int = 2) -> list[str]:
    """Grid entry points == loops of solo calls, element-wise, both backends.

    Covers :func:`repro.engine.faults.faulty_bfs_grid` (rate-0 plans take
    the plane sweep; lossy plans fall back to the loop, which must still
    agree) and :func:`repro.core.resilient.evaluate_fault_grid` over cells
    mixing redundancy levels, dead edges, drop rates (0, interior, and the
    total-loss boundary), and fault seeds.
    """
    from repro.core.broadcast import uniform_random_placement
    from repro.core.resilient import (
        FaultCell,
        evaluate_fault_grid,
        redundant_broadcast,
    )
    from repro.core.tree_packing import build_packing_with_retry
    from repro.engine.faults import faulty_bfs, faulty_bfs_grid
    from repro.util.errors import ValidationError

    rng = ensure_rng(seed)
    roots = [int(r) for r in rng.integers(0, graph.n, size=3)] + [int(rng.integers(graph.n))]
    roots[1] = roots[0]  # duplicate (root, ·) queries must share results
    fault_seeds = [int(s) for s in rng.integers(0, 8, size=len(roots))]
    out = []
    plans = [
        ("rate0", random_fault_plan(graph, seed=seed + 1, rate=0.0)),
        ("lossy", random_fault_plan(graph, seed=seed + 2, rate=0.3)),
    ]
    for tag, plan in plans:
        for backend in ("vectorized", "simulator"):
            grid = faulty_bfs_grid(
                graph, roots, plan=plan, fault_seeds=fault_seeds, backend=backend
            )
            for i, (r, s) in enumerate(zip(roots, fault_seeds)):
                solo = faulty_bfs(
                    graph, r, plan=plan, fault_seed=s, backend=backend
                )
                lbl = f"bfs-grid[{tag}][{backend}][{i}]"
                out.extend(_diff_bfs(solo.result, grid[i].result, lbl))
                if solo.dropped != grid[i].dropped:
                    out.append(f"{lbl}: dropped counts differ")
                if solo.fault_rng_state != grid[i].fault_rng_state:
                    out.append(f"{lbl}: fault RNG streams diverged")

    try:
        packing, _ = build_packing_with_retry(graph, parts, seed=seed, distributed=False)
    except ValidationError:
        return out
    placement = uniform_random_placement(graph.n, k, seed=seed)
    dead = sorted(plans[0][1].dead_edges)
    cells = [
        FaultCell(),
        FaultCell(redundancy=min(2, packing.size), drop_rate=0.4, fault_seed=seed + 3),
        FaultCell(dead_edges=frozenset(dead), drop_rate=1.0),
        FaultCell(redundancy=min(2, packing.size), dead_edges=frozenset(dead)),
    ]
    for backend in ("vectorized", "simulator"):
        grid = evaluate_fault_grid(
            graph, placement, packing, cells, seed=seed, backend=backend,
            collect_receipts=True,
        )
        for i, c in enumerate(cells):
            solo = redundant_broadcast(
                graph,
                placement,
                packing,
                redundancy=c.redundancy,
                dead_edges=c.dead_edges,
                drop_rate=c.drop_rate,
                mobile=c.mobile,
                seed=seed,
                fault_seed=c.fault_seed,
                backend=backend,
                collect_receipts=True,
            )
            out.extend(_diff_report(solo, grid[i], f"fault-grid[{backend}][{i}]"))
    return out


def check_trace_transparency(graph: Graph, k: int, seed, parts: int = 2) -> list[str]:
    """Tracing is a pure observer: traced == untraced, bit for bit.

    Runs :func:`repro.core.broadcast.fast_broadcast` and a lossy
    :func:`repro.core.resilient.redundant_broadcast` on both backends with
    an active :class:`repro.obs.Tracer`, and demands the phase ledger,
    round counts, congestion, receipts, and the fault RNG end-state match
    the untraced runs exactly — the null-overhead contract of the
    observability layer.
    """
    from repro import obs
    from repro.core.broadcast import fast_broadcast, uniform_random_placement
    from repro.core.resilient import redundant_broadcast
    from repro.core.tree_packing import build_packing_with_retry
    from repro.util.errors import ValidationError

    placement = uniform_random_placement(graph.n, k, seed=seed)
    out = []
    for backend in ("vectorized", "simulator"):
        plain = fast_broadcast(graph, placement, seed=seed, backend=backend)
        with obs.use_tracer() as tracer:
            traced = fast_broadcast(graph, placement, seed=seed, backend=backend)
        lbl = f"trace-broadcast[{backend}]"
        if plain.phases != traced.phases:
            out.append(f"{lbl}: phase ledgers differ under tracing")
        if (plain.rounds, plain.parts) != (traced.rounds, traced.parts):
            out.append(f"{lbl}: rounds/parts differ under tracing")
        if plain.max_congestion != traced.max_congestion:
            out.append(f"{lbl}: congestion differs under tracing")
        if not tracer.spans:
            out.append(f"{lbl}: tracer recorded no spans")

    try:
        packing, _ = build_packing_with_retry(graph, parts, seed=seed, distributed=False)
    except ValidationError:
        return out
    for backend in ("vectorized", "simulator"):
        kwargs = dict(
            redundancy=min(2, packing.size), drop_rate=0.3, seed=seed,
            fault_seed=seed + 1, backend=backend, collect_receipts=True,
        )
        plain = redundant_broadcast(graph, placement, packing, **kwargs)
        with obs.use_tracer():
            traced = redundant_broadcast(graph, placement, packing, **kwargs)
        out.extend(_diff_report(plain, traced, f"trace-faulty[{backend}]"))
    return out


@dataclass
class EquivalenceReport:
    """Outcome of one randomized equivalence sweep."""

    trials: int = 0
    checks: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_equivalence(
    trials: int = 10, seed: int = 0, max_n: int = 24
) -> EquivalenceReport:
    """Randomized sweep of all checks; returns an :class:`EquivalenceReport`."""
    from repro.graphs.generators import random_weights

    rng = ensure_rng(seed)
    report = EquivalenceReport()
    for t in range(trials):
        n = int(rng.integers(2, max_n + 1))
        extra = int(rng.integers(0, max(1, n)))
        g = random_connected_graph(n, extra, seed=1000 * seed + t)
        gw = random_weights(g, seed=1500 * seed + t) if t % 2 else g
        root = int(rng.integers(n))
        parts = int(rng.integers(1, 4))
        masks = random_edge_masks(g, parts, seed=2000 * seed + t)
        k = int(rng.integers(0, 3 * n))
        for mismatches in (
            check_bfs(g, root),
            check_bfs(g, root, edge_mask=masks[0]),
            check_parallel_bfs(g, masks, roots=[root] * parts),
            check_leader(g),
            check_numbering(g, rng.integers(0, 4, size=g.n)),
            check_tree_broadcast(g, masks, k, seed=3000 * seed + t, roots=[root] * parts),
            check_combined_broadcast(g, k, seed=3500 * seed + t),
            check_unknown_lambda_broadcast(g, k, seed=3700 * seed + t),
            check_clustering(g, seed=4000 * seed + t),
            check_spanner(gw, 2 + t % 3, seed=5000 * seed + t),
            check_sparsifier(gw, eps=0.5, seed=6000 * seed + t, tau=2),
            check_apsp_pipeline(g, seed=7000 * seed + t),
            check_weighted_apsp(gw, 2 + t % 3, seed=7500 * seed + t),
            check_cuts_pipeline(g, eps=0.5, seed=8000 * seed + t, tau=2),
            check_faulty_bfs(
                g,
                root,
                random_fault_plan(g, seed=9000 * seed + t),
                fault_seed=t,
                edge_mask=masks[0] if t % 2 else None,
            ),
            check_step_strategies(
                g, masks, k, seed=14_000 * seed + t, roots=[root] * parts
            ),
            check_faulty_step_strategies(
                g, k, seed=15_000 * seed + t, parts=parts
            ),
            check_bfs_batch(
                g,
                [root, root, int(rng.integers(n))],
                edge_mask=masks[0] if t % 2 else None,
            ),
            check_broadcast_batch(g, k, seed=16_000 * seed + t),
            check_packing_candidates(g, parts, seed=17_000 * seed + t),
            check_fault_grid(g, k, seed=18_000 * seed + t, parts=parts),
            check_redundant_broadcast(
                g,
                k,
                seed=10_000 * seed + t,
                parts=parts,
                redundancy=1 + t % 2,
            ),
            check_root_policies(g, parts, seed=11_000 * seed + t),
            check_coverage_repair(g, k, seed=12_000 * seed + t, parts=parts),
            check_tournament(g, k, seed=13_000 * seed + t) if t % 3 == 0 else [],
            check_trace_transparency(g, k, seed=19_000 * seed + t, parts=parts),
        ):
            report.checks += 1
            report.mismatches.extend(f"[trial {t}, n={n}] {m}" for m in mismatches)
        report.trials += 1
    return report


def main() -> int:  # pragma: no cover - thin CLI wrapper
    report = verify_equivalence(trials=25, seed=7, max_n=32)
    print(f"trials={report.trials} checks={report.checks}")
    for m in report.mismatches:
        print(f"MISMATCH {m}")
    print("equivalent" if report.ok else f"{len(report.mismatches)} mismatches")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
