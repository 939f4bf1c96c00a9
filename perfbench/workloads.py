"""The four benchmark workloads.

Each workload builds its inputs from the run seed alone, runs its op in a
closed loop (see :func:`harness.closed_loop`), checks every op's output
with :mod:`oracles`, and reports

* ``end_to_end()`` — the workload's certified receipts per second, and
* ``layers()`` — per-layer numbers from ops run under a ``repro.obs``
  tracer plus benchmark-side spans around public calls.

``ground_truth()`` reruns a small instance of the op on the ``simulator``
and ``vectorized`` backends and requires identical outputs. ``smoke=True``
shrinks every size so the whole workload runs in seconds.
"""

from __future__ import annotations

from time import perf_counter as _clock

import numpy as np

from harness import OpRecord, SpanLog, median
from oracles import (
    BFS_FIELDS,
    BROADCAST_FIELDS,
    REPORT_FIELDS,
    BfsOracle,
    check_bfs_tree,
    check_broadcast,
    check_packing_trees,
    diff_faulty_bfs,
    diff_fields,
    diff_packings,
)
from repro import obs
from repro.cli import parse_graph_spec
from repro.congest import MobileAdversary
from repro.congest.adversary import FaultPlan
from repro.core import (
    FaultCell,
    broadcast_unknown_lambda,
    build_packing_with_retry,
    evaluate_fault_grid,
    fast_broadcast,
    num_parts,
    redundant_broadcast,
    textbook_broadcast,
    tree_edge_ids,
    uniform_random_placement,
)
from repro.engine.faults import faulty_bfs, faulty_bfs_grid
from repro.engine.fastpath import vectorized_elect_leader
from repro.graphs import thick_cycle
from repro.graphs.connectivity import greedy_dominating_set
from repro.primitives.bfs import run_bfs

VEC = "vectorized"
BACKENDS = ("simulator", VEC)


class Op:
    """Times one op; under ``traced`` it runs inside a fresh obs tracer.

    An exception raised by the op is recorded as its failure (with the
    time spent until it was raised) instead of ending the run.
    """

    def __init__(self, kind: str, traced: bool):
        self.rec = OpRecord(kind, 0.0)
        self._cm = obs.use_tracer() if traced else None

    def __enter__(self) -> OpRecord:
        self._tracer = self._cm.__enter__() if self._cm else None
        self._t0 = _clock()
        return self.rec

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.rec.secs = _clock() - self._t0
        if self._cm:
            self._cm.__exit__(None, None, None)
            tr = self._tracer
            self.rec.trace = {
                "phases": tr.phase_totals(),
                "counters": tr.counter_values(),
                "spans": [(s.name, s.dur) for s in tr.spans],
            }
        if exc_type is not None and issubclass(exc_type, Exception):
            self.rec.failures.append(f"{self.rec.kind} raised {exc_type.__name__}: {exc}")
            return True
        return False


def phase(rec: OpRecord, name: str) -> float:
    return rec.trace["phases"].get(name, 0.0)


def counter(rec: OpRecord, name: str) -> float:
    return rec.trace["counters"].get(name, 0)


def hit_ratio(recs) -> float:
    hits = sum(counter(r, "graph.masked_csr_hits") for r in recs)
    misses = sum(counter(r, "graph.masked_csr_misses") for r in recs)
    return hits / (hits + misses) if hits + misses else 0.0


def traced_bfs(graph, root: int) -> dict:
    """One ``run_bfs`` under a tracer: the engine's BFS layer numbers."""
    with Op("bfs", traced=True) as rec:
        run_bfs(graph, root, backend=VEC)
    spmv = counter(rec, "kernels.spmv_layers")
    gather = counter(rec, "kernels.gather_layers")
    return {"secs": rec.secs, "spmv": spmv, "gather": gather}


def bfs_layer_metrics(samples: list[dict]) -> dict:
    layers = [s["spmv"] + s["gather"] for s in samples]
    return {
        "engine.bfs_s": median(s["secs"] for s in samples),
        "engine.bfs_layers": median(layers),
        "engine.bfs_us_per_layer": median(
            1e6 * s["secs"] / max(1, n) for s, n in zip(samples, layers)),
        "engine.spmv_layers": median(s["spmv"] for s in samples),
        "engine.gather_layers": median(s["gather"] for s in samples),
    }


def phase_medians(recs, names: dict[str, str]) -> dict:
    return {metric: median(phase(r, span) for r in recs) for metric, span in names.items()}


CORE_PHASES = {
    "core.elect_s": "elect",
    "core.global_bfs_s": "global_bfs",
    "core.numbering_s": "numbering",
    "core.channel_split_s": "channel_split",
    "core.tree_packing_s": "tree_packing",
}


class Workload:
    """Shared state and helpers; subclasses define the op."""

    name = ""
    op_kind = ""  # the kind of OpRecord the op_s metrics summarize

    def __init__(self, seed: int):
        self.seed = seed
        self.log = SpanLog()
        self.ops: list[OpRecord] = []
        self.shared: list[str] = []  # failures of reference(), charged to every op

    def rng(self, stream: int) -> np.random.Generator:
        """Independent generator for one input stream of this run."""
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        """Build the host and generate the run's inputs."""
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed op, so lazy set-up inside the program is paid."""
        raise NotImplementedError

    def reference(self) -> list[str]:
        """Checks of artifacts every op of the run shares; [] if none."""
        return []

    def step(self, i: int, traced: bool) -> None:
        raise NotImplementedError

    def end_to_end(self, recs) -> dict:
        raise NotImplementedError

    def layers(self, untraced, traced) -> dict:
        raise NotImplementedError

    def ground_truth(self) -> list[str]:
        raise NotImplementedError

    def _build(self, groups: int, size: int):
        with self.log.span("graphs.build"):
            return thick_cycle(groups, size)


# --------------------------------------------------------------------------- #
# bcast-wide: fast vs textbook broadcast on a shallow, dense host
# --------------------------------------------------------------------------- #

class BcastWide(Workload):
    """``fast_broadcast`` + the paired ``textbook_broadcast`` per op.

    Host ``thick_cycle(156, 64)``: n = 9984, m ≈ 6.4·10⁵, λ = 128, D ≈ 79;
    9 trees at C = 1.5. k = 2n messages on a fresh uniform placement per
    op; the packing seed is fixed per run.

    Every BFS layer of this host stays under the engine's SpMV switch
    (``kernels._SPMV_LAYER_ARCS`` out-arcs). Wider hosts such as
    ``thick_cycle(125, 80)`` reach the SpMV layer whose unsorted candidate
    list breaks the parent rule and the certified ledger (ROADMAP item 1),
    so every op there fails. A traced run measures that defect on its own
    reproduction instead: :meth:`rule_breaks`.
    """

    name = "bcast-wide"
    op_kind = "broadcast"
    C = 1.5
    DEFECT_HOST = (125, 80)  # ROADMAP item 1: run_bfs(thick_cycle(125, 80), 0)

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.host = (8, 10) if smoke else (156, 64)
        self.lam = 2 * self.host[1]

    def setup(self):
        self.g = self._build(*self.host)
        self.k = 2 * self.g.n
        self.packing_seed = int(self.rng(1).integers(2**31))
        self.placements = self.rng(2)

    def warmup(self):
        self._broadcasts(uniform_random_placement(self.g.n, self.k, seed=self.seed))

    def _broadcasts(self, placement):
        t0 = _clock()
        fast = fast_broadcast(self.g, placement, lam=self.lam, C=self.C,
                              seed=self.packing_seed, backend=VEC, verify=True)
        t1 = _clock()
        text = textbook_broadcast(self.g, placement, backend=VEC, verify=True)
        return fast, text, t1 - t0, _clock() - t1

    def reference(self):
        # The leader's global tree and the packing are placement-independent,
        # so one reproduction through the same public calls covers every op.
        with self.log.span("reference"):
            self.leader, _ = vectorized_elect_leader(self.g)
            self.gtree = run_bfs(self.g, self.leader, backend=VEC)
            self.packing, _ = build_packing_with_retry(
                self.g, num_parts(self.lam, self.g.n, self.C), self.packing_seed,
                root=self.leader, backend=VEC)
            return (check_bfs_tree(self.g, self.leader, self.gtree.parent, self.gtree.dist,
                                   "global_tree")
                    + check_packing_trees(self.g, self.packing, "packing"))

    def step(self, i, traced):
        placement = uniform_random_placement(
            self.g.n, self.k, seed=int(self.placements.integers(2**63)))
        with Op("broadcast", traced) as rec:
            fast, text, rec.parts["fast_s"], rec.parts["textbook_s"] = \
                self._broadcasts(placement)
        self.ops.append(rec)
        if rec.failures:
            return
        n, k = self.g.n, self.k
        rec.failures += check_broadcast(fast, n, k, "fast") + check_broadcast(text, n, k, "textbook")
        ties = {
            "fast.global_bfs": (fast.phases.get("global_bfs"), self.gtree.rounds),
            "textbook.global_bfs": (text.phases.get("global_bfs"), self.gtree.rounds),
            "fast.tree_packing": (fast.phases.get("tree_packing"),
                                  self.packing.construction_rounds),
            "fast.parts": (fast.parts, self.packing.size),
        }
        rec.failures += [f"{key}: op {a} vs reproduced {b}"
                         for key, (a, b) in ties.items() if a != b]
        rec.failures += self.shared
        rec.parts.update(rounds=fast.rounds, parts=fast.parts, text_rounds=text.rounds,
                         pipeline_rounds=fast.phases["pipeline"] + text.phases["pipeline"])
        if traced:
            rec.parts["bfs"] = traced_bfs(self.g, self.leader)

    def end_to_end(self, recs):
        fast_s = sum(r.parts.get("fast_s", 0.0) for r in recs)
        done = sum(1 for r in recs if "fast_s" in r.parts)
        return {"deliveries_per_s": done * self.k * self.g.n / fast_s if fast_s else 0.0}

    def layers(self, untraced, traced):
        ok = [r for r in traced if "rounds" in r.parts]
        out = {
            "textbook_s.p50": median(r.parts["textbook_s"] for r in untraced
                                     if "textbook_s" in r.parts),
            "graphs.masked_csr_hit_ratio": hit_ratio(traced),
            "engine.pipeline_s": median(phase(r, "pipeline") for r in traced),
            "engine.pipeline_us_per_round": median(
                1e6 * phase(r, "pipeline") / r.parts["pipeline_rounds"] for r in ok),
            "engine.span_batches": median(counter(r, "engine.span_batches") for r in traced),
            "core.packing_attempts": median(counter(r, "packing.attempts") for r in traced),
            "core.rounds": median(r.parts["rounds"] for r in ok),
            "core.parts": median(r.parts["parts"] for r in ok),
            "core.round_ratio": median(r.parts["text_rounds"] / r.parts["rounds"] for r in ok),
        }
        out.update(phase_medians(traced, CORE_PHASES))
        out.update(bfs_layer_metrics([r.parts["bfs"] for r in ok]))
        out["engine.bfs_parent_rule_breaks"] = self.rule_breaks()
        return out

    def rule_breaks(self) -> int:
        """Parents of ``run_bfs(thick_cycle(125, 80), 0)`` that break the
        smallest previous-layer-neighbour rule: 160 while ROADMAP item 1
        stands, 0 once it is fixed. Runs after every measurement."""
        g = thick_cycle(*self.DEFECT_HOST)
        tree = run_bfs(g, 0, backend=VEC)
        _, parent = BfsOracle(g).reference(0)
        return int((tree.parent != parent).sum())

    def ground_truth(self):
        g = thick_cycle(6, 12)
        lam, k = 24, 2 * g.n
        rng = self.rng(9)
        placement = uniform_random_placement(g.n, k, seed=int(rng.integers(2**31)))
        pseed = int(rng.integers(2**31))
        parts = num_parts(lam, g.n, self.C)
        res = {
            b: (fast_broadcast(g, placement, lam=lam, C=self.C, seed=pseed, backend=b),
                textbook_broadcast(g, placement, backend=b),
                run_bfs(g, 0, backend=b),
                build_packing_with_retry(g, parts, pseed, root=0, backend=b)[0])
            for b in BACKENDS
        }
        (fs, ts, bs, ps), (fv, tv, bv, pv) = res["simulator"], res[VEC]
        return (diff_fields(fs, fv, BROADCAST_FIELDS, "gt.fast")
                + diff_fields(ts, tv, BROADCAST_FIELDS, "gt.textbook")
                + diff_fields(bs, bv, BFS_FIELDS, "gt.global_tree")
                + diff_packings(ps, pv, "gt.packing"))


# --------------------------------------------------------------------------- #
# bfs-deep: per-layer dispatch on a deep host, solo and batched
# --------------------------------------------------------------------------- #

class BfsDeep(Workload):
    """Solo ``run_bfs`` ops plus batched ``faulty_bfs_grid`` queries.

    Host ``thick_cycle(12500, 8)``: n = 10⁵, D = 6250. The loop unit is a
    block of 12 solo ops and one batch of 64 roots × 4 fault seeds = 256
    queries under a static dead-edge plan (every 97th edge dead).
    """

    name = "bfs-deep"
    op_kind = "bfs"
    DEAD_EVERY = 97

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.host = (200, 4) if smoke else (12500, 8)
        self.solo_per_block = 2 if smoke else 12
        self.batch_roots, self.batch_seeds = (4, 2) if smoke else (64, 4)

    def setup(self):
        self.g = self._build(*self.host)
        self.plan = FaultPlan(dead_edges=range(0, self.g.m, self.DEAD_EVERY))
        self.live = np.ones(self.g.m, dtype=bool)
        self.live[:: self.DEAD_EVERY] = False
        self.inputs = self.rng(1)

    def reference(self):
        self.oracle, self.live_oracle = BfsOracle(self.g), BfsOracle(self.g, self.live)
        return []

    def warmup(self):
        run_bfs(self.g, int(self.rng(2).integers(self.g.n)), backend=VEC)

    def step(self, i, traced):
        for _ in range(self.solo_per_block):
            self._solo(traced)
        self._batch(traced)

    def _solo(self, traced):
        root = int(self.inputs.integers(self.g.n))
        with Op("bfs", traced) as rec:
            tree = run_bfs(self.g, root, backend=VEC)
        self.ops.append(rec)
        if rec.failures:
            return
        rec.parts["rounds"] = tree.rounds
        rec.failures += self.oracle.check(root, tree.parent, tree.dist, "solo")

    def _batch(self, traced):
        g = self.g
        roots = self.inputs.choice(g.n, size=self.batch_roots, replace=False).tolist()
        seeds = self.inputs.integers(1 << 16, size=self.batch_seeds).tolist()
        q_roots = [r for r in roots for _ in seeds]
        q_seeds = [s for _ in roots for s in seeds]
        with Op("batch", traced) as rec:
            out = faulty_bfs_grid(g, q_roots, plan=self.plan, fault_seeds=q_seeds)
        self.ops.append(rec)
        if rec.failures:
            return
        rec.parts["queries"] = len(out)
        rec.parts["receipts"] = sum(int((o.result.dist >= 0).sum()) for o in out)
        s = self.batch_seeds
        for q in range(len(out)):  # queries sharing a root share one forest
            lead = out[q - q % s]
            if not (np.array_equal(out[q].result.dist, lead.result.dist)
                    and np.array_equal(out[q].result.parent, lead.result.parent)
                    and out[q].dropped == lead.dropped):
                rec.failures.append(f"batch[{q}]: differs from query {q - q % s} (same root)")
        for q in self.inputs.choice(len(out), size=2, replace=False).tolist():
            solo = faulty_bfs(g, q_roots[q], plan=self.plan, fault_seed=q_seeds[q], backend=VEC)
            rec.failures += diff_faulty_bfs(out[q], solo, f"batch[{q}] vs solo")
            rec.failures += self.live_oracle.check(q_roots[q], out[q].result.parent,
                                                   out[q].result.dist, f"batch[{q}]")

    def end_to_end(self, recs):
        batches = [r for r in recs if r.kind == "batch" and "receipts" in r.parts]
        secs = sum(r.secs for r in batches)
        return {"deliveries_per_s": sum(r.parts["receipts"] for r in batches) / secs
                if secs else 0.0}

    def layers(self, untraced, traced):
        def batches(recs):
            return [r for r in recs if r.kind == "batch" and "queries" in r.parts]

        solos = [r for r in traced if r.kind == "bfs" and "rounds" in r.parts]
        ub, tb = batches(untraced), batches(traced)
        useconds = sum(r.secs for r in ub)
        out = {
            "queries_per_s": sum(r.parts["queries"] for r in ub) / useconds if useconds else 0.0,
            "graphs.masked_csr_hit_ratio": hit_ratio(traced),
            "engine.plane_s_per_query": median(r.secs / r.parts["queries"] for r in tb),
            "engine.plane_occupancy": median(
                counter(r, "plane.occupied_cells") / max(1, counter(r, "plane.cells"))
                for r in tb),
            "engine.plane_chunks": median(counter(r, "plane.chunks") for r in tb),
            "core.rounds": median(r.parts["rounds"] for r in solos),
        }
        out.update(bfs_layer_metrics([
            {"secs": r.secs, "spmv": counter(r, "kernels.spmv_layers"),
             "gather": counter(r, "kernels.gather_layers")} for r in solos]))
        return out

    def ground_truth(self):
        g = thick_cycle(30, 3)
        plan = FaultPlan(dead_edges=range(0, g.m, 7))
        rng = self.rng(9)
        roots = rng.choice(g.n, size=3, replace=False).tolist()
        seeds = rng.integers(1 << 16, size=2).tolist()
        q_roots = [r for r in roots for _ in seeds]
        q_seeds = [s for _ in roots for s in seeds]
        out = diff_fields(run_bfs(g, roots[0], backend="simulator"),
                          run_bfs(g, roots[0], backend=VEC), BFS_FIELDS, "gt.bfs")
        grids = {b: faulty_bfs_grid(g, q_roots, plan=plan, fault_seeds=q_seeds, backend=b)
                 for b in BACKENDS}
        for q, (a, b) in enumerate(zip(grids["simulator"], grids[VEC])):
            out += diff_faulty_bfs(a, b, f"gt.grid[{q}]")
        return out


# --------------------------------------------------------------------------- #
# cli-lam-none: the whole `repro broadcast --algorithm fast` call, λ unknown
# --------------------------------------------------------------------------- #

class CliLamNone(Workload):
    """The public calls of ``repro broadcast <spec> -k 2n --algorithm fast
    --backend vectorized``: ``parse_graph_spec``, then
    ``uniform_random_placement``, then ``fast_broadcast(lam=None)``.

    The loop unit is one cycle over five n ≈ 2000 specs; every op builds
    its graph cold.
    """

    name = "cli-lam-none"
    op_kind = "cli"
    C = 2.0
    SPECS = ("thick:groups=50,size=40", "reg:n=2000,d=32,seed={s}", "hypercube:dim=11",
             "torus:rows=45,cols=45", "cliques:num=10,size=200,bridge=24")
    SMOKE_SPECS = ("thick:groups=6,size=5", "reg:n=40,d=6,seed={s}", "hypercube:dim=5",
                   "torus:rows=6,cols=6", "cliques:num=3,size=10,bridge=3")

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.specs = self.SMOKE_SPECS if smoke else self.SPECS

    def setup(self):
        self.inputs = self.rng(1)

    def warmup(self):
        self._call(self.specs[0].format(s=0), self.seed)

    def _call(self, spec, s, rec=None):
        with self.log.span("graphs.build") as build:
            g = parse_graph_spec(spec)
        placement = uniform_random_placement(g.n, 2 * g.n, seed=s)
        res = fast_broadcast(g, placement, C=self.C, seed=s, backend=VEC)
        if rec is not None:
            rec.parts["build_s"] = build["dur"]
        return g, placement, res

    def step(self, i, traced):
        for spec in self.specs:
            s = int(self.inputs.integers(2**31))
            spec = spec.format(s=s)
            with Op("cli", traced) as rec:
                g, placement, res = self._call(spec, s, rec)
            self.ops.append(rec)
            if rec.failures:
                continue
            rec.parts.update(spec=spec, kn=2 * g.n * g.n, rounds=res.rounds, parts=res.parts)
            rec.failures += check_broadcast(res, g.n, 2 * g.n, spec)
            # No assumption about the λ route: only the route-independent
            # prologue (leader + global BFS tree) is reproduced.
            leader, _ = vectorized_elect_leader(g)
            tree = run_bfs(g, leader, backend=VEC)
            rec.failures += check_bfs_tree(g, leader, tree.parent, tree.dist,
                                           f"{spec}.global_tree")
            if res.phases.get("global_bfs", tree.rounds) != tree.rounds:
                rec.failures.append(f"{spec}: global_bfs {res.phases['global_bfs']} "
                                    f"vs reproduced {tree.rounds}")
            if traced:
                dom = len(greedy_dominating_set(g))
                rec.parts["flows"] = dom - 1 if dom > 1 else 1
                with self.log.span("core.unknown_lambda") as span:
                    broadcast_unknown_lambda(g, placement, seed=s, C=self.C, backend=VEC)
                rec.parts["unknown_lambda_s"] = span["dur"]
                rec.parts["bfs"] = traced_bfs(g, leader)

    def end_to_end(self, recs):
        done = [r for r in recs if "kn" in r.parts]
        secs = sum(r.secs for r in done)
        return {"deliveries_per_s": sum(r.parts["kn"] for r in done) / secs if secs else 0.0}

    def layers(self, untraced, traced):
        ok = [r for r in traced if "rounds" in r.parts]
        out = {
            "graphs.build_s": median(r.parts["build_s"] for r in ok),
            "graphs.connectivity_s": median(phase(r, "connectivity") for r in ok),
            "graphs.connectivity_share": median(phase(r, "connectivity") / r.secs for r in ok),
            "graphs.connectivity_flows": median(r.parts["flows"] for r in ok),
            "graphs.masked_csr_hit_ratio": hit_ratio(traced),
            "engine.pipeline_s": median(phase(r, "pipeline") for r in ok),
            "core.unknown_lambda_s": median(r.parts["unknown_lambda_s"] for r in ok),
            "core.rounds": median(r.parts["rounds"] for r in ok),
            "core.parts": median(r.parts["parts"] for r in ok),
        }
        out.update(phase_medians(ok, CORE_PHASES))
        out.update(bfs_layer_metrics([r.parts["bfs"] for r in ok]))
        return out

    def ground_truth(self):
        out = []
        for spec in self.SMOKE_SPECS:
            spec = spec.format(s=self.seed)
            g = parse_graph_spec(spec)
            placement = uniform_random_placement(g.n, 2 * g.n, seed=self.seed)
            sim, vec = (fast_broadcast(g, placement, C=self.C, seed=self.seed, backend=b)
                        for b in BACKENDS)
            out += diff_fields(sim, vec, BROADCAST_FIELDS, f"gt.{spec}")
        return out


# --------------------------------------------------------------------------- #
# fault-grid: scenario × redundancy grids, coin-free vs lossy cells
# --------------------------------------------------------------------------- #

class FaultGrid(Workload):
    """One ``evaluate_fault_grid`` over 8 cells per op.

    Host ``thick_cycle(250, 40)``: n = 10⁴, λ = 80, 5 trees at C = 1.5,
    built in set-up; k = 200. Cells: {none, dead tree 0, mobile sweep over
    tree 0, i.i.d. loss 0.1 %} × redundancy {1, 2}; the loss coins are
    reseeded every op.
    """

    name = "fault-grid"
    op_kind = "grid"
    C = 1.5
    LOSS = 0.001

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.host = (20, 10) if smoke else (250, 40)
        self.k = 60 if smoke else 200
        self.mobile = (4, 400) if smoke else (32, 4000)  # budget, rounds

    def setup(self):
        g = self.g = self._build(*self.host)
        with self.log.span("core.tree_packing") as span:
            self.packing, span["attempts"] = build_packing_with_retry(
                g, num_parts(2 * self.host[1], g.n, self.C), int(self.rng(1).integers(2**31)),
                backend=VEC)
        self.placement = uniform_random_placement(g.n, self.k, seed=self.seed)
        self.inputs = self.rng(2)
        self.grid_seed = int(self.inputs.integers(2**31))
        self.scenarios = self._scenarios(self.packing, *self.mobile)

    def warmup(self):
        evaluate_fault_grid(self.g, self.placement, self.packing, self.cells(0),
                            seed=self.grid_seed)

    @staticmethod
    def _scenarios(packing, budget, rounds):
        dead = tree_edge_ids(packing, 0)
        return {
            "none": {},
            "dead-tree": {"dead_edges": dead},
            "mobile": {"adversary": MobileAdversary.sweeping(sorted(dead), budget, rounds)},
            "loss": {"drop_rate": FaultGrid.LOSS},
        }

    def cells(self, fault_seed: int, scenarios=None) -> list[FaultCell]:
        return [
            FaultCell(redundancy=r, fault_seed=fault_seed if "drop_rate" in kw else None, **kw)
            for kw in (scenarios or self.scenarios).values() for r in (1, 2)
        ]

    def reference(self):
        with self.log.span("reference"):
            leader, _ = vectorized_elect_leader(self.g)
            tree = run_bfs(self.g, leader, backend=VEC)
            return (check_bfs_tree(self.g, leader, tree.parent, tree.dist, "global_tree")
                    + check_packing_trees(self.g, self.packing, "packing"))

    def step(self, i, traced):
        g, k = self.g, self.k
        cells = self.cells(int(self.inputs.integers(2**31)))
        with Op("grid", traced) as rec:
            reports = evaluate_fault_grid(g, self.placement, self.packing, cells,
                                          seed=self.grid_seed)
        self.ops.append(rec)
        if rec.failures:
            return
        rec.failures += self.shared
        names = [name for name in self.scenarios for _ in (1, 2)]
        K = -(-k // self.packing.size)
        for name, cell, rep in zip(names, cells, reports):
            label = f"{name}/r{cell.redundancy}"
            if name == "none" and (rep.fully_delivered != k or rep.dropped_messages):
                rec.failures.append(f"{label}: fault-free cell lost messages")
            if name == "dead-tree":
                # Tree 0's K messages cannot cross a dead tree without a copy
                # on another tree; redundancy 2 delivers everything.
                want = k if cell.redundancy == 2 else k - min(K, k)
                if rep.fully_delivered != want:
                    rec.failures.append(f"{label}: {rep.fully_delivered} fully delivered, "
                                        f"expected {want}")
        j = (i + self.seed) % len(cells)
        c = cells[j]
        solo = redundant_broadcast(
            g, self.placement, self.packing, redundancy=c.redundancy, dead_edges=c.dead_edges,
            drop_rate=c.drop_rate, mobile=c.mobile, seed=self.grid_seed,
            fault_seed=c.fault_seed, adversary=c.adversary, backend=VEC)
        rec.failures += diff_fields(reports[j], solo, REPORT_FIELDS, f"grid[{j}] vs solo")
        rec.parts.update(
            cells=len(reports),
            receipts=g.n * sum(sum(r.per_message_coverage.values()) for r in reports),
            delivery_ratio=sum(sum(r.per_message_coverage.values()) for r in reports)
            / (k * len(reports)),
            dropped=sum(r.dropped_messages for r in reports),
            rounds=max(r.rounds for r in reports),
            loss=[c.drop_rate > 0 for c in cells],
        )
        if traced:
            rec.parts["bfs"] = traced_bfs(g, 0)

    def end_to_end(self, recs):
        done = [r for r in recs if "receipts" in r.parts]
        secs = sum(r.secs for r in done)
        return {"deliveries_per_s": sum(r.parts["receipts"] for r in done) / secs
                if secs else 0.0}

    def layers(self, untraced, traced):
        ok = [r for r in traced if "receipts" in r.parts]
        done = [r for r in untraced if "cells" in r.parts]
        coin_free, loss, shares, coins = [], [], [], []
        for r in ok:
            cells = [d for name, d in r.trace["spans"] if name == "faulty_broadcast"]
            lossy = r.parts["loss"]
            coin_free += [d for d, x in zip(cells, lossy) if not x]
            loss += [d for d, x in zip(cells, lossy) if x]
            shares.append(sum(d for d, x in zip(cells, lossy) if x) / r.secs)
            coins.append(counter(r, "rng.fault_coins") / max(1, sum(lossy)))
        secs = sum(r.secs for r in done)
        out = {
            "cells_per_s": sum(r.parts["cells"] for r in done) / secs if secs else 0.0,
            "graphs.masked_csr_hit_ratio": hit_ratio(traced),
            "engine.faults.cell_s.coin_free": median(coin_free),
            "engine.faults.cell_s.loss": median(loss),
            "engine.faults.loss_time_share": median(shares),
            "engine.faults.coins_per_cell": median(coins),
            "engine.faults.delivery_ratio": median(r.parts["delivery_ratio"] for r in ok),
            "engine.faults.dropped_reported": median(r.parts["dropped"] for r in ok),
            "engine.faults.dropped_counter": median(counter(r, "faults.dropped") for r in ok),
            "engine.span_batches": median(counter(r, "engine.span_batches") for r in ok),
            "core.tree_packing_s": median(self.log.durations("core.tree_packing")),
            "core.packing_attempts": median(
                s["attempts"] for s in self.log.records if s["name"] == "core.tree_packing"),
            "core.rounds": median(r.parts["rounds"] for r in ok),
            "core.parts": self.packing.size,
        }
        out.update(phase_medians(ok, {k: v for k, v in CORE_PHASES.items()
                                      if k != "core.tree_packing_s"}))
        out.update(bfs_layer_metrics([r.parts["bfs"] for r in ok]))
        return out

    def ground_truth(self):
        g = thick_cycle(10, 10)
        packing, _ = build_packing_with_retry(g, 3, seed=self.seed, backend=VEC)
        placement = uniform_random_placement(g.n, 60, seed=self.seed)
        cells = self.cells(self.seed, self._scenarios(packing, 4, 400))
        grids = {b: evaluate_fault_grid(g, placement, packing, cells, seed=self.seed,
                                        backend=b, collect_receipts=True)
                 for b in BACKENDS}
        out = []
        for j, (a, b) in enumerate(zip(grids["simulator"], grids[VEC])):
            out += diff_fields(a, b, REPORT_FIELDS, f"gt.grid[{j}]")
        return out


WORKLOADS = {w.name: w for w in (BcastWide, BfsDeep, CliLamNone, FaultGrid)}
