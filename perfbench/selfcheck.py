"""Self-check of the benchmark harness: ``python3 -m pytest -q perfbench/selfcheck.py``.

Runs the tiny smoke configuration of every workload, untraced and traced,
through the same command line a benchmark run uses, and checks the output
contract; also checks that the oracles catch a broken BFS tree and that
the runner refuses a directory without the program sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import tail  # noqa: E402
from oracles import check_bfs_tree  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, *args, timeout=180):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_output_contract(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    """Inputs come from the seed alone: one unit of the loop, run twice from
    the same seed, yields the same certified outputs op for op."""
    from workloads import WORKLOADS as CLASSES

    outputs = []
    for _ in range(2):
        wl = CLASSES[workload](7, smoke=True)
        wl.setup()
        wl.shared = wl.reference()
        wl.step(0, traced=False)
        outputs.append([{k: v for k, v in r.parts.items() if not k.endswith("_s")}
                        for r in wl.ops])
    assert outputs[0] == outputs[1]


def test_refuses_tree_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracle_flags_broken_parent_and_dist():
    from repro.graphs import thick_cycle
    from repro.primitives.bfs import run_bfs

    g = thick_cycle(6, 4)
    tree = run_bfs(g, 0, backend="vectorized")
    assert check_bfs_tree(g, 0, tree.parent, tree.dist, "ok") == []
    parent, dist = tree.parent.copy(), tree.dist.copy()
    v = int(dist.argmax())
    layer_above = [u for u in g.neighbors(v).tolist() if dist[u] == dist[v] - 1]
    parent[v] = max(layer_above) if len(layer_above) > 1 else v
    dist[1] += 1
    msgs = check_bfs_tree(g, 0, parent, dist, "bad")
    assert len(msgs) == 2 and "parents" in msgs[1] and "dist" in msgs[0]


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(1, 31))  # 30 samples
    value, pct, beyond = tail(samples)
    assert (value, beyond) == (20, 10)
    assert pct == pytest.approx(100 * 19 / 29)
    assert tail([3, 1, 2])[2] == 2  # too few samples: the minimum, flagged by beyond < 10
