"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload bcast-wide --seed 1 --seconds 20 --trace 0

One process, one caller, a closed loop. The run imports the program,
builds the workload's host and inputs three times, runs one untimed
warm-up op (``setup_s`` is import + median build + warm-up), checks the
artifacts every op shares, loops the op for
``--seconds``, checks every op's output, and finally compares a small
instance of the op across the ``simulator`` and ``vectorized`` backends.

It prints a report (every metric with its unit, the tail percentile and
its sample count, failures), then as the last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json under ``--trace 0``, its
``per_layer`` metrics under ``--trace 1``. A traced run loops half the
time untraced and half under a ``repro.obs`` tracer, and writes its spans
to ``.perfbench/``. ``--smoke`` runs tiny sizes for the self-check.

Exit status: 0 when the run completed (``correct`` says whether every
output checked out), 2 when the program sources or BENCHMARK.json are
missing from the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

from harness import closed_loop, median, peak_rss_mb, process_age, tail

T_START = time.perf_counter()
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up")
    return p.parse_args(argv)


def run_loop(wl, seconds: float, traced: bool):
    start = len(wl.ops)
    closed_loop(lambda i: wl.step(i, traced), seconds)
    return wl.ops[start:]


def checked(fn, label: str) -> list[str]:
    """Run a per-run check; an exception is a failure of that check."""
    try:
        return fn()
    except Exception as exc:  # the run must still report
        return [f"{label} raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    src = os.path.join(root, "src")
    if not (os.path.isfile(spec_path) and os.path.isfile(os.path.join(src, "repro", "__init__.py"))):
        print("perfbench: run from the repository root; it needs BENCHMARK.json and src/repro",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])

    # Pin the BLAS/OpenMP pools before numpy loads; one caller, one thread.
    for var in POOL_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import workloads  # numpy, scipy and the program load here

    import_s = process_age() or time.perf_counter() - T_START

    wl = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    setups = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.warmup()
    warmup_s = time.perf_counter() - t0
    setup_s = import_s + median(setups) + warmup_s
    wl.shared = checked(wl.reference, "reference")

    if args.trace:
        untraced = run_loop(wl, args.seconds / 2, traced=False)
        traced = run_loop(wl, args.seconds / 2, traced=True)
    else:
        untraced, traced = run_loop(wl, args.seconds, traced=False), []
    gt_failures = checked(wl.ground_truth, "ground_truth")

    ops = untraced + traced
    attempted = len(ops)
    failed = sum(1 for r in ops if r.failures)
    op_secs = [r.secs for r in untraced if r.kind == wl.op_kind]
    tail_s, tail_pct, beyond = tail(op_secs)
    values = {
        "setup_s": setup_s,
        "op_s.p50": median(op_secs),
        "op_s.tail": tail_s,
        "peak_rss_mb": peak_rss_mb(),
        **wl.end_to_end(untraced),
    }
    if args.trace:
        traced_secs = [r.secs for r in traced if r.kind == wl.op_kind]
        base = median(op_secs)
        values.update({
            "proc.import_s": import_s,
            "graphs.build_s": median(wl.log.durations("graphs.build")),
            "failed_frac": failed / attempted,
            "obs.overhead_frac": (median(traced_secs) - base) / base if base else 0.0,
        })
        values.update(wl.layers(untraced, traced))
        os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
        wl.log.write(os.path.join(root, ".perfbench", f"trace-{wl.name}-seed{args.seed}.jsonl"),
                     [{"op": r.kind, "secs": r.secs, "failures": len(r.failures), **(r.trace or {})}
                      for r in ops])

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in spec[kind]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print(f"  set-up: import {import_s:.4f} s, build+inputs "
          f"{', '.join(f'{s:.4f}' for s in setups)} s, warm-up op {warmup_s:.4f} s")
    for name in sorted(values):
        print(f"  {name} = {values[name]:.6g} {units.get(name, '')}")
    print(f"  op_s.tail is p{tail_pct:.1f} of {len(op_secs)} untraced ops, "
          f"{beyond} samples beyond it")
    print(f"  ops: attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / max(1, attempted):.4f})")
    for msg, count in Counter(m for r in ops for m in r.failures).most_common(8):
        print(f"  FAIL x{count}: {msg}")
    print(f"  ground truth (simulator vs vectorized): "
          f"{'identical' if not gt_failures else 'MISMATCH'}")
    for msg in gt_failures[:8]:
        print(f"  GT: {msg}")
    print(json.dumps({"correct": failed == 0 and not gt_failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
