"""One workload process: set up, report readiness, run a fixed amount of work.

Started by ``run.py``, never by hand:

    python3 perfbench/worker.py --workload W --seed S --seconds T --role ROLE

ROLE is ``setup`` (set up, then exit), ``run`` (the untraced run that gives
the end-to-end metrics) or ``trace`` (the same run with spans recorded).
The worker prints ``ready`` once set-up is done, then one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
BLAS_THREADS = "1"
# Timings come from the fastest 5% of each op's samples (one per round), but
# at least MIN_OPS samples are kept in all, so that at least ten lie beyond
# the 90th percentile, and at most a quarter of each op's samples.  Other
# tenants of a shared machine slow a CPU by up to 50% in spells of a second
# or more; an op is shorter than a spell, and its fastest samples skip them.
KEEP_SHARE = 0.05
MIN_OPS = 100

# Pin BLAS threads before numpy is imported, and the process to one CPU, the
# same in every run: the last one, as CPU 0 usually serves more interrupts.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS
NPROC = len(os.sched_getaffinity(0))
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
sys.path.insert(0, str(SRC))


def import_library():
    """Import the library from this checkout's src/, and from nowhere else."""
    import bilinear_kernels
    if not Path(bilinear_kernels.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bilinear_kernels imported from {bilinear_kernels.__file__}, "
                          f"not from {SRC}")
    return bilinear_kernels


def run_rounds(ops, rounds: int, call):
    """Run every op of the round, ``rounds`` times; time and check each op.

    Returns the latencies of each op (one list per op of the round, one
    sample per round) and the failures by ``label:reason``."""
    latencies = [[] for _ in ops]
    failures: Counter = Counter()
    op_id = 0
    for _ in range(rounds):
        for i, (label, op) in enumerate(ops):
            t0 = time.perf_counter()
            try:
                reason = call(op_id, op)
            except Exception as exc:  # a raising op is a failed op; the run goes on
                reason = type(exc).__name__
                if not failures[f"{label}:{reason}"]:
                    traceback.print_exc()
            latencies[i].append(time.perf_counter() - t0)
            if reason is not None:
                failures[f"{label}:{reason}"] += 1
            op_id += 1
    return latencies, failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    bk = import_library()
    import numpy as np

    import workloads
    build, rounds_per_s = workloads.WORKLOADS[args.workload]
    ops = build(args.seed)
    min_kept = math.ceil(MIN_OPS / len(ops))
    rounds = max(4 * min_kept, round(args.seconds * rounds_per_s))
    for label, op in ops:  # first call of every shape: caches and lazy set-up
        try:
            op()
        except Exception:  # reported and counted when the timed loop repeats it
            pass
    gc.collect()
    gc.freeze()
    print("ready", flush=True)
    if args.role == "setup":
        return 0

    tracer = None
    call = lambda op_id, op: op()  # noqa: E731
    if args.role == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        call = tracer.run_op

    latencies, failures = run_rounds(ops, rounds, call)

    keep = max(min_kept, math.ceil(rounds * KEEP_SHARE))
    kept = [sorted(samples)[:keep] for samples in latencies]
    kept_lat = [t for samples in kept for t in samples]
    p90 = statistics.quantiles(kept_lat, n=10)[-1]
    # One round at every op's typical fast speed.
    round_s = sum(statistics.median(samples) for samples in kept)
    result = {
        "rounds": rounds,
        "kept_per_op": keep,
        "attempted": rounds * len(ops),
        "failed": sum(failures.values()),
        "failures": dict(sorted(failures.items())),
        "round_s": round_s,
        "ops_per_s": len(ops) / round_s,
        "op_p50_ms": statistics.median(kept_lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "beyond_p90": sum(1 for t in kept_lat if t > p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"blas_threads": BLAS_THREADS, "cpu": CPU, "nproc": NPROC,
                "python": platform.python_version(), "numpy": np.__version__,
                "bilinear_kernels": bk.__version__},
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, workloads.KERNEL_LARGE_CELLS)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
