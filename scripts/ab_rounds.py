#!/usr/bin/env python3
"""Time two checkouts' ops for one benchmark workload, interleaved op by op,
in one process.

Each checkout's src/ and perfbench/workloads.py are imported in turn, under
their own module names, and neither is changed.  Every op of a round runs
once per side, the two sides back to back in an order that alternates from
round to round, so a slow spell of a shared machine falls on both.  BLAS
runs one thread and the process is pinned to one CPU, as in the benchmark's
worker.

Prints the per-op time (a round's time over its ops) of each side, its
minimum and median over the rounds, and each cell's median op time.  With
--groups it also prints each group's summed cell medians, a group being the
cells whose labels differ only in their last dotted field (oracle-sweep's
f_circulant.fresh, bttb, toeplitz3, sparse, ...), to show where a change
lands.

Usage:
    python scripts/ab_rounds.py A B [--workload kernel-large] [--rounds 400] [--seed 1]
                                    [--groups]

A and B are checkout roots (each holding src/ and perfbench/), e.g. a copy
of the parent commit and this tree.
"""

import argparse
import gc
import os
import statistics
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def checkout_module(name: str) -> bool:
    """Whether a module comes from a checkout: the library or the workloads."""
    return name == "workloads" or name.split(".")[0] == "bilinear_kernels"


def load(root: Path, workload: str, seed: int):
    """root's library and workloads, imported afresh: the round of ops, and
    the modules they were built from, to put in place whenever they run (a
    library import made inside a call must find its own checkout's)."""
    for name in list(filter(checkout_module, sys.modules)):
        del sys.modules[name]
    paths = [str(root / "src"), str(root / "perfbench")]
    sys.path[:0] = paths
    try:
        import bilinear_kernels
        import workloads
    finally:
        del sys.path[:len(paths)]
    if not Path(bilinear_kernels.__file__).resolve().is_relative_to(root.resolve() / "src"):
        raise ImportError(f"bilinear_kernels imported from {bilinear_kernels.__file__}, "
                          f"not from {root / 'src'}")
    ops = workloads.WORKLOADS[workload][0](seed)
    modules = {n: m for n, m in sys.modules.items() if checkout_module(n)}
    for _, op in ops:          # first call of every shape: caches and lazy set-up
        op()
    return ops, modules


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--workload", default="kernel-large")
    ap.add_argument("--rounds", type=int, default=400)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--groups", action="store_true",
                    help="also print each group's summed cell medians")
    args = ap.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    sides = [load(root, args.workload, args.seed) for root in (args.a, args.b)]
    labels = [label for label, _ in sides[0][0]]
    if [label for label, _ in sides[1][0]] != labels:
        print("ab_rounds: the two checkouts build different rounds", file=sys.stderr)
        return 2
    gc.collect()
    gc.freeze()

    clock = time.perf_counter
    times = [[[] for _ in labels] for _ in sides]      # side, op, one sample per round
    failed = [0, 0]
    for r in range(args.rounds):
        for i in range(len(labels)):
            for s in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                ops, modules = sides[s]
                sys.modules.update(modules)
                op = ops[i][1]
                t0 = clock()
                reason = op()
                times[s][i].append(clock() - t0)
                failed[s] += reason is not None

    per_op = [[sum(op[r] for op in side) / len(labels) for r in range(args.rounds)]
              for side in times]
    print(f"{args.workload}: {args.rounds} rounds of {len(labels)} ops, seed {args.seed}; "
          f"failed ops A {failed[0]}, B {failed[1]}")
    print(f"A = {args.a}\nB = {args.b}")
    print(f"{'per-op time (us)':28s} {'A':>9s} {'B':>9s} {'change':>8s}")
    for name, stat in (("min", min), ("median", statistics.median)):
        a, b = (stat(side) * 1e6 for side in per_op)
        print(f"{name:28s} {a:9.2f} {b:9.2f} {(b - a) / a:+8.1%}")
    medians = [[statistics.median(op) * 1e6 for op in side] for side in times]
    print(f"{'cell median (us)':28s} {'A':>9s} {'B':>9s} {'change':>8s}")
    for label, a, b in zip(labels, *medians):
        print(f"{label:28s} {a:9.2f} {b:9.2f} {(b - a) / a:+8.1%}")
    if args.groups:
        groups: dict[str, list[float]] = {}
        for label, a, b in zip(labels, *medians):
            sums = groups.setdefault(label.rsplit(".", 1)[0], [0.0, 0.0])
            sums[0] += a
            sums[1] += b
        print(f"{'group median sum (us)':28s} {'A':>9s} {'B':>9s} {'change':>8s}")
        for group, (a, b) in groups.items():
            print(f"{group:28s} {a:9.2f} {b:9.2f} {(b - a) / a:+8.1%}")
    return 0 if failed == [0, 0] else 1


if __name__ == "__main__":
    sys.exit(main())
