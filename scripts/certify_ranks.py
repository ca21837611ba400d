#!/usr/bin/env python3
"""Rank-certification sweep: for each structure and size, run the certify
chain (bilinear_kernels.certify_rank): harvest the kernel's decomposition,
verify it against the structure tensor, and compare the term count with the
largest flattening rank.

Where the two numbers meet, the tensor rank is pinned exactly; elsewhere
only the bounds are certified.  A row whose decomposition fails or whose
mode-1 flattening rank is not the structure's dimension reads FAILED.

Usage:
    python scripts/certify_ranks.py [max_n]
"""

import sys

import bilinear_kernels as bk
from bilinear_kernels.kernels import SPECS


def main(max_n: int) -> int:
    print(f"{'structure':22s} {'n':>3s} {'terms':>6s} {'rank_lb':>8s} {'dim':>5s} "
          f"{'err':>9s}  statement")
    ok = True
    for kind, spec in SPECS.items():
        if spec.needs_pattern:
            continue
        for n in range(1, max_n + 1):
            if spec.params(n, None) == 0:
                continue
            c = bk.certify_rank(kind, n)
            if not c.passed or c.ranks[0] != c.dim:
                ok = False
                statement = "FAILED"
            elif c.certified:
                statement = f"rank = {c.terms}"
            else:
                statement = f"{c.lower} <= rank <= {c.terms}"
            print(f"{kind.value:22s} {n:3d} {c.terms:6d} {c.lower:8d} {c.dim:5d} "
                  f"{c.error:9.2e}  {statement}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 8))
