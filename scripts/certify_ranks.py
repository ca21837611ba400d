#!/usr/bin/env python3
"""Rank-certification sweep: for each structure and size, harvest the
kernel's decomposition, verify it against the structure tensor, and compare
the term count with the mode-1 flattening rank.

Where the two numbers meet, the tensor rank is pinned exactly; where they
differ by one (Toeplitz-plus-Hankel at n >= 2) only the bounds are certified.

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
            f = -1.0 if spec.needs_f else None
            D = bk.extract_decomposition(kind, n, f=f)
            T = bk.structure_tensor(kind, n, f=f)
            rep = bk.verify_decomposition(T, D, 1e-8)
            ranks = bk.flattening_ranks(T)
            dim = bk.structure_dim(kind, n)
            lower = max(ranks)
            if not rep.passed or ranks[0] != dim:
                ok = False
                statement = "FAILED"
            elif lower == rep.term_count:
                statement = f"rank = {rep.term_count}"
            else:
                statement = f"{lower} <= rank <= {rep.term_count}"
            print(f"{kind.value:22s} {n:3d} {rep.term_count:6d} {lower:8d} {dim:5d} "
                  f"{rep.max_abs_error:9.2e}  {statement}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 8))
