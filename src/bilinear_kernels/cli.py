"""Command-line entry point: verification runs, count tables, tensor
certification, stability and group-algebra checks.

Exit codes: 0 pass, 1 fail, 2 usage or configuration error.  All randomness
comes from the seeded 64-bit LCG in rng.py, so identical configurations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .counting import CountContext, variables
from .groups import blocked_simultaneous, cyclic_group, dihedral8, tpp_check
from .kernels import SPECS, formula_count, structured_matvec
from .rng import Lcg
from .structures import (LevelSpec, SparsityPattern, StructureKind, StructuredMatrix,
                         dense_parts, naive_count, naive_matvec, param_count,
                         structure_dim, structured)
from .tensorlab import (NAMED_BUILDERS, build_structure_tensor,
                        complex_mul_decomposition, complex_mul_tensor, flattening_ranks,
                        ottaviani_test, stability_measure, structure_tensor,
                        verify_decomposition)

DEFAULT_TOL = 1e-8


@dataclass
class RunConfig:
    command: str
    kind: str | None = None
    n: int | None = None
    max_n: int = 8
    levels: tuple[LevelSpec, ...] | None = None
    f: complex = complex(-1.0)
    trials: int = 100
    seed: int = 0
    tol: float = DEFAULT_TOL
    out: str | None = None
    preset: str | None = None
    variant: str | None = None
    builder: str | None = None
    ottaviani: bool = False


class ConfigError(ValueError):
    pass


def _parse_complex(text: str) -> complex:
    """Accept 're,im', a bare real, or a Python complex literal like '1j';
    both parts must be finite."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            z = complex(parts[0].strip())
        elif len(parts) == 2:
            z = complex(float(parts[0]), float(parts[1]))
        else:
            raise ValueError(text)
    except ValueError:
        raise ConfigError(f"cannot parse complex number from {text!r} "
                          f"(expected re,im)") from None
    if not cmath.isfinite(z):
        raise ConfigError(f"complex number {text!r} is not finite")
    return z


def _table_kind(name: str | None, n: int | None, f: complex, where: str,
                draws_pattern: bool = False) -> tuple[StructureKind, complex | None]:
    """A single-level kind named on the command line, checked against the
    table, and the f it takes.  Only verify draws a sparsity pattern."""
    try:
        kind = StructureKind(name)
    except ValueError:
        raise ConfigError(f"{where}: unknown kind {name!r}") from None
    if kind is StructureKind.MULTILEVEL:
        raise ConfigError(f"{where}: multilevel is built from --levels")
    entry = SPECS[kind]
    if entry.needs_pattern and not draws_pattern:
        raise ConfigError(f"{where}: {kind.value} needs a sparsity pattern, "
                          f"which only verify --kind draws")
    if n is None or n < 1:
        raise ConfigError(f"{where}: the order must be a positive integer, got {n}")
    if entry.needs_f and f == 0:
        raise ConfigError(f"{where}: f must be nonzero")
    return kind, (f if entry.needs_f else None)


def _parse_levels(text: str) -> tuple[LevelSpec, ...]:
    levels = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"level {chunk!r}: expected kind:n or kind:n:f")
        try:
            n = int(parts[1])
        except ValueError:
            raise ConfigError(f"level {chunk!r}: bad order {parts[1]!r}") from None
        f = _parse_complex(parts[2]) if len(parts) == 3 else complex(-1.0)
        kind, f = _table_kind(parts[0], n, f, f"level {chunk!r}")
        if not SPECS[kind].multilevel_ok:
            raise ConfigError(f"level {chunk!r}: {kind.value} cannot be a level")
        levels.append(LevelSpec(kind, n, f))
    if not levels:
        raise ConfigError("empty level list")
    return tuple(levels)


def random_structured(kind: StructureKind, n: int, rng: Lcg, f: complex | None = None,
                      pattern: SparsityPattern | None = None,
                      levels: tuple[LevelSpec, ...] | None = None) -> StructuredMatrix:
    count = param_count(kind, n, pattern, levels)
    return structured(kind, n, rng.complex_vector(count), f=f, pattern=pattern,
                      levels=levels)


def random_pattern(n: int, rng: Lcg, density: float = 0.4) -> SparsityPattern:
    entries = [(i, j) for i in range(n) for j in range(n)
               if rng.uniform(0.0, 1.0) < density]
    if not entries:
        entries = [(rng.randint(n), rng.randint(n))]
    return SparsityPattern(n, n, tuple(entries))


def _rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest error relative to the largest reference entry; inf when any
    value is not finite, so that a run with NaN output cannot pass."""
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-12)
    err = float(np.abs(got - want).max(initial=0.0)) / scale
    return err if math.isfinite(err) else math.inf


def _build_instance(cfg: RunConfig, rng: Lcg) -> StructuredMatrix:
    if cfg.kind == "multilevel":
        if cfg.levels is None:
            raise ConfigError("multilevel verification needs --levels")
        order = math.prod(lev.n for lev in cfg.levels)
        return random_structured(StructureKind.MULTILEVEL, order, rng, levels=cfg.levels)
    kind, f = _table_kind(cfg.kind, cfg.n, cfg.f, "--kind", draws_pattern=True)
    pattern = random_pattern(cfg.n, rng) if SPECS[kind].needs_pattern else None
    return random_structured(kind, cfg.n, rng, f=f, pattern=pattern)


def _fmt_counts(values: set) -> str:
    return str(values.pop()) if len(values) == 1 else str(sorted(values))


def cmd_verify(cfg: RunConfig) -> int:
    rng = Lcg(cfg.seed)
    max_err = 0.0
    counts_match = True
    fast_counts = set()
    naive_counts = set()
    formulas = set()
    for _ in range(cfg.trials):
        M = _build_instance(cfg, rng)
        x = variables(rng.complex_vector(M.n))
        ctx = CountContext()
        fast = structured_matvec(M, x, ctx)
        ctx_naive = CountContext()
        ref = naive_matvec(M, x, ctx_naive)
        max_err = max(max_err, _rel_error(np.array([s.value for s in fast]),
                                          np.array([s.value for s in ref])))
        formula = formula_count(M.kind, M.n, M.pattern, M.levels)
        counts_match &= ctx.bilinear_mults == formula
        fast_counts.add(ctx.bilinear_mults)
        naive_counts.add(ctx_naive.bilinear_mults)
        formulas.add(formula)
    ok = max_err <= cfg.tol and counts_match
    if cfg.kind == "multilevel" and cfg.levels is not None:
        cfg.n = math.prod(lev.n for lev in cfg.levels)
    print(f"kind={cfg.kind} n={cfg.n} trials={cfg.trials} "
          f"max_rel_err={max_err:.3e} fast_count={_fmt_counts(fast_counts)} "
          f"naive_count={_fmt_counts(naive_counts)} formula={_fmt_counts(formulas)} "
          f"pass={str(ok).lower()}")
    return 0 if ok else 1


def _count_row(M: StructuredMatrix, label_n: str, rng: Lcg) -> tuple[list[str], bool]:
    x = variables(rng.complex_vector(M.n))
    ctx = CountContext()
    structured_matvec(M, x, ctx)
    fast = ctx.bilinear_mults
    naive = naive_count(M)
    formula = formula_count(M.kind, M.n, M.pattern, M.levels)
    match = fast == formula
    # '*': the pattern-aware count, which skips a structurally zero diagonal
    naive_text = str(naive) if dense_parts(M)[2].diagonal().all() else f"{naive}*"
    name = "bttb" if M.kind is StructureKind.MULTILEVEL else M.kind.value
    return [name, label_n, str(fast), naive_text, str(formula), str(match).lower()], match


def cmd_count_table(cfg: RunConfig) -> int:
    rng = Lcg(cfg.seed)
    rows = [["structure", "n", "fast_mults", "naive_mults", "formula", "match"]]
    all_match = True
    for kind, entry in SPECS.items():
        if entry.needs_pattern:
            continue
        for n in range(1, cfg.max_n + 1):
            f = complex(-1.0) if entry.needs_f else None
            M = random_structured(kind, n, rng, f=f)
            row, ok = _count_row(M, str(n), rng)
            rows.append(row)
            all_match &= ok
    top = min(cfg.max_n, 5)
    for n in range(2, top + 1):
        for k in range(2, top + 1):
            levels = (LevelSpec(StructureKind.TOEPLITZ, n),
                      LevelSpec(StructureKind.TOEPLITZ, k))
            M = random_structured(StructureKind.MULTILEVEL, n * k, rng, levels=levels)
            row, ok = _count_row(M, f"{n}x{k}", rng)
            rows.append(row)
            all_match &= ok
    text = "\n".join(",".join(r) for r in rows) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all_match else 1


def cmd_tensor(cfg: RunConfig) -> int:
    from .extraction import extract_decomposition

    if cfg.builder in NAMED_BUILDERS:
        T = build_structure_tensor(cfg.builder)
    else:
        where = f"--builder (named: {', '.join(NAMED_BUILDERS)})" if cfg.builder else "--kind"
        kind, f = _table_kind(cfg.builder or cfg.kind, cfg.n, cfg.f, where)
        if SPECS[kind].params(cfg.n, None) == 0:
            raise ConfigError(f"{where}: {kind.value} of order {cfg.n} has no parameters")
        T = structure_tensor(kind, cfg.n, f=f)
    if cfg.builder:
        ranks = flattening_ranks(T)
        print(f"builder={cfg.builder} flattening_ranks={ranks}")
        if cfg.ottaviani:
            rep = ottaviani_test(T)
            if rep.nonsingular:
                print(f"border rank >= 5 (det magnitude {rep.det_magnitude:.3e})")
                return 0
            print(f"ottaviani test singular (det magnitude {rep.det_magnitude:.3e})")
            return 1
        return 0
    D = extract_decomposition(kind, cfg.n, f=f)
    rep = verify_decomposition(T, D, 1e-8)
    ranks = flattening_ranks(T)
    dim = structure_dim(kind, cfg.n)
    formula = formula_count(kind, cfg.n)
    certified = rep.passed and rep.term_count == formula and ranks[0] == dim \
        and formula == dim
    print(f"kind={kind.value} n={cfg.n} terms={rep.term_count} "
          f"decomposition_error={rep.max_abs_error:.3e} flattening_ranks={ranks} "
          f"structure_dim={dim}")
    if certified:
        print(f"rank certified = {formula}")
        return 0
    print(f"rank bounds: {ranks[0]} <= rank <= {rep.term_count}"
          if rep.passed else "decomposition failed verification")
    return 1


def cmd_stability(cfg: RunConfig) -> int:
    if cfg.preset not in ("usual", "gauss", "cube"):
        raise ConfigError("stability preset must be usual, gauss, or cube")
    D = complex_mul_decomposition(cfg.preset)
    rep = verify_decomposition(complex_mul_tensor(), D, 1e-9)
    measure = stability_measure(D)
    print(f"preset={cfg.preset} terms={rep.term_count} measure={measure:.7f} "
          f"verified={str(rep.passed).lower()}")
    return 0 if rep.passed else 1


def cmd_tpp(cfg: RunConfig) -> int:
    if cfg.preset == "d4-222":
        G = dihedral8()
        S, T, U = (4, 0), (6, 0), (7, 0)   # {y,1}, {x^2 y,1}, {x^3 y,1}
    elif cfg.preset == "cyclic-1n1":
        n = 4 if cfg.n is None else cfg.n
        G = cyclic_group(n)
        S, T, U = (0,), tuple(range(n)), (0,)
    else:
        raise ConfigError("tpp preset must be d4-222 or cyclic-1n1")
    ok = tpp_check(G, S, T, U)
    print(f"preset={cfg.preset} tpp={str(ok).lower()}")
    return 0 if ok else 1


def cmd_simul(cfg: RunConfig) -> int:
    if cfg.variant not in ("f", "g"):
        raise ConfigError("--variant must be f or g")
    pairs = 1 if cfg.n is None else cfg.n
    rng = Lcg(cfg.seed)
    max_err = 0.0
    counts = set()
    for _ in range(cfg.trials):
        avals = np.array(rng.complex_vector(4)).reshape(2, 2)
        bvals = np.array(rng.complex_vector(4 * pairs)).reshape(2, 2 * pairs)
        A = [variables(avals[i]) for i in range(2)]
        B = [variables(bvals[i]) for i in range(2)]
        ctx = CountContext()
        m1, m2 = blocked_simultaneous(A, B, cfg.variant, ctx)
        counts.add(ctx.bilinear_mults)
        want1 = avals @ bvals
        bv = bvals[::-1].copy()
        if cfg.variant == "g":
            for p in range(pairs):
                bv[0, 2 * p], bv[0, 2 * p + 1] = bv[0, 2 * p + 1], bv[0, 2 * p]
        want2 = avals @ bv
        got1 = np.array([[s.value for s in row] for row in m1])
        got2 = np.array([[s.value for s in row] for row in m2])
        max_err = max(max_err, _rel_error(got1, want1), _rel_error(got2, want2))
    count = counts.pop() if len(counts) == 1 else sorted(counts)
    ok = max_err <= cfg.tol and count == 8 * pairs
    print(f"variant={cfg.variant} pairs={pairs} trials={cfg.trials} "
          f"max_rel_err={max_err:.3e} count={count} formula={8 * pairs} "
          f"pass={str(ok).lower()}")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilinear-kernels",
        description="Structured matrix kernels with certified multiplication counts")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kind=False):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--tol", type=float, default=None)
        if kind:
            p.add_argument("--kind", type=str, default=None)
            p.add_argument("--f", type=str, default="-1,0")
            p.add_argument("--levels", type=str, default=None)

    p = sub.add_parser("verify", help="fast kernel vs naive oracle on random inputs")
    common(p, kind=True)

    p = sub.add_parser("count-table", help="CSV of multiplication counts per structure and size")
    common(p, kind=True)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("tensor", help="rank certification chain or named tensor report")
    common(p, kind=True)
    p.add_argument("--builder", type=str, default=None)
    p.add_argument("--ottaviani", action="store_true")

    p = sub.add_parser("stability", help="coefficient-sum measure of named decompositions")
    common(p)
    p.add_argument("--preset", type=str, required=True)

    p = sub.add_parser("tpp", help="triple product property presets")
    common(p)
    p.add_argument("--preset", type=str, required=True)

    p = sub.add_parser("simul", help="simultaneous 2x2 product kernels vs dense oracles")
    common(p)
    p.add_argument("--variant", type=str, required=True)

    return parser


def _tolerance(args: argparse.Namespace) -> float:
    """--tol, else BILINEAR_KERNELS_TOL, else the default; finite and >= 0."""
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        env_tol = os.environ.get("BILINEAR_KERNELS_TOL")
        if not env_tol:
            return DEFAULT_TOL
        source = "BILINEAR_KERNELS_TOL"
        try:
            tol = float(env_tol)
        except ValueError:
            raise ConfigError(f"{source}={env_tol!r} is not a number") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"{source} must be a finite nonnegative number, got {tol!r}")
    return tol


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command in ("verify", "simul") and args.trials < 1:
        raise ConfigError(f"--trials must be a positive integer, got {args.trials}")
    if args.command in ("simul", "tpp") and args.n is not None and args.n < 1:
        raise ConfigError(f"--n must be a positive integer, got {args.n}")
    if args.command == "count-table" and args.max_n < 1:
        raise ConfigError(f"--max-n must be a positive integer, got {args.max_n}")
    cfg = RunConfig(command=args.command, n=args.n, seed=args.seed,
                    trials=args.trials, tol=_tolerance(args))
    if hasattr(args, "kind"):
        cfg.kind = args.kind
        cfg.f = _parse_complex(args.f)
        cfg.levels = _parse_levels(args.levels) if args.levels else None
    if hasattr(args, "max_n"):
        cfg.max_n = args.max_n
    if hasattr(args, "out"):
        cfg.out = args.out
    if hasattr(args, "preset"):
        cfg.preset = args.preset
    if hasattr(args, "variant"):
        cfg.variant = args.variant
    if hasattr(args, "builder"):
        cfg.builder = args.builder
        cfg.ottaviani = args.ottaviani
    return cfg


_COMMANDS = {
    "verify": cmd_verify,
    "count-table": cmd_count_table,
    "tensor": cmd_tensor,
    "stability": cmd_stability,
    "tpp": cmd_tpp,
    "simul": cmd_simul,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "verify" and cfg.kind is None:
            raise ConfigError("verify needs --kind")
        if cfg.command == "tensor" and cfg.kind is None and cfg.builder is None:
            raise ConfigError("tensor needs --kind or --builder")
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
