"""Command-line entry point: verification runs, count tables, tensor
certification, stability and group-algebra checks.

Exit codes: 0 pass, 1 fail, 2 usage or configuration error.  All randomness
comes from the seeded 64-bit LCG in rng.py, so identical configurations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from .counting import CountContext, variable_vector
from .extraction import certify_rank
from .groups import blocked_simultaneous, cyclic_group, dihedral8, tpp_check
from .kernels import SPECS, formula_count, structured_matvec
from .rng import Lcg
from .structures import (InputError, LevelSpec, SparsityPattern, StructureKind,
                         StructuredMatrix, check_structure, default_f, dense_parts, naive_count,
                         naive_matvec, param_count, spec, structured)
from .tensorlab import (NAMED_BUILDERS, build_structure_tensor,
                        complex_mul_decomposition, complex_mul_tensor, flattening_ranks,
                        ottaviani_test, stability_measure, structure_tensor,
                        verify_decomposition)

DEFAULT_TOL = 1e-8


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError: one line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _parse_complex(text: str) -> complex:
    """Accept 're,im', a bare real, or a Python complex literal like '1j'."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(parts[0].strip())
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
        raise ValueError(text)
    except ValueError:
        raise ConfigError(f"cannot parse complex number from {text!r} "
                          f"(expected re,im)") from None


def _table_kind(name: str, f: complex | None, where: str) -> complex | None:
    """The f of a single-level kind named on the command line at where, -1
    by default where the kind takes one.  Only verify --kind draws what is
    more than a table entry (a sparse pattern, multilevel levels); the
    table's own rules are the validator's."""
    if name == StructureKind.MULTILEVEL:
        raise ConfigError(f"{where}: multilevel is not a single-level kind")
    if getattr(spec(name), "needs_pattern", False):
        raise ConfigError(f"{where}: {name} needs a sparsity pattern, "
                          f"which only verify --kind draws")
    return default_f(name, f)


@contextmanager
def _reported_at(where: str | None = None, kind_at: str = "--kind"):
    """The validator's refusal as a usage error: at where, else at the
    option of the input at fault (kind_at for the kind), and with no
    position when no one input is at fault."""
    try:
        yield
    except InputError as exc:
        if exc.field is None:
            raise ConfigError(str(exc)) from None
        at = where or (kind_at if exc.field == "kind" else f"--{exc.field}")
        raise ConfigError(f"{at}: {exc}") from None


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
        f = _parse_complex(parts[2]) if len(parts) == 3 else None
        where = f"level {chunk!r}"
        f = _table_kind(parts[0], f, where)
        with _reported_at(where):
            check_structure(parts[0], n, f)
        levels.append(LevelSpec(parts[0], n, f))
    return tuple(levels)


def random_structured(kind: StructureKind, n: int, rng: Lcg, f: complex | None = None,
                      pattern: SparsityPattern | None = None,
                      levels: tuple[LevelSpec, ...] | None = None) -> StructuredMatrix:
    count = param_count(kind, n, pattern, levels)
    return structured(kind, n, rng.complex_vector(count), f=f, pattern=pattern,
                      levels=levels)


def random_pattern(n: int, rng: Lcg, density: float = 0.4) -> SparsityPattern:
    """Each cell of an n x n grid with probability density: one uniform
    draw in [0, 1) per cell, row-major.  When no cell is drawn, one random
    cell, its row drawn before its column."""
    entries = [divmod(k, n) for k, u in enumerate(rng.uniforms(n * n, 0.0, 1.0)) if u < density]
    if not entries:
        entries = [(rng.randint(n), rng.randint(n))]
    return SparsityPattern(n, n, tuple(entries))


def _rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest error relative to the largest reference entry; inf when any
    value is not finite, so that a run with NaN output cannot pass."""
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-12)
    err = float(np.abs(got - want).max(initial=0.0)) / scale
    return err if math.isfinite(err) else math.inf


def _build_instance(cfg: argparse.Namespace, rng: Lcg) -> StructuredMatrix:
    """One trial's matrix.  A sparse one's pattern is drawn for its order
    once that is checked, with the empty pattern standing in until then."""
    f, pattern = default_f(cfg.kind, cfg.f), None
    with _reported_at():
        if getattr(spec(cfg.kind), "needs_pattern", False):
            n = check_structure(cfg.kind, cfg.n, f, SparsityPattern(cfg.n, cfg.n, ())).n
            pattern = random_pattern(n, rng)
        return random_structured(cfg.kind, cfg.n, rng, f=f, pattern=pattern, levels=cfg.levels)


def _fmt_counts(values: set) -> str:
    return str(values.pop()) if len(values) == 1 else str(sorted(values))


def cmd_verify(cfg: argparse.Namespace) -> int:
    rng = Lcg(cfg.seed)
    max_err = 0.0
    counts_match = True
    fast_counts = set()
    naive_counts = set()
    formulas = set()
    for _ in range(cfg.trials):
        M = _build_instance(cfg, rng)
        x = variable_vector(rng.complex_vector(M.n))
        ctx = CountContext()
        fast = structured_matvec(M, x, ctx)
        ctx_naive = CountContext()
        ref = naive_matvec(M, x, ctx_naive)
        max_err = max(max_err, _rel_error(fast.values, ref.values))
        formula = formula_count(M.kind, M.n, M.pattern, cfg.levels)
        counts_match &= ctx.bilinear_mults == formula
        fast_counts.add(ctx.bilinear_mults)
        naive_counts.add(ctx_naive.bilinear_mults)
        formulas.add(formula)
    ok = max_err <= cfg.tol and counts_match
    print(f"kind={cfg.kind} n={M.n} trials={cfg.trials} "
          f"max_rel_err={max_err:.3e} fast_count={_fmt_counts(fast_counts)} "
          f"naive_count={_fmt_counts(naive_counts)} formula={_fmt_counts(formulas)} "
          f"pass={str(ok).lower()}")
    return 0 if ok else 1


def _count_row(M: StructuredMatrix, label_n: str, rng: Lcg,
               levels: tuple[LevelSpec, ...] | None = None) -> tuple[list[str], bool]:
    ctx = CountContext()
    structured_matvec(M, variable_vector(rng.complex_vector(M.n)), ctx)
    fast = ctx.bilinear_mults
    values, variable, structural = dense_parts(M)
    naive = naive_count((values, variable))
    formula = formula_count(M.kind, M.n, M.pattern, levels)
    match = fast == formula
    # '*': the pattern-aware count, which skips a structurally zero diagonal
    naive_text = str(naive) if structural.diagonal().all() else f"{naive}*"
    name = "bttb" if M.kind is StructureKind.MULTILEVEL else M.kind.value
    return [name, label_n, str(fast), naive_text, str(formula), str(match).lower()], match


def cmd_count_table(cfg: argparse.Namespace) -> int:
    rng = Lcg(cfg.seed)
    rows = [["structure", "n", "fast_mults", "naive_mults", "formula", "match"]]
    all_match = True
    for kind, entry in SPECS.items():
        if entry.needs_pattern:
            continue
        for n in range(1, cfg.max_n + 1):
            M = random_structured(kind, n, rng, f=default_f(kind, None))
            row, ok = _count_row(M, str(n), rng)
            rows.append(row)
            all_match &= ok
    top = min(cfg.max_n, 5)
    for n in range(2, top + 1):
        for k in range(2, top + 1):
            levels = (LevelSpec(StructureKind.TOEPLITZ, n),
                      LevelSpec(StructureKind.TOEPLITZ, k))
            M = random_structured(StructureKind.MULTILEVEL, n * k, rng, levels=levels)
            row, ok = _count_row(M, f"{n}x{k}", rng, levels)
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


def cmd_tensor(cfg: argparse.Namespace) -> int:
    if cfg.ottaviani and not cfg.builder:
        raise ConfigError("--ottaviani: the test runs on a --builder tensor")
    if cfg.builder in NAMED_BUILDERS:
        for option, value in (("--n", cfg.n), ("--f", cfg.f)):
            if value is not None:
                raise ConfigError(f"{option}: the named builder {cfg.builder} takes no {option}")
        T = build_structure_tensor(cfg.builder)
    else:
        where = f"--builder (named: {', '.join(NAMED_BUILDERS)})" if cfg.builder else "--kind"
        f = _table_kind(cfg.builder or cfg.kind, cfg.f, where)
        with _reported_at(kind_at=where):
            if not cfg.builder:
                c = certify_rank(cfg.kind, cfg.n, f)
                print(f"kind={cfg.kind} n={cfg.n} terms={c.terms} "
                      f"decomposition_error={c.error:.3e} flattening_ranks={c.ranks} "
                      f"structure_dim={c.dim}")
                if c.certified:
                    print(f"rank certified = {c.terms}")
                    return 0
                print(f"rank bounds: {c.lower} <= rank <= {c.terms}"
                      if c.passed else "decomposition failed verification")
                return 1
            T = structure_tensor(cfg.builder, cfg.n, f=f)
    print(f"builder={cfg.builder} flattening_ranks={flattening_ranks(T)}")
    if cfg.ottaviani:
        rep = ottaviani_test(T)
        verdict = "border rank >= 5" if rep.nonsingular else "ottaviani test singular"
        print(f"{verdict} (det magnitude {rep.det_magnitude:.3e})")
        return 0 if rep.nonsingular else 1
    return 0


def cmd_stability(cfg: argparse.Namespace) -> int:
    if cfg.preset not in ("usual", "gauss", "cube"):
        raise ConfigError("stability preset must be usual, gauss, or cube")
    D = complex_mul_decomposition(cfg.preset)
    rep = verify_decomposition(complex_mul_tensor(), D, 1e-9)
    measure = stability_measure(D)
    print(f"preset={cfg.preset} terms={rep.term_count} measure={measure:.7f} "
          f"verified={str(rep.passed).lower()}")
    return 0 if rep.passed else 1


def cmd_tpp(cfg: argparse.Namespace) -> int:
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


def cmd_simul(cfg: argparse.Namespace) -> int:
    if cfg.variant not in ("f", "g"):
        raise ConfigError("--variant must be f or g")
    pairs = 1 if cfg.n is None else cfg.n
    rng = Lcg(cfg.seed)
    max_err = 0.0
    counts = set()
    for _ in range(cfg.trials):
        avals = np.array(rng.complex_vector(4)).reshape(2, 2)
        bvals = np.array(rng.complex_vector(4 * pairs)).reshape(2, 2 * pairs)
        ctx = CountContext()
        m1, m2 = blocked_simultaneous((avals, np.ones(avals.shape, dtype=bool)),
                                      (bvals, np.ones(bvals.shape, dtype=bool)), cfg.variant, ctx)
        counts.add(ctx.bilinear_mults)
        want1 = avals @ bvals
        bv = bvals[::-1].copy()
        if cfg.variant == "g":
            bv[0] = bv[0].reshape(pairs, 2)[:, ::-1].ravel()
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


# The settings of every option; each subcommand's function, help text and
# the options it reads.
_OPTIONS = {
    "--kind": dict(type=str), "--n": dict(type=int), "--f": dict(type=str),
    "--levels": dict(type=str), "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=100), "--tol": dict(type=float),
    "--max-n": dict(type=int, default=8), "--out": dict(type=str),
    "--builder": dict(type=str), "--ottaviani": dict(action="store_true"),
    "--preset": dict(type=str, required=True), "--variant": dict(type=str, required=True),
}
_SUBCOMMANDS = (
    ("verify", cmd_verify, "fast kernel vs naive oracle on random inputs",
     "--kind --n --f --levels --seed --trials --tol"),
    ("count-table", cmd_count_table, "CSV of multiplication counts per structure and size",
     "--max-n --seed --out"),
    ("tensor", cmd_tensor, "rank certification chain or named tensor report",
     "--kind --n --f --builder --ottaviani"),
    ("stability", cmd_stability, "coefficient-sum measure of named decompositions",
     "--preset"),
    ("tpp", cmd_tpp, "triple product property presets", "--preset --n"),
    ("simul", cmd_simul, "simultaneous 2x2 product kernels vs dense oracles",
     "--variant --n --seed --trials --tol"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bilinear-kernels",
        description="Structured matrix kernels with certified multiplication counts")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run, text, options in _SUBCOMMANDS:
        p = sub.add_parser(command, help=text)
        p.set_defaults(run=run)
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
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


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed options the subcommand takes, each checked, with --tol,
    --f and --levels parsed in place."""
    given = vars(args)
    if given.get("trials", 1) < 1:
        raise ConfigError(f"--trials must be a positive integer, got {args.trials}")
    if args.command in ("simul", "tpp") and args.n is not None and args.n < 1:
        raise ConfigError(f"--n must be a positive integer, got {args.n}")
    if given.get("max_n", 1) < 1:
        raise ConfigError(f"--max-n must be a positive integer, got {args.max_n}")
    if "tol" in given:
        args.tol = _tolerance(args)
    if given.get("f") is not None:
        args.f = _parse_complex(args.f)
    if given.get("levels") is not None:
        args.levels = _parse_levels(args.levels)
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _config_from_args(_build_parser().parse_args(argv))
        if args.command == "verify" and args.kind is None:
            raise ConfigError("verify needs --kind")
        if args.command == "tensor" and (args.kind is None) == (args.builder is None):
            raise ConfigError("tensor needs one of --kind and --builder")
        # An overflow shows in the printed error (inf) and the exit code, not
        # as numpy warnings on stderr.
        with np.errstate(all="ignore"):
            return args.run(args)
    except (ConfigError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
