import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bilinear_kernels.cli import _rel_error, main
from bilinear_kernels.rng import Lcg


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ("count_table.py", "3"), ("certify_ranks.py", "3"), ("stability_report.py",)])
def test_script_runs(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bilinear_kernels", "verify", "--kind", "hankel",
         "--n", "5", "--trials", "10", "--seed", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fast_count=9" in proc.stdout and "pass=true" in proc.stdout


class TestVerify:
    def test_toeplitz_example(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "toeplitz", "--n", "8",
                           "--trials", "100", "--seed", "42")
        assert code == 0
        assert "fast_count=15" in out and "formula=15" in out

    def test_circulant_order_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "circulant", "--n", "1")
        assert code == 0 and "fast_count=1" in out

    def test_symmetric_reports_ten(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "symmetric", "--n", "4")
        assert code == 0 and "fast_count=10" in out

    def test_missing_kind_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2 and "kind" in err

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--kind", "wat", "--n", "3")
        assert code == 2

    def test_bad_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--kind", "toeplitz")
        assert code == 2

    def test_multilevel_via_levels(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "multilevel",
                           "--levels", "toeplitz:3,toeplitz:2", "--trials", "10")
        assert code == 0 and "fast_count=15" in out

    def test_multilevel_at_order_1024(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "multilevel",
                           "--levels", "toeplitz:32,toeplitz:32", "--trials", "2")
        assert code == 0 and "fast_count=3969" in out and "pass=true" in out

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BILINEAR_KERNELS_TOL", "1e-30")
        code, out, _ = run(capsys, "verify", "--kind", "toeplitz", "--n", "6",
                           "--trials", "5")
        assert code == 1 and "pass=false" in out

    def test_f_circulant_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "f_circulant", "--n", "4",
                           "--f", "0,1", "--trials", "20")
        assert code == 0 and "fast_count=4" in out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_fails(self, capsys):
        # f = 1e300 overflows the transforms: every output value is inf or NaN
        code, out, _ = run(capsys, "verify", "--kind", "f_circulant", "--n", "3",
                           "--f", "1e300", "--trials", "3")
        assert code == 1 and "max_rel_err=inf" in out and "pass=false" in out

    @pytest.mark.parametrize("got", [[math.nan, 1.0], [math.inf, 1.0], [1.0, 1.0]])
    def test_rel_error_of_non_finite_values_is_inf(self, got):
        want = np.array([1.0, math.nan]) if got == [1.0, 1.0] else np.array([1.0, 1.0])
        assert _rel_error(np.array(got), want) == math.inf

    def test_counts_past_flag_width(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "toeplitz", "--n", "70",
                           "--trials", "2")
        assert code == 0 and "fast_count=139" in out and "pass=true" in out


def assert_usage_error(code, err):
    lines = err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("verify", "--kind", "toeplitz", "--n", "3", "--trials", "0"),
        ("verify", "--kind", "toeplitz", "--n", "3", "--trials", "-4"),
        ("simul", "--variant", "f", "--trials", "0"),
        ("simul", "--variant", "g", "--trials", "-1"),
        ("verify", "--kind", "toeplitz", "--n", "3", "--tol", "nan"),
        ("verify", "--kind", "toeplitz", "--n", "3", "--tol=-1e-8"),
        ("simul", "--variant", "f", "--tol", "nan"),
        ("tensor", "--kind", "sparse", "--n", "3"),
        ("tensor", "--kind", "multilevel", "--n", "3"),
        ("tensor", "--kind", "skew_symmetric", "--n", "1"),
        ("tensor", "--builder", "nope"),
        ("tensor", "--builder", "matmul"),
        ("verify", "--kind", "multilevel", "--levels", "skew_symmetric:1,toeplitz:2"),
        ("verify", "--kind", "multilevel", "--levels", "toeplitz:0"),
        ("verify", "--kind", "f_circulant", "--n", "4", "--f", "0"),
        ("tpp", "--preset", "cyclic-1n1", "--n", "-2"),
        ("simul", "--variant", "f", "--n", "-1"),
        ("simul", "--variant", "f", "--n", "0"),
        ("tpp", "--preset", "cyclic-1n1", "--n", "0"),
        ("verify", "--kind", "f_circulant", "--n", "3", "--f", "nan"),
        ("verify", "--kind", "f_circulant", "--n", "3", "--f", "inf"),
        ("verify", "--kind", "f_circulant", "--n", "3", "--f", "nan,0"),
        ("verify", "--kind", "multilevel", "--levels", "f_circulant:2:nan,toeplitz:2"),
        ("count-table", "--max-n", "0"),
        ("verify", "--kind", "toeplitz", "--n", "x"),
        ("verify", "--bogus", "1"),
        ("bogus",),
        (),
        ("stability",),
        ("verify", "--kind", "toeplitz", "--n", "3", "--levels", "hankel:2"),
        ("verify", "--kind", "multilevel", "--levels", "toeplitz:2:3"),
        ("verify", "--kind", "multilevel", "--levels", "f_circulant:2:2,hankel:2:2"),
        ("count-table", "--f", "nan"),
        ("count-table", "--levels", "bogus"),
        ("count-table", "--n", "3"),
        ("tensor", "--kind", "toeplitz", "--n", "3", "--seed", "1"),
        ("stability", "--preset", "gauss", "--trials", "2"),
        ("tpp", "--preset", "d4-222", "--tol", "1e-3"),
        ("verify", "--kind", "toeplitz", "--n", "3", "--f", "2"),
        ("verify", "--kind", "circulant", "--n", "3", "--f", "-1"),
        ("verify", "--kind", "multilevel", "--n", "5", "--levels", "toeplitz:2"),
        ("verify", "--kind", "multilevel", "--levels", "toeplitz:2", "--f", "2"),
        ("verify", "--kind", "multilevel", "--levels", "skew_symmetric:1"),
        ("tensor", "--kind", "hankel", "--n", "3", "--f", "2"),
        ("tensor", "--builder", "so3", "--f", "2"),
        ("tensor", "--builder", "so3", "--n", "3"),
        ("tensor", "--kind", "toeplitz", "--builder", "hankel", "--n", "3"),
        ("tensor", "--kind", "toeplitz", "--n", "3", "--ottaviani"),
        ("tensor", "--builder", "complex_mul", "--ottaviani"),
        ("tensor", "--builder", "toeplitz", "--n", "3", "--ottaviani"),
        ("tpp", "--preset", "d4-222", "--n", "3"),
        ("verify", "--kind", "f_circulant", "--n", "3", "--f", "abc"),
        ("verify", "--kind", "f_circulant", "--n", "3", "--f", "1,2,3"),
        ("verify", "--kind", "multilevel", "--levels", "toeplitz:x,toeplitz:2"),
        ("tpp", "--preset", "foo"),
    ])
    def test_bad_option(self, capsys, argv):
        assert_usage_error(*run(capsys, *argv)[::2])

    @pytest.mark.parametrize("argv", [
        ("verify", "--kind", "toeplitz"),
        ("verify", "--kind", "toeplitz", "--n", "-3"),
        ("tensor", "--kind", "toeplitz", "--n", "0"),
        ("tensor", "--builder", "toeplitz"),
    ])
    def test_bad_order_names_n(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert_usage_error(code, err)
        assert err.startswith("error: --n:")

    @pytest.mark.parametrize("kind", ["toeplitz", "multilevel"])
    def test_empty_levels_refused(self, capsys, kind):
        # An empty --levels was given, so it is parsed and refused, not
        # taken for an absent one.
        code, _, err = run(capsys, "verify", "--kind", kind, "--n", "3", "--levels", "")
        assert_usage_error(code, err)
        assert err.startswith("error: level ''")

    def test_tensor_multilevel_names_no_option_tensor_lacks(self, capsys):
        code, _, err = run(capsys, "tensor", "--kind", "multilevel", "--n", "4")
        assert_usage_error(code, err)
        assert "--levels" not in err

    @pytest.mark.parametrize("argv, want", [
        (("verify", "--kind", "f_circulant", "--n", "3", "--trials", "2"), "kind=f_circulant"),
        (("verify", "--kind", "multilevel", "--n", "6", "--levels", "toeplitz:2,hankel:3",
          "--trials", "2"), "n=6"),
        (("verify", "--kind", "multilevel", "--levels", "skew_symmetric:3,triangular_toeplitz:2",
          "--trials", "2"), "pass=true"),
    ])
    def test_inputs_that_are_read(self, capsys, argv, want):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and want in out

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bilinear-kernels verify")

    @pytest.mark.parametrize("argv", [("count-table", "--max-n", "2"),
                                      ("stability", "--preset", "gauss")])
    def test_env_tolerance_is_read_only_by_verify_and_simul(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("BILINEAR_KERNELS_TOL", "tight")
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("value", ["abc", "nan", "-1"])
    def test_bad_env_tolerance(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BILINEAR_KERNELS_TOL", value)
        code, _, err = run(capsys, "verify", "--kind", "toeplitz", "--n", "3")
        assert_usage_error(code, err)

    def test_bad_env_tolerance_in_subprocess_has_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bilinear_kernels", "verify", "--kind", "toeplitz",
             "--n", "3"], capture_output=True, text=True,
            env={**os.environ, "BILINEAR_KERNELS_TOL": "tight"})
        assert_usage_error(proc.returncode, proc.stderr)


class TestCountTable:
    def test_documented_rows(self, capsys):
        code, out, _ = run(capsys, "count-table", "--max-n", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "structure,n,fast_mults,naive_mults,formula,match"
        assert "skew_symmetric,3,6,6*,6,true" in lines
        assert "tph,1,1,1,1,true" in lines
        assert "bttb,3x2,15,36,15,true" in lines

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "count-table", "--max-n", "5", "--seed", "3")
        _, second, _ = run(capsys, "count-table", "--max-n", "5", "--seed", "3")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(capsys, "count-table", "--max-n", "3", "--out", str(path))
        assert code == 0 and out == ""
        text = path.read_text()
        assert text.startswith("structure,n,")

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "count-table", "--max-n", "2", "--out",
                           str(tmp_path / "missing" / "t.csv"))
        assert code == 2 and "cannot write" in err


@pytest.mark.parametrize("argv, target", [
    ("tensor --kind toeplitz --n 100000", "certify_rank"),
    ("verify --kind toeplitz --n 100000 --trials 1", "random_structured"),
])
@pytest.mark.parametrize("message", ["Unable to allocate 149. GiB for an array", ""])
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, argv, target, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"bilinear_kernels.cli.{target}", exhausted)
    code, out, err = run(capsys, *argv.split())
    assert_usage_error(code, err)
    assert out == "" and err == f"error: {message or 'out of memory'}\n"


@pytest.mark.parametrize("draw", ["complex_vector", "uniforms"])
def test_draws_numpy_cannot_hold_are_a_memory_error_before_any_step(draw):
    rng = Lcg(3)
    with pytest.raises(MemoryError, match="^10000000000000000000000 random draws do not fit"):
        getattr(rng, draw)(10**22 // (2 if draw == "complex_vector" else 1))
    assert rng.state == Lcg(3).state


@pytest.mark.parametrize("argv", [
    "verify --kind symmetric --n 99999999999 --trials 1",
    "verify --kind sparse --n 99999999999 --trials 1",
    "verify --kind multilevel --levels symmetric:99999999999,toeplitz:2 --trials 1",
])
def test_an_order_too_large_to_draw_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert_usage_error(code, err)
    assert out == "" and "random draws do not fit in memory" in err


class TestTensor:
    def test_circulant_certification(self, capsys):
        code, out, _ = run(capsys, "tensor", "--kind", "circulant", "--n", "4")
        assert code == 0 and "rank certified = 4" in out

    def test_symmetric_certification(self, capsys):
        code, out, _ = run(capsys, "tensor", "--kind", "symmetric", "--n", "5")
        assert code == 0 and "rank certified = 15" in out

    def test_complex_mul_builder(self, capsys):
        code, out, _ = run(capsys, "tensor", "--builder", "complex_mul")
        assert code == 0 and "flattening_ranks=(2, 2, 2)" in out

    def test_commutator_ottaviani(self, capsys):
        code, out, _ = run(capsys, "tensor", "--builder", "commutator_beta", "--ottaviani")
        assert code == 0 and "border rank >= 5" in out

    def test_ottaviani_of_a_kind(self, capsys):
        code, out, _ = run(capsys, "tensor", "--builder", "circulant", "--n", "3", "--ottaviani")
        assert code == 1 and "ottaviani test singular" in out

    def test_tph_rank_is_certified(self, capsys):
        code, out, _ = run(capsys, "tensor", "--kind", "tph", "--n", "3")
        assert code == 0 and "rank certified = 8" in out

    def test_needs_kind_or_builder(self, capsys):
        code, _, err = run(capsys, "tensor")
        assert code == 2

    @pytest.mark.parametrize("command, line", [
        ("tensor", "decomposition_error=inf"), ("verify", "max_rel_err=inf")])
    def test_an_overflow_reads_inf_without_warnings(self, command, line):
        proc = subprocess.run(
            [sys.executable, "-m", "bilinear_kernels", command, "--kind", "f_circulant",
             "--n", "3", "--f", "1e300"], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert line in proc.stdout.split()


class TestStability:
    def test_gauss_value(self, capsys):
        code, out, _ = run(capsys, "stability", "--preset", "gauss")
        assert code == 0
        assert "measure=4.8284271" in out and "verified=true" in out

    def test_usual_value(self, capsys):
        code, out, _ = run(capsys, "stability", "--preset", "usual")
        assert code == 0 and "measure=4.0000000" in out

    def test_cube_value(self, capsys):
        code, out, _ = run(capsys, "stability", "--preset", "cube")
        assert code == 0 and "measure=4.0000000" in out and "verified=true" in out

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "stability", "--preset", "nope")
        assert code == 2


class TestTpp:
    def test_d4_preset(self, capsys):
        code, out, _ = run(capsys, "tpp", "--preset", "d4-222")
        assert code == 0 and "tpp=true" in out

    def test_cyclic_preset(self, capsys):
        code, out, _ = run(capsys, "tpp", "--preset", "cyclic-1n1", "--n", "6")
        assert code == 0 and "tpp=true" in out


class TestSimul:
    def test_variant_f(self, capsys):
        code, out, _ = run(capsys, "simul", "--variant", "f", "--seed", "7")
        assert code == 0 and "count=8" in out and "pass=true" in out

    def test_variant_g_blocked(self, capsys):
        code, out, _ = run(capsys, "simul", "--variant", "g", "--n", "3",
                           "--trials", "20", "--seed", "1")
        assert code == 0 and "count=24" in out

    def test_bad_variant(self, capsys):
        code, _, err = run(capsys, "simul", "--variant", "q")
        assert code == 2


def readme_cli_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_cli_block_is_found():
    lines = readme_cli_lines()
    assert len(lines) >= 10
    assert all(line.startswith("bilinear-kernels ") for line in lines)


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example_runs(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BILINEAR_KERNELS_TOL", raising=False)
    code, _, err = run(capsys, *shlex.split(line)[1:])
    assert code == 0, err


# Seeded runs pinned byte for byte: every draw of the LCG, every count and
# every printed error.  tests/golden/verify_seeded.txt is seeded_transcript():
# each command line after "$ ", then its stdout and its exit code.
SEEDED_COMMANDS = (
    *(f"verify --kind {kind} --n {n} --seed 3 --trials 5"
      for kind in ("circulant", "f_circulant", "toeplitz", "hankel", "triangular_toeplitz",
                   "tph", "symmetric", "skew_symmetric", "sparse")
      for n in (1, 7, 16)),
    "verify --kind sparse --n 9",
    "verify --kind f_circulant --n 7 --f 2 --seed 3 --trials 5",
    "verify --kind f_circulant --n 7 --f 60j --seed 3 --trials 5",
    "verify --kind multilevel --levels toeplitz:3,hankel:2 --seed 3 --trials 5",
    "verify --kind multilevel --levels toeplitz:2,toeplitz:2,toeplitz:3 --seed 3 --trials 5",
    "simul --variant f --n 2 --seed 5",
    "simul --variant g --n 2 --seed 5",
)


def seeded_transcript(capture) -> str:
    """The golden's text; capture() returns the stdout printed since its last call."""
    parts = []
    for line in SEEDED_COMMANDS:
        code = main(line.split())
        parts.append(f"$ {line}\n{capture()}exit {code}\n")
    return "".join(parts)


def test_seeded_runs_match_golden(capsys):
    golden = (ROOT / "tests" / "golden" / "verify_seeded.txt").read_text(encoding="utf-8")
    assert seeded_transcript(lambda: capsys.readouterr().out) == golden


# The `tensor --kind K --n N` chains of the benchmark's certify workload.
# tests/golden/tensor_certify.txt is certify_transcript(): each command line
# after "$ ", then its stdout and its exit code.
CERTIFY_CELLS = (
    *((kind, n) for kind in ("circulant", "toeplitz", "hankel") for n in (4, 8, 16, 32)),
    *(("tph", n) for n in (4, 8, 16)),
    *((kind, n) for kind in ("symmetric", "skew_symmetric") for n in (4, 8, 12, 16)),
)
_ERROR = re.compile(r"decomposition_error=(\S+)")


def certify_transcript(capture) -> str:
    parts = []
    for kind, n in CERTIFY_CELLS:
        line = f"tensor --kind {kind} --n {n}"
        code = main(line.split())
        parts.append(f"$ {line}\n{capture()}exit {code}\n")
    return "".join(parts)


def test_certify_cells_match_golden(capsys):
    """Every field but the decomposition error's digits, which depend on the
    BLAS build (as in test_certify_ranks), equals the recorded chain."""
    golden = (ROOT / "tests" / "golden" / "tensor_certify.txt").read_text(encoding="utf-8")
    got = certify_transcript(lambda: capsys.readouterr().out)
    assert len(CERTIFY_CELLS) == 23
    assert _ERROR.sub("decomposition_error=*", got) == _ERROR.sub("decomposition_error=*", golden)
    errors = [float(e) for e in _ERROR.findall(got)]
    assert len(errors) == 23 and max(errors) < 1e-14
