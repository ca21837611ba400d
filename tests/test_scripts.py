"""The scripts under scripts/ run in a fresh interpreter against src/, exit 0
and print (or write) a known line."""

import os
import subprocess
import sys
from pathlib import Path

from bilinear_kernels.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)


def test_certify_ranks():
    """Every row of the n <= 8 sweep but its err column, which depends on
    the BLAS build, equals the recorded sweep."""
    def columns(text):
        # structure, n, terms, rank lower bound, dim, (error,) statement
        return [fields[:5] + fields[6:] for fields in map(str.split, text.splitlines())]

    proc = run_script("certify_ranks.py", "8")
    assert proc.returncode == 0, proc.stderr
    rows = columns(proc.stdout)
    assert ["toeplitz", "4", "7", "7", "7", "rank", "=", "7"] in rows
    golden = (ROOT / "tests" / "golden" / "certify_ranks_8.txt").read_text(encoding="utf-8")
    assert rows == columns(golden)


def test_tensor_states_what_certify_ranks_states(capsys):
    """Both print from one certificate: for every non-sparse single-level
    kind at n <= 8, `tensor --kind K --n N` states the sweep's row, and
    exits 0 exactly where the rank is pinned."""
    proc = run_script("certify_ranks.py", "8")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 8 * 8 - 1  # skew-symmetric of order 1 has no parameters
    for fields in rows:
        kind, n, statement = fields[0], fields[1], " ".join(fields[6:])
        code = main(["tensor", "--kind", kind, "--n", n])
        last = capsys.readouterr().out.splitlines()[-1]
        if statement.startswith("rank = "):
            assert (code, last) == (0, f"rank certified = {fields[2]}"), fields
        else:
            assert (code, last) == (1, f"rank bounds: {statement}"), fields
    assert ["skew_symmetric", "2", "2", "2", "1", "rank", "=", "2"] in [
        fields[:5] + fields[6:] for fields in rows]


def test_count_table_writes_the_csv(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_script("count_table.py", "4", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "structure,n,fast_mults,naive_mults,formula,match"
    assert "toeplitz,4,7,16,7,true" in lines


def test_stability_report():
    proc = run_script("stability_report.py")
    assert proc.returncode == 0, proc.stderr
    assert "gauss        3   4.82842712   0.00e+00" in proc.stdout.splitlines()


def test_ab_rounds_times_a_checkout_against_itself():
    """Two rounds of kernel-large, the repo against itself: both sides run
    every op without a failure, and every cell gets a row."""
    proc = run_script("ab_rounds.py", str(ROOT), str(ROOT), "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "kernel-large: 2 rounds of 24 ops, seed 1; failed ops A 0, B 0"
    assert [line.split()[0] for line in lines[4:6]] == ["min", "median"]
    assert lines[7].split()[0] == "circulant.n16" and len(lines) == 7 + 24


def test_ab_rounds_groups_sum_each_groups_cells():
    """--groups adds a table after the cells: one row per kind of
    kernel-large (its cells at n = 16, 32 and 48), whose medians are the
    sums of its cells'."""
    proc = run_script("ab_rounds.py", str(ROOT), str(ROOT), "--rounds", "2", "--groups")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    cells, groups = lines[7:7 + 24], lines[7 + 24:]
    assert groups[0].startswith("group median sum (us)") and len(groups) == 1 + 8
    sums = {}
    for label, a, b, _ in map(str.split, cells):
        pair = sums.setdefault(label.rsplit(".", 1)[0], [0.0, 0.0])
        pair[0] += float(a)
        pair[1] += float(b)
    assert [row.split()[0] for row in groups[1:]] == list(sums)
    for row in groups[1:]:
        group, a, b, _ = row.split()
        assert abs(float(a) - sums[group][0]) <= 0.01 * 3
        assert abs(float(b) - sums[group][1]) <= 0.01 * 3
