"""Golden outputs of every CLI command on small grids.

Each case runs one command in process and compares its exit code, its stdout
and the files it writes with the copies under ``tests/golden``. Headers, row
counts, text cells (statuses, messages) and JSON keys must match exactly;
numbers must agree to 1e-13 relative, not byte for byte, since ``np.exp`` may
round differently on another CPU. The absolute floor of 1e-15 covers cells
that are differences of O(1) profile values (the pointwise error columns).

Regenerate the goldens (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py

which rewrites only the cases whose fresh run fails the comparison above, so
round-off on another machine leaves the other goldens as they are.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest

from gmerf.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-13
ABS_TOL = 1e-15

# name -> argv; "{golden}" and "{tmp}" stand for the golden and a scratch directory.
CASES = {
    "beta1": ["beta1", "--gamma", "0.5", "1", "-1", "20"],
    "gme": ["gme", "--beta", "0.1", "--gamma", "1", "--lambda", "1.5", "--grid-n", "51"],
    "gme_gamma": ["gme", "--beta", "0.05", "--gamma", "0.37", "--lambda", "2.5", "--grid-n", "51"],
    "hscan": ["hscan", "--beta", "0.1", "--gamma", "2", "--lmin", "0.05", "--lmax", "2.5", "--steps", "9", "--grid-n", "51"],
    "dirichlet": [
        "dirichlet", "--beta", "0.02", "--lambda", "1.2", "--gamma", "0.1", "1", "10",
        "--curve-dir", "{tmp}/curves", "--grid-n", "41",
    ],
    "sweep": ["sweep", "--spec", "{golden}/sweep_spec.json", "--grid-n", "31"],
    "solve": [
        "solve", "--rho", "1.2", "--c", "2.5", "--l", "2", "--k0", "1.7", "--h0", "1",
        "--tf", "1", "--tinf", "-1", "--beta", "0.25", "--times", "0.25", "4", "--grid-n", "51",
    ],
}


def run_case(name, tmp, read_stdout, golden=GOLDEN):
    """Exit code, stdout and {file name: text} of the files the case wrote under tmp."""
    argv = [a.format(golden=golden, tmp=tmp) for a in CASES[name]]
    code = main(argv)
    out = read_stdout()
    files = {p.relative_to(tmp).as_posix(): p.read_text(encoding="utf-8") for p in sorted(Path(tmp).rglob("*.csv"))}
    return code, out, files


def _same_number(a, b):
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return None


def assert_csv_matches(got, want, what):
    got_rows = [line.split(",") for line in got.split("\n")]
    want_rows = [line.split(",") for line in want.split("\n")]
    assert got_rows[0] == want_rows[0], f"{what}: header"
    assert len(got_rows) == len(want_rows), f"{what}: row count"
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        assert len(g_row) == len(w_row), f"{what}: cells in row {i}"
        for g, w in zip(g_row, w_row):
            gv, wv = _cell(g), _cell(w)
            if gv is None or wv is None:
                assert g == w, f"{what}: row {i}"
            else:
                assert _same_number(gv, wv), f"{what}: row {i}: {g} != {w}"


def assert_json_matches(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys"
        for key in want:
            assert_json_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and _same_number(got, want), f"{where}: {got!r} != {want!r}"


def _expected(name, golden=GOLDEN):
    manifest = json.loads((golden / "manifest.json").read_text(encoding="utf-8"))[name]
    out = (golden / f"{name}.out").read_text(encoding="utf-8")
    files = {f: (golden / name / f).read_text(encoding="utf-8") for f in manifest["files"]}
    return manifest["exit"], out, files


def assert_matches_golden(name, code, out, files, golden=GOLDEN):
    """Exit code, stdout and written files of a case against its goldens, cells to REL_TOL."""
    want_code, want_out, want_files = _expected(name, golden)
    assert code == want_code
    if name == "solve":
        assert_json_matches(json.loads(out), json.loads(want_out))
    else:
        assert_csv_matches(out, want_out, "stdout")
    assert sorted(files) == sorted(want_files)
    for f, text in files.items():
        assert_csv_matches(text, want_files[f], f)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys):
    assert_matches_golden(name, *run_case(name, tmp_path, lambda: capsys.readouterr().out))


def test_golden_table_is_not_trivial():
    # The cases must keep covering failing rows and curve files.
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["beta1"]["exit"] == 1
    assert manifest["sweep"]["exit"] == 2
    assert len(manifest["dirichlet"]["files"]) == 3
    sweep = (GOLDEN / "sweep.out").read_text(encoding="utf-8")
    assert "must be" in sweep and "contraction threshold" in sweep


def test_regeneration_rewrites_only_the_cases_that_moved(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    stale = golden / "gme.out"
    stale.write_text(stale.read_text(encoding="utf-8").replace("eta,", "eta_old,", 1), encoding="utf-8")
    before = {p: p.read_bytes() for p in golden.rglob("*") if p.is_file()}
    with contextlib.redirect_stdout(io.StringIO()) as log:
        regenerate(golden)
    after = {p: p.read_bytes() for p in golden.rglob("*") if p.is_file()}
    assert sorted(after) == sorted(before)
    assert [p for p in before if after[p] != before[p]] == [stale]
    assert after[stale].startswith(b"eta,phi,")
    assert log.getvalue() == "rewrote gme\n"


def regenerate(golden=GOLDEN):
    """Rewrite the goldens of each case whose fresh run fails `assert_matches_golden`."""
    path = golden / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in sorted(CASES):
        buf = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
            code, out, files = run_case(name, tmp, buf.getvalue, golden)
        try:
            assert_matches_golden(name, code, out, files, golden)
            continue
        except (AssertionError, KeyError, OSError, ValueError):
            pass  # moved, or no golden yet
        (golden / f"{name}.out").write_text(out, encoding="utf-8", newline="")
        shutil.rmtree(golden / name, ignore_errors=True)
        for f, text in files.items():
            (golden / name / f).parent.mkdir(parents=True, exist_ok=True)
            (golden / name / f).write_text(text, encoding="utf-8", newline="")
        manifest[name] = {"exit": code, "files": sorted(files)}
        path.write_text(json.dumps(dict(sorted(manifest.items())), indent=2) + "\n", encoding="utf-8")
        print(f"rewrote {name}")


if __name__ == "__main__":
    regenerate()
