"""Golden regression test: every CLI command and verify identity on a small config.

Each case in ``CASES`` runs ``fraclab.cli.main`` once and compares its exit
code, its stdout and every file it writes with the copies under
``tests/golden/<case>/``.  Numbers computed from the discrete operator are
compared the way the benchmark compares its runs, to 1e-10, so that a change
of the operator at rounding level passes and a change of any digit a user
relies on fails:

* eigenvalues, their gaps and ``sup_u`` to 1e-10 relative;
* identity sides (``lhs``, ``rhs``, their report names ``fd_slope`` and
  ``formula``, and ``abs_residual`` = |lhs - rhs|) to 1e-10 of the larger
  side of their row, because a side that vanishes analytically is rounding
  noise;
* relative residuals (``rel_residual`` and its ``history``, ``rel_error``,
  ``rel`` in stdout, the semilinear ``residual`` and ``nehari_gap``) and
  nodal values (``nodal``, the ``u`` column) to 1e-10 absolute: eigenvectors
  are M-normalized and the semilinear solution is of order one.

Everything else (mesh points, counts, verdicts, flags, config echoes) must
match exactly.  Eigenvector signs are part of the outputs, which is why
``solve_geig`` breaks the tie of a mode antisymmetric about the middle of
the mesh by a rule rather than by rounding.

The copies were recorded from the code before the verify drivers and the
eigensolves were merged.  To record them again after an intended change of
the outputs, run from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import sys

import pytest

from fraclab.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

LINE_FIELD = {"components": ["x + 0.25*x^2"], "box": [-3.0, 3.0]}
CUBIC_FIELD = {"components": ["x + 0.25*x^3"], "box": [-3.0, 3.0]}
ANNULUS = {"intervals": [[-2.0, -1.0], [1.0, 2.0]]}

# name -> (command, config, extra argv)
CASES = {
    "eigen": ("eigen", {"n": 64, "k_max": 4}, []),
    "eigen-even": ("eigen", {"n": 64, "k_max": 3}, ["--even-only"]),
    "verify-pohozaev": (
        "verify",
        {"identity": "pohozaev", "field": LINE_FIELD, "n": [32, 64], "k": 2},
        [],
    ),
    "verify-ros-oton-serra": (
        "verify",
        {"identity": "ros-oton-serra", "p": 3, "s": [0.4, 0.6], "n": [32, 64]},
        ["--jobs", "2"],
    ),
    "verify-ibp": (
        "verify",
        {"identity": "ibp", "field": LINE_FIELD, "n": [32, 64], "k": 1, "k2": 2},
        [],
    ),
    "verify-l2-radial": (
        "verify",
        {"identity": "l2-radial", "domain": ANNULUS, "n": [32, 64]},
        [],
    ),
    "verify-lemma21": (
        "verify",
        {
            "identity": "lemma21",
            "field": CUBIC_FIELD,
            "bump": {"center": 0.2, "halfwidth": 0.5, "power": 3},
            "quad_tols": [1e-3, 1e-7],
        },
        [],
    ),
    "verify-hadamard": ("verify", {"identity": "hadamard", "n": [32, 64], "k": 2}, []),
    "verify-hadamard-even": (
        "verify",
        {"identity": "hadamard", "n": 64, "k": 2, "even_only": True},
        [],
    ),
    "semilinear": ("semilinear", {"p": 3, "n": 64}, []),
    "certify": (
        "certify",
        {
            "field": {"components": ["x", "y"], "box": [-1.5, 1.5, -1.5, 1.5]},
            "domain": {
                "implicit2d": {"g": "x^2 + y^2 - 1", "bbox": [-1.5, 1.5, -1.5, 1.5]}
            },
            "checks": ["c-condition", "c1c2-condition", "min-flux", "threshold"],
            "samples": 2000,
            "boundary_m": 64,
            "s": [0.3, 0.5],
        },
        [],
    ),
    "fraclap": ("fraclap", {"s": 0.5, "points": [0.0, 0.25, 0.6], "quad_tol": 1e-4}, []),
}

REL_KEYS = {"lambda", "value", "gap", "sup_u"}
SIDES = {"lhs", "rhs", "fd_slope", "formula"}
SIDE_KEYS = SIDES | {"abs_residual"}
ABS_KEYS = {
    "rel_residual", "history", "rel_error", "rel", "residual", "nehari_gap",
    "nodal", "u",
}
TOL = 1e-10


def run_case(name: str, out_dir: pathlib.Path) -> tuple[int, str]:
    """Run one case with its outputs in ``out_dir``; (exit code, stdout)."""
    command, config, argv = CASES[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir.parent / f"{name}.json"
    cfg_path.write_text(json.dumps(dict(config, out=str(out_dir))))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([command, "--config", str(cfg_path)] + argv)
    return rc, buf.getvalue()


def _is_number(cell) -> bool:
    try:
        float(cell)
    except (TypeError, ValueError):
        return False
    return True


def _side_scale(row: dict) -> float:
    """The larger identity side of a row (a dict of key -> cell), or 0."""
    sides = [abs(float(v)) for k, v in row.items() if k in SIDES and _is_number(v)]
    return max(sides, default=0.0)


def _same(key, got, want, side_scale=0.0) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except (TypeError, ValueError):
        return False
    if key in REL_KEYS:
        return abs(g - w) <= TOL * max(abs(g), abs(w))
    if key in SIDE_KEYS:
        return abs(g - w) <= TOL * max(abs(g), abs(w), side_scale)
    if key in ABS_KEYS:
        return abs(g - w) <= TOL
    return False


def _diff_json(got, want, key, where, out, side_scale=0.0):
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            out.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
            return
        scale = _side_scale(want)
        for k in want:
            _diff_json(got[k], want[k], k, f"{where}.{k}", out, scale)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{where}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff_json(g, w, key, f"{where}[{i}]", out, side_scale)
    elif type(got) is not type(want) and not (
        isinstance(got, (int, float)) and isinstance(want, (int, float))
    ):
        out.append(f"{where}: {got!r} != {want!r}")
    elif not _same(key, got, want, side_scale):
        out.append(f"{where}: {got!r} != {want!r}")


def _diff_csv(got: str, want: str, where, out):
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        out.append(f"{where}: header or row count differs")
        return
    header = want_rows[0]
    for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        if len(g) != len(w):
            out.append(f"{where} row {i}: {len(g)} cells, want {len(w)}")
            continue
        scale = _side_scale(dict(zip(header, w)))
        for key, a, b in zip(header, g, w):
            if not _same(key, a, b, scale):
                out.append(f"{where} row {i} {key}: {a} != {b}")


def _diff_stdout(got: str, want: str, out):
    """Tokens compared as cells, keyed by the name before ' = ' or by the
    column of the last header line (a line of words only); other tokens
    exactly."""
    g_lines, w_lines = got.splitlines(), want.splitlines()
    if len(g_lines) != len(w_lines):
        out.append(f"stdout: {len(g_lines)} lines, want {len(w_lines)}")
        return
    columns = []
    for i, (g, w) in enumerate(zip(g_lines, w_lines), start=1):
        gt, wt = g.split(), w.split()
        if len(gt) != len(wt):
            out.append(f"stdout line {i}: {g!r} != {w!r}")
            continue
        if wt and not any(map(_is_number, wt)):
            columns = wt
        keys = [
            wt[j - 2] if j >= 2 and wt[j - 1] == "=" else None for j in range(len(wt))
        ]
        if len(wt) == len(columns) and keys == [None] * len(wt):
            keys = columns
        scale = _side_scale({k: b for k, b in zip(keys, wt) if k})
        for key, a, b in zip(keys, gt, wt):
            if not _same(key, a, b, scale):
                out.append(f"stdout line {i}: {a} != {b}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(tmp_path, name):
    case_dir = GOLDEN / name
    rc, stdout = run_case(name, tmp_path / "out")
    assert rc == int((case_dir / "exit_code").read_text())
    problems = []
    _diff_stdout(stdout, (case_dir / "stdout.txt").read_text(), problems)
    files = sorted(
        p.name for p in case_dir.iterdir() if p.name not in ("stdout.txt", "exit_code")
    )
    assert sorted(os.listdir(tmp_path / "out")) == files
    for fname in files:
        got = (tmp_path / "out" / fname).read_text()
        want = (case_dir / fname).read_text()
        if fname.endswith(".csv"):
            _diff_csv(got, want, fname, problems)
        else:
            _diff_json(json.loads(got), json.loads(want), None, fname, problems)
    assert not problems, "\n".join(problems[:20])


def record() -> None:
    """Rewrite tests/golden from the current code."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in CASES:
        case_dir = GOLDEN / name
        rc, stdout = run_case(name, case_dir)
        (GOLDEN / f"{name}.json").unlink()
        (case_dir / "exit_code").write_text(f"{rc}\n")
        (case_dir / "stdout.txt").write_text(stdout)
        print(f"{name}: exit {rc}", file=sys.stderr)


if __name__ == "__main__":
    record()
