"""End-to-end command-line tests: exit codes, CSV/JSON schemas, determinism.

Runs go through fraclab.cli.main(argv) in-process so coverage and tmp_path
isolation work.  Two tests cover the ``fraclab`` console script: one checks
the entry point declared in pyproject.toml by running it from the source tree
in a fresh interpreter, and one runs the installed script where it exists.
"""

import csv
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import fraclab
from fraclab.cli import main

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

CIRCLE = {"implicit2d": {"g": "x^2 + y^2 - 1", "bbox": [-1.5, 1.5, -1.5, 1.5]}}
EXAMPLE_DOMAIN = {
    "implicit2d": {
        "g": "x^2 + 10*(y^3 + x)^2 - 1",
        "bbox": [-1.2, 1.2, -1.2, 1.2],
    }
}
ROTATION_FIELD = {
    "components": ["5*x - 4*y", "5*y + 4*x"],
    "box": [-1.5, 1.5, -1.5, 1.5],
}
ANISOTROPIC_FIELD = {"components": ["0.5*x", "y"], "box": [-1.0, 1.0, -1.0, 1.0]}


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------------

def test_eigen_csv_and_json(tmp_path):
    cfg = write_config(
        tmp_path, {"n": 128, "k_max": 4, "out": str(tmp_path / "res")}
    )
    assert main(["eigen", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "res" / "eigen.csv")
    assert header == ["k", "lambda", "gap"]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
    lams = [float(r[1]) for r in rows]
    assert lams == sorted(lams)
    assert rows[0][2] == "nan"
    assert float(rows[1][2]) == pytest.approx(lams[1] - lams[0], rel=1e-15)

    doc = json.loads((tmp_path / "res" / "eigen.json").read_text())
    assert doc["domain"] == [[-1.0, 1.0]]
    assert doc["s"] == 0.5
    assert len(doc["lambda"]) == 4
    assert len(doc["nodal"][0][0]) == 129


def test_eigen_dump_matrices(tmp_path):
    cfg = write_config(tmp_path, {"n": 128, "k_max": 2, "out": str(tmp_path)})
    assert main(["eigen", "--config", cfg, "--dump-matrices"]) == 0
    for kind in ("mass", "stiffness"):
        text = (tmp_path / f"eigen_{kind}.txt").read_text().splitlines()
        assert text[0] == "127 127"
        assert len(text) == 128


def test_eigen_sweep_jobs_deterministic(tmp_path):
    base = {"s": [0.4, 0.6], "n": [16], "k_max": 3}
    out1, out2 = str(tmp_path / "serial"), str(tmp_path / "pool")
    cfg1 = write_config(tmp_path, dict(base, out=out1), "a.json")
    cfg2 = write_config(tmp_path, dict(base, out=out2), "b.json")
    assert main(["eigen", "--config", cfg1, "--jobs", "1"]) == 0
    assert main(["eigen", "--config", cfg2, "--jobs", "2"]) == 0
    for name in ("eigen_s0.4_n16.csv", "eigen_s0.6_n16.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "pool" / name
        ).read_bytes()


def test_rerun_is_byte_identical(tmp_path):
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        cfg = write_config(tmp_path, {"n": 64, "out": str(out)}, tag + ".json")
        assert main(["eigen", "--config", cfg]) == 0
        outs.append(out)
    for name in ("eigen.csv", "eigen.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "data",
    [
        {"n": 100},
        {"n": 4},
        {"k_max": 13},
        {"zeta": 1.0},
        {"s": 1.5},
        {"domain": {"intervals": [[0.0, 1.0], [0.5, 2.0]]}},
    ],
)
def test_config_errors_exit_2(tmp_path, data):
    cfg = write_config(tmp_path, dict(data, out=str(tmp_path)))
    assert main(["eigen", "--config", cfg]) == 2


def test_config_not_an_object_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    assert main(["eigen", "--config", str(path)]) == 2


def test_missing_config_file_exit_2(tmp_path):
    assert main(["eigen", "--config", str(tmp_path / "nope.json")]) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_needs_identity(tmp_path):
    cfg = write_config(tmp_path, {"out": str(tmp_path)})
    assert main(["verify", "--config", cfg]) == 2


def test_verify_ros_refines_and_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        {"identity": "ros-oton-serra", "n": [64, 128], "tol": 0.05,
         "out": str(tmp_path)},
    )
    assert main(["verify", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "verify.csv")
    assert header == ["identity", "s", "n", "lhs", "rhs", "rel_residual", "pass"]
    assert [r[0] for r in rows] == ["ros-oton-serra"] * 2
    assert [int(r[2]) for r in rows] == [64, 128]
    rels = [float(r[5]) for r in rows]
    assert rels[1] < rels[0]
    assert [r[6] for r in rows] == ["true", "true"]
    reports = json.loads((tmp_path / "verify.json").read_text())
    assert reports[0]["identity"] == "ros-oton-serra"
    assert reports[0]["flag"] == "OK"


def test_verify_unattainable_tol_exit_1(tmp_path):
    cfg = write_config(
        tmp_path,
        {"identity": "ros-oton-serra", "n": [64], "tol": 1e-12,
         "out": str(tmp_path)},
    )
    assert main(["verify", "--config", cfg]) == 1
    _, rows = read_csv(tmp_path / "verify.csv")
    assert rows[0][6] == "false"


def test_verify_hadamard_route(tmp_path):
    cfg = write_config(
        tmp_path,
        {"identity": "hadamard", "k": 2, "even_only": True, "n": [256],
         "out": str(tmp_path)},
    )
    assert main(["verify", "--config", cfg]) == 0
    reports = json.loads((tmp_path / "verify.json").read_text())
    assert reports[0]["identity"] == "hadamard"
    assert reports[0]["fd_slope"] < 0
    _, rows = read_csv(tmp_path / "verify.csv")
    assert rows[0][0] == "hadamard"


@pytest.mark.parametrize("identity", ["ibp", "hadamard"])
def test_verify_mode_beyond_solved_modes_exit_2(tmp_path, identity):
    # n = 8 with even_only solves only 4 modes
    cfg = write_config(
        tmp_path,
        {"identity": identity, "n": 8, "even_only": True, "k": 5, "k2": 5,
         "out": str(tmp_path)},
    )
    assert main(["verify", "--config", cfg]) == 2


def test_verify_lemma21_bump_touching_boundary_exit_2(tmp_path):
    cfg = write_config(
        tmp_path,
        {"identity": "lemma21", "bump": {"halfwidth": 0.95},
         "out": str(tmp_path)},
    )
    assert main(["verify", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_needs_field(tmp_path):
    cfg = write_config(tmp_path, {"out": str(tmp_path)})
    assert main(["certify", "--config", cfg]) == 2


def test_certify_rotation_plus_dilation_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        {"field": ROTATION_FIELD, "domain": EXAMPLE_DOMAIN,
         "boundary_m": 64, "out": str(tmp_path)},
    )
    assert main(["certify", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "certify.csv")
    assert header == ["kind", "constants", "min_flux", "verdict"]
    assert [r[0] for r in rows] == ["c-condition", "min-flux"]
    assert float(rows[0][1]) == pytest.approx(5.0, abs=1e-9)
    assert float(rows[1][2]) >= -1e-6
    assert [r[3] for r in rows] == ["pass", "pass"]


def test_certify_threshold_prints_exponent_line(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"field": ANISOTROPIC_FIELD, "s": [0.25],
         "checks": ["c1c2-condition", "threshold"], "out": str(tmp_path)},
    )
    assert main(["certify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "p > 4/(1-2s)" in out
    docs = json.loads((tmp_path / "certify.json").read_text())
    assert docs[0]["constants"] == pytest.approx([1.5, 1.0], abs=1e-6)
    assert docs[1]["line"] == "p > 4/(1-2s)"
    assert docs[1]["values"][0] == pytest.approx([0.25, 8.0], abs=1e-9)


def test_certify_inward_field_fails_flux(tmp_path):
    cfg = write_config(
        tmp_path,
        {"field": {"components": ["-x", "-y"], "box": [-1.5, 1.5, -1.5, 1.5]},
         "domain": CIRCLE, "checks": ["min-flux"], "boundary_m": 64,
         "out": str(tmp_path)},
    )
    assert main(["certify", "--config", cfg]) == 1
    _, rows = read_csv(tmp_path / "certify.csv")
    assert rows[0][3] == "fail"
    assert float(rows[0][2]) == pytest.approx(-1.0, abs=1e-4)


def test_certify_threshold_outside_admissible_s_exit_2(tmp_path):
    cfg = write_config(
        tmp_path,
        {"field": ANISOTROPIC_FIELD, "s": [0.5],
         "checks": [{"kind": "threshold", "c1": 1.5, "c2": 1.0}],
         "out": str(tmp_path)},
    )
    assert main(["certify", "--config", cfg]) == 2


def test_certify_seed_precedence(tmp_path, monkeypatch):
    base = {"field": ANISOTROPIC_FIELD, "checks": ["c1c2-condition"],
            "seed": 1, "samples": 200, "out": str(tmp_path)}
    cfg = write_config(tmp_path, base)

    monkeypatch.setenv("FRACLAB_SEED", "424242")
    assert main(["certify", "--config", cfg]) == 0
    docs = json.loads((tmp_path / "certify.json").read_text())
    assert docs[0]["seed"] == 424242

    assert main(["certify", "--config", cfg, "--seed", "7"]) == 0
    docs = json.loads((tmp_path / "certify.json").read_text())
    assert docs[0]["seed"] == 7


def test_bad_seed_env_exit_2(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        {"field": ANISOTROPIC_FIELD, "checks": ["c1c2-condition"],
         "out": str(tmp_path)},
    )
    monkeypatch.setenv("FRACLAB_SEED", "not-a-number")
    assert main(["certify", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# semilinear
# ---------------------------------------------------------------------------

def test_semilinear_outputs(tmp_path):
    cfg = write_config(
        tmp_path, {"s": 0.75, "p": 4, "n": 64, "out": str(tmp_path)}
    )
    assert main(["semilinear", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "semilinear.json").read_text())
    assert doc["p"] == 4.0 and doc["n"] == 64
    # residual tracks quadrature consistency, so it is mesh-limited here
    assert doc["residual"] <= 1e-2
    assert abs(doc["nehari_gap"]) <= 1e-8
    assert doc["nodal"][0][0] == 0.0  # homogeneous exterior condition
    header, rows = read_csv(tmp_path / "semilinear.csv")
    assert header == ["x", "u"]
    assert len(rows) == 65
    assert float(rows[0][0]) == -1.0 and float(rows[0][1]) == 0.0
    assert max(float(r[1]) for r in rows) > 0.1


def test_semilinear_needs_p(tmp_path):
    cfg = write_config(tmp_path, {"s": 0.75, "n": 64, "out": str(tmp_path)})
    assert main(["semilinear", "--config", cfg]) == 2


def test_semilinear_supercritical_exit_2(tmp_path):
    cfg = write_config(
        tmp_path, {"s": 0.3, "p": 6, "n": 64, "out": str(tmp_path)}
    )
    assert main(["semilinear", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# fraclap
# ---------------------------------------------------------------------------

def test_fraclap_grid_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        {"grid": {"lo": -0.4, "hi": 0.4, "count": 5}, "out": str(tmp_path)},
    )
    assert main(["fraclap", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "fraclap.csv")
    assert header == ["x", "value", "error"]
    assert [float(r[0]) for r in rows] == pytest.approx(
        [-0.4, -0.2, 0.0, 0.2, 0.4]
    )
    for r in rows:
        assert math.isfinite(float(r[1])) and float(r[2]) >= 0.0


def test_fraclap_cutoff_too_large_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"out": str(tmp_path)})
    assert main(["fraclap", "--config", cfg, "--R", "1e8"]) == 2


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------

def _declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def test_console_entry_point(tmp_path):
    """The declared ``fraclab`` script runs, from the source tree under test.

    A fresh interpreter executes what the generated console script would:
    import the entry point named in pyproject.toml, call it with no
    arguments, and exit with its return value.
    """
    target = _declared_scripts().get("fraclab")
    assert target == "fraclab.cli:main"
    module, func = target.split(":")
    launcher = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'fraclab'\n"
        f"sys.exit({func}())\n"
    )
    src_root = str(pathlib.Path(fraclab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def run(*args):
        return subprocess.run(
            [sys.executable, "-c", launcher, *args],
            capture_output=True, text=True, timeout=120, env=env,
        )

    proc = run("eigen", "--n", "16", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "eigen.csv").exists()
    assert "eigen: s = 0.5" in proc.stdout
    # a command's own nonzero result must reach the script's exit status
    failed = run("verify", "--identity", "ros-oton-serra", "--n", "16",
                 "--tol", "1e-12", "--out", str(tmp_path / "verify"))
    assert failed.returncode == 1, failed.stderr
    assert "FAIL" in failed.stdout


@pytest.mark.skipif(
    shutil.which("fraclab") is None,
    reason="fraclab console script not on PATH (package not installed)",
)
def test_installed_console_script(tmp_path):
    exe = shutil.which("fraclab")
    assert exe is not None
    proc = subprocess.run(
        [exe, "eigen", "--n", "16", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert (tmp_path / "eigen.csv").exists()
    assert "eigen: s = 0.5" in proc.stdout
