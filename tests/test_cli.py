"""End-to-end command-line tests: exit codes, CSV/JSON schemas, determinism.

Runs go through fraclab.cli.main(argv) in-process so coverage and tmp_path
isolation work.  Two tests cover the ``fraclab`` console script: one checks
the entry point declared in pyproject.toml by running it from the source tree
in a fresh interpreter, and one runs the installed script where it exists.
"""

import csv
import dataclasses
import json
import math
import multiprocessing
import os
import pathlib
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

import fraclab
from fraclab import cli
from fraclab.cli import main
from fraclab.solve import _SHIFT_INVERT_DIM

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


def src_env():
    """The environment of a fresh interpreter that imports fraclab from the
    source tree under test."""
    src_root = str(pathlib.Path(fraclab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


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


def test_eigen_json_shape(tmp_path):
    cfg = write_config(tmp_path, {"n": 16, "k_max": 3, "out": str(tmp_path)})
    assert main(["eigen", "--config", cfg]) == 0
    obj = json.loads((tmp_path / "eigen.json").read_text())
    assert list(obj) == ["s", "domain", "lambda", "nodal"]
    assert obj["s"] == 0.5
    assert obj["domain"] == [[-1.0, 1.0]]
    assert obj["lambda"] == sorted(obj["lambda"])
    assert len(obj["lambda"]) == len(obj["nodal"]) == 3
    # nodal values nest per interval and include the clamped endpoints
    ground = obj["nodal"][0][0]
    assert len(ground) == 17
    assert ground[0] == 0.0 and ground[-1] == 0.0


def test_eigen_dump_matrices(tmp_path):
    cfg = write_config(tmp_path, {"n": 128, "k_max": 2, "out": str(tmp_path)})
    assert main(["eigen", "--config", cfg, "--dump-matrices"]) == 0
    for kind in ("mass", "stiffness"):
        text = (tmp_path / f"eigen_{kind}.txt").read_text().splitlines()
        assert text[0] == "127 127"
        assert len(text) == 128
    # the sparse mass matrix is written densely, every entry in %.17g
    mesh = fraclab.make_mesh(fraclab.make_domain([(-1.0, 1.0)]), 128, 2.0)
    M = fraclab.assemble_mass(mesh).toarray()
    assert (tmp_path / "eigen_mass.txt").read_text().splitlines()[1:] == [
        " ".join("%.17g" % v for v in row) for row in M
    ]


def test_eigen_sweep_jobs_deterministic(tmp_path):
    base = {"s": [0.4, 0.6], "n": [16], "k_max": 3}
    out1, out2 = str(tmp_path / "serial"), str(tmp_path / "pool")
    cfg1 = write_config(tmp_path, dict(base, out=out1), "a.json")
    cfg2 = write_config(tmp_path, dict(base, out=out2), "b.json")
    assert main(["eigen", "--config", cfg1, "--jobs", "1"]) == 0
    fraclab.solve_context.cache_clear()  # forked workers must solve afresh
    assert main(["eigen", "--config", cfg2, "--jobs", "2"]) == 0
    for name in ("eigen_s0.4_n16.csv", "eigen_s0.6_n16.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "pool" / name
        ).read_bytes()


# n elements per interval, n - 1 interior nodes each: both pencils are solved
# by shift-invert Lanczos
@pytest.mark.parametrize(
    "intervals, n", [([[-1.0, 1.0]], 1024), ([[-2.0, -1.0], [1.0, 2.0]], 512)]
)
def test_eigen_jobs_deterministic_on_the_lanczos_path(tmp_path, intervals, n):
    assert len(intervals) * (n - 1) >= _SHIFT_INVERT_DIM
    base = {"domain": {"intervals": intervals}, "s": [0.4, 0.6], "n": [n], "k_max": 4}
    for jobs in ("1", "2"):
        # pool workers fork from this process: empty the context cache, or
        # they would only copy the serial run's results
        fraclab.solve_context.cache_clear()
        cfg = write_config(tmp_path, dict(base, out=str(tmp_path / jobs)), jobs + ".json")
        assert main(["eigen", "--config", cfg, "--jobs", jobs]) == 0
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(names) == 4
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_eigen_on_a_mesh_with_a_zero_length_element_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 1024, "beta": 6.0, "out": str(tmp_path)})
    assert main(["eigen", "--config", cfg]) == 2
    assert "zero length" in capsys.readouterr().err
    assert not (tmp_path / "eigen.csv").exists()


# a grading that computes 0/0 gives NaN element sizes; the domains below
# have element sizes whose powers overflow the stiffness form, and are
# refused when meshed, before any assembly could warn
@pytest.mark.parametrize(
    "data, message",
    [
        ({"n": 8, "beta": 1e300}, "8 element(s) to zero length or NaN"),
        ({"domain": {"intervals": [[0, 1e-300]]}}, "the assembled forms stay finite"),
        ({"domain": {"intervals": [[1e300, 1.5e300]]}}, "the assembled forms stay finite"),
        ({"domain": {"intervals": [[-1e300, 1e300]]}}, "the assembled forms stay finite"),
        (
            {"domain": {"intervals": [[0, 1e-100]]}, "n": 2048, "s": 0.99},
            "element sizes 2.39e-107 to",
        ),
    ],
    ids=["nan-grading", "tiny-interval", "far-interval", "wide-interval", "tiny-elements"],
)
def test_eigen_on_a_non_finite_mesh_or_form_exits_2(tmp_path, capsys, data, message):
    cfg = write_config(tmp_path, {"n": 8, "out": str(tmp_path), **data})
    assert main(["eigen", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


# s = 0.30000001 and 0.3 print alike with six significant digits, and the
# second point's files overwrote the first's
@pytest.mark.parametrize(
    "command, data, suffixes",
    [
        ("eigen", {"n": 16, "k_max": 1}, ["_n16.csv", "_n16.json"]),
        ("semilinear", {"p": 3, "n": 16}, ["_n16.csv", "_n16.json"]),
        ("fraclap", {"points": [0.0]}, [".csv"]),
    ],
)
def test_sweep_points_of_close_s_write_files_of_their_own(tmp_path, command, data, suffixes):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"s": [0.30000001, 0.3], "jobs": 1, "out": str(out), **data})
    assert main([command, "--config", cfg]) == 0
    stems = [f"{command}_s0.30000001", f"{command}_s0.3"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        stem + suffix for stem in stems for suffix in suffixes
    )
    for suffix in suffixes:
        assert (out / (stems[0] + suffix)).read_bytes() != (out / (stems[1] + suffix)).read_bytes()


def test_rerun_is_byte_identical(tmp_path):
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        cfg = write_config(tmp_path, {"n": 64, "out": str(out)}, tag + ".json")
        assert main(["eigen", "--config", cfg]) == 0
        outs.append(out)
    for name in ("eigen.csv", "eigen.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# One invalid value for every validated config key, with the stderr line it
# prints.  The ids are positional, so the first six keep their names.
CONFIG_ERRORS = [
    ({"n": 100}, "n must be a power of two between 8 and 2048, got 100"),
    ({"n": 4}, "n must be a power of two between 8 and 2048, got 4"),
    ({"k_max": 13}, "mode indices are limited to k <= 12"),
    ({"zeta": 1.0}, "unknown config keys: zeta"),
    ({"s": 1.5}, "s must lie in (0, 1), got 1.5"),
    (
        {"domain": {"intervals": [[0.0, 1.0], [0.5, 2.0]]}},
        "intervals (0.0, 1.0) and (0.5, 2.0) touch or overlap",
    ),
    ({"zeta": 1.0, "eta": 2}, "unknown config keys: eta, zeta"),
    ({"domain": [1]}, "'domain' must be an object"),
    ({"s": []}, "'s' must be a number or non-empty list of numbers"),
    ({"s": True}, "'s' must be a number or list of numbers"),
    ({"n": 16.5}, "'n' entries must be integers, got 16.5"),
    ({"beta": "2"}, "'beta' must be a number"),
    ({"beta": None}, "'beta' must be a number"),
    (
        {"identity": "bogus"},
        "identity must be one of pohozaev, ros-oton-serra, ibp, l2-radial, "
        "lemma21, hadamard; got 'bogus'",
    ),
    ({"k": 0}, "'k' must be >= 1, got 0"),
    ({"k": 13}, "mode indices are limited to k <= 12"),
    ({"k2": [2]}, "'k2' must be a single integer"),
    ({"k2": 13}, "mode indices are limited to k <= 12"),
    ({"k_max": "6"}, "'k_max' must be a number or non-empty list of numbers"),
    ({"p": 2}, "p must exceed 2, got 2.0"),
    ({"tol": 0}, "tol must be positive, got 0.0"),
    ({"quad_tols": [1e-6, -1]}, "quad_tols entries must be positive"),
    ({"bump": {"width": 1}}, "'bump' must be an object with keys center, halfwidth, power"),
    ({"bump": [1]}, "'bump' must be an object with keys center, halfwidth, power"),
    ({"bp_side": "top"}, "bp_side must be 'left' or 'right', got 'top'"),
    ({"h": -1}, "h must be positive, got -1.0"),
    ({"semilinear_tol": "tiny"}, "'semilinear_tol' must be a number"),
    ({"checks": []}, "'checks' must be a non-empty list"),
    ({"flux_tol": None}, "'flux_tol' must be a number"),
    ({"samples": 0}, "'samples' must be >= 1, got 0"),
    ({"boundary_m": 1}, "'boundary_m' must be >= 2, got 1"),
    ({"seed": -1}, "'seed' must be >= 0, got -1"),
    ({"jobs": 0}, "'jobs' must be >= 1, got 0"),
    ({"out": 5}, "'out' must be a directory path string"),
    ({"points": ["a"]}, "'points' must be a number or non-empty list of numbers"),
    ({"grid": {"lo": 0, "hi": 1}}, "'grid' must be an object with keys lo, hi, count"),
    ({"grid": {"lo": 0, "hi": 1, "count": 0}}, "'grid.count' must be >= 1, got 0"),
    ({"R": 0}, "R must be positive, got 0.0"),
    ({"quad_tol": 0}, "quad_tol must be positive, got 0.0"),
    # malformed values that ran, failed late or raised a traceback before they
    # were checked with the config; every command now rejects them up front
    ({"even_only": "false"}, "'even_only' must be true or false"),
    ({"dump_matrices": "no"}, "'dump_matrices' must be true or false"),
    ({"bump": {"center": "x"}}, "'bump.center' must be a number"),
    ({"grid": {"lo": "x", "hi": 1, "count": 3}}, "'grid.lo' must be a number"),
    ({"grid": {"lo": 0, "hi": "y", "count": 3}}, "'grid.hi' must be a number"),
    (
        {"domain": {"intervals": [[1.0, 0.0]]}},
        "interval (1.0, 0.0) has non-positive length",
    ),
    ({"domain": {"intervals": []}}, "domain needs at least one interval"),
    (
        {"domain": {"intervals": [[0, 1, 2]]}},
        "intervals must be pairs of numbers, got [[0, 1, 2]]",
    ),
    (
        {"domain": {"intervals": [[0, "a"]]}},
        "intervals must be pairs of numbers, got [[0, 'a']]",
    ),
    ({"semilinear_tol": 0}, "semilinear_tol must be positive, got 0.0"),
    # malformed implicit2d domains raised KeyError/ValueError/TypeError
    ({"domain": {"implicit2d": {}}}, "'implicit2d' must be an object with keys g, bbox"),
    ({"domain": {"implicit2d": []}}, "'implicit2d' must be an object with keys g, bbox"),
    (
        {"domain": {"implicit2d": {"g": "x^2 + y^2 - 1", "bbox": ["a", 1, 2, 3]}}},
        "bbox must be (xmin, xmax, ymin, ymax)",
    ),
    (
        {"domain": {"implicit2d": {"g": "x^2 + y^2 - 1", "bbox": 5}}},
        "bbox must be (xmin, xmax, ymin, ymax)",
    ),
    # certify checks are checked with the config, before any check runs
    ({"checks": ["c-condition", "bogus"]}, "unknown certify check kind 'bogus'"),
    ({"checks": [5]}, "each check must be a kind string or {'kind': ...}"),
    (
        {"checks": ["min-flux", "threshold"]},
        "threshold check needs c1/c2 or a preceding certificate",
    ),
    (
        {"checks": [{"kind": "threshold", "c1": "a", "c2": 1.0}]},
        "'threshold.c1' must be a number",
    ),
    (
        {"checks": [{"kind": "threshold", "c1": 1.5}]},
        "'threshold.c2' must be a number",
    ),
    (
        {"checks": ["c-condition", {"kind": "threshold", "N": "x"}]},
        "'threshold.N' must be a number or non-empty list of numbers",
    ),
    (
        {"checks": ["c-condition", {"kind": "threshold", "N": 1.7}]},
        "'threshold.N' entries must be integers, got 1.7",
    ),
    (
        {"checks": ["c-condition", {"kind": "threshold", "N": 0}]},
        "'threshold.N' must be >= 1, got 0",
    ),
    # a fractional bump power was truncated to an integer
    ({"bump": {"power": 2.5}}, "bump power must be an integer, got 2.5"),
    ({"bump": {"power": 1}}, "power >= 2 needed for a C^1 bump"),
    # malformed fields raised TypeError/ValueError in the command that built them
    (
        {"field": {"components": 5, "box": [-1, 1]}},
        "field 'components' must be a list of expressions",
    ),
    ({"field": {"components": ["x"], "box": "ab"}}, "box needs 2 numbers for dim 1"),
    (
        {"field": {"dim": "one", "components": ["x"], "box": [-1, 1]}},
        "field 'dim' must be an integer, got 'one'",
    ),
    # a non-string expression read as "empty expression"; deep nesting was a traceback
    (
        {"field": {"components": ["x"], "box": [-1, 1], "div": 5}},
        "expression must be a string, got 5",
    ),
    (
        {"field": {"components": ["-" * 5000 + "x"], "box": [-1, 1]}},
        "expression nested too deeply (5001 characters)",
    ),
    # parsed within the depth guard, but too deep to differentiate: a traceback
    (
        {"field": {"components": ["-" * 900 + "x"], "box": [-1, 1]}},
        "field expression nested too deeply (901 characters)",
    ),
    # json reads NaN and Infinity: they ended in a ValueError or
    # OverflowError traceback, in scipy's refusal of infs, or ran and failed
    # every row; a NaN bump center made fraclap grow panels without end
    ({"n": math.nan}, "'n' must be finite, got nan"),
    ({"k_max": math.nan}, "'k_max' must be finite, got nan"),
    ({"n": math.inf}, "'n' must be finite, got inf"),
    ({"samples": math.inf}, "'samples' must be finite, got inf"),
    ({"quad_tols": [math.nan]}, "'quad_tols' must be finite, got nan"),
    ({"quad_tols": [1e-6, math.inf]}, "'quad_tols' must be finite, got inf"),
    ({"beta": math.inf}, "'beta' must be finite, got inf"),
    ({"beta": -math.inf}, "'beta' must be finite, got -inf"),
    ({"tol": math.nan}, "'tol' must be finite, got nan"),
    ({"bump": {"center": math.nan}}, "'bump.center' must be finite, got nan"),
    ({"n": 10**400}, "'n' must be finite, got inf"),
    # a zero halfwidth divided by zero, a negative one inverted the support
    ({"bump": {"halfwidth": 0}}, "bump halfwidth must be positive, got 0"),
    ({"bump": {"halfwidth": -0.5}}, "bump halfwidth must be positive, got -0.5"),
    # an infinite interval endpoint ended in scipy's refusal of infs
    (
        {"domain": {"intervals": [[-math.inf, 1]]}},
        "interval (-inf, 1.0) has an infinite endpoint",
    ),
    (
        {"domain": {"intervals": [[-1, 1], [2, math.inf]]}},
        "interval (2.0, inf) has an infinite endpoint",
    ),
    # the even half needs a mesh symmetric under x -> -x; this exited 1
    (
        {"domain": {"intervals": [[-1, 2]]}, "even_only": True},
        "mesh is not symmetric under x -> -x",
    ),
]


@pytest.mark.parametrize(
    "data, message", CONFIG_ERRORS, ids=[f"data{i}" for i in range(len(CONFIG_ERRORS))]
)
def test_config_errors_exit_2(tmp_path, capsys, data, message):
    cfg = write_config(tmp_path, {"out": str(tmp_path), **data})
    assert main(["eigen", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"fraclab: config error: {message}\n"


# (command, file entries, flags, RunConfig field, the value the flag sets)
FLAG_OVERRIDES = [
    ("eigen", {"s": 0.3}, ["--s", "0.6"], "s_list", (0.6,)),
    ("eigen", {"n": 64}, ["--n", "16"], "n_list", (16,)),
    ("eigen", {"tol": 0.1}, ["--tol", "0.2"], "tol", 0.2),
    ("eigen", {"seed": 1}, ["--seed", "7"], "seed", 7),
    ("eigen", {"jobs": 1}, ["--jobs", "2"], "jobs", 2),
    ("eigen", {"out": "file-dir"}, ["--out", "flag-dir"], "out", "flag-dir"),
    ("eigen", {"k_max": 6}, ["--k-max", "3"], "k_max", 3),
    ("eigen", {"even_only": False}, ["--even-only"], "even_only", True),
    ("eigen", {"dump_matrices": False}, ["--dump-matrices"], "dump_matrices", True),
    ("verify", {"identity": "ibp"}, ["--identity", "pohozaev"], "identity", "pohozaev"),
    ("verify", {"k": 1}, ["--k", "3"], "k", 3),
    ("verify", {"k2": 2}, ["--k2", "4"], "k2", 4),
    ("verify", {"p": 3.0}, ["--p", "5"], "p", 5.0),
    ("verify", {"even_only": False}, ["--even-only"], "even_only", True),
    ("semilinear", {"p": 3.0}, ["--p", "5"], "p", 5.0),
    ("fraclap", {"R": 1.0}, ["--R", "2"], "R", 2.0),
    ("fraclap", {"quad_tol": 1e-6}, ["--quad-tol", "1e-8"], "quad_tol", 1e-8),
]


@pytest.mark.parametrize(
    "command, data, flags, name, value",
    FLAG_OVERRIDES,
    ids=[f"{c}{f[0]}" for c, _, f, _, _ in FLAG_OVERRIDES],
)
def test_flag_beats_file_value(tmp_path, monkeypatch, command, data, flags, name, value):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: seen.append(cfg) or 0)
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", cfg, *flags]) == 0
    (run,) = seen
    assert getattr(run, name) == value
    assert set(data) <= run.given


def test_readme_config_table_matches_schema():
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n### ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    documented = [(key.strip("| `"), default.strip("`")) for key, default, _ in rows]
    schema = [
        (f.metadata["key"] or f.name,
         "—" if f.metadata["default"] is None else json.dumps(f.metadata["default"]))
        for f in dataclasses.fields(cli.RunConfig) if f.metadata
    ]
    assert documented == schema


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


def test_verify_jobs_never_changes_a_byte(tmp_path):
    base = {"identity": "pohozaev", "p": 3, "s": [0.3, 0.7], "n": [16, 32]}
    codes = []
    for jobs in ("1", "2"):
        # pool workers fork from this process: empty the context cache, or
        # they would start from the serial run's last context
        fraclab.solve_context.cache_clear()
        cfg = write_config(tmp_path, dict(base, out=str(tmp_path / jobs)), jobs + ".json")
        codes.append(main(["verify", "--config", cfg, "--jobs", jobs]))
    assert codes[0] == codes[1]
    for name in ("verify.csv", "verify.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


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


def test_verify_hadamard_near_degenerate_eigenvalue_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"identity": "hadamard", "domain": {"intervals": [[-2, -1], [1, 2]]},
         "k": 12, "even_only": True, "n": 64, "out": str(tmp_path)},
    )
    assert main(["verify", "--config", cfg]) == 2
    assert "needs a simple eigenvalue" in capsys.readouterr().err


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


def test_certify_bad_check_exits_before_any_check_runs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {"field": ANISOTROPIC_FIELD, "checks": ["c-condition", "bogus"], "out": str(out)},
    )
    assert main(["certify", "--config", cfg]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


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


def test_fraclap_evaluates_each_s_in_one_call(tmp_path, monkeypatch):
    sizes = []
    real = cli.frac_laplacian_pointwise

    def counting(phi, s, x, **kwargs):
        sizes.append(np.size(x))
        return real(phi, s, x, **kwargs)

    monkeypatch.setattr(cli, "frac_laplacian_pointwise", counting)
    cfg = write_config(
        tmp_path,
        {"s": [0.3, 0.6], "grid": {"lo": -0.4, "hi": 0.4, "count": 7},
         "out": str(tmp_path)},
    )
    assert main(["fraclap", "--config", cfg]) == 0
    assert sizes == [7, 7]


def test_fraclap_short_cutoff_rows_match_single_points(tmp_path):
    # R = 1 covers the support seen from x = 0 but not from x = 0.6, where
    # the tail sup is sampled; the sampled sup is 0 wherever R covers it
    cfg = write_config(
        tmp_path, {"points": [0.0, 0.6], "R": 1.0, "out": str(tmp_path)}
    )
    assert main(["fraclap", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "fraclap.csv")
    bump = fraclab.polynomial_bump()
    for (x, value, error), tail_sup in zip(rows, (0.0, None)):
        one = fraclab.frac_laplacian_pointwise(
            bump, 0.5, float(x), R=1.0, tail_sup=tail_sup
        )
        assert (float(value), float(error)) == (one.value, one.error)


def test_fraclap_cutoff_too_large_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"out": str(tmp_path)})
    assert main(["fraclap", "--config", cfg, "--R", "1e8"]) == 2


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

def blas_threads(_task=None):
    """The thread count of every OpenBLAS pool loaded in this process."""
    return [get() for get, _ in cli._blas_pools()]


@pytest.fixture
def blas_at_two():
    """Every loaded OpenBLAS pool set to two threads, restored afterwards, so
    that a pinned count of one cannot be the count the test started from."""
    pools = cli._blas_pools()
    if not pools:
        pytest.skip("no OpenBLAS library is loaded")
    saved = blas_threads()
    for _, put in pools:
        put(2)
    yield [2] * len(pools)
    for (_, put), count in zip(pools, saved):
        put(count)


def test_main_runs_every_blas_pool_on_one_thread(blas_at_two, monkeypatch):
    inside = []
    monkeypatch.setitem(cli._COMMANDS, "fraclap", lambda cfg: inside.extend(blas_threads()) or 0)
    assert main(["fraclap"]) == 0
    assert inside == [1] * len(blas_at_two)
    assert blas_threads() == blas_at_two


@pytest.mark.parametrize(
    "exc, rc",
    [
        (fraclab.errors.ConvergenceError("stub"), 1),
        (fraclab.errors.ConfigError("stub"), 2),
        (RuntimeError("stub"), None),
    ],
)
def test_main_restores_the_blas_threads_when_the_command_fails(
    blas_at_two, monkeypatch, exc, rc
):
    def fail(cfg):
        assert blas_threads() == [1] * len(blas_at_two)
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "fraclap", fail)
    if rc is None:
        with pytest.raises(RuntimeError):
            main(["fraclap"])
    else:
        assert main(["fraclap"]) == rc
    assert blas_threads() == blas_at_two


# fork copies this process's counts, spawn and forkserver load OpenBLAS afresh
@pytest.mark.parametrize(
    "method",
    [m for m in ("fork", "spawn", "forkserver") if m in multiprocessing.get_all_start_methods()],
)
def test_pool_workers_run_blas_on_one_thread(blas_at_two, monkeypatch, method):
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=context))
    counts = cli._run_tasks(blas_threads, [0, 1, 2, 3], 2)
    assert counts == [[1] * len(blas_at_two)] * 4
    assert blas_threads() == blas_at_two


# forkserver is the default start method on Linux from Python 3.14: each
# worker imports fraclab afresh and pins its BLAS pools in its initializer
@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no forkserver start method on this platform",
)
def test_jobs_under_forkserver_write_the_bytes_of_one_job(tmp_path, capsys):
    runs = {
        "eigen": {"s": [0.4, 0.6], "n": [16], "k_max": 3},
        "verify": {"identity": "ros-oton-serra", "s": [0.4, 0.6], "n": [16, 32], "tol": 1.0},
    }
    code = (
        "import multiprocessing, sys\n"
        "multiprocessing.set_start_method('forkserver')\n"
        "from fraclab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    for command, data in runs.items():
        serial, pool = tmp_path / command / "1", tmp_path / command / "2"
        cfg = write_config(tmp_path, dict(data, out=str(serial)), command + "1.json")
        assert main([command, "--config", cfg, "--jobs", "1"]) == 0
        cfg = write_config(tmp_path, dict(data, out=str(pool)), command + "2.json")
        proc = subprocess.run(
            [sys.executable, "-c", code, command, "--config", cfg, "--jobs", "2"],
            capture_output=True, text=True, timeout=300, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == capsys.readouterr().out
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in pool.iterdir()) and names
        for name in names:
            assert (serial / name).read_bytes() == (pool / name).read_bytes()


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


def test_importing_the_cli_loads_no_scipy_sparse():
    # the sparse mass matrix and mirror basis import scipy.sparse inside the
    # functions that build them, so start-up does not pay for it
    code = "import sys, fraclab.cli; print('scipy.sparse' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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

    def run(*args):
        return subprocess.run(
            [sys.executable, "-c", launcher, *args],
            capture_output=True, text=True, timeout=120, env=src_env(),
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


def test_cli_import_leaves_the_sparse_eigensolver_unloaded():
    # only an eigensolve of dimension _SHIFT_INVERT_DIM or more imports ARPACK,
    # so no other run pays for it
    code = "import sys, fraclab.cli; print('scipy.sparse.linalg' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
