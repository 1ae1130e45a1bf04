"""Self-test of the benchmark's tracing, on small inputs (about 20 s).

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Checks that a traced CLI run writes byte-identical outputs to an untraced
one for each command the workloads use, that every traced function was
called where the workload needs it, that ``uninstall`` puts every original
function back, and that self time is a span minus its children.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from layertrace import TARGETS, Tracer  # noqa: E402
from run import SRC, WORK, spawn  # noqa: E402

SMALL = {
    "eigen": {"s": 0.5, "n": 64, "jobs": 1},
    "verify-pohozaev": {
        "identity": "pohozaev",
        "field": {"components": ["x + 0.25*x^2"], "box": [-3.0, 3.0]},
        "p": 3, "s": [0.3], "n": [32, 64], "jobs": 1,
    },
    "verify-lemma21": {
        "identity": "lemma21",
        "field": {"components": ["x + 0.25*x^3"], "box": [-3.0, 3.0]},
        "bump": {"center": 0.2, "halfwidth": 0.5, "power": 3},
        "s": [0.75], "quad_tols": [1e-5], "jobs": 1,
    },
}


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def traced_outputs_match() -> None:
    for name, config in SMALL.items():
        command = name.split("-")[0]
        root = os.path.join(WORK, "selftest", name)
        os.makedirs(root, exist_ok=True)
        config_path = os.path.join(root, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        found = {}
        for mode in ("PLAIN", "TRACE"):
            out_dir = os.path.join(root, mode, "out")
            res = spawn(mode, [command, "--config", config_path, "--out", out_dir], os.path.join(root, mode))
            if res["rc"] != 0:
                fail(f"{name} {mode} exited with {res['rc']}")
            found[mode] = checks.digests(command, out_dir)
            if mode == "TRACE":
                layers = res["layers"]
        if found["PLAIN"] != found["TRACE"] or None in found["PLAIN"].values():
            fail(f"{name}: traced outputs differ from untraced: {found}")
        needed = {"eigen": "solve.solve_geig", "verify-pohozaev": "solve.solve_semilinear",
                  "verify-lemma21": "quadrature.adaptive_panels"}[name]
        if layers[f"{needed}.calls"] < 1 or layers["cli.main.calls"] != 1:
            fail(f"{name}: spans missing: {layers}")
        print(f"selftest: {name}: traced outputs identical, {len(layers)} layer figures")


def wrappers_restored() -> None:
    sys.path.insert(0, SRC)
    import fraclab.cli  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n.startswith("fraclab")]
    before = [(m, dict(vars(m))) for m in modules]
    cls = sys.modules["fraclab.fields"].VectorField
    methods = dict(vars(cls))
    tracer = Tracer(run_id="selftest")
    tracer.install()
    analysis = sys.modules["fraclab.analysis"]
    if not hasattr(analysis.assemble_deformation, "__wrapped__"):
        fail("fraclab.analysis.assemble_deformation was not wrapped")
    if len(tracer._restore) < len(TARGETS):
        fail("fewer replacements than targets")
    tracer.uninstall()
    for mod, attrs in before:
        changed = [k for k, v in vars(mod).items() if attrs.get(k) is not v]
        if changed:
            fail(f"{mod.__name__} not restored: {changed}")
    if dict(vars(cls)) != methods:
        fail("VectorField methods not restored")
    print("selftest: every wrapper restored")


def self_time() -> None:
    tracer = Tracer(run_id="selftest")
    # parent 0..10 with children 1..3 and 4..8; grandchild 5..6
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["analysis.solve_context", 1.0, 3.0, 0],
        ["analysis.solve_context", 4.0, 8.0, 0],
        ["domain.make_mesh", 5.0, 6.0, 2],
    ]
    got = tracer.summary()
    want = {"cli.main.self_s": 4.0, "analysis.solve_context.self_s": 5.0,
            "domain.make_mesh.self_s": 1.0, "analysis.solve_context.calls": 2}
    for key, value in want.items():
        if got[key] != value:
            fail(f"{key} = {got[key]}, expected {value}")
    print("selftest: self time = span minus children")


def main() -> None:
    self_time()
    wrappers_restored()
    traced_outputs_match()
    shutil.rmtree(os.path.join(WORK, "selftest"), ignore_errors=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
