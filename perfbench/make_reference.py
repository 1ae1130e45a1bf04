"""Record reference.json from the current code.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py

Runs ``eigen-2048`` once, and each verify workload once per s value any
seed may draw (one s per CLI run), then stores the eigenvalues and output
digests, and each s value's CSV lines and JSON report.  Regenerate it only
when a change is meant to move the outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from run import WORK, spawn  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_inputs, s_choices  # noqa: E402


def _run(command: str, config: dict, run_dir: str) -> str:
    os.makedirs(run_dir, exist_ok=True)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out_dir = os.path.join(run_dir, "out")
    res = spawn("PLAIN", [command, "--config", config_path, "--out", out_dir], run_dir)
    if res["rc"] != 0:
        raise SystemExit(f"{command} {config} exited with {res['rc']}")
    print(f"{run_dir}: {res['wall_s']:.2f} s", file=sys.stderr)
    return out_dir


def main() -> None:
    root = os.path.join(WORK, "reference")
    shutil.rmtree(root, ignore_errors=True)
    table = {}
    for name, spec in WORKLOADS.items():
        command, config = make_inputs(name, DEFAULT_SEED)
        if command == "eigen":
            out_dir = _run(command, config, os.path.join(root, name))
            table[name] = {
                "lambda": checks.read_lambdas(out_dir),
                "digests": checks.digests(command, out_dir),
            }
            continue
        by_s = {}
        quad_tols = sorted(config.get("quad_tols", []), reverse=True)
        for s in sorted({p for d in spec["s_default"] for p in s_choices(d)}):
            one = dict(config, s=[s])
            out_dir = _run(command, one, os.path.join(root, f"{name}-{checks.s_key(s)}"))
            with open(os.path.join(out_dir, "verify.csv"), encoding="utf-8") as fh:
                csv_lines = fh.readlines()[1:]
            with open(os.path.join(out_dir, "verify.json"), encoding="utf-8") as fh:
                (report,) = json.load(fh)
            rows = [
                {"n": int(r["n"]), "lhs": r["lhs"], "rhs": r["rhs"], "rel_residual": r["rel_residual"]}
                for r in checks.read_verify_rows(out_dir)
            ]
            if spec["config"]["identity"] == "lemma21":
                for row, qt in zip(rows, quad_tols):
                    row["quad_tol"] = qt
            by_s[checks.s_key(s)] = {"rows": rows, "csv_lines": csv_lines, "report": report}
        table[name] = {"by_s": by_s}
    shutil.rmtree(root, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
