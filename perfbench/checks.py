"""Correctness of one CLI run: verdicts, reference values and output digests.

The reference table (``reference.json``) was recorded from the unchanged
code by ``make_reference.py``.  It holds, for ``eigen-2048``, the output
digests and eigenvalues, and for each verify workload one entry per s value
a seed may draw: the CSV lines and the JSON report that s contributes.  From
those, the expected outputs of any seed's draw can be rebuilt byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

from workloads import KWASNICKI_LAMBDA1

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Leading eigenvalues must match the reference to 1e-10 relative, and so must
# the lhs/rhs of every verify row, except the quadrature side of lemma21,
# which may move within twice its requested quadrature tolerance.
REL_TOL = 1e-10
# the discretization error at n = 2048 is about 6e-8
LAMBDA1_TOL = 1e-6

VERIFY_HEADER = "identity,s,n,lhs,rhs,rel_residual,pass\n"

OUTPUTS = {"eigen": ("eigen.csv", "eigen.json"), "verify": ("verify.csv", "verify.json")}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def s_key(s: float) -> str:
    return "%.2f" % s


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(command: str, out_dir: str) -> dict:
    """SHA-256 of every output file the command writes; missing files map to None."""
    out = {}
    for name in OUTPUTS[command]:
        path = os.path.join(out_dir, name)
        out[name] = sha256(path) if os.path.isfile(path) else None
    return out


def expected_digests(workload_ref: dict, command: str, config: dict) -> dict:
    """Digests the unchanged code gives for ``config``, rebuilt from the table."""
    if command == "eigen":
        return dict(workload_ref["digests"])
    entries = [workload_ref["by_s"][s_key(s)] for s in config["s"]]
    csv_text = VERIFY_HEADER + "".join(line for e in entries for line in e["csv_lines"])
    json_text = json.dumps([e["report"] for e in entries], indent=2) + "\n"
    return {
        "verify.csv": hashlib.sha256(csv_text.encode()).hexdigest(),
        "verify.json": hashlib.sha256(json_text.encode()).hexdigest(),
    }


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def read_verify_rows(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "verify.csv"), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_lambdas(out_dir: str) -> list[float]:
    with open(os.path.join(out_dir, "eigen.csv"), encoding="utf-8", newline="") as fh:
        return [float(row["lambda"]) for row in csv.DictReader(fh)]


def check_run(workload_ref: dict, command: str, config: dict, rc: int, out_dir: str):
    """(problems, accuracy) of one run.

    ``problems`` lists every way the run missed: exit code, missing output,
    failed verdict, a value outside tolerance of the reference or of the
    outside oracle.  ``accuracy`` holds the run's error against independent
    counterparts (``error``), the same figure for the reference table
    (``reference_error``), and the raw figure a user reads: lambda_1's
    relative error against Kwasnicki for ``eigen``
    (``lambda1_rel_err``), the largest rel_residual for ``verify``
    (``max_rel_residual``).  The error of a verify run is the sum of its
    rel_residual column.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    missing = [n for n in OUTPUTS[command] if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        problems.append(f"missing outputs {missing}")
        return problems, None
    if command == "eigen":
        lambdas = read_lambdas(out_dir)
        ref = workload_ref["lambda"]
        if len(lambdas) != len(ref):
            problems.append(f"{len(lambdas)} eigenvalues, reference has {len(ref)}")
        for k, (got, want) in enumerate(zip(lambdas, ref), start=1):
            if _rel_diff(got, want) > REL_TOL:
                problems.append(f"lambda_{k} = {got!r}, reference {want!r}")
        err = abs(lambdas[0] - KWASNICKI_LAMBDA1) / KWASNICKI_LAMBDA1
        if err > LAMBDA1_TOL:
            problems.append(f"lambda_1 relative error {err:.3g} against Kwasnicki")
        ref_err = abs(ref[0] - KWASNICKI_LAMBDA1) / KWASNICKI_LAMBDA1
        return problems, {"error": err, "reference_error": ref_err, "lambda1_rel_err": err}

    rows = read_verify_rows(out_dir)
    want_rows = {}
    for s in config["s"]:
        for row in workload_ref["by_s"][s_key(s)]["rows"]:
            want_rows[(s_key(s), int(row["n"]))] = row
    got_keys = [(s_key(float(r["s"])), int(r["n"])) for r in rows]
    if sorted(got_keys) != sorted(want_rows):
        problems.append(f"rows {got_keys}, reference {sorted(want_rows)}")
    for key, row in zip(got_keys, rows):
        if row["pass"] != "true":
            problems.append(f"verdict {row['pass']} at s, n = {key}")
        want = want_rows.get(key)
        if want is None:
            continue
        for side in ("lhs", "rhs"):
            got, ref = float(row[side]), float(want[side])
            if want.get("quad_tol") is not None and side == "rhs":
                ok = abs(got - ref) <= 2.0 * want["quad_tol"]
            else:
                ok = _rel_diff(got, ref) <= REL_TOL
            if not ok:
                problems.append(f"{side} = {got!r} at s, n = {key}, reference {ref!r}")
    residuals = [float(r["rel_residual"]) for r in rows]
    return problems, {
        "error": sum(residuals),
        "reference_error": sum(float(w["rel_residual"]) for w in want_rows.values()),
        "max_rel_residual": max(residuals, default=0.0),
    }
