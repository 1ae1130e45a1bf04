"""fraclab benchmark: run one workload, check it, print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload eigen-2048 --seed 0 --seconds 34 --trace 0

Runs the workload's ``fraclab`` CLI command again and again, each time in a
fresh interpreter with cold in-process caches (every real CLI run pays that
cost), until the next run would overrun ``--seconds``.  Every run is checked
against the reference table; a run fails on an unexpected exit code, a
failed verdict, a value outside tolerance, or output digests that differ
from the other runs of this invocation.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the provenance and every run's raw figures.

``--trace 0`` reports the end-to-end metrics, each the median over the runs.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics (medians over traced runs) and ``trace.overhead_s``, the traced
minus the untraced median of ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
from layertrace import COUNTER_NAMES, SPAN_NAMES  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_inputs  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
CHILD = os.path.join(BENCH_DIR, "child.py")

# interpreter start + import, sampled on its own this many times per run
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 120
# give up after this many runs when none of them finished
MAX_CRASHES = 2

COUNTER_UNITS = {
    "elements": "count",
    "dofs": "count",
    "max_residual": "rel",
    "iterations": "count",
    "points": "count",
    "hit_ratio": "ratio",
}


def spawn(mode: str, cli_args: list, run_dir: str) -> dict:
    """Run child.py once; returns its result plus ``setup_s``."""
    os.makedirs(run_dir, exist_ok=True)
    result_path = os.path.join(run_dir, "result.json")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, result_path, SRC, mode, *cli_args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0 or not os.path.isfile(result_path):
        raise RuntimeError(
            f"benchmark child exited with {proc.returncode}: {proc.stderr[-2000:]}"
        )
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result.pop("ready") - start
    return result


def _blas_info() -> dict:
    """BLAS library name and its default thread count, as numpy sees them."""
    import ctypes
    import glob

    import numpy

    info = {"name": None, "threads": None}
    try:
        info["name"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over src/fraclab, for checkouts that are not git repositories."""
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fraclab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            h.update(checks.sha256(os.path.join(pkg, name)).encode())
    return h.hexdigest()


def provenance(seed: int, command_line: list, config: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "command_line": command_line,
        "config": config,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    command, config = make_inputs(workload, seed)
    run_dir = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    config_path = os.path.relpath(config_path, ROOT)
    reference = checks.load_reference()[workload]
    expected = checks.expected_digests(reference, command, config)

    def cli_args(out_dir):
        return [command, "--config", config_path, "--out", os.path.relpath(out_dir, ROOT)]

    modes = ("PLAIN", "TRACE") if trace else ("PLAIN",)
    runs = []

    def check(res, mode, out_dir):
        res["mode"] = mode
        res["problems"], res["accuracy"] = checks.check_run(
            reference, command, config, res["rc"], out_dir
        )
        res["digests"] = checks.digests(command, out_dir)
        res["digest_matches_reference"] = res["digests"] == expected
        res["output_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in (os.listdir(out_dir) if os.path.isdir(out_dir) else ())
        )
        first = next((r for r in runs if "digests" in r), None)
        if first is not None and res["digests"] != first["digests"]:
            res["problems"].append("output digests differ from the first run")

    try:
        setup = [
            spawn("SETUP", [], os.path.join(run_dir, f"setup{i}"))["setup_s"]
            for i in range(SETUP_SAMPLES)
        ]
        begin = time.monotonic()
        while True:
            i = len(runs)
            mode = modes[i % len(modes)]
            rdir = os.path.join(run_dir, f"run{i}")
            out_dir = os.path.join(rdir, "out")
            try:
                res = spawn(mode, cli_args(out_dir), rdir)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                res = {"mode": mode, "problems": [str(exc)], "accuracy": None, "wall_s": None}
            else:
                check(res, mode, out_dir)
            runs.append(res)
            elapsed = time.monotonic() - begin
            timed = [r for r in runs if r["wall_s"] is not None]
            if not timed:
                if len(runs) >= MAX_CRASHES:
                    break
                continue
            # stop once another run of typical length would overrun
            enough = {r["mode"] for r in timed} == set(modes)
            if elapsed > seconds or (
                enough and elapsed + _median([r["wall_s"] + r["setup_s"] for r in timed]) > seconds
            ):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setup += [r["setup_s"] for r in runs if r["wall_s"] is not None]

    failed = sum(1 for r in runs if r["problems"])
    plain = [r for r in runs if r["mode"] == "PLAIN" and r["wall_s"] is not None]
    ratios = [
        r["accuracy"]["error"] / r["accuracy"]["reference_error"]
        for r in runs if r["accuracy"] is not None
    ]
    if not trace:
        metrics = {
            "setup_s": (_median(setup), "s"),
            "wall_s": (_median([r["wall_s"] for r in plain]), "s"),
            "cpu_s": (_median([r["cpu_s"] for r in plain]), "s"),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain]), "MB"),
            "error_ratio": (_median(ratios), "ratio"),
        }
    else:
        traced = [r for r in runs if "layers" in r]
        metrics = {}
        for name in SPAN_NAMES:
            for suffix, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count")):
                key = f"{name}.{suffix}"
                metrics[key] = (_median([r["layers"][key] for r in traced]), unit)
        for key in COUNTER_NAMES:
            metrics[key] = (_median([r["layers"][key] for r in traced]), COUNTER_UNITS[key.rsplit(".", 1)[1]])
        metrics["cli.output_bytes"] = (_median([r["output_bytes"] for r in plain]), "B")
        metrics["trace.overhead_s"] = (
            _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in plain]),
            "s",
        )
    detail = {
        "workload": workload,
        "provenance": provenance(seed, ["fraclab", *cli_args(os.path.join(run_dir, "OUT"))], config),
        "setup_samples_s": setup,
        "runs": [
            {k: v for k, v in r.items() if k != "layers"} for r in runs
        ],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "fraclab", "cli.py")):
        print(f"perfbench: no fraclab sources under {SRC}", file=sys.stderr)
        return 2
    detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
