"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/sweep.py --seeds 1-10 [--workloads eigen-2048,lemma21] \\
        [--trace-seed 0] [--out perfbench/.work/sweep.json]

Seeds run in the outer loop and workloads in the inner one, so a slow
stretch of the machine touches every workload alike.  For each workload and
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  ``--trace-seed``
adds one traced run per workload for the per-layer figures.  ``--out``
gets every value, the spreads and the provenance of the first run;
``perfbench/baseline.json`` was written this way from the unchanged code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, ".work", "sweep.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    values = {w: {m: [] for m in bounds} for w in workloads}
    runs = {w: [] for w in workloads}
    provenance = None
    for seed in seeds:
        for w in workloads:
            detail, result = run_once(spec, w, seed, 0)
            provenance = provenance or detail["provenance"]
            runs[w].append({"seed": seed, "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            "digests_match_reference": all(r["digest_matches_reference"] for r in detail["runs"]),
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"seed {seed} {w}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    summary = {"provenance": provenance, "seeds": seeds, "workloads": {}}
    for w in workloads:
        stats = {m: spread(v) for m, v in values[w].items()} if len(seeds) > 1 else {}
        summary["workloads"][w] = {"runs": runs[w], "spread": stats}
        for m, st in stats.items():
            flag = "" if st["spread"] < bounds[m] / 3 else "  <-- above a third of the bound"
            print(f"{w:20s} {m:12s} median={st['median']:.6g} q1={st['q1']:.6g} "
                  f"q3={st['q3']:.6g} spread={st['spread']:.4f} bound={bounds[m]}{flag}")
        if args.trace_seed is not None:
            detail, result = run_once(spec, w, args.trace_seed, 1)
            summary["workloads"][w]["trace"] = {
                "seed": args.trace_seed,
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    sys.exit(main())
