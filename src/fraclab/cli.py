"""Command-line front end: config parsing, dispatch, CSV/JSON report writing.

Usage::

    fraclab <eigen|verify|certify|semilinear|fraclap> --config run.json [overrides]

A run is described by one JSON config file; the flags ``--s``, ``--n``,
``--tol`` (and a few command-specific ones) override single entries for quick
runs.  ``s`` and ``n`` may be lists, in which case the command sweeps over
them and writes results in config order; ``eigen`` and ``verify`` run the
sweep in a worker pool (``--jobs``).  The
environment variable ``FRACLAB_SEED`` overrides the config seed.

Exit codes: 0 success / all checks pass, 1 a verification or certificate
failed (or a runtime tolerance was not met), 2 config error.

All floating-point output is printed with 17 significant digits so reruns
with identical configs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from .analysis import (
    IDENTITIES,
    HadamardReport,
    polynomial_bump,
    report_to_dict,
    verify_steps,
)
from .domain import (
    Domain1D,
    boundary_points,
    domain_from_json,
    sample_boundary_2d,
)
from .errors import (
    ArgumentError,
    ConfigError,
    DegenerateError,
    DimensionMismatchError,
    DomainCollisionError,
    ExpressionError,
    FracLabError,
    OverlapError,
    RangeError,
    SupercriticalError,
    SupportError,
)
from .fields import (
    DEFAULT_SEED,
    admissible_s_interval,
    check_c1_c2,
    check_c_condition,
    field_from_json,
    min_flux,
    nonexistence_threshold,
)
from .assembly import frac_laplacian_pointwise
from .solve import pairs_to_json, solve_context, solve_semilinear

__all__ = ["RunConfig", "main"]

_CONFIG_ERRORS = (
    ConfigError,
    ArgumentError,
    DegenerateError,
    RangeError,
    SupportError,
    SupercriticalError,
    DimensionMismatchError,
    DomainCollisionError,
    ExpressionError,
    OverlapError,
    OSError,
    json.JSONDecodeError,
)


def _fmt(v) -> str:
    """17-significant-digit rendering for every float we emit."""
    return "%.17g" % float(v)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def _numbers(v, name) -> tuple[float, ...]:
    if isinstance(v, bool):
        raise ConfigError(f"'{name}' must be a number or list of numbers")
    if isinstance(v, (int, float)):
        return (float(v),)
    if (
        isinstance(v, (list, tuple))
        and v
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        return tuple(float(x) for x in v)
    raise ConfigError(f"'{name}' must be a number or non-empty list of numbers")


def _integers(v, name) -> tuple[int, ...]:
    vals = _numbers(v, name)
    out = []
    for x in vals:
        if x != int(x):
            raise ConfigError(f"'{name}' entries must be integers, got {x}")
        out.append(int(x))
    return tuple(out)


def _one_int(v, name, lo=1) -> int:
    if isinstance(v, (list, tuple)):
        raise ConfigError(f"'{name}' must be a single integer")
    (x,) = _integers(v, name)
    if x < lo:
        raise ConfigError(f"'{name}' must be >= {lo}, got {x}")
    return x


def _one_float(v, name) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"'{name}' must be a number")
    return float(v)


# Checks: each takes a config value and its key, and returns the normalized
# value or raises ConfigError.


def _object(v, name) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"'{name}' must be an object")
    return v


def _s_values(v, name) -> tuple[float, ...]:
    vals = _numbers(v, name)
    for s in vals:
        if not (0.0 < s < 1.0):
            raise ConfigError(f"s must lie in (0, 1), got {s}")
    return vals


def _mesh_sizes(v, name) -> tuple[int, ...]:
    vals = _integers(v, name)
    for n in vals:
        if not (8 <= n <= 2048) or (n & (n - 1)) != 0:
            raise ConfigError(f"n must be a power of two between 8 and 2048, got {n}")
    return vals


def _identity(v, name) -> str:
    if v not in IDENTITIES:
        raise ConfigError(f"identity must be one of {', '.join(IDENTITIES)}; got '{v}'")
    return v


def _mode(v, name) -> int:
    k = _one_int(v, name)
    if k > 12:
        raise ConfigError("mode indices are limited to k <= 12")
    return k


def _flag(v, name) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"'{name}' must be true or false")
    return v


def _exponent(v, name) -> float:
    p = _one_float(v, name)
    if p <= 2.0:
        raise ConfigError(f"p must exceed 2, got {p}")
    return p


def _positive(v, name) -> float:
    x = _one_float(v, name)
    if x <= 0.0:
        raise ConfigError(f"{name} must be positive, got {x}")
    return x


def _positives(v, name) -> tuple[float, ...]:
    vals = _numbers(v, name)
    if any(t <= 0.0 for t in vals):
        raise ConfigError(f"{name} entries must be positive")
    return vals


def _bump(v, name) -> dict:
    if not isinstance(v, dict) or set(v) - {"center", "halfwidth", "power"}:
        raise ConfigError("'bump' must be an object with keys center, halfwidth, power")
    for key, x in v.items():
        _one_float(x, f"bump.{key}")
    polynomial_bump(**v)  # rejects a power below 2 or not an integer
    return v


def _field(v, name) -> dict:
    field_from_json(v)  # rejects malformed components, dim, box or expressions
    return v


def _side(v, name) -> str:
    if v not in ("left", "right"):
        raise ConfigError(f"bp_side must be 'left' or 'right', got '{v}'")
    return v


_CERTIFICATES = ("c-condition", "c1c2-condition")


def _checks(v, name) -> tuple:
    """Each certify check as a dict {"kind": ...} with numeric c1, c2 and N."""
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError("'checks' must be a non-empty list")
    out = []
    for spec in v:
        if isinstance(spec, str):
            spec = {"kind": spec}
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError("each check must be a kind string or {'kind': ...}")
        kind = spec["kind"]
        if kind not in _CERTIFICATES + ("min-flux", "threshold"):
            raise ConfigError(f"unknown certify check kind '{kind}'")
        if kind == "threshold":
            spec = dict(spec)
            if "c1" in spec or "c2" in spec:
                spec["c1"] = _one_float(spec.get("c1"), "threshold.c1")
                spec["c2"] = _one_float(spec.get("c2"), "threshold.c2")
            elif not any(prev["kind"] in _CERTIFICATES for prev in out):
                raise ConfigError(
                    "threshold check needs c1/c2 or a preceding certificate"
                )
            if "N" in spec:
                spec["N"] = _one_int(spec["N"], "threshold.N")
        out.append(spec)
    return tuple(out)


def _path(v, name) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"'{name}' must be a directory path string")
    return v


def _grid(v, name) -> dict:
    if not isinstance(v, dict) or set(v) != {"lo", "hi", "count"}:
        raise ConfigError("'grid' must be an object with keys lo, hi, count")
    _one_int(v["count"], "grid.count")
    _one_float(v["lo"], "grid.lo")
    _one_float(v["hi"], "grid.hi")
    return v


def _entry(default, check=None, key=None):
    """A config key (default: the field name), its default and its check.

    A check runs on every value except a None that is also the default.
    """
    return field(metadata={"key": key, "default": default, "check": check})


@dataclass(frozen=True)
class RunConfig:
    """Validated, normalized run description (sweep lists already expanded).

    Every field but ``command`` and ``given`` is one config key; its
    metadata is the whole schema that :func:`make_config` applies.
    """

    command: str
    domain: dict = _entry({"intervals": [[-1.0, 1.0]]}, _object)
    s_list: tuple[float, ...] = _entry(0.5, _s_values, key="s")
    n_list: tuple[int, ...] = _entry(256, _mesh_sizes, key="n")
    beta: float = _entry(2.0, _one_float)
    field: Optional[dict] = _entry(None, _field)
    identity: Optional[str] = _entry(None, _identity)
    k: int = _entry(1, _mode)
    k2: int = _entry(2, _mode)
    k_max: int = _entry(6, _mode)
    even_only: bool = _entry(False, _flag)
    p: Optional[float] = _entry(None, _exponent)
    tol: float = _entry(0.05, _positive)
    quad_tols: tuple[float, ...] = _entry([1e-6, 1e-8], _positives)
    bump: Optional[dict] = _entry(None, _bump)
    bp_side: str = _entry("right", _side)
    h: Optional[float] = _entry(None, _positive)
    semilinear_tol: float = _entry(1e-12, _positive)
    checks: Optional[tuple] = _entry(None, _checks)
    flux_tol: float = _entry(-1e-6, _one_float)
    samples: int = _entry(10_000, _one_int)
    boundary_m: int = _entry(400, partial(_one_int, lo=2))
    seed: int = _entry(DEFAULT_SEED, partial(_one_int, lo=0))
    jobs: Optional[int] = _entry(None, _one_int)
    out: str = _entry(".", _path)
    dump_matrices: bool = _entry(False, _flag)
    points: Optional[tuple[float, ...]] = _entry(None, _numbers)
    grid: Optional[dict] = _entry(None, _grid)
    R: Optional[float] = _entry(None, _positive)
    quad_tol: Optional[float] = _entry(None, _positive)
    given: frozenset


def make_config(command: str, data: dict, given=None) -> RunConfig:
    """Validate a plain config dict (from JSON + overrides) into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    entries = {f.metadata["key"] or f.name: f for f in fields(RunConfig) if f.metadata}
    unknown = sorted(set(data) - set(entries))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, f in entries.items():
        default, check = f.metadata["default"], f.metadata["check"]
        v = data.get(key, default)
        if check is not None and (v is not None or default is not None):
            v = check(v, key)
        values[f.name] = v
    given = frozenset(given if given is not None else data.keys())
    return RunConfig(command=command, given=given, **values)


def _load_config(args) -> RunConfig:
    flags = {k: v for k, v in vars(args).items() if v is not None}
    command = flags.pop("command")
    data: dict = {}
    if "config" in flags:
        with open(flags.pop("config"), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
    given = set(data.keys())

    env_seed = os.environ.get("FRACLAB_SEED")
    if env_seed is not None:
        try:
            data["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"FRACLAB_SEED must be an integer, got {env_seed!r}"
            ) from None
        given.add("seed")

    # every argparse dest but command and config is the key it overrides
    data.update(flags)
    given.update(flags)
    return make_config(command, data, given)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _outpath(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    return str(v)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _matrix_text(mat: np.ndarray) -> str:
    mat = np.asarray(mat, dtype=float)
    lines = [f"{mat.shape[0]} {mat.shape[1]}"]
    for row in mat:
        lines.append(" ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _domain_1d(cfg: RunConfig) -> Domain1D:
    dom = domain_from_json(cfg.domain)
    if not isinstance(dom, Domain1D):
        raise ConfigError(f"'{cfg.command}' needs a 1D interval domain")
    return dom


def _run_tasks(fn, tasks, jobs):
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(int(jobs), len(tasks)))
    if jobs == 1 or len(tasks) == 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, tasks))


def _suffix(s: float, n: int, multi: bool) -> str:
    return f"_s{s:g}_n{n}" if multi else ""


# ---------------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------------

def _eigen_task(arg):
    cfg, s, n = arg
    dom = _domain_1d(cfg)
    ctx = solve_context(dom, s, n, cfg.beta, cfg.even_only)
    if cfg.k_max > len(ctx.pairs):
        raise ConfigError(
            f"k_max = {cfg.k_max} exceeds the {len(ctx.pairs)} available modes"
        )
    pairs = ctx.pairs[: cfg.k_max]
    rows = []
    prev = None
    for pr in pairs:
        gap = float("nan") if prev is None else pr.value - prev
        rows.append((pr.k, pr.value, gap))
        prev = pr.value
    out = {
        "s": s,
        "n": n,
        "rows": rows,
        "json": pairs_to_json(dom, s, ctx.mesh, pairs),
    }
    if cfg.dump_matrices:
        out["mass"] = _matrix_text(ctx.forms.mass)
        out["stiffness"] = _matrix_text(ctx.forms.stiffness)
    return out


def cmd_eigen(cfg: RunConfig) -> int:
    tasks = [(cfg, s, n) for s in cfg.s_list for n in cfg.n_list]
    multi = len(tasks) > 1
    results = _run_tasks(_eigen_task, tasks, cfg.jobs)
    for (_, s, n), res in zip(tasks, results):
        base = "eigen" + _suffix(s, n, multi)
        _write_csv(_outpath(cfg, base + ".csv"), ("k", "lambda", "gap"), res["rows"])
        with open(_outpath(cfg, base + ".json"), "w", encoding="utf-8") as fh:
            fh.write(res["json"])
            fh.write("\n")
        if cfg.dump_matrices:
            for kind in ("mass", "stiffness"):
                with open(
                    _outpath(cfg, f"{base}_{kind}.txt"), "w", encoding="utf-8"
                ) as fh:
                    fh.write(res[kind])
        print(
            f"eigen: s = {_fmt(s)}  n = {n}"
            + ("  (even modes only)" if cfg.even_only else "")
        )
        print("  k  lambda  gap")
        for krow, lam, gap in res["rows"]:
            print(f"  {krow}  {_fmt(lam)}  {_fmt(gap)}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_task(arg):
    cfg, s = arg
    dom = _domain_1d(cfg)
    reports = list(
        verify_steps(
            cfg.identity, dom, s, cfg.n_list,
            beta=cfg.beta, k=cfg.k, k2=cfg.k2,
            X=field_from_json(cfg.field) if cfg.field is not None else None,
            p=cfg.p,
            bump=polynomial_bump(**cfg.bump) if cfg.bump else None,
            quad_tols=cfg.quad_tols, bp_side=cfg.bp_side, h=cfg.h,
            even_only=cfg.even_only, semilinear_tol=cfg.semilinear_tol,
        )
    )
    rows = []
    for rep in reports:
        if isinstance(rep, HadamardReport):
            sides = (rep.fd_slope, rep.formula, rep.rel_error)
        else:
            sides = (rep.lhs, rep.rhs, rep.rel_residual)
        rows.append((cfg.identity, s, rep.n) + sides + (sides[2] <= cfg.tol,))
    report = report_to_dict(reports[-1])
    report.setdefault("identity", cfg.identity)  # HadamardReport has no identity
    return {"rows": rows, "report": report, "passed": rows[-1][-1]}


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.identity is None:
        raise ConfigError("'verify' needs an 'identity' entry")
    tasks = [(cfg, s) for s in cfg.s_list]
    results = _run_tasks(_verify_task, tasks, cfg.jobs)
    rows = []
    reports = []
    all_pass = True
    for res in results:
        rows.extend(res["rows"])
        reports.append(res["report"])
        all_pass = all_pass and res["passed"]
    _write_csv(
        _outpath(cfg, "verify.csv"),
        ("identity", "s", "n", "lhs", "rhs", "rel_residual", "pass"),
        rows,
    )
    _write_json(_outpath(cfg, "verify.json"), reports)
    for ident, s, n, lhs, rhs, rel, ok in rows:
        print(
            f"{ident}: s = {_fmt(s)}  n = {n}  lhs = {_fmt(lhs)}  "
            f"rhs = {_fmt(rhs)}  rel = {_fmt(rel)}  "
            + ("pass" if ok else "FAIL")
        )
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _boundary_sample(cfg: RunConfig):
    dom = domain_from_json(cfg.domain)
    if isinstance(dom, Domain1D):
        return [((bp.x,), (bp.normal,)) for bp in boundary_points(dom)]
    return sample_boundary_2d(dom, cfg.boundary_m)


def _fraction_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cmd_certify(cfg: RunConfig) -> int:
    if cfg.field is None:
        raise ConfigError("'certify' needs a 'field' entry")
    X = field_from_json(cfg.field)
    checks = cfg.checks
    if checks is None:
        checks = ({"kind": "c-condition"},)
        if "domain" in cfg.given:
            checks += ({"kind": "min-flux"},)

    rows = []
    docs = []
    failed = False
    last_constants: Optional[tuple] = None  # (c1, c2) from the latest certificate

    for spec in checks:
        kind = spec["kind"]

        if kind == "c-condition":
            cert = check_c_condition(X, m=cfg.samples, seed=cfg.seed)
            c = cert.constants[0]
            last_constants = (X.dim * c, c)
            rows.append((kind, _fmt(c), "", cert.verdict))
            docs.append(cert.to_json())
            failed = failed or cert.verdict != "pass"
            print(f"c-condition: c = {_fmt(c)}  verdict = {cert.verdict}")
        elif kind == "c1c2-condition":
            cert = check_c1_c2(X, m=cfg.samples, seed=cfg.seed)
            c1, c2 = cert.constants
            last_constants = (c1, c2)
            rows.append((kind, f"{_fmt(c1)};{_fmt(c2)}", "", cert.verdict))
            docs.append(cert.to_json())
            failed = failed or cert.verdict != "pass"
            print(
                f"c1c2-condition: c1 = {_fmt(c1)}  c2 = {_fmt(c2)}  "
                f"verdict = {cert.verdict}"
            )
        elif kind == "min-flux":
            flux = min_flux(X, _boundary_sample(cfg))
            verdict = "pass" if flux >= cfg.flux_tol else "fail"
            rows.append((kind, "", flux, verdict))
            docs.append({"kind": kind, "min_flux": flux, "verdict": verdict})
            failed = failed or verdict != "pass"
            print(f"min-flux: min_flux = {_fmt(flux)}  verdict = {verdict}")
        else:  # threshold
            c1, c2 = (spec["c1"], spec["c2"]) if "c1" in spec else last_constants
            N = spec.get("N", X.dim)
            d0 = 2 * Fraction(c1).limit_denominator(10**6) / Fraction(
                c2
            ).limit_denominator(10**6) - N
            line = f"p > {2 * N}/({_fraction_str(d0)}-2s)"
            print(f"threshold: {line}")
            lo_s, hi_s = admissible_s_interval(c1, c2, N)
            print(f"threshold: admissible s in ({_fmt(lo_s)}, {_fmt(hi_s)})")
            values = []
            for s in cfg.s_list:
                pstar = nonexistence_threshold(c1, c2, N, s)
                values.append([s, pstar])
                rows.append(
                    (kind, f"{_fmt(c1)};{_fmt(c2)};{_fmt(s)};{_fmt(pstar)}", "", "pass")
                )
                print(f"threshold: s = {_fmt(s)} -> p* = {_fmt(pstar)}")
            docs.append(
                {
                    "kind": kind,
                    "c1": c1,
                    "c2": c2,
                    "N": N,
                    "line": line,
                    "admissible_s": [lo_s, hi_s],
                    "values": values,
                }
            )

    _write_csv(
        _outpath(cfg, "certify.csv"),
        ("kind", "constants", "min_flux", "verdict"),
        rows,
    )
    _write_json(_outpath(cfg, "certify.json"), docs)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# semilinear
# ---------------------------------------------------------------------------

def cmd_semilinear(cfg: RunConfig) -> int:
    if cfg.p is None:
        raise ConfigError("'semilinear' needs a 'p' entry")
    dom = _domain_1d(cfg)
    combos = [(s, n) for s in cfg.s_list for n in cfg.n_list]
    multi = len(combos) > 1
    for s, n in combos:
        ctx = solve_context(dom, s, n, cfg.beta, even_only=False)
        sol = solve_semilinear(ctx, cfg.p, tol=cfg.semilinear_tol)
        base = "semilinear" + _suffix(s, n, multi)
        segs = ctx.mesh.interior_to_full(sol.u)
        doc = {
            "s": s,
            "p": cfg.p,
            "n": n,
            "domain": [list(iv) for iv in dom.intervals],
            "residual": sol.residual,
            "iterations": sol.iterations,
            "nehari_gap": sol.nehari_gap,
            "nodal": [[float(v) for v in seg] for seg in segs],
        }
        _write_json(_outpath(cfg, base + ".json"), doc)
        rows = []
        for seg_nodes, seg_vals in zip(ctx.mesh.nodes, segs):
            rows.extend(
                (float(x), float(v)) for x, v in zip(seg_nodes, seg_vals)
            )
        _write_csv(_outpath(cfg, base + ".csv"), ("x", "u"), rows)
        print(
            f"semilinear: s = {_fmt(s)}  p = {_fmt(cfg.p)}  n = {n}  "
            f"iterations = {sol.iterations}  residual = {_fmt(sol.residual)}  "
            f"nehari_gap = {_fmt(sol.nehari_gap)}  "
            f"sup_u = {_fmt(float(np.max(np.abs(sol.u))))}"
        )
    return 0


# ---------------------------------------------------------------------------
# fraclap
# ---------------------------------------------------------------------------

def cmd_fraclap(cfg: RunConfig) -> int:
    bump = polynomial_bump(**cfg.bump) if cfg.bump else polynomial_bump()
    lo_sup, hi_sup = bump.support
    center = 0.5 * (lo_sup + hi_sup)
    halfwidth = 0.5 * (hi_sup - lo_sup)
    if cfg.points is not None:
        xs = list(cfg.points)
    elif cfg.grid is not None:
        xs = [
            float(v)
            for v in np.linspace(
                float(cfg.grid["lo"]), float(cfg.grid["hi"]), int(cfg.grid["count"])
            )
        ]
    else:
        xs = [
            float(v)
            for v in np.linspace(
                center - 0.9 * halfwidth, center + 0.9 * halfwidth, 19
            )
        ]
    multi = len(cfg.s_list) > 1
    for s in cfg.s_list:
        rows = []
        for x in xs:
            reach = abs(x - center) + halfwidth
            R = cfg.R if cfg.R is not None else 8.0 * (reach + 1.0)
            tail_sup = 0.0 if R >= reach else None
            fv = frac_laplacian_pointwise(
                bump, s, float(x), R=R, tol=cfg.quad_tol, tail_sup=tail_sup
            )
            rows.append((float(x), fv.value, fv.error))
        name = "fraclap" + (f"_s{s:g}" if multi else "") + ".csv"
        _write_csv(_outpath(cfg, name), ("x", "value", "error"), rows)
        print(f"fraclap: s = {_fmt(s)}  points = {len(rows)}")
        for x, v, e in rows:
            print(f"  x = {_fmt(x)}  value = {_fmt(v)}  error <= {_fmt(e)}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "eigen": cmd_eigen,
    "verify": cmd_verify,
    "certify": cmd_certify,
    "semilinear": cmd_semilinear,
    "fraclap": cmd_fraclap,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--s", type=float, action="append", help="override s (repeatable)")
    common.add_argument("--n", type=int, action="append", help="override n (repeatable)")
    common.add_argument("--tol", type=float, help="pass/fail tolerance")
    common.add_argument("--seed", type=int, help="RNG seed override")
    common.add_argument("--jobs", type=int, help="worker pool size for sweeps")
    common.add_argument("--out", help="output directory (default '.')")

    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="Verification toolkit for nonlocal Pohozaev-type identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eigen", parents=[common], help="solve the eigenproblem")
    pe.add_argument("--k-max", dest="k_max", type=int, help="number of modes")
    pe.add_argument("--even-only", dest="even_only", action="store_true", default=None)
    pe.add_argument(
        "--dump-matrices", dest="dump_matrices", action="store_true", default=None,
        help="also write mass/stiffness matrices as text",
    )

    pv = sub.add_parser("verify", parents=[common], help="run an identity check")
    pv.add_argument("--identity", choices=IDENTITIES)
    pv.add_argument("--k", type=int, help="mode index")
    pv.add_argument("--k2", type=int, help="second mode index (ibp)")
    pv.add_argument("--p", type=float, help="semilinear exponent (pohozaev)")
    pv.add_argument("--even-only", dest="even_only", action="store_true", default=None)

    sub.add_parser("certify", parents=[common], help="field/geometry certificates")

    ps = sub.add_parser("semilinear", parents=[common], help="solve the semilinear problem")
    ps.add_argument("--p", type=float, help="nonlinearity exponent")

    pf = sub.add_parser("fraclap", parents=[common], help="pointwise operator values")
    pf.add_argument("--R", type=float, help="principal-value split radius")
    pf.add_argument("--quad-tol", dest="quad_tol", type=float, help="target tolerance")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except _CONFIG_ERRORS as exc:
        print(f"fraclab: config error: {exc}", file=sys.stderr)
        return 2
    except FracLabError as exc:
        print(f"fraclab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
