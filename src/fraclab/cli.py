"""Command-line front end: config parsing, dispatch, CSV/JSON report writing.

Usage::

    fraclab <eigen|verify|certify|semilinear|fraclap> --config run.json [overrides]

A run is described by one JSON config file; the flags ``--s``, ``--n``,
``--tol`` (and a few command-specific ones) override single entries for quick
runs.  ``s`` and ``n`` may be lists, in which case the command sweeps over
them and writes results in config order; ``eigen`` and ``verify`` run the
sweep in a worker pool (``--jobs``), the one form of parallelism: the
OpenBLAS thread pools of numpy and scipy run one thread each, in the CLI
process and in every worker.  The environment variable ``FRACLAB_SEED``
overrides the config seed.

Exit codes: 0 success / all checks pass, 1 a verification or certificate
failed (or a runtime tolerance was not met), 2 config error.

All floating-point output is printed with 17 significant digits so reruns
with identical configs are byte-identical.  The numerical modules return
data; this module alone turns it into files.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from .analysis import IDENTITIES, HadamardReport, polynomial_bump, verify_steps
from .domain import (
    Domain1D,
    boundary_points,
    domain_from_json,
    sample_boundary_2d,
)
from .errors import (
    ArgumentError,
    AsymmetricMeshError,
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
from .solve import _K_KEEP, solve_context, solve_semilinear

__all__ = ["RunConfig", "main"]

_CONFIG_ERRORS = (
    ConfigError,
    ArgumentError,
    AsymmetricMeshError,
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
    vals = v if isinstance(v, (list, tuple)) else [v]
    if not vals or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in vals):
        raise ConfigError(f"'{name}' must be a number or non-empty list of numbers")
    return tuple(_one_float(x, name) for x in vals)


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
    try:
        x = float(v)
    except OverflowError:  # json reads integers of any size
        x = math.inf
    if not math.isfinite(x):  # json also reads NaN, Infinity and -Infinity
        raise ConfigError(f"'{name}' must be finite, got {x}")
    return x


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
    if k > _K_KEEP:
        raise ConfigError(f"mode indices are limited to k <= {_K_KEEP}")
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


def _write_matrix(path: str, mat: np.ndarray) -> None:
    """The shape, then one line of space-separated entries per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def _doc(record) -> dict:
    """The JSON entry of a report or certificate dataclass: its fields, with
    a boundary point as {x, normal} and the history as [n, rel] lists."""
    d = asdict(record)
    if "bp" in d:
        d["bp"] = {"x": record.bp.x, "normal": record.bp.normal}
    if "history" in d:
        d["history"] = [[int(n), float(r)] for n, r in record.history]
    return d


def _nodal(mesh, u) -> list:
    """Per-interval lists of u's nodal values, clamped endpoints included."""
    return [[float(v) for v in seg] for seg in mesh.interior_to_full(u)]


def _domain_1d(cfg: RunConfig) -> Domain1D:
    dom = domain_from_json(cfg.domain)
    if not isinstance(dom, Domain1D):
        raise ConfigError(f"'{cfg.command}' needs a 1D interval domain")
    return dom


def _blas_pools() -> list:
    """The (get, set) thread-count functions of every OpenBLAS library loaded
    in this process, found by path in ``/proc/self/maps``.

    numpy and scipy each bundle their own OpenBLAS, with its own thread pool.
    Empty where ``/proc`` is missing or no OpenBLAS is loaded.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            # of the six fields of a line, only the path can contain "openblas"
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    pools = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem in (
            "scipy_openblas_%s_num_threads64_",
            "scipy_openblas_%s_num_threads",
            "openblas_%s_num_threads64_",
            "openblas_%s_num_threads",
        ):
            get = getattr(lib, stem % "get", None)
            put = getattr(lib, stem % "set", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


def _pin_blas() -> list:
    """Set every loaded OpenBLAS pool to one thread.

    Returns (set, previous count) pairs, so the caller can restore them.
    """
    pinned = [(put, get()) for get, put in _blas_pools()]
    for put, _ in pinned:
        put(1)
    return pinned


def _run_tasks(fn, tasks, jobs):
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(int(jobs), len(tasks)))
    if jobs == 1 or len(tasks) == 1:
        return [fn(t) for t in tasks]
    # a worker started by spawn or forkserver loads OpenBLAS afresh, at its
    # default thread count
    with ProcessPoolExecutor(max_workers=jobs, initializer=_pin_blas) as ex:
        return list(ex.map(fn, tasks))


def _basename(command: str, multi: bool, s: float, n: Optional[int] = None) -> str:
    """The file name stem of one sweep point: the command alone for a single
    point, else with s by its repr, so that no two values of s share a file,
    and n when the sweep has one."""
    if not multi:
        return command
    return f"{command}_s{s!r}" + ("" if n is None else f"_n{n}")


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
    doc = {
        "s": s,
        "domain": [list(iv) for iv in dom.intervals],
        "lambda": [pr.value for pr in pairs],
        "nodal": [_nodal(ctx.mesh, pr.vector) for pr in pairs],
    }
    out = {"rows": rows, "doc": doc}
    if cfg.dump_matrices:
        out["mass"], out["stiffness"] = ctx.mass, ctx.stiffness
    return out


def cmd_eigen(cfg: RunConfig) -> int:
    tasks = [(cfg, s, n) for s in cfg.s_list for n in cfg.n_list]
    multi = len(tasks) > 1
    results = _run_tasks(_eigen_task, tasks, cfg.jobs)
    for (_, s, n), res in zip(tasks, results):
        base = _basename("eigen", multi, s, n)
        _write_csv(_outpath(cfg, base + ".csv"), ("k", "lambda", "gap"), res["rows"])
        _write_json(_outpath(cfg, base + ".json"), res["doc"])
        if cfg.dump_matrices:
            for kind in ("mass", "stiffness"):
                _write_matrix(_outpath(cfg, f"{base}_{kind}.txt"), res[kind])
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
    report = _doc(reports[-1])
    report.setdefault("identity", cfg.identity)  # HadamardReport has no identity
    return {"rows": rows, "report": report, "passed": rows[-1][-1]}


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.identity is None:
        raise ConfigError("'verify' needs an 'identity' entry")
    tasks = [(cfg, s) for s in cfg.s_list]
    results = _run_tasks(_verify_task, tasks, cfg.jobs)
    rows = [row for res in results for row in res["rows"]]
    reports = [res["report"] for res in results]
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
    return 0 if all(res["passed"] for res in results) else 1


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
            docs.append(_doc(cert))
            failed = failed or cert.verdict != "pass"
            print(f"c-condition: c = {_fmt(c)}  verdict = {cert.verdict}")
        elif kind == "c1c2-condition":
            cert = check_c1_c2(X, m=cfg.samples, seed=cfg.seed)
            c1, c2 = cert.constants
            last_constants = (c1, c2)
            rows.append((kind, f"{_fmt(c1)};{_fmt(c2)}", "", cert.verdict))
            docs.append(_doc(cert))
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
        base = _basename("semilinear", multi, s, n)
        nodal = _nodal(ctx.mesh, sol.u)
        doc = {
            "s": s,
            "p": cfg.p,
            "n": n,
            "domain": [list(iv) for iv in dom.intervals],
            "residual": sol.residual,
            "iterations": sol.iterations,
            "nehari_gap": sol.nehari_gap,
            "nodal": nodal,
        }
        _write_json(_outpath(cfg, base + ".json"), doc)
        rows = [
            (float(x), v)
            for xs, vals in zip(ctx.mesh.nodes, nodal)
            for x, v in zip(xs, vals)
        ]
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
        xs = np.asarray(cfg.points, dtype=float)
    elif cfg.grid is not None:
        xs = np.linspace(
            float(cfg.grid["lo"]), float(cfg.grid["hi"]), int(cfg.grid["count"])
        )
    else:
        xs = np.linspace(center - 0.9 * halfwidth, center + 0.9 * halfwidth, 19)
    reach = np.abs(xs - center) + halfwidth
    R = cfg.R if cfg.R is not None else 8.0 * (reach + 1.0)
    # the bump vanishes beyond its support, so the sampled tail sup is zero
    # wherever the cutoff covers it; sample only when some point needs it
    tail_sup = 0.0 if np.all(R >= reach) else None
    multi = len(cfg.s_list) > 1
    for s in cfg.s_list:
        fv = frac_laplacian_pointwise(
            bump, s, xs, R=R, tol=cfg.quad_tol, tail_sup=tail_sup
        )
        rows = list(zip(xs.tolist(), fv.value.tolist(), fv.error.tolist()))
        name = _basename("fraclap", multi, s) + ".csv"
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
    """Run one command; BLAS runs one thread per process until it returns.

    Two OpenBLAS pools of one thread per CPU each (numpy's and scipy's)
    oversubscribe the CPUs; ``--jobs`` workers are the parallelism instead.
    The previous thread counts are restored on the way out.
    """
    args = _build_parser().parse_args(argv)
    pinned = _pin_blas()
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except _CONFIG_ERRORS as exc:
        print(f"fraclab: config error: {exc}", file=sys.stderr)
        return 2
    except FracLabError as exc:
        print(f"fraclab: {exc}", file=sys.stderr)
        return 1
    finally:
        for put, count in pinned:
            put(count)


if __name__ == "__main__":
    sys.exit(main())
