"""Outside-in layer trace: wrap fraclab's public functions, record spans and counts.

The program itself has no timers yet, so the benchmark wraps the functions
listed in ``TARGETS`` from outside.  A wrapper replaces the function in every
loaded ``fraclab`` module that holds it, because callers look functions up in
their own module (``fraclab.analysis.assemble_deformation``, not
``fraclab.assembly.assemble_deformation``).  Methods are replaced on their
class.  Spans (name, start, end, parent, run id) stay in memory until the run
ends; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _elements(args, kwargs, ret):
    return args[0].elem_h.size


def _dofs(args, kwargs, ret):
    return np.shape(args[0])[0]


def _max_residual(args, kwargs, ret):
    items = ret if isinstance(ret, list) else [ret]
    return max((item.residual for item in items), default=0.0)


def _iterations(args, kwargs, ret):
    return ret.iterations


def _points(args, kwargs, ret):
    return np.size(args[1])


# (module, qualified name, {counter suffix: (reduce, function of args/kwargs/return)})
TARGETS = (
    ("cli", "main", {}),
    ("analysis", "solve_context", {}),
    ("analysis", "extract_trace", {"max_residual": (max, _max_residual)}),
    ("analysis", "pohozaev_check", {}),
    ("analysis", "lemma21_check", {}),
    ("solve", "solve_geig", {"dofs": (sum, _dofs), "max_residual": (max, _max_residual)}),
    ("solve", "solve_semilinear", {"iterations": (sum, _iterations)}),
    ("assembly", "assemble_gagliardo", {"elements": (sum, _elements)}),
    ("assembly", "assemble_deformation", {"elements": (sum, _elements)}),
    ("assembly", "assemble_mass", {}),
    ("assembly", "integrate_density", {}),
    ("assembly", "frac_laplacian_pointwise", {}),
    ("quadrature", "adaptive_panels", {}),
    ("fields", "VectorField.at1", {"points": (sum, _points)}),
    ("fields", "VectorField.div1", {"points": (sum, _points)}),
    ("domain", "make_mesh", {}),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual, _ in TARGETS)
COUNTER_NAMES = tuple(
    f"{mod}.{qual}.{suffix}" for mod, qual, counters in TARGETS for suffix in counters
) + ("quadrature.adaptive_panels.points", "analysis.solve_context.hit_ratio")


@dataclass
class Tracer:
    """Spans and counters of one traced CLI run; install, run, uninstall."""

    run_id: str
    spans: list = field(default_factory=list)  # [name, start, end, parent index]
    errors: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)
    _solve_context: object = None

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "fraclab" or name.startswith("fraclab.")
        }
        for mod_name, qual, counters in TARGETS:
            home = sys.modules[f"fraclab.{mod_name}"]
            span_name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self._wrap(span_name, original, counters))
                continue
            original = getattr(home, qual)
            if qual == "solve_context":
                self._solve_context = original
            wrapper = self._wrap(span_name, original, counters)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        info = self._solve_context.cache_info()
        lookups = info.hits + info.misses
        self.counters["analysis.solve_context.hit_ratio"] = (
            info.hits / lookups if lookups else 0.0
        )

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count(self, name, reduce, value) -> None:
        old = self.counters.get(name)
        self.counters[name] = value if old is None else reduce((old, value))

    def _wrap(self, name, fn, counters):
        tracer = self
        counts_points = name == "quadrature.adaptive_panels"

        def wrapper(*args, **kwargs):
            if counts_points:
                args = (tracer._counting(args[0]),) + args[1:]
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                ret = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] = tracer.errors.get(name, 0) + 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            for suffix, (reduce, measure) in counters.items():
                tracer._count(f"{name}.{suffix}", reduce, measure(args, kwargs, ret))
            return ret

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _counting(self, f):
        def counted(x):
            self._count("quadrature.adaptive_panels.points", sum, np.size(x))
            return f(x)

        return counted

    def summary(self) -> dict:
        """Per-function self time, calls and errors, plus every counter.

        Self time is a span's duration minus the time its direct child spans
        cover; spans of one thread nest, so the children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
            out[f"{name}.errors"] = self.errors.get(name, 0)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            out[f"{name}.calls"] += 1
        for name in COUNTER_NAMES:
            out[name] = self.counters.get(name, 0)
        return out

    def span_records(self) -> list:
        return [
            {"name": n, "start": a, "end": b, "parent": p, "run": self.run_id}
            for n, a, b, p in self.spans
        ]
