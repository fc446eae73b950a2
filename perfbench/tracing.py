"""Outside-in tracing of the scissorlab layers.

Each layer is one module of the package.  While installed, a Tracer
replaces every public function of each layer, plus the constructors and
methods in CLASS_TARGETS, by a wrapper that records a span: name, layer,
start, end, parent span and point id.  The replacement is made in every
scissorlab namespace that holds the original, so calls that cross modules
through ``from .optics import apply_loss`` are caught as well as calls
inside one module.  Nothing in the package is edited, and uninstalling
restores the originals, so untraced passes run the program unchanged.

Spans stay in memory; ``aggregate`` turns them into per-layer self times
and counts once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("cli", "amplifier", "optics", "fock", "measurement", "tomography",
          "metrics")

#: class members that do work; value types (configs, QuadratureSample,
#: histograms) are left alone, since wrapping a constructor called once per
#: sample would measure the tracer instead of the program
CLASS_TARGETS = {
    "fock": {"DensityOperator": ("__init__", "validate", "normalized",
                                 "eigenvalues", "trace"),
             "FockVector": ("__init__", "normalized", "to_density",
                            "norm_sq")},
    "tomography": {"TomographyProblem": ("__init__",)},
}

POVM_BUILD = "tomography.TomographyProblem.__init__"


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the top
    point: object    # (pass number, point index) set by the benchmark
    extra: dict | None


def _path_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["path"]


def _maxlik_extra(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    occupied = int((problem.counts > 0).sum())
    d = problem.n_max + 1
    return {"iterations": result.iterations,
            "converged": bool(result.converged),
            "floored_bins": result.floored_bins,
            # computed, not measured: each iteration reads the occupied
            # complex128 POVM stack twice (bin probabilities, then R)
            "bytes": 2 * occupied * d * d * 16 * result.iterations}


#: counts read off a call's arguments or result, keyed by span name
EXTRAS = {
    "tomography.maxlik_reconstruct": _maxlik_extra,
    POVM_BUILD: lambda a, k, r: {"elements": int(a[0].elements.shape[0])},
    "measurement.sample_homodyne": lambda a, k, r: {"samples": len(r)},
    "measurement.write_samples_csv":
        lambda a, k, r: {"bytes": os.path.getsize(_path_arg(a, k))},
    "metrics.wigner": lambda a, k, r: {"points": int(r.values.size)},
    "metrics.write_wigner_csv":
        lambda a, k, r: {"bytes": os.path.getsize(_path_arg(a, k))},
}


class Tracer:
    """Records spans while installed and while ``point`` is set; with
    ``point`` None (the benchmark's own checks) wrappers pass calls on."""

    def __init__(self):
        self.spans: list[Span] = []
        self.point = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.point is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, layer, start, end, parent, self.point,
                                  None)
            if extra is not None:
                spans[idx] = spans[idx]._replace(extra=extra(args, kwargs, result))
            return result
        return traced

    def wrapper_cost_s(self, calls: int = 20_000, repeats: int = 5) -> float:
        """What recording one span adds to a call, timed on a no-op
        function; the median of ``repeats`` timings of ``calls`` calls."""
        def noop():
            return None

        def timed(fn) -> float:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            return time.perf_counter() - start

        traced = self._wrap("noop", "noop", noop)
        kept, self.point = len(self.spans), ("noop", 0)
        try:
            costs = [timed(traced) - timed(noop) for _ in range(repeats)]
        finally:
            self.point = None
            del self.spans[kept:]
        return max(sorted(costs)[repeats // 2], 0.0) / calls

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items()
                      if n == "scissorlab" or n.startswith("scissorlab.")]
        for layer in LAYERS:
            module = sys.modules[f"scissorlab.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, obj)
                for ns in namespaces:
                    for ns_attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._saved.append((ns, ns_attr, obj))
                            setattr(ns, ns_attr, wrapper)
            for cls_name, members in CLASS_TARGETS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for member in members:
                    original = cls.__dict__[member]
                    self._saved.append((cls, member, original))
                    setattr(cls, member, self._wrap(
                        f"{layer}.{cls_name}.{member}", layer, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()


def aggregate(spans: list[Span], points) -> dict:
    """Per-layer self time, inclusive time and call count per span name,
    and the extras summed, over the spans of the given points.

    A span's self time is its duration minus its direct children's, so
    the self times of all spans add up to the time the top-level spans
    cover.
    """
    points = set(points)
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = {"layer_self": defaultdict(float), "layer_calls": defaultdict(int),
           "name_incl": defaultdict(float), "name_self": defaultdict(float),
           "name_calls": defaultdict(int), "covered": 0.0,
           "extra": defaultdict(lambda: defaultdict(float))}
    for i, s in enumerate(spans):
        if s.point not in points:
            continue
        dur = s.end - s.start
        own = dur - child_time[i]
        out["layer_self"][s.layer] += own
        out["layer_calls"][s.layer] += 1
        out["name_incl"][s.name] += dur
        out["name_self"][s.name] += own
        out["name_calls"][s.name] += 1
        if s.parent < 0:
            out["covered"] += dur
        for key, value in (s.extra or {}).items():
            out["extra"][s.name][key] += value
    return out
