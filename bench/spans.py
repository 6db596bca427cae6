"""Span tracing of `ordercone`'s layers, installed from outside the package.

Each public function of the traced modules is replaced, in every
`ordercone` module that binds it, by a wrapper that records a span: the
function, start, end, parent span and the query (request) it ran under.
Spans stay in memory until the run writes them out.  A span's self time is
its duration minus the time of its child spans; calls run on one thread, so
children never overlap.

Linear-time vector helpers (dot products, sums, embedding a vector) are not
wrapped: they are called millions of times, a span each would multiply the
run time, and their cost is better seen as part of the layer that calls them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("linalg", "lp", "cones", "bands", "atoms", "cover")

UNTRACED = frozenset(
    {
        "linalg.as_fraction",
        "linalg.format_fraction",
        "linalg.vec",
        "linalg.mat",
        "linalg.zero_vec",
        "linalg.is_zero_vec",
        "linalg.dot",
        "linalg.vadd",
        "linalg.vsub",
        "linalg.vscale",
        "linalg.vneg",
        "linalg.vabs",
        "linalg.vmax",
        "linalg.vmin",
        "linalg.mat_vec",
        "linalg.transpose",
        "linalg.support",
        "linalg.primitive",
        "cones.leq",
        "cones.in_cone",
        "cones.embed",
    }
)


def _cells(M) -> int:
    return len(M) * (len(M[0]) if M else 0)


# Work measured on a span besides its time: name -> f(args, result) -> int.
WORK = {
    "linalg.rref": lambda args, res: _cells(args[0]),
    "lp.simplex_standard": lambda args, res: len(args[0]) * (len(args[0][0]) + 1 if args[0] else 1),
    "lp.lp": lambda args, res: int(type(res).__name__ == "Infeasible"),
    "cones.extreme_rays": lambda args, res: len(res),
    "bands.enumerate_bands": lambda args, res: len(res),
}


class Tracer:
    """Wraps the layers' public functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.work: list[int] = []
        self.stack = [-1]
        self.current_request = -1
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"ordercone.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    self.names.append(name)
                    wrappers[id(fn)] = (fn, self._wrap(len(self.names) - 1, name, fn))
        # Modules import functions by name, so every binding gets the wrapper.
        for modname, mod in list(sys.modules.items()):
            if modname != "ordercone" and not modname.startswith("ordercone."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, index: int, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(index)
            self.parent.append(self.stack[-1])
            self.request.append(self.current_request)
            self.start.append(0.0)
            self.end.append(0.0)
            self.work.append(0)
            self.stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if work is not None:
                self.work[sid] = work(args, result)
            return result

        return wrapper

    def spans(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "names": self.names,
            "spans": [
                [self.name_of[i], self.start[i], self.end[i], self.parent[i], self.request[i]]
                for i in range(len(self.start))
            ],
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, summed over every recorded span."""
        n = len(self.start)
        names = [self.names[k] for k in self.name_of]
        child = [0.0] * n
        under_discrete = [False] * n
        under_enumerate = [False] * n
        for i in range(n):  # a parent's id is always below its children's
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                under_discrete[i] = under_discrete[p] or names[p] == "atoms.is_discrete"
                under_enumerate[i] = under_enumerate[p] or names[p] == "bands.enumerate_bands"
        calls: dict[str, int] = {}
        work: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + self.work[i]
            s = self.end[i] - self.start[i] - child[i]
            self_s[name] = self_s.get(name, 0.0) + s
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + s
        kernels_in_enumerate = sum(
            1 for i, name in enumerate(names) if under_enumerate[i] and name == "bands.kernel_of_rows"
        )
        bands_out = work.get("bands.enumerate_bands", 0)
        out = {
            "linalg.rref.calls": calls.get("linalg.rref", 0),
            "linalg.rref.cells": work.get("linalg.rref", 0),
            "linalg.rref.self_s": self_s.get("linalg.rref", 0.0),
            "linalg.rank.calls": calls.get("linalg.rank", 0),
            "linalg.nullspace.calls": calls.get("linalg.nullspace", 0),
            "linalg.invert.calls": calls.get("linalg.invert", 0),
            "linalg.solve_linear.calls": calls.get("linalg.solve_linear", 0),
            "linalg.self_s": self_s.get("linalg", 0.0),
            "lp.lp.calls": calls.get("lp.lp", 0),
            "lp.lp.infeasible": work.get("lp.lp", 0),
            "lp.simplex_standard.calls": calls.get("lp.simplex_standard", 0),
            "lp.simplex_standard.cells": work.get("lp.simplex_standard", 0),
            "lp.upper_set_min.calls": calls.get("lp.upper_set_min", 0),
            "lp.self_s": self_s.get("lp", 0.0),
            "cones.extreme_rays.calls": calls.get("cones.extreme_rays", 0),
            "cones.extreme_rays.rays_out": work.get("cones.extreme_rays", 0),
            "cones.extreme_rays.self_s": self_s.get("cones.extreme_rays", 0.0),
            "cones.build_space.calls": calls.get("cones.build_space", 0),
            "cones.self_s": self_s.get("cones", 0.0),
            "bands.enumerate_bands.calls": calls.get("bands.enumerate_bands", 0),
            "bands.kernel_of_rows.calls": calls.get("bands.kernel_of_rows", 0),
            "bands.bands_out": bands_out,
            "bands.band_yield": bands_out / kernels_in_enumerate if kernels_in_enumerate else 0.0,
            "bands.is_directed_subspace.calls": calls.get("bands.is_directed_subspace", 0),
            "bands.self_s": self_s.get("bands", 0.0),
            "atoms.is_discrete.calls": calls.get("atoms.is_discrete", 0),
            "atoms.is_discrete.lp_calls": sum(
                1 for i, name in enumerate(names) if under_discrete[i] and name == "lp.lp"
            ),
            "atoms.classify.calls": calls.get("atoms.classify", 0),
            "atoms.is_projection_band.calls": calls.get("atoms.is_projection_band", 0),
            "atoms.self_s": self_s.get("atoms", 0.0),
            "cover.modulus_dominates.calls": calls.get("cover.modulus_dominates", 0),
            "cover.self_s": self_s.get("cover", 0.0),
        }
        return out
