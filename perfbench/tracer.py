"""Span tracing of the twofluid package from outside it.

`Tracer.install` replaces each public function of every layer module with a
wrapper that records one span per call, and rebinds the wrapper at every
module of the package that binds the same function object (so
``solver.evaluate`` and ``cli.evaluate`` are traced as ``potential.evaluate``).
Potential-model methods are wrapped on their classes, which is what gives
the per-RHS call counts.  A name the benchmark relies on that the package no
longer defines is recorded in ``absent``; the run goes on without it.

Spans are kept in flat in-memory arrays (name, parent, start, end, run id,
tag) and written out once, at the end, by `save`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("potential", "state", "closures", "hyperbolicity", "solver",
          "verify", "config", "cli")

# Private functions whose spans the per-layer metrics use.  Later versions of
# the package may merge or delete them; they are then recorded as absent.
PRIVATE = ("solver._recover",)

# Public names the per-layer metrics read, checked for absence.
REQUIRED = ("potential.evaluate", "potential.model.gradient",
            "potential.model.dW_dw", "potential.model.d2W_dw2",
            "state.solve_relative_velocity", "state.evolved_to_primitive",
            "closures.drag_and_heat", "closures.entropy_sources",
            "hyperbolicity.wave_speeds_batch",
            "hyperbolicity.symmetric_system_batch",
            "hyperbolicity.map_hyperbolic_region",
            "hyperbolicity.check_stability_inequalities",
            "hyperbolicity.critical_relative_velocity",
            "solver.integrate", "solver.step", "solver.assemble_rhs",
            "solver.make_report", "solver.evolved_from_primitive_profiles",
            "verify.gibbs_residual", "verify.balance_subidentities",
            "verify.fick_residual", "config.parse_config",
            "config.build_simulation", "cli.write_csv")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _tag_points(args, kwargs):
    """Number of scalar states in a call (1.0 for a point call)."""
    return float(np.size(_arg(args, kwargs, 1, "rho1")))


def _tag_closure_points(args, kwargs):
    return float(np.size(_arg(args, kwargs, 2, "theta1")))


def _tag_source_limited(args, kwargs):
    """1.0 when the step's dt is below the CFL dt, 0.0 otherwise.

    The last step of an integration, clipped to t_end, is not counted as
    source limited.
    """
    config = _arg(args, kwargs, 0, "config")
    dt = float(_arg(args, kwargs, 2, "dt"))
    t = float(_arg(args, kwargs, 3, "t"))
    rhs0 = _arg(args, kwargs, 4, "rhs0")
    cfl_dt = config.cfl * config.grid.dx / max(float(np.max(rhs0.smax)), 1e-30)
    clipped = abs(t + dt - config.t_end) <= 1e-12 * max(1.0, config.t_end)
    return float(dt < cfl_dt * (1.0 - 1e-9) and not clipped)


def _tag_map_points(args, kwargs):
    return float(np.size(_arg(args, kwargs, 1, "rho1_vals"))
                 * np.size(_arg(args, kwargs, 2, "rho2_vals"))
                 * np.size(_arg(args, kwargs, 3, "w_vals")))


TAGS = {
    "potential.evaluate": _tag_points,
    "closures.drag_and_heat": _tag_closure_points,
    "solver.step": _tag_source_limited,
    "hyperbolicity.map_hyperbolic_region": _tag_map_points,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.tag = array("d")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.run_id = -1
        self.absent: list[str] = []
        self.tag_errors: dict[str, str] = {}

    def _wrap(self, name, fn):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        idx = self._index[name]
        tag_fn = TAGS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = math.nan
            if tag_fn is not None:
                try:
                    tag = tag_fn(args, kwargs)
                except Exception as exc:  # a changed signature must not crash
                    rec.tag_errors.setdefault(name, repr(exc))
            i = len(rec.start)
            rec.name_id.append(idx)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.run.append(rec.run_id)
            rec.tag.append(tag)
            rec.end.append(0.0)
            rec._stack.append(i)
            rec.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[i] = perf_counter()
                rec._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and the model methods."""
        package = importlib.import_module("twofluid")
        mods = {layer: importlib.import_module(f"twofluid.{layer}")
                for layer in LAYERS}
        everywhere = [package, *mods.values()]
        wrapped = set()
        for layer, mod in mods.items():
            targets = {n: f for n, f in vars(mod).items()
                       if inspect.isfunction(f) and f.__module__ == mod.__name__
                       and not n.startswith("_")}
            for qual in PRIVATE:
                lay, _, n = qual.partition(".")
                if lay == layer:
                    if inspect.isfunction(getattr(mod, n, None)):
                        targets[n] = getattr(mod, n)
                    else:
                        self.absent.append(qual)
            for n, fn in targets.items():
                wrapper = self._wrap(f"{layer}.{n}", fn)
                wrapped.add(f"{layer}.{n}")
                for m in everywhere:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
        base = getattr(mods["potential"], "PotentialModel", None)
        classes = [c for c in vars(mods["potential"]).values()
                   if inspect.isclass(c) and base is not None
                   and issubclass(c, base)]
        for cls in classes:
            for n, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and not n.startswith("_"):
                    setattr(cls, n, self._wrap(f"potential.model.{n}", fn))
                    wrapped.add(f"potential.model.{n}")
        self.absent.extend(n for n in REQUIRED if n not in wrapped)

    def arrays(self) -> dict:
        """Copies of the span columns (the live arrays keep growing)."""
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "run": np.array(self.run, dtype=np.int32),
                "tag": np.array(self.tag, dtype=float),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
