"""The four benchmark workloads: seeded inputs, the timed operation, its check.

Each workload turns a seed into INI text (and, for ``hyper_scan``, a grid of
density pairs) and drives the package through its public entry points:
``twofluid.cli.run_subcommand`` and
``twofluid.hyperbolicity.critical_relative_velocity``.  The seed sets only
the generated inputs: the phases of the initial profiles, the frozen
entropies of the scan and the manufactured fields.  ``small`` shrinks every
workload for the self-test.

Package functions are looked up on their modules at call time, so that the
tracer's wrappers are the ones called.
"""
from __future__ import annotations

import math
import os
import random
from time import perf_counter

import numpy as np

from twofluid import cli, config, hyperbolicity, solver

TAU = 2.0 * math.pi


def _phase(rng: random.Random) -> str:
    return repr(rng.uniform(0.0, TAU))


def _csv(outdir: str, name: str) -> np.ndarray:
    return np.genfromtxt(os.path.join(outdir, name), delimiter=",",
                         names=True)


def csv_bytes(outdir: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(outdir)
               if e.name.endswith(".csv"))


class Workload:
    """One workload: ``ini`` builds the input, ``run`` is the timed
    operation, ``check`` validates its outputs (untimed)."""

    subcommand = ""
    own_wstar = False   # the operation itself times w* calls

    def ini(self, rng: random.Random, small: bool) -> str:
        raise NotImplementedError

    def run(self, cfg, outdir: str, seed: int) -> dict:
        rc = cli.run_subcommand(self.subcommand, cfg, outdir, seed=seed)
        return {"rc": rc}

    def check(self, cfg, outdir: str, result: dict) -> tuple[bool, str]:
        """(passed, reason).  May add per-run counts to ``result``."""
        raise NotImplementedError


class Wave(Workload):
    """Smooth two-component wave of the acceptance suite, CFL-limited."""

    subcommand = "simulate"

    def ini(self, rng, small):
        p = [_phase(rng) for _ in range(4)]
        return f"""
[potential]
gamma1 = 2.0
gamma2 = 1.4
a = 0.2
[closures]
k = 0.5
kappa = 0.3
[grid]
n = {200 if small else 1600}
bc = periodic
[initial]
rho1 = 1.0 + 0.03*sin(2*pi*x + {p[0]})
rho2 = 0.8 + 0.02*cos(2*pi*x + {p[1]})
u1 = 0.1 + 0.02*sin(2*pi*x + {p[2]})
u2 = 0.05 + 0.01*cos(4*pi*x + {p[3]})
s1 = 0.0
s2 = 0.1
[run]
t_end = 0.025
report_interval = 0.005
"""

    def check(self, cfg, outdir, result):
        ts = _csv(outdir, "timeseries.csv")
        for name, tol in (("mass1", 1e-12), ("mass2", 1e-12),
                          ("momentum_K", 1e-3), ("energy", 1e-3)):
            series = ts[name]
            drift = np.max(np.abs(series - series[0])) / abs(series[0])
            if not drift <= tol:
                return False, f"{name} relative drift {drift:g} > {tol:g}"
        ent = ts["entropy"]
        # round-off allowance as in the acceptance suite's entropy test
        if np.min(np.diff(ent)) < -1e-12 * np.max(np.abs(ent)):
            return False, "entropy decreased between reports"
        return True, ""


class StiffRelax(Workload):
    """Drag-dominated relaxation to Fick's law (acceptance 11 geometry)."""

    subcommand = "fick-relax"

    def ini(self, rng, small):
        rho1 = f"(1.0 + 0.02*sin(2*pi*x + {_phase(rng)}))"
        times = "0.02,0.04,0.06" if small else "0.2,0.4,0.6"
        return f"""
[potential]
gamma1 = 2.0
gamma2 = 2.0
[closures]
k = 1000
kappa = 5
[grid]
n = {32 if small else 128}
bc = periodic
[initial]
rho1 = {rho1}
rho2 = sqrt(2.0 - {rho1}**2)
[fick]
sample_times = {times}
"""

    def check(self, cfg, outdir, result):
        rel = np.atleast_1d(_csv(outdir, "fick.csv")["rel_residual"])
        if not np.max(rel) <= 0.05:
            return False, f"Fick residual {np.max(rel):g} > 5%"
        if not np.all(np.diff(rel) < 0.0):
            return False, "Fick residual does not decrease"
        return True, ""


class HyperScan(Workload):
    """Hyperbolicity map straddling w*, plus w* for every density pair."""

    subcommand = "hyperbolicity-map"
    own_wstar = True

    def ini(self, rng, small):
        n_rho, n_w = (4, 6) if small else (16, 20)
        return f"""
[potential]
gamma1 = 2.0
gamma2 = 1.4
a = 0.2
[hyperbolicity]
rho1_min = 0.5
rho1_max = 1.5
rho2_min = 0.5
rho2_max = 1.5
w_min = 0.0
w_max = 2.5
n_rho1 = {n_rho}
n_rho2 = {n_rho}
n_w = {n_w}
s1 = {rng.uniform(-0.1, 0.1)!r}
s2 = {rng.uniform(-0.1, 0.1)!r}
"""

    @staticmethod
    def _grid(cfg, axis):
        sec = "hyperbolicity"
        return np.linspace(cfg.getfloat(sec, f"{axis}_min"),
                           cfg.getfloat(sec, f"{axis}_max"),
                           cfg.getint(sec, f"n_{axis}"))

    def run(self, cfg, outdir, seed):
        out = super().run(cfg, outdir, seed)
        model = config.build_model(cfg)
        s1 = cfg.getfloat("hyperbolicity", "s1")
        s2 = cfg.getfloat("hyperbolicity", "s2")
        wstar, lat = [], []
        for r1 in self._grid(cfg, "rho1"):
            for r2 in self._grid(cfg, "rho2"):
                t0 = perf_counter()
                ws = hyperbolicity.critical_relative_velocity(
                    model, float(r1), float(r2), s1, s2)
                lat.append(perf_counter() - t0)
                wstar.append(math.inf if ws is None else ws)
        out.update(wstar=wstar, wstar_s=lat)
        return out

    def check(self, cfg, outdir, result):
        m = _csv(outdir, "map.csv")
        n1, n2 = len(self._grid(cfg, "rho1")), len(self._grid(cfg, "rho2"))
        wstar = np.repeat(np.asarray(result["wstar"]), m.size // (n1 * n2))
        clear = np.abs(m["w"] - wstar) > 1e-6 * wstar
        expect = m["w"] < wstar
        bad = int(np.sum(clear & ((m["hyperbolic"] == 1) != expect)))
        if bad:
            return False, f"{bad} of {m.size} map points disagree with w*"
        return True, ""


class Identities(Workload):
    """Dynamic Gibbs identity on seeded manufactured fields."""

    subcommand = "verify-gibbs"
    min_order = 1.85

    def ini(self, rng, small):
        return f"""
[potential]
gamma1 = 2.0
gamma2 = 1.4
a = 0.3
[closures]
k = 0.7
kappa = 0.4
[gibbs]
n_fields = {10 if small else 500}
h_values = 1e-2,5e-3,2.5e-3
"""

    def check(self, cfg, outdir, result):
        order = np.atleast_1d(_csv(outdir, "convergence.csv")["order"])
        result["low_order_fields"] = int(np.sum(order < self.min_order))
        if not np.median(order) >= self.min_order:
            return False, f"median order {np.median(order):g} < 1.85"
        res = _csv(outdir, "residuals.csv")
        n_h = len(cfg.getfloats("gibbs", "h_values"))
        comb = np.abs(res["combination"]).reshape(-1, n_h)
        shrink = comb[:, 0] > comb[:, -1]
        if not np.all(shrink):
            return False, (f"{int(np.sum(~shrink))} fields' residual does not "
                           "shrink from the coarsest to the finest h")
        return True, ""


WORKLOADS = {"wave": Wave(), "stiff_relax": StiffRelax(),
             "hyper_scan": HyperScan(), "identities": Identities()}


def setup(name: str, seed: int, small: bool):
    """Everything before the first input is ready: the parsed config, the
    built simulation and its initial state."""
    text = WORKLOADS[name].ini(random.Random(seed), small)
    cfg = config.parse_config(text)
    sim = config.build_simulation(cfg)
    solver.evolved_from_primitive_profiles(sim.model, sim.grid,
                                           **config.initial_profiles(cfg))
    return cfg


class WstarProbe:
    """w* latency probe for the workloads that make no w* calls of their
    own: one call per pair of a fixed 8 x 8 density grid, with seeded
    entropies, or of the grid's row ``row`` only.  A run makes the whole
    probe in chunks between repetitions and one row in each of its 8 cold
    starts, so that a burst of load on the machine lasting even several
    repetitions hits only part of the calls."""

    def __init__(self, seed: int, row: int | None = None):
        cfg = config.parse_config(HyperScan().ini(random.Random(seed), True))
        self.model = config.build_model(cfg)
        self.s = (cfg.getfloat("hyperbolicity", "s1"),
                  cfg.getfloat("hyperbolicity", "s2"))
        grid = np.linspace(0.5, 1.5, 8)
        rows = grid if row is None else grid[row:row + 1]
        self.pending = [(float(a), float(b)) for a in rows for b in grid]
        self.size = len(self.pending)
        self.latencies: list[float] = []
        self.ok = True

    def run(self, count: int) -> None:
        for r1, r2 in self.pending[:count]:
            t0 = perf_counter()
            ws = hyperbolicity.critical_relative_velocity(
                self.model, r1, r2, *self.s)
            self.latencies.append(perf_counter() - t0)
            self.ok &= ws is not None and 0.5 < ws < 2.5
        del self.pending[:count]
