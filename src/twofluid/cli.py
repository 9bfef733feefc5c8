"""Command-line front end: scenario orchestration and deterministic output.

Subcommands::

    twofluid simulate          --config run.ini --out outdir
    twofluid hyperbolicity-map --config run.ini --out outdir
    twofluid verify-gibbs      --config run.ini --out outdir [--seed 7]
    twofluid fick-relax        --config run.ini --out outdir
    twofluid reduce-check      --config run.ini --out outdir

Every run writes the CSVs of its owning scenario plus a run.json manifest
echoing the resolved configuration.  All floats are written with 17
significant digits and all randomness is seeded, so identical config and
seed reproduce byte-identical files.  Exit codes: 0 success, 1 config
validation error (list keys included), 2 numerical failure (with
diagnostics.json naming the time and, where known, the failing cell).
``fick-relax`` integrates once, leg by leg through its increasing sample
times.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Sequence

import numpy as np

from . import __version__
from .config import (ConfigError, ScenarioConfig, build_closures, build_model,
                     build_simulation, initial_profiles, parse_config,
                     profile_expression)
from .hyperbolicity import map_hyperbolic_region
from .potential import AdmissibilityError, evaluate
from .solver import (Grid1D, StepError, _sample,
                     evolved_from_primitive_profiles, integrate)
from .state import ConvergenceError, evolved_to_primitive
from .verify import (TRIG_WORDS, fick_residual, gibbs_residual,
                     single_fluid_reduction, trig_fields_from_words,
                     uniform_from_words)

_FMT = "%.17g"

GIBBS_BLOCK = 32  # manufactured fields per gibbs_residual call


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write whole file or nothing (temp file plus atomic rename)."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence[float]]) -> None:
    """Floats with 17 significant digits, anything else as ``str``; the
    first row's types set every row's format; rows are written as taken."""
    def lines():
        yield ",".join(header) + "\n"
        fmt = ""
        for row in rows:
            fmt = fmt or ",".join(_FMT if isinstance(v, float) else "%s"
                                  for v in row) + "\n"
            yield fmt % tuple(row)

    _atomic_write(path, lines())


def _write_manifest(outdir: str, cfg: ScenarioConfig, subcommand: str,
                    seed: int | None, wall: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "wall_time_s": wall,
        "config": cfg.raw,
    }
    _atomic_write(os.path.join(outdir, "run.json"),
                  [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])


def _write_diagnostics(outdir: str, exc: Exception) -> None:
    diag: Dict[str, object] = {"error": type(exc).__name__,
                               "message": str(exc)}
    if isinstance(exc, StepError):
        diag["time"] = exc.t
    if hasattr(exc, "cell"):
        diag["cell"] = exc.cell
    _atomic_write(os.path.join(outdir, "diagnostics.json"),
                  [json.dumps(diag, indent=2, sort_keys=True) + "\n"])


def _run_simulate(cfg: ScenarioConfig, outdir: str,
                  rng: np.random.Generator) -> None:
    sim = build_simulation(cfg)
    prof = initial_profiles(cfg)
    init = evolved_from_primitive_profiles(sim.model, sim.grid, **prof)
    trajectory = integrate(sim, init)
    x = sim.grid.centers()
    header = ["x", "rho1", "rho2", "u1", "u2", "s1", "s2",
              "K1", "K2", "theta1", "theta2"]
    for idx, (t, cells, _) in enumerate(trajectory):
        p = evolved_to_primitive(sim.model, cells)
        th = evaluate(sim.model, p.rho1, p.rho2, p.s1, p.s2, p.w)
        cols = [x, p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2,
                cells.K1, cells.K2, th.theta1, th.theta2]
        write_csv(os.path.join(outdir, f"snapshot_{idx:04d}.csv"),
                  header, np.column_stack(cols).tolist())
    rep_fields = ["t", "dt", "max_speed", "mass1", "mass2", "momentum_K",
                  "momentum_u", "energy", "entropy", "min_eig_A"]
    write_csv(os.path.join(outdir, "timeseries.csv"), rep_fields,
              [[float(getattr(r, f)) for f in rep_fields]
               for _, _, r in trajectory])


def _run_hyperbolicity_map(cfg: ScenarioConfig, outdir: str,
                           rng: np.random.Generator) -> None:
    model = build_model(cfg)
    sec = "hyperbolicity"
    rho1 = np.linspace(cfg.getfloat(sec, "rho1_min"),
                       cfg.getfloat(sec, "rho1_max"),
                       cfg.getint(sec, "n_rho1"))
    rho2 = np.linspace(cfg.getfloat(sec, "rho2_min"),
                       cfg.getfloat(sec, "rho2_max"),
                       cfg.getint(sec, "n_rho2"))
    w = np.linspace(cfg.getfloat(sec, "w_min"), cfg.getfloat(sec, "w_max"),
                    cfg.getint(sec, "n_w"))
    s1 = cfg.getfloat(sec, "s1")
    s2 = cfg.getfloat(sec, "s2")
    maps = map_hyperbolic_region(model, rho1, rho2, w, s1, s2)
    header = ["rho1", "rho2", "w", "min_eig_A", "ineq1", "ineq2", "ineq3",
              "lambda1", "lambda2", "lambda3", "lambda4", "hyperbolic"]
    # the columns' .tolist() gives Python floats and bools, so the bools
    # print as True/False and hyperbolic as 0/1
    cols = [maps.rho1, maps.rho2, maps.w, maps.min_eig_A, maps.ineq1,
            maps.ineq2, maps.ineq3, *maps.speeds.T,
            maps.hyperbolic.astype(int)]
    write_csv(os.path.join(outdir, "map.csv"), header,
              zip(*(c.tolist() for c in cols)))


def _draw_gibbs_block(rng: np.random.Generator, n: int, t_range, x_range):
    """(field, t, x) of n fields from n (TRIG_WORDS + 2) raw words: per field
    its TRIG_WORDS words (``trig_fields_from_words``), then t's and x's."""
    words = rng.bit_generator.random_raw((n, TRIG_WORDS + 2))
    return (trig_fields_from_words(words[:, :TRIG_WORDS]),
            uniform_from_words(words[:, -2], *t_range),
            uniform_from_words(words[:, -1], *x_range))


def _run_verify_gibbs(cfg: ScenarioConfig, outdir: str,
                      rng: np.random.Generator) -> None:
    model = build_model(cfg)
    closures = build_closures(cfg)
    n_fields = cfg.getint("gibbs", "n_fields")
    h_values = cfg.getfloats("gibbs", "h_values")
    t_range = [cfg.getfloat("gibbs", key) for key in ("t_lo", "t_hi")]
    x_range = [cfg.getfloat("grid", key) for key in ("x_lo", "x_hi")]

    conv_rows: List[List[float]] = []

    def residual_rows():
        # one draw and one call per block
        for start in range(0, n_fields, GIBBS_BLOCK):
            field, t, x = _draw_gibbs_block(
                rng, min(GIBBS_BLOCK, n_fields - start), t_range, x_range)
            g = gibbs_residual(model, closures, field, (t, x), h_values)
            cols = np.stack([g.E, g.M1, g.M2, g.B1, g.B2, g.S, g.combination,
                             *g.subidentities.values()]).T.tolist()
            points = zip(t.tolist(), x.tolist())
            for i, (point, values) in enumerate(zip(points, cols), start):
                for h, row in zip(h_values, values):
                    yield [float(i), *point, h, *row]
                combos = [abs(row[6]) for row in values]  # |combination|
                ratios = [combos[j] / max(combos[j + 1], 1e-300)
                          for j in range(len(combos) - 1)]
                order = (math.log2(min(ratios)) if ratios else math.nan)
                conv_rows.append([float(i), *ratios, order])

    write_csv(os.path.join(outdir, "residuals.csv"),
              ["field_set", "t", "x", "h", "E", "M1", "M2", "B1", "B2", "S",
               "combination", "id_a", "id_b", "id_c", "id_d", "id_e", "id_f"],
              residual_rows())
    write_csv(os.path.join(outdir, "convergence.csv"),
              ["field_set", *[f"ratio_{j}" for j in range(1, len(h_values))],
               "order"], conv_rows)


def _run_fick_relax(cfg: ScenarioConfig, outdir: str,
                    rng: np.random.Generator) -> None:
    sim = build_simulation(cfg)
    prof = initial_profiles(cfg)
    init = evolved_from_primitive_profiles(sim.model, sim.grid, **prof)
    theta0 = cfg.getfloat("run", "theta0")
    bound = cfg.getfloat("fick", "theta_bound")
    rows = []
    t_prev, cells = 0.0, init
    for t_s in cfg.getfloats("fick", "sample_times"):
        # one integration in legs: each leg starts from the previous state
        leg = dataclasses.replace(sim, t_end=t_s - t_prev,
                                  report_interval=t_s - t_prev)
        try:
            _, cells, _ = integrate(leg, cells)[-1]
        except StepError as exc:
            exc.t = None if exc.t is None else t_prev + exc.t
            raise
        t_prev = t_s
        p = evolved_to_primitive(sim.model, cells)
        _, rel = fick_residual(sim.model, sim.closures, p, sim.grid.dx,
                               theta0=theta0, theta_bound=bound,
                               bc=sim.grid.bc)
        rows.append([t_s, rel, float(np.max(np.abs(p.w)))])
    write_csv(os.path.join(outdir, "fick.csv"),
              ["t", "rel_residual", "max_w"], rows)


def _run_reduce_check(cfg: ScenarioConfig, outdir: str,
                      rng: np.random.Generator) -> None:
    num = lambda key: cfg.getfloat("potential", key)
    n_values = cfg.getints("reduce", "n_values")
    ref = Grid1D(cfg.getfloat("grid", "x_lo"), cfg.getfloat("grid", "x_hi"),
                 cfg.getint("reduce", "ref_factor") * max(n_values))
    omega1, omega2 = (profile_expression(cfg.get("run", key))
                      for key in ("omega1", "omega2"))
    if (any(num(f"{k}1") != num(f"{k}2") for k in ("gamma", "cv", "k", "s0"))
            or num("a") != 0.0 or not np.array_equal(
                *(_sample(f, ref.centers()) for f in (omega1, omega2)))):
        raise ConfigError("reduce-check requires identical phases, a = 0 "
                          "and omega1 = omega2")
    model = build_model(cfg)
    prof = initial_profiles(cfg)
    rows = single_fluid_reduction(
        model, n_values, cfg.getfloat("run", "t_end"), rho0=prof["rho1"],
        u0=prof["u1"], s0=prof["s1"], x_lo=ref.x_lo, x_hi=ref.x_hi,
        ref_n=ref.n, omega=omega1, cfl=cfg.getfloat("run", "cfl"))
    write_csv(os.path.join(outdir, "reduce.csv"), list(rows[0]),
              [list(r.values()) for r in rows])


_SUBCOMMANDS = {
    "simulate": _run_simulate,
    "hyperbolicity-map": _run_hyperbolicity_map,
    "verify-gibbs": _run_verify_gibbs,
    "fick-relax": _run_fick_relax,
    "reduce-check": _run_reduce_check,
}


def run_subcommand(name: str, cfg: ScenarioConfig, outdir: str,
                   seed: int | None = None) -> int:
    """Execute one scenario; returns the process exit code."""
    if name not in _SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {name!r}")
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(0 if seed is None else seed)
    start = time.perf_counter()
    try:
        _SUBCOMMANDS[name](cfg, outdir, rng)
    except (StepError, ConvergenceError, AdmissibilityError,
            ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        _write_diagnostics(outdir, exc)
        return 2
    _write_manifest(outdir, cfg, name, seed, time.perf_counter() - start)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="twofluid",
        description="binary mixture toolkit: simulation, hyperbolicity "
                    "mapping, and identity verification")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run_subcommand(args.subcommand, cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
