"""INI-style run configuration: parsing, validation, profile expressions.

A run is described by the sections [potential], [closures], [grid],
[initial], [run], plus one optional section per front-end scenario
([hyperbolicity], [gibbs], [fick], [reduce]).  Every key is validated with
range checks and unknown sections or keys are hard errors, so a typo cannot
silently fall back to a default.

List keys (``[gibbs] h_values``, ``[fick] sample_times``, ``[reduce]
n_values``) are comma-separated and checked at parse time: step sizes are
positive, sample times positive and strictly increasing (``fick-relax``
integrates once through them), and every grid size is at least 4.  So are
the scenario ranges: every count (``n_fields``, ``n_rho1``, ``n_rho2``,
``n_w``, ``ref_factor``) is at least 1, ``t_lo <= t_hi`` and
``theta_bound`` is positive.

Initial profiles and external potentials are given as expressions in x
(e.g. ``1.0 + 0.1*sin(2*pi*x)``) evaluated in a restricted numpy namespace;
an external potential becomes a plain callable Omega(x).
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from .closures import ClosureParams
from .potential import SeparableAddedMass, SeparableAddedMassParams
from .solver import Grid1D, SimulationConfig


class ConfigError(ValueError):
    """Configuration rejected (syntax, unknown key, or range violation)."""


def _finite_float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"{text!r} is not finite")
    return val


_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.abs,
    "where": np.where, "minimum": np.minimum, "maximum": np.maximum,
    "pi": np.pi, "e": np.e,
}


def profile_expression(expr: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression in x into a vectorized profile function."""
    try:
        code = compile(expr, "<profile>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad profile expression {expr!r}: {exc}") from exc
    for name in code.co_names:
        if name not in _EXPR_NAMES and name != "x":
            raise ConfigError(
                f"profile expression {expr!r} uses unknown name {name!r}")

    def profile(x: np.ndarray) -> np.ndarray:
        env = dict(_EXPR_NAMES)
        env["x"] = x
        val = eval(code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(val, dtype=float), x.shape).copy()

    return profile


_SCHEMA: Dict[str, Dict[str, str]] = {
    "potential": {"law": "separable_added_mass",
                  "gamma1": "1.6", "gamma2": "1.6", "cv1": "1.0",
                  "cv2": "1.0", "k1": "1.0", "k2": "1.0",
                  "s01": "0.0", "s02": "0.0", "a": "0.0"},
    "closures": {"k": "0.0", "kappa": "0.0"},
    "grid": {"x_lo": "0.0", "x_hi": "1.0", "n": "100", "bc": "periodic"},
    "initial": {"rho1": "1.0", "rho2": "1.0", "u1": "0.0", "u2": "0.0",
                "s1": "0.0", "s2": "0.0"},
    "run": {"cfl": "0.45", "t_end": "1.0", "report_interval": "",
            "theta0": "1.0", "omega1": "0.0", "omega2": "0.0"},
    "hyperbolicity": {"rho1_min": "0.5", "rho1_max": "1.5",
                      "rho2_min": "0.5", "rho2_max": "1.5",
                      "w_min": "0.0", "w_max": "2.0",
                      "n_rho1": "10", "n_rho2": "10", "n_w": "10",
                      "s1": "0.0", "s2": "0.0"},
    "gibbs": {"n_fields": "20", "h_values": "1e-2,5e-3,2.5e-3",
              "t_lo": "0.0", "t_hi": "1.0"},
    "fick": {"sample_times": "0.2,0.4,0.6", "theta_bound": "0.05"},
    "reduce": {"n_values": "200,400,800", "ref_factor": "8"},
}


@dataclass
class ScenarioConfig:
    """Fully validated union of all config sections (defaults applied)."""
    raw: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def get(self, section: str, key: str) -> str:
        return self.raw[section][key]

    def _convert(self, section: str, key: str, kind, what: str):
        val = self.raw[section][key]
        try:
            return kind(val)
        except ValueError as exc:
            raise ConfigError(
                f"[{section}] {key} = {val!r} is not {what}") from exc

    def getfloat(self, section: str, key: str) -> float:
        return self._convert(section, key, _finite_float, "a number")

    def getint(self, section: str, key: str) -> int:
        return self._convert(section, key, int, "an integer")

    def getfloats(self, section: str, key: str):
        return self._convert(
            section, key, lambda v: [_finite_float(x) for x in v.split(",")],
            "a comma-separated list of numbers")

    def getints(self, section: str, key: str):
        return self._convert(section, key,
                             lambda v: [int(x) for x in v.split(",")],
                             "a comma-separated list of integers")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate config text; unknown keys are hard errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    raw = {sec: dict(defaults) for sec, defaults in _SCHEMA.items()}
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key, val in parser[sec].items():
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
            raw[sec][key] = val

    cfg = ScenarioConfig(raw=raw)
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    """Config-only checks here; the range checks of the parameters are the
    constructors' own, run by building each section once.  A constructor's
    message starts with the field name, which lowercased is the key; the
    error names the section, key and value the way ``_convert`` does."""
    if cfg.get("potential", "law") != "separable_added_mass":
        raise ConfigError(
            f"unknown constitutive law {cfg.get('potential', 'law')!r}")
    for section, build in (("potential", build_model),
                           ("closures", build_closures),
                           ("grid", _build_grid), ("run", build_simulation)):
        try:
            build(cfg)
        except ConfigError:
            raise
        except ValueError as exc:
            key = str(exc).split()[0].lower()
            where = (f"[{section}] {key} = {cfg.get(section, key)!r}"
                     if key in cfg.raw[section] else f"[{section}]")
            raise ConfigError(f"{where}: {exc}") from exc
    initial_profiles(cfg)
    if (cfg.get("run", "report_interval")
            and cfg.getfloat("run", "report_interval") < 0.0):
        raise ConfigError("report_interval must be nonnegative")
    if min(cfg.getfloats("gibbs", "h_values")) <= 0.0:
        raise ConfigError("h_values must be positive")
    times = cfg.getfloats("fick", "sample_times")
    if times[0] <= 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("sample_times must be positive and strictly "
                          "increasing")
    if min(cfg.getints("reduce", "n_values")) < 4:
        raise ConfigError("every entry of n_values must be at least 4")
    for section, key in (("gibbs", "n_fields"), ("hyperbolicity", "n_rho1"),
                         ("hyperbolicity", "n_rho2"), ("hyperbolicity", "n_w"),
                         ("reduce", "ref_factor")):
        if cfg.getint(section, key) < 1:
            raise _range_error(cfg, section, key, "must be at least 1")
    if cfg.getfloat("gibbs", "t_hi") < cfg.getfloat("gibbs", "t_lo"):
        raise _range_error(cfg, "gibbs", "t_hi", "must not be below t_lo")
    if cfg.getfloat("fick", "theta_bound") <= 0.0:
        raise _range_error(cfg, "fick", "theta_bound", "must be positive")


def _range_error(cfg: ScenarioConfig, section: str, key: str,
                 rule: str) -> ConfigError:
    return ConfigError(f"[{section}] {key} = {cfg.get(section, key)!r}: "
                       f"{key} {rule}")


def build_model(cfg: ScenarioConfig) -> SeparableAddedMass:
    num = lambda key: cfg.getfloat("potential", key)
    return SeparableAddedMass(SeparableAddedMassParams(
        gamma1=num("gamma1"), gamma2=num("gamma2"), cv1=num("cv1"),
        cv2=num("cv2"), K1=num("k1"), K2=num("k2"), s01=num("s01"),
        s02=num("s02"), a=num("a")))


def build_closures(cfg: ScenarioConfig) -> ClosureParams:
    return ClosureParams(k=cfg.getfloat("closures", "k"),
                         kappa=cfg.getfloat("closures", "kappa"))


def _build_grid(cfg: ScenarioConfig) -> Grid1D:
    return Grid1D(x_lo=cfg.getfloat("grid", "x_lo"),
                  x_hi=cfg.getfloat("grid", "x_hi"),
                  n=cfg.getint("grid", "n"),
                  bc=cfg.get("grid", "bc"))


def build_simulation(cfg: ScenarioConfig) -> SimulationConfig:
    interval = cfg.get("run", "report_interval")
    return SimulationConfig(
        grid=_build_grid(cfg), model=build_model(cfg),
        closures=build_closures(cfg),
        omega1=profile_expression(cfg.get("run", "omega1")),
        omega2=profile_expression(cfg.get("run", "omega2")),
        cfl=cfg.getfloat("run", "cfl"),
        t_end=cfg.getfloat("run", "t_end"),
        report_interval=(cfg.getfloat("run", "report_interval")
                         if interval else None),
        theta0=cfg.getfloat("run", "theta0"))


def initial_profiles(cfg: ScenarioConfig):
    return {key: profile_expression(cfg.get("initial", key))
            for key in ("rho1", "rho2", "u1", "u2", "s1", "s2")}
