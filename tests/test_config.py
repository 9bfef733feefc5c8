"""Tests for config parsing and validation."""
import re

import numpy as np
import pytest

from twofluid.config import (ConfigError, build_closures, build_model,
                             build_simulation, initial_profiles, parse_config,
                             profile_expression)

MINIMAL = """
[potential]
gamma1 = 2.0
gamma2 = 1.4

[grid]
n = 32
"""


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.getfloat("closures", "k") == 0.0
        assert cfg.getfloat("closures", "kappa") == 0.0
        assert cfg.getfloat("run", "cfl") == 0.45
        assert cfg.get("grid", "bc") == "periodic"
        assert cfg.get("run", "omega1") == "0.0"

    def test_builders_work_on_minimal(self):
        cfg = parse_config(MINIMAL)
        model = build_model(cfg)
        closures = build_closures(cfg)
        sim = build_simulation(cfg)
        assert closures.k == 0.0
        assert sim.grid.n == 32
        assert sim.cfl == 0.45
        prof = initial_profiles(cfg)
        x = np.linspace(0.1, 0.9, 5)
        assert np.all(prof["rho1"](x) == 1.0)


def range_case(section, lines, rule):
    """A case of a key out of range, set on the last of ``lines``: the error
    names its section, key and value."""
    key, val = lines.splitlines()[-1].split(" = ")
    return pytest.param(
        section, lines,
        re.escape(f"[{section}] {key} = '{val}': {key} {rule}"),
        id=f"{section}-{key} = {val}")


class TestValidation:
    def test_gamma_range(self):
        with pytest.raises(ConfigError, match="gamma1 must exceed 1"):
            parse_config(MINIMAL.replace("gamma1 = 2.0", "gamma1 = 0.5"))

    def test_cfl_range(self):
        text = MINIMAL + "\n[run]\ncfl = 2.0\n"
        with pytest.raises(ConfigError, match="cfl"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        text = MINIMAL + "\n[closures]\ndragg = 1.0\n"
        with pytest.raises(ConfigError, match="dragg"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        text = MINIMAL + "\n[turbulence]\nmodel = none\n"
        with pytest.raises(ConfigError, match="turbulence"):
            parse_config(text)

    def test_negative_closure_rejected(self):
        text = MINIMAL + "\n[closures]\nk = -3\n"
        with pytest.raises(ConfigError, match="k must be nonnegative"):
            parse_config(text)

    def test_small_grid_rejected(self):
        with pytest.raises(ConfigError, match="n must be"):
            parse_config(MINIMAL.replace("n = 32", "n = 2"))

    def test_bad_boundary_rejected(self):
        text = MINIMAL + "\n[grid]\nbc = reflecting\n"
        with pytest.raises(ConfigError, match="bc"):
            parse_config(MINIMAL.replace("n = 32", "n = 32\nbc = reflecting"))

    def test_unknown_law_rejected(self):
        text = MINIMAL + "\n[potential]\nlaw = tabulated\n"
        with pytest.raises(ConfigError, match="law"):
            parse_config(MINIMAL.replace(
                "gamma1 = 2.0", "law = tabulated\ngamma1 = 2.0"))

    @pytest.mark.parametrize("section, line, match", [
        ("fick", "sample_times = 0.1,abc", "not a comma-separated list"),
        ("fick", "sample_times = 0.4,0.2", "strictly increasing"),
        ("fick", "sample_times = 0.0,0.2", "strictly increasing"),
        ("gibbs", "h_values = 1e-2,-5e-3", "h_values must be positive"),
        ("gibbs", "h_values = 1e-2,", "not a comma-separated list"),
        ("reduce", "n_values = 100,2", "at least 4"),
        ("reduce", "n_values = 100,2.5", "not a comma-separated list"),
        ("run", "report_interval = abc", "not a number"),
        ("run", "report_interval = -0.1", "report_interval must be"),
        range_case("gibbs", "n_fields = 0", "must be at least 1"),
        range_case("gibbs", "t_lo = 0.5\nt_hi = 0.2",
                   "must not be below t_lo"),
        range_case("hyperbolicity", "n_w = -1", "must be at least 1"),
        range_case("hyperbolicity", "n_rho1 = 0", "must be at least 1"),
        range_case("hyperbolicity", "n_rho2 = 0", "must be at least 1"),
        range_case("reduce", "ref_factor = 0", "must be at least 1"),
        range_case("fick", "theta_bound = -1", "must be positive"),
        range_case("fick", "theta_bound = 0", "must be positive"),
    ])
    def test_bad_list_or_interval_rejected(self, section, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(MINIMAL + f"\n[{section}]\n{line}\n")

    @pytest.mark.parametrize("section, line", [
        ("run", "t_end = inf"),
        ("run", "t_end = nan"),
        ("closures", "k = nan"),
        ("potential", "a = inf"),
        ("gibbs", "h_values = 1e-2,inf"),
    ])
    def test_non_finite_number_rejected(self, section, line):
        key, val = line.split(" = ")
        with pytest.raises(ConfigError,
                           match=re.escape(f"[{section}] {key} = '{val}'")):
            parse_config(f"[{section}]\n{line}\n")

    @pytest.mark.parametrize("section, line, message", [
        ("potential", "k1 = -1", "K1 must be positive"),
        ("potential", "gamma2 = 0.5", "gamma2 must exceed 1"),
        ("grid", "n = 2", "n must be at least 4"),
        ("run", "cfl = 2", "cfl must lie in (0, 0.9]"),
        ("closures", "k = -3", "k must be nonnegative"),
    ])
    def test_range_error_names_section_key_and_value(self, section, line,
                                                      message):
        key, val = line.split(" = ")
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[{section}]\n{line}\n")
        assert str(exc.value) == f"[{section}] {key} = '{val}': {message}"

    def test_syntax_error_reported(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("this is not an ini file")


class TestProfileExpressions:
    def test_trig_profile(self):
        f = profile_expression("1.0 + 0.1*sin(2*pi*x)")
        x = np.array([0.0, 0.25])
        assert f(x)[0] == pytest.approx(1.0)
        assert f(x)[1] == pytest.approx(1.1)

    def test_constant_broadcasts(self):
        f = profile_expression("0.75")
        x = np.linspace(0, 1, 7)
        assert f(x).shape == x.shape
        assert np.all(f(x) == 0.75)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown name"):
            profile_expression("os.system('ls')")

    def test_builtins_unavailable(self):
        with pytest.raises(ConfigError):
            profile_expression("__import__('os')")

    def test_syntax_error_rejected(self):
        with pytest.raises(ConfigError, match="bad profile"):
            profile_expression("1.0 +")
