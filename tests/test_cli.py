"""End-to-end tests of the command-line front end."""
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twofluid import cli, verify
from twofluid.cli import main
from twofluid.config import build_closures, build_model, parse_config
from twofluid.hyperbolicity import (check_stability_inequalities,
                                    min_eig_A_batch, mixture_rest_state,
                                    wave_speeds_batch)
from twofluid.potential import SeparableAddedMass, SeparableAddedMassParams
from twofluid.solver import StepError, integrate
from twofluid.state import ConvergenceError

from conftest import (certify, count_calls, scalar_trig_fields,
                      scalar_trig_params)

BASE = """
[potential]
gamma1 = 2.0
gamma2 = 1.4
a = 0.2

[closures]
k = 0.5
kappa = 0.3

[grid]
n = 32

[initial]
rho1 = 1.0 + 0.05*sin(2*pi*x)
rho2 = 0.8
u1 = 0.1
u2 = 0.05

[run]
t_end = 0.05
report_interval = 0.05
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def value_by_value_csv(header, rows):
    """The CSV text of the former writer, which formatted each value on
    its own: floats with 17 significant digits, anything else by ``str``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            "%.17g" % v if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def per_field_verify_gibbs(cfg, seed):
    """{name: text} of the CSVs of the former ``verify-gibbs``: one
    ``gibbs_residual`` call per field, fields and points drawn by the
    former scalar ``Generator`` calls, and every row held until the end."""
    rng = np.random.default_rng(seed)
    model, closures = build_model(cfg), build_closures(cfg)
    h_values = cfg.getfloats("gibbs", "h_values")
    res_rows, conv_rows = [], []
    for i in range(cfg.getint("gibbs", "n_fields")):
        field = scalar_trig_fields(rng)
        point = (float(rng.uniform(cfg.getfloat("gibbs", "t_lo"),
                                   cfg.getfloat("gibbs", "t_hi"))),
                 float(rng.uniform(cfg.getfloat("grid", "x_lo"),
                                   cfg.getfloat("grid", "x_hi"))))
        g = verify.gibbs_residual(model, closures, field, point, h_values)
        cols = [g.E, g.M1, g.M2, g.B1, g.B2, g.S, g.combination,
                *g.subidentities.values()]
        for j, h in enumerate(h_values):
            res_rows.append([float(i), *point, h,
                             *(float(c[j]) for c in cols)])
        combos = np.abs(g.combination).tolist()
        ratios = [combos[j] / max(combos[j + 1], 1e-300)
                  for j in range(len(combos) - 1)]
        order = (math.log2(min(ratios)) if ratios else math.nan)
        conv_rows.append([float(i), *ratios, order])
    n_ratios = max(len(r) - 2 for r in conv_rows)
    return {
        "residuals.csv": value_by_value_csv(
            ["field_set", "t", "x", "h", "E", "M1", "M2", "B1", "B2", "S",
             "combination", "id_a", "id_b", "id_c", "id_d", "id_e", "id_f"],
            res_rows),
        "convergence.csv": value_by_value_csv(
            ["field_set", *[f"ratio_{j+1}" for j in range(n_ratios)],
             "order"], conv_rows)}


class TestWriteCsv:
    def test_streamed_rows_match_value_by_value_formatting(self, tmp_path):
        # rows are written as they are taken: a generator, a list and no
        # rows give the text of the former writer
        rng = np.random.default_rng(5)
        rows = [[float(v) for v in rng.normal(size=4)] + [k, k % 2 == 0]
                for k in range(50)]
        header = ["a", "b", "c", "d", "k", "even"]
        path = tmp_path / "t.csv"
        for given, want in (((r for r in rows), rows), (rows, rows),
                            ((r for r in []), []), ([], [])):
            cli.write_csv(str(path), header, given)
            assert path.read_bytes() == value_by_value_csv(header,
                                                           want).encode()

    def test_failing_rows_leave_no_file(self, tmp_path):
        def rows():
            yield [1.0, 2.0]
            raise ValueError("row 2")

        with pytest.raises(ValueError, match="row 2"):
            cli.write_csv(str(tmp_path / "t.csv"), ["a", "b"], rows())
        assert os.listdir(tmp_path) == []

    def test_matches_value_by_value_formatting(self, tmp_path):
        # the column types of map.csv: floats (numpy ones too), bools, ints
        rng = np.random.default_rng(3)
        rows = [[float(v) for v in rng.normal(0.0, 10.0 ** k, 3)]
                + [np.float64(rng.normal()), bool(k % 2), k % 3 == 0,
                   math.nan, -math.inf, 1e-300 * k, k - 4]
                for k in range(8)]
        header = [f"c{j}" for j in range(len(rows[0]))]
        path = tmp_path / "t.csv"
        cli.write_csv(str(path), header, rows)
        assert path.read_text() == value_by_value_csv(header, rows)
        cli.write_csv(str(path), header, [])
        assert path.read_text() == value_by_value_csv(header, [])

    def test_snapshot_rows_match_value_by_value_formatting(self, tmp_path):
        cfgp = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        text = (out / "snapshot_0001.csv").read_text()
        lines = text.splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert text == value_by_value_csv(lines[0].split(","), rows)


class TestSimulate:
    def test_zero_end_time_single_snapshot(self, tmp_path):
        cfgp = write_config(tmp_path, BASE.replace("t_end = 0.05",
                                                   "t_end = 0.0"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        snaps = sorted(p for p in os.listdir(out) if p.startswith("snapshot"))
        assert snaps == ["snapshot_0000.csv"]
        assert (out / "run.json").exists()
        assert (out / "timeseries.csv").exists()

    def test_snapshot_schema(self, tmp_path):
        cfgp = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        header = (out / "snapshot_0000.csv").read_text().splitlines()[0]
        assert header == ("x,rho1,rho2,u1,u2,s1,s2,K1,K2,theta1,theta2")
        body = (out / "snapshot_0000.csv").read_text().splitlines()[1:]
        assert len(body) == 32

    def test_non_hyperbolic_exit_2_with_diagnostics(self, tmp_path):
        bad = BASE.replace("a = 0.2", "a = 1.0").replace(
            "u1 = 0.1", "u1 = -1.0").replace("u2 = 0.05", "u2 = 1.5")
        cfgp = write_config(tmp_path, bad)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "NonHyperbolicError"
        assert "cell" in diag and "time" in diag

    def test_overflowing_stage_names_its_cell(self, tmp_path):
        # exp(800) overflows in the law from the centre 10.5/16 on: the
        # first stage is not certified there
        cfgp = write_config(tmp_path, BASE.replace("n = 32", "n = 16")
                            .replace("u2 = 0.05", "u2 = 0.05\ns2 = 800*(x > 0.6)"))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["simulate", "--config", cfgp,
                         "--out", str(out)]) == 2
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "NonHyperbolicError"
        assert (diag["cell"], diag["time"]) == (10, 0.0)

    def test_negative_initial_density_names_its_cell(self, tmp_path):
        # 1 - 2x falls below the floor first at the centre 16.5/32
        cfgp = write_config(tmp_path,
                            BASE.replace("0.05*sin(2*pi*x)", "-2*x"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "AdmissibilityError"
        assert diag["message"].startswith("rho1 must be finite")
        assert diag["cell"] == 16
        assert "time" not in diag

    def test_recovery_failure_names_its_cell(self, tmp_path, monkeypatch):
        def failing(config, initial):
            raise ConvergenceError("recovery failed", cell=5)

        monkeypatch.setattr(cli, "integrate", failing)
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, BASE),
                     "--out", str(out)]) == 2
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag == {"error": "ConvergenceError",
                        "message": "recovery failed", "cell": 5}


class TestHyperbolicityMap:
    def test_row_count_matches_grid(self, tmp_path):
        cfgp = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["hyperbolicity-map", "--config", cfgp,
                     "--out", str(out)]) == 0
        lines = (out / "map.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 * 10 * 10

    def test_content_matches_per_point_values(self, tmp_path):
        # a grid across w*, every point certified on its own
        cfgp = write_config(tmp_path, BASE + """
[hyperbolicity]
n_rho1 = 3
n_rho2 = 2
n_w = 5
w_max = 2.5
s1 = 0.03
s2 = -0.05
""")
        out = tmp_path / "out"
        assert main(["hyperbolicity-map", "--config", cfgp,
                     "--out", str(out)]) == 0
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4, a=0.2))
        rows = []
        for r1 in np.linspace(0.5, 1.5, 3):
            for r2 in np.linspace(0.5, 1.5, 2):
                for w in np.linspace(0.0, 2.5, 5):
                    p = mixture_rest_state(np.array([r1]), np.array([r2]),
                                           np.array([w]), 0.03, -0.05)
                    state = (p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2)
                    speeds, ok, _ = wave_speeds_batch(m, *state)
                    min_eig = min_eig_A_batch(certify(m, *state))
                    ineq = check_stability_inequalities(m, p)
                    rows.append([float(r1), float(r2), float(w),
                                 float(min_eig[0]), bool(ineq.ineq1[0]),
                                 bool(ineq.ineq2[0]), bool(ineq.ineq3[0]),
                                 *(float(v) for v in speeds[0]), int(ok[0])])
        assert 0 < sum(row[-1] for row in rows) < len(rows)
        header = ["rho1", "rho2", "w", "min_eig_A", "ineq1", "ineq2",
                  "ineq3", "lambda1", "lambda2", "lambda3", "lambda4",
                  "hyperbolic"]
        assert (out / "map.csv").read_text() == value_by_value_csv(header,
                                                                   rows)


    def test_overflowing_law_is_never_certified(self, tmp_path):
        # exp(800) overflows in the law: every block holds an infinite
        # entry, so no row reads hyperbolic = 1
        cfgp = write_config(tmp_path, BASE + """
[hyperbolicity]
n_rho1 = 3
n_rho2 = 3
n_w = 4
s2 = 800
""")
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["hyperbolicity-map", "--config", cfgp,
                         "--out", str(out)]) == 0
        rows = (out / "map.csv").read_text().splitlines()[1:]
        assert len(rows) == 36
        assert all(row.endswith(",0") for row in rows)


class TestVerifyGibbs:
    def test_outputs_and_determinism(self, tmp_path):
        cfgp = write_config(tmp_path, BASE)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert main(["verify-gibbs", "--config", cfgp,
                         "--out", str(out), "--seed", "7"]) == 0
        assert ((out1 / "residuals.csv").read_bytes()
                == (out2 / "residuals.csv").read_bytes())
        assert ((out1 / "convergence.csv").read_bytes()
                == (out2 / "convergence.csv").read_bytes())

    def test_one_evaluation_per_block(self, tmp_path, monkeypatch):
        # all stencil nodes at every h of a block of fields come from one
        # call of each; block + 1 fields make a full and a partial block
        calls = {"evaluate": 0, "drag_and_heat": 0}

        def counting(name):
            original = getattr(verify, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(verify, name, counting(name))
        n_fields = cli.GIBBS_BLOCK + 1
        cfgp = write_config(tmp_path,
                            BASE + f"\n[gibbs]\nn_fields = {n_fields}\n")
        out = tmp_path / "out"
        assert main(["verify-gibbs", "--config", cfgp, "--out", str(out)]) == 0
        assert calls == {"evaluate": 2, "drag_and_heat": 2}
        assert (len((out / "residuals.csv").read_text().splitlines())
                == 1 + 3 * n_fields)

    @pytest.mark.parametrize("n_fields", [1, cli.GIBBS_BLOCK,
                                          cli.GIBBS_BLOCK + 1])
    def test_blocks_match_per_field_loop(self, tmp_path, n_fields):
        text = BASE + f"\n[gibbs]\nn_fields = {n_fields}\n"
        out = tmp_path / "out"
        assert main(["verify-gibbs", "--config", write_config(tmp_path, text),
                     "--out", str(out), "--seed", "7"]) == 0
        want = per_field_verify_gibbs(parse_config(text), seed=7)
        for name, csv in want.items():
            assert (out / name).read_bytes() == csv.encode()

    @given(seed=st.integers(0, 2 ** 64 - 1), k=st.integers(1, 40),
           t_lo=st.floats(-10.0, 10.0), t_width=st.floats(0.0, 10.0),
           x_lo=st.floats(-10.0, 10.0), x_width=st.floats(1e-3, 10.0))
    def test_block_draw_matches_scalar_calls(self, seed, k, t_lo, t_width,
                                             x_lo, x_width):
        # field by field: its components' kx, kt, ph, ph2, c1, c2, then t
        # and x, each equal to the former scalar call's, and the generator
        # left where those calls leave it
        t_hi, x_hi = t_lo + t_width, x_lo + x_width
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        field, t, x = cli._draw_gibbs_block(rng, k, (t_lo, t_hi),
                                              (x_lo, x_hi))
        assert t.shape == x.shape == (k,)
        for i in range(k):
            for name, want in scalar_trig_params(ref).items():
                base, *params = getattr(field, name).args
                assert (base, *(float(p[i]) for p in params)) == want
            assert float(t[i]) == float(ref.uniform(t_lo, t_hi))
            assert float(x[i]) == float(ref.uniform(x_lo, x_hi))
        got, want = rng.bit_generator.state, ref.bit_generator.state
        # with no half buffered, the unread ``uinteger`` is not compared
        assert got["state"] == want["state"]
        assert got["has_uint32"] == want["has_uint32"] == 0
        assert (rng.bit_generator.random_raw(3).tolist()
                == ref.bit_generator.random_raw(3).tolist())

    def test_seed_changes_output(self, tmp_path):
        cfgp = write_config(tmp_path, BASE)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["verify-gibbs", "--config", cfgp, "--out", str(out1),
              "--seed", "7"])
        main(["verify-gibbs", "--config", cfgp, "--out", str(out2),
              "--seed", "8"])
        assert ((out1 / "residuals.csv").read_bytes()
                != (out2 / "residuals.csv").read_bytes())


class TestFickRelax:
    TEXT = """
[potential]
gamma1 = 2.0
gamma2 = 2.0

[closures]
k = 200.0
kappa = 5.0

[grid]
n = 64

[initial]
rho1 = 1.0 + 0.02*sin(2*pi*x)
rho2 = sqrt(2.0 - (1.0 + 0.02*sin(2*pi*x))**2)

[fick]
sample_times = 0.15,0.3
"""

    def test_residual_series(self, tmp_path):
        cfgp = write_config(tmp_path, self.TEXT)
        out = tmp_path / "out"
        assert main(["fick-relax", "--config", cfgp, "--out", str(out)]) == 0
        lines = (out / "fick.csv").read_text().splitlines()
        assert lines[0] == "t,rel_residual,max_w"
        rels = [float(l.split(",")[1]) for l in lines[1:]]
        assert rels[-1] < rels[0] < 0.05

    def test_transmissive_residual_uses_ghost_cells(self, tmp_path):
        # a periodic difference across the two open ends read 0.48 and 0.65
        text = (self.TEXT.replace("n = 64", "n = 64\nbc = transmissive")
                .replace("sample_times = 0.15,0.3", "sample_times = 0.05,0.1"))
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["fick-relax", "--config", cfgp, "--out", str(out)]) == 0
        lines = (out / "fick.csv").read_text().splitlines()
        rels = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(rels) == 2
        assert max(rels) <= 0.05

    def test_failure_time_counts_from_start(self, tmp_path, monkeypatch):
        # the second leg (t = 0.15 to 0.3) fails 0.05 into the leg
        legs = []

        def failing(config, initial):
            legs.append(config.t_end)
            if len(legs) == 2:
                raise StepError("stage failed", t=0.05, cell=3)
            return integrate(config, initial)

        monkeypatch.setattr(cli, "integrate", failing)
        cfgp = write_config(tmp_path, self.TEXT)
        out = tmp_path / "out"
        assert main(["fick-relax", "--config", cfgp, "--out", str(out)]) == 2
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["time"] == pytest.approx(0.2)
        assert diag["cell"] == 3
        assert legs == [0.15, pytest.approx(0.15)]


class TestReduceCheck:
    SMALL = """
[potential]
gamma1 = 2
gamma2 = 2.0
cv1 = 1
k2 = 1.00

[grid]
n = 16

[initial]
rho1 = 1.0 + 0.1*exp(-100*(x-0.5)**2)

[run]
t_end = 0.01

[reduce]
n_values = 16,32
ref_factor = 2
"""

    @classmethod
    def run(cls, tmp_path, potentials="", name="out"):
        """Exit code and output directory of the small config, with
        ``potentials`` added to its [run] section."""
        text = cls.SMALL.replace("t_end = 0.01", "t_end = 0.01" + potentials)
        out = tmp_path / name
        rc = main(["reduce-check", "--config",
                   write_config(tmp_path, text, name=f"{name}.ini"),
                   "--out", str(out)])
        return rc, out

    def test_requires_identical_phases(self, tmp_path):
        cfgp = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["reduce-check", "--config", cfgp,
                     "--out", str(out)]) == 1

    def test_numeric_keys_compare_as_numbers(self, tmp_path):
        rc, out = self.run(tmp_path)
        assert rc == 0
        assert len((out / "reduce.csv").read_text().splitlines()) == 3

    def test_external_potential_reaches_the_table(self, tmp_path):
        # [run] omega1 = omega2 acts on both phases and the reference: the
        # table is the library's with omega, and not the table without it
        rc, plain = self.run(tmp_path)
        assert rc == 0
        expr = "0.3*sin(2*pi*x)"
        rc, out = self.run(tmp_path, f"\nomega1 = {expr}\nomega2 = {expr}",
                           name="omega")
        assert rc == 0
        text = (out / "reduce.csv").read_text()
        assert text != (plain / "reduce.csv").read_text()
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=2.0))
        rows = verify.single_fluid_reduction(
            m, (16, 32), 0.01,
            rho0=lambda x: 1.0 + 0.1 * np.exp(-100 * (x - 0.5) ** 2),
            u0=0.0, s0=0.0, ref_n=64,
            omega=lambda x: 0.3 * np.sin(2 * np.pi * x))
        cli.write_csv(str(tmp_path / "lib.csv"), list(rows[0]),
                      [list(r.values()) for r in rows])
        assert text == (tmp_path / "lib.csv").read_text()

    def test_potentials_compare_by_value(self, tmp_path):
        # 0 and 0.0 are one potential, the default none
        rc, plain = self.run(tmp_path)
        rc, out = self.run(tmp_path, "\nomega1 = 0\nomega2 = 0.0",
                           name="zero")
        assert rc == 0
        assert ((out / "reduce.csv").read_bytes()
                == (plain / "reduce.csv").read_bytes())

    @pytest.mark.parametrize("potentials", [
        "\nomega1 = 0.3*sin(2*pi*x)",
        "\nomega1 = 0.3*sin(2*pi*x)\nomega2 = 0.3*cos(2*pi*x)"],
        ids=["omega1_only", "different"])
    def test_different_potentials_exit_1(self, tmp_path, capsys,
                                         potentials):
        rc, out = self.run(tmp_path, potentials)
        assert rc == 1
        assert "omega1 = omega2" in capsys.readouterr().err
        assert not (out / "reduce.csv").exists()
        assert not (out / "diagnostics.json").exists()

    @pytest.mark.parametrize("n_values", ["16", "16,32", "8,16,32"])
    def test_one_reference_per_run(self, tmp_path, monkeypatch, n_values):
        calls = count_calls(monkeypatch, verify, "single_fluid_reference")
        # the sizes of one run share one reference integration
        text = ("[potential]\ngamma1 = 1.4\ngamma2 = 1.4\n\n[initial]\n"
                "rho1 = 1.0 + 0.1*exp(-100*(x-0.5)**2)\n\n[run]\n"
                f"t_end = 0.01\n\n[reduce]\nn_values = {n_values}\n"
                "ref_factor = 2\n")
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["reduce-check", "--config", cfgp,
                     "--out", str(out)]) == 0
        lines = (out / "reduce.csv").read_text().splitlines()
        assert len(lines) == 1 + len(n_values.split(","))
        assert len(calls) == 1

    def test_comparison_table(self, tmp_path):
        text = """
[potential]
gamma1 = 1.4
gamma2 = 1.4

[grid]
n = 32

[initial]
rho1 = 1.0 + 0.1*exp(-100*(x-0.5)**2)
u1 = 0.05*exp(-100*(x-0.5)**2)

[run]
t_end = 0.1

[reduce]
n_values = 100,200
ref_factor = 8
"""
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["reduce-check", "--config", cfgp,
                     "--out", str(out)]) == 0
        lines = (out / "reduce.csv").read_text().splitlines()
        assert lines[0] == "n,l1_rho,l1_u,order_rho"
        assert len(lines) == 3
        order = float(lines[2].split(",")[3])
        assert order > 0.7


class TestErrorPaths:
    def test_bad_config_exit_1(self, tmp_path):
        cfgp = write_config(tmp_path,
                            BASE.replace("gamma1 = 2.0", "gamma1 = 0.5"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 1

    def test_bad_list_value_exit_1(self, tmp_path):
        cfgp = write_config(tmp_path,
                            BASE + "\n[fick]\nsample_times = 0.1,abc\n")
        out = tmp_path / "out"
        assert main(["fick-relax", "--config", cfgp, "--out", str(out)]) == 1
        assert not (out / "diagnostics.json").exists()

    def test_bad_map_density_exit_1(self, tmp_path):
        # caught by the config check, not by the map's admissibility check
        cfgp = write_config(tmp_path,
                            BASE + "\n[hyperbolicity]\nrho1_min = 0.0\n")
        out = tmp_path / "out"
        assert main(["hyperbolicity-map", "--config", cfgp,
                     "--out", str(out)]) == 1
        assert not (out / "diagnostics.json").exists()

    def test_reference_grid_not_dividing_exit_1(self, tmp_path):
        # caught by the config check, before any integration
        text = (BASE.replace("gamma2 = 1.4", "gamma2 = 2.0")
                .replace("a = 0.2", "a = 0.0")
                + "\n[reduce]\nn_values = 12,16\nref_factor = 1\n")
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["reduce-check", "--config", cfgp,
                     "--out", str(out)]) == 1
        assert not (out / "diagnostics.json").exists()

    @pytest.mark.parametrize("subcommand, text", [
        ("verify-gibbs", BASE + "\n[gibbs]\nt_lo = -1e308\nt_hi = 1e308\n"),
        ("verify-gibbs",
         BASE.replace("n = 32", "n = 32\nx_lo = -1e308\nx_hi = 1e308")),
        ("hyperbolicity-map",
         BASE + "\n[hyperbolicity]\nw_min = -1e308\nw_max = 1e308\n"),
    ], ids=["t", "x", "w"])
    def test_overflowing_range_exit_1(self, tmp_path, capsys, subcommand,
                                      text):
        # finite bounds whose width is not: caught by the config check,
        # before any point is drawn or mapped
        out = tmp_path / "out"
        assert main([subcommand, "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand_rejected_first(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="unknown subcommand 'nope'"):
            cli.run_subcommand("nope", parse_config(BASE), str(out))
        assert not out.exists()

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "out")]) == 1
