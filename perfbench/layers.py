"""Per-layer metrics derived from recorded spans.

Run ids: each timed repetition of a workload has its own id (0, 1, ...);
set-up spans carry `SETUP_RUN` and the w* latency probe carries
`PROBE_RUN`.  Per-repetition metrics are computed for every repetition and
reported as the median, so a count repeats exactly whatever the number of
repetitions.  A metric whose layer the workload never calls reads 0.
"""
from __future__ import annotations

import statistics

import numpy as np

SETUP_RUN = -1
PROBE_RUN = -2

RECOVERY = ("solver._recover", "state.evolved_to_primitive",
            "state.solve_relative_velocity")
CLOSURES = ("closures.drag_and_heat", "closures.entropy_sources",
            "closures.entropy_production")
GIBBS = ("verify.gibbs_residual", "verify.balance_subidentities")


class Spans:
    """Column view of a span table with ancestry queries."""

    def __init__(self, names, name_id, parent, run, tag, start, end):
        self.names = list(names)
        self.name_id = name_id
        self.parent = parent
        self.run = run
        self.tag = tag
        self.dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=self.dur[child],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered
        self._cache: dict = {}

    def of(self, *names) -> np.ndarray:
        key = ("of", names)
        if key not in self._cache:
            ids = [self.names.index(n) for n in names if n in self.names]
            self._cache[key] = np.isin(self.name_id, ids)
        return self._cache[key]

    def under(self, *names) -> np.ndarray:
        """True where some ancestor span has one of ``names``."""
        key = ("under", names)
        if key not in self._cache:
            self._cache[key] = self._under(names)
        return self._cache[key]

    def _under(self, names) -> np.ndarray:
        hit = self.of(*names)
        res = np.zeros(len(self.dur), dtype=bool)
        cur = self.parent.copy()
        pos = np.flatnonzero(cur >= 0)
        while pos.size:
            anc = cur[pos]
            found = hit[anc]
            res[pos[found]] = True
            nxt = self.parent[anc]
            keep = ~found & (nxt >= 0)
            cur[pos] = nxt
            pos = pos[keep]
        return res

    def topmost(self, *names) -> np.ndarray:
        return self.of(*names) & ~self.under(*names)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _per_rep(sp: Spans, r: np.ndarray, cells: float) -> dict:
    """Metrics of one repetition; ``r`` masks its spans."""
    ms = 1e3
    rhs_m = r & sp.of("solver.assemble_rhs")
    step_m = r & sp.of("solver.step")
    integ_m = r & sp.of("solver.integrate")
    rhs = int(rhs_m.sum())
    steps = int(step_m.sum())
    in_integ = r & sp.under("solver.integrate")
    in_rhs = r & sp.under("solver.assemble_rhs")
    grad_m = in_integ & sp.of("potential.model.gradient")
    eval_m = in_integ & sp.of("potential.evaluate")
    wsb = in_rhs & sp.of("hyperbolicity.wave_speeds_batch")
    rec_top = in_integ & sp.topmost(*RECOVERY)
    in_rec = sp.under(*RECOVERY) & in_integ
    clos = in_rhs & sp.topmost(*CLOSURES)
    limited = sp.tag[step_m]
    limited = limited[~np.isnan(limited)]
    integ_s = sp.dur[integ_m].sum()
    map_m = r & sp.of("hyperbolicity.map_hyperbolic_region")
    points = float(np.nansum(sp.tag[map_m]))
    gibbs = r & sp.of("verify.gibbs_residual")
    gibbs_all = r & sp.topmost(*GIBBS)
    return {
        "solver.steps": steps,
        "solver.rhs_calls": rhs,
        "solver.source_limited_frac": (float(limited.mean())
                                       if limited.size else 0.0),
        "solver.rhs_ms": _ratio(sp.dur[rhs_m].sum() * ms, rhs),
        "solver.rhs_self_ms": _ratio(sp.self_time[rhs_m].sum() * ms, rhs),
        "solver.step_ms_p50": (float(np.median(sp.dur[step_m])) * ms
                               if steps else 0.0),
        "solver.integrate_self_ms_per_step": _ratio(
            sp.self_time[integ_m].sum() * ms, steps),
        "solver.report_ms": float(sp.dur[r & sp.of("solver.make_report")]
                                  .sum()) * ms,
        "solver.cell_steps_per_s": _ratio(cells * steps, integ_s),
        "potential.gradient_calls_per_rhs": _ratio(grad_m.sum(), rhs),
        "potential.gradient_ms_per_rhs": _ratio(sp.dur[grad_m].sum() * ms,
                                                rhs),
        "potential.evaluate_calls_per_step": _ratio(eval_m.sum(), steps),
        "potential.evaluate_ms_per_rhs": _ratio(sp.dur[eval_m].sum() * ms,
                                                rhs),
        "hyperbolicity.wave_speeds_ms_per_rhs": _ratio(
            sp.dur[wsb].sum() * ms, rhs),
        "hyperbolicity.eigen_ms_per_rhs": _ratio(
            sp.self_time[wsb].sum() * ms, rhs),
        "hyperbolicity.assemble_A_ms_per_rhs": _ratio(
            sp.dur[in_rhs & sp.of("hyperbolicity.symmetric_system_batch")]
            .sum() * ms, rhs),
        "state.recovery_ms_per_rhs": _ratio(
            sp.dur[rec_top & in_rhs].sum() * ms, rhs),
        "state.newton_iters_per_recovery": _ratio(
            (in_rec & sp.of("potential.model.d2W_dw2")).sum(), rec_top.sum()),
        "state.dW_dw_calls_per_recovery": _ratio(
            (in_rec & sp.of("potential.model.dW_dw")).sum(), rec_top.sum()),
        "closures.ms_per_rhs": _ratio(sp.dur[clos].sum() * ms, rhs),
        "hyperbolicity.map_ms_per_point": _ratio(
            sp.dur[map_m].sum() * ms, points),
        "hyperbolicity.stability_check_ms_per_point": _ratio(
            sp.dur[r & sp.under("hyperbolicity.map_hyperbolic_region")
                   & sp.of("hyperbolicity.check_stability_inequalities")]
            .sum() * ms, points),
        "verify.gibbs_ms_per_field_h": _ratio(
            sp.dur[gibbs_all].sum() * ms, gibbs.sum()),
        "verify.evaluate_calls_per_field_h": _ratio(
            (r & sp.under(*GIBBS) & sp.of("potential.evaluate")).sum(),
            gibbs.sum()),
        "verify.fick_residual_ms": float(
            sp.dur[r & sp.of("verify.fick_residual")].sum()) * ms,
        "cli.write_csv_ms": float(sp.dur[r & sp.of("cli.write_csv")]
                                  .sum()) * ms,
    }


def layer_metrics(sp: Spans, reps: int, cells: float) -> dict:
    """Median over repetitions of the per-repetition metrics, plus the
    set-up, point-call and w* metrics that pool all spans of their kind."""
    ms = 1e3
    rows = [_per_rep(sp, sp.run == i, cells) for i in range(reps)]
    out = {k: statistics.median(row[k] for row in rows) for k in rows[0]}

    setup = sp.run == SETUP_RUN
    out["config.parse_ms"] = float(
        sp.dur[setup & sp.of("config.parse_config")].sum()) * ms
    out["config.build_ms"] = float(
        sp.dur[setup & sp.topmost("config.build_simulation",
                                  "config.build_model",
                                  "config.build_closures")].sum()) * ms
    out["solver.init_state_ms"] = float(
        sp.dur[setup & sp.of("solver.evolved_from_primitive_profiles")]
        .sum()) * ms

    point_eval = sp.of("potential.evaluate") & (sp.tag == 1.0)
    out["potential.evaluate_us_per_point_call"] = (
        float(sp.dur[point_eval].mean()) * 1e6 if point_eval.any() else 0.0)
    point_clos = sp.of("closures.drag_and_heat") & (sp.tag == 1.0)
    out["closures.us_per_point_call"] = (
        float(sp.dur[point_clos].mean()) * 1e6 if point_clos.any() else 0.0)

    wstar = sp.of("hyperbolicity.critical_relative_velocity")
    builds = sp.under("hyperbolicity.critical_relative_velocity") & sp.of(
        "hyperbolicity.symmetric_system_batch")
    out["hyperbolicity.A_builds_per_wstar"] = _ratio(builds.sum(), wstar.sum())
    return out
