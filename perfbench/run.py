"""Benchmark of the twofluid package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every measurement runs in a fresh interpreter started by this
script, one at a time, with BLAS threads capped at the number of usable
CPUs.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
``setup_s`` is the median of several cold starts, each timed from process
spawn to the workload's first input being ready; ``wall_s`` is the median
time of one workload run, over the runs whose output check passed, repeated
for about S seconds; ``peak_rss_mb`` is the measuring process's peak RSS;
``wstar_ms_p50`` is the median latency of one w* call.

``--trace 1`` reports the per-layer metrics: one untraced process and one
traced process each measure for about S/2 seconds, and the traced one wraps
the package's public functions from outside (see tracer.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the seed, the environment and the sample counts; the same record,
with every repetition, is written under ``.perfbench_run/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

COLD_STARTS = 8      # timed cold starts, after one untimed warm-up start;
                     # start i also makes row i of the 8 x 8 w* probe
DEADLINE_S = 170.0   # the whole run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


class Children:
    """Starts the benchmark's interpreters one at a time before a deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _child_env()

    def run(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a measurement")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {args[:2]} timed out") from exc
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child {args[:2]} exited with "
                             f"{proc.returncode}")
        return json.loads(lines[-1])

    def cold_start(self, workload: str, seed: int, small: bool,
                   row: int) -> dict:
        extra = ["--small"] if small else []
        return self.run("setup", workload, str(seed),
                        repr(time.monotonic()), str(row), *extra)

    def measure(self, workload, seed, budget, outdir, traced, small) -> dict:
        extra = ["--small"] if small else []
        return self.run("measure", workload, str(seed), repr(budget),
                        str(outdir), "1" if traced else "0", *extra)


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else None


def _wstar_latencies(res: dict, starts=()) -> list:
    """w* call latencies in seconds: the workload's own calls on passing
    repetitions, else the probe's, in the measuring process and in the
    cold starts."""
    own = [s for rep in res["reps"] if rep["ok"] for s in rep["wstar_s"]]
    return own or (res["probe_wstar_s"]
                   + [s for st in starts for s in st["wstar_s"]])


def _tally(*results, starts=()) -> tuple[int, int]:
    """(attempted, failed): each repetition is one operation, and so is
    the w* probe, made in pieces, when there is one."""
    attempted = failed = 0
    for res in results:
        attempted += len(res["reps"])
        failed += sum(not rep["ok"] for rep in res["reps"])
        if res["probe_wstar_s"]:
            attempted += 1
            failed += not (res["probe_ok"]
                           and all(st["probe_ok"] for st in starts))
    return attempted, failed


def _ok_walls(res: dict) -> list:
    return [rep["wall_s"] for rep in res["reps"] if rep["ok"]]


def end_to_end(kids: Children, args, outdir: Path):
    kids.cold_start(args.workload, args.seed, args.small, -1)  # warm-up
    starts = [kids.cold_start(args.workload, args.seed, args.small, row)
              for row in range(COLD_STARTS)]
    setups = [st["setup_s"] for st in starts]
    res = kids.measure(args.workload, args.seed, args.seconds, outdir,
                       False, args.small)
    walls = _ok_walls(res)
    wstar = _wstar_latencies(res, starts)
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": _median(walls),
               "peak_rss_mb": res["peak_rss_mb"],
               "wstar_ms_p50": _median(wstar, 1e3)}
    samples = {"setup_s": len(setups), "wall_s": len(walls),
               "wstar_ms_p50": len(wstar)}
    record = {"cold_starts": starts, "measure": res}
    return metrics, samples, _tally(res, starts=starts), res["env"], record


def per_layer(kids: Children, args, outdir: Path):
    half = args.seconds / 2.0
    plain = kids.measure(args.workload, args.seed, half, outdir, False,
                         args.small)
    traced = kids.measure(args.workload, args.seed, half, outdir, True,
                          args.small)
    metrics = dict(traced["layers"])
    plain_walls, traced_walls = _ok_walls(plain), _ok_walls(traced)
    metrics["trace.overhead_frac"] = (
        _median(traced_walls) / _median(plain_walls) - 1.0
        if plain_walls and traced_walls else None)
    wstar = sorted(_wstar_latencies(plain))
    metrics["hyperbolicity.wstar_ms_p99"] = (
        statistics.quantiles(wstar, n=100)[98] * 1e3
        if len(wstar) > 1 else None)
    reps = traced["reps"]
    metrics["verify.low_order_fields"] = _median(
        [rep.get("low_order_fields", 0) for rep in reps if rep["ok"]])
    metrics["cli.bytes_written"] = _median(
        [rep["csv_bytes"] for rep in reps if rep["ok"]])
    samples = {"untraced_reps": len(plain_walls),
               "traced_reps": len(traced_walls),
               "hyperbolicity.wstar_ms_p99": len(wstar)}
    record = {"untraced": plain, "traced": traced,
              "absent": traced["absent"], "tag_errors": traced["tag_errors"]}
    return metrics, samples, _tally(plain, traced), traced["env"], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrunken inputs, for the self-test only")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "twofluid" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    kids = Children(time.monotonic() + DEADLINE_S)
    outdir = RUN_DIR / f"{args.workload}-seed{args.seed}"
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, samples, (attempted, failed), env, record = measure(
            kids, args, outdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "small": args.small,
            "samples": samples, "env": env,
            "absent": record.get("absent", [])}
    RUN_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUN_DIR / name).write_text(json.dumps(
        {**info, "result": result, "record": record}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
