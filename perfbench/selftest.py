"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, on shrunken inputs and one seed: one untraced and two
traced runs of run.py.  Checks that each run is correct with no failed
operation, that every metric of BENCHMARK.json is printed with its unit,
and that every count (units ``count`` and ``B``) repeats exactly across the
two traced runs.  Last, checks that run.py fails, without printing a result,
in a directory holding only BENCHMARK.json and the benchmark's files.
Exits 0 when all checks pass.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
EXACT_UNITS = ("count", "B")


def _run(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--small"], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        outs = {}
        for trace, key in ((0, "plain"), (1, "traced_a"), (1, "traced_b")):
            proc = _run(ROOT, wl, trace)
            if proc.returncode != 0:
                problems.append(f"{wl} trace {trace}: exit {proc.returncode}"
                                f"\n{proc.stderr[-2000:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            outs[key] = res
            if not res["correct"] or res["failed"]:
                problems.append(f"{wl} trace {trace}: {res['failed']} of "
                                f"{res['attempted']} operations failed")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not \
                        isinstance(got.get("value"), (int, float)):
                    problems.append(f"{wl}: metric {m['name']} printed as "
                                    f"{got!r}, expected a number in "
                                    f"{m['unit']}")
        if "traced_a" in outs and "traced_b" in outs:
            for m in spec["per_layer"]:
                if m["unit"] not in EXACT_UNITS:
                    continue
                a = outs["traced_a"]["metrics"][m["name"]]["value"]
                b = outs["traced_b"]["metrics"][m["name"]]["value"]
                if a != b:
                    problems.append(f"{wl}: count {m['name']} read {a} "
                                    f"then {b}")
        print(f"{wl}: checked", flush=True)

    bare = ROOT / ".perfbench_run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py printed a result or exited 0 without the "
                        "package source")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
