"""One fresh interpreter of the benchmark: a cold start or a measurement.

    python3 perfbench/child.py setup   WORKLOAD SEED SPAWNED ROW [--small]
    python3 perfbench/child.py measure WORKLOAD SEED BUDGET OUTDIR TRACE [--small]

``setup`` imports the package, builds the workload's first input and prints
the seconds since ``SPAWNED`` (a ``time.monotonic`` reading taken by the
parent just before it started this process); when ROW is not -1, it then
makes row ROW of the w* probe and prints its latencies too.  ``measure`` repeats the
workload's operation for about BUDGET seconds (at least once), checks every
repetition's outputs, and prints one JSON line with the repetition times,
check results, w* latencies, peak RSS and, when TRACE is 1, the per-layer
metrics from the spans it recorded.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback


def _setup(argv) -> None:
    name, seed, spawned = argv[0], int(argv[1]), float(argv[2])
    row = int(argv[3])
    import workloads
    workloads.setup(name, seed, small="--small" in argv)
    out = {"setup_s": time.monotonic() - spawned, "wstar_s": [],
           "probe_ok": True}
    if row >= 0 and not workloads.WORKLOADS[name].own_wstar:
        probe = workloads.WstarProbe(seed, row)
        probe.run(len(probe.pending))
        out.update(wstar_s=probe.latencies, probe_ok=probe.ok)
    print(json.dumps(out), flush=True)


def _measure(argv) -> None:
    name, seed, budget, outdir = argv[0], int(argv[1]), float(argv[2]), argv[3]
    traced = argv[4] == "1"
    small = "--small" in argv

    import envinfo
    import layers
    import workloads
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.run_id = layers.SETUP_RUN
    cfg = workloads.setup(name, seed, small)
    wl = workloads.WORKLOADS[name]

    probe = None if wl.own_wstar else workloads.WstarProbe(seed)
    chunk = None

    def run_probe(count):
        if tracer is not None:
            tracer.run_id = layers.PROBE_RUN
        probe.run(count)

    shutil.rmtree(outdir, ignore_errors=True)
    reps = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = len(reps)
        rep_start = time.perf_counter()
        rep = {"ok": False}
        try:
            result = wl.run(cfg, outdir, seed)
            rep["wall_s"] = time.perf_counter() - rep_start
            failed = result["rc"] != 0 or os.path.exists(
                os.path.join(outdir, "diagnostics.json"))
            ok, why = ((False, f"exit code {result['rc']}") if failed
                       else wl.check(cfg, outdir, result))
            rep.update(ok=ok, why=why, wstar_s=result.get("wstar_s", []),
                       low_order_fields=result.get("low_order_fields", 0),
                       csv_bytes=workloads.csv_bytes(outdir))
        except Exception:
            rep["why"] = traceback.format_exc()
        if not rep["ok"]:
            print(f"repetition {len(reps)} failed: {rep['why']}",
                  file=sys.stderr)
        reps.append(rep)
        shutil.rmtree(outdir, ignore_errors=True)
        if probe is not None:
            if chunk is None:  # spread the probe over the expected reps
                expected = max(1, int(budget / (time.perf_counter()
                                                - rep_start)))
                chunk = -(-probe.size // expected)
            run_probe(chunk)
        now = time.perf_counter()
        if now - start + (now - rep_start) > budget:
            break
    if probe is not None:
        run_probe(len(probe.pending))
    probe_s, probe_ok = (probe.latencies, probe.ok) if probe else ([], True)

    out = {"reps": reps, "probe_wstar_s": probe_s, "probe_ok": probe_ok,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "env": envinfo.record()}
    if tracer is not None:
        cols = tracer.arrays()
        os.makedirs(os.path.dirname(outdir), exist_ok=True)
        tracer.save(os.path.join(os.path.dirname(outdir),
                                 f"{name}-spans.npz"))
        spans = layers.Spans(tracer.names, **cols)
        cells = float(cfg.getint("grid", "n"))
        out["layers"] = layers.layer_metrics(spans, len(reps), cells)
        out["absent"] = tracer.absent
        out["tag_errors"] = tracer.tag_errors
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    {"setup": _setup, "measure": _measure}[mode](rest)
