"""Benchmark of concentra: one workload, measured for a fixed time.

    python3 benchmarks/run.py --workload {constants,search,construct} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root (the package is imported from ``src/``).
Whole rounds of the workload's operations repeat while the next one is
expected to end within ``--seconds``, with at least two rounds.

With ``--trace 0`` the run reports the end-to-end metrics: ``round_s``, the
median wall time of one round; ``setup_s``, the median wall time of nine
fresh interpreters that import the package and build the inputs; and
``peak_rss_mb``, this process's peak resident memory.  With ``--trace 1``
every second round runs with the span recorder installed; the run reports
the per-layer metrics of the traced rounds, the wall time of each group of
calls in the untraced rounds, and the tracing overhead, both as measured
(traced rounds against the untraced ones after the first) and as computed
(spans per round times the cost of one wrapper call).  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["constants", "search", "construct"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (one setup_s probe)")
    return ap.parse_args(argv)


def _cap_blas_threads() -> int:
    """Let BLAS use at most as many threads as this process has cores."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        cur = os.environ.get(var)
        if not (cur and cur.isdigit() and 0 < int(cur) <= cores):
            os.environ[var] = str(cores)
    return cores


def _blas_info() -> dict:
    import numpy as np
    info = {"numpy": np.__version__}
    cfg = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{cfg.get('name', '?')} {cfg.get('version', '?')}"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def _setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "concentra" / "__init__.py").is_file():
        print(f"no package at {ROOT / 'src' / 'concentra'}; run from a full checkout",
              file=sys.stderr)
        return 2
    cores = _cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import concentra
    import spans
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.setup_only:
            return 0
        setup = [] if args.trace else [_setup_probe(args) for _ in range(SETUP_PROBES)]

        session = workloads.Session()
        rec = spans.Recorder() if args.trace else None
        outputs, times, walls, traced_walls, layers = [], [], [], [], []
        t_start = time.perf_counter()
        # Whole rounds only: start another while it is expected to end in time.
        # A traced run needs an untraced round after its first traced one,
        # because the first round of a process runs slower than later ones.
        min_rounds = 3 if rec is not None else 2
        while len(outputs) < min_rounds or (time.perf_counter() - t_start
                                            + statistics.median(walls + traced_walls)
                                            <= args.seconds):
            traced = rec is not None and len(outputs) % 2 == 1
            cache = work / f"round{len(outputs)}"
            if traced:
                rec.counters.clear()
                first = len(rec.spans)
                undo = spans.instrument(rec, concentra)
            t0 = time.perf_counter()
            try:
                out = wl.run_round(session, str(cache))
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    spans.uninstrument(undo)
            round_times = session.take_times()
            outputs.append(out)
            if traced:
                traced_walls.append(wall)
                layers.append(spans.layer_metrics(
                    rec, first, {"find_fraction.candidates": out.get("candidates", 0)}))
            else:
                walls.append(wall)
                times.append(round_times)
            shutil.rmtree(cache, ignore_errors=True)

        for e in session.errors:
            print(f"FAILED: {e}", file=sys.stderr)
        check_errors = wl.check(outputs)
        for e in check_errors:
            print(f"CHECK: {e}", file=sys.stderr)

        env = {"python": platform.python_version(), "cores": cores, "rounds": len(outputs),
               "round_wall_s": [round(w, 3) for w in walls], **_blas_info()}
        own = wl.metrics(times)
        env["groups"] = {k: {"value": v, "unit": workloads.GROUP_UNITS[k]} for k, v in own.items()}
        groups = {name: own.get(name, 0.0) for name in workloads.GROUP_UNITS}
        if rec is not None:
            layer = {**spans.median_metrics(layers), **groups}
            base, traced_med = statistics.median(walls[1:]), statistics.median(traced_walls)
            layer["trace.overhead"] = 100.0 * (traced_med - base) / base
            per_round = len(rec.spans) / len(traced_walls)
            layer["trace.overhead_computed"] = 100.0 * spans.span_cost() * per_round / base
            known = {**workloads.GROUP_UNITS, "trace.overhead": "%",
                     "trace.overhead_computed": "%"}
            metrics = {k: {"value": v, "unit": _unit(k, known)} for k, v in layer.items()}
            env["traced_round_wall_s"] = [round(w, 3) for w in traced_walls]
            env["spans"] = len(rec.spans)
            rec.dump(ROOT / ".bench_out" / f"spans-{args.workload}-s{args.seed}.jsonl")
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
                "round_s": {"value": statistics.median(walls), "unit": "s"}}
        print(json.dumps({"env": env}))
        print(json.dumps({"correct": not check_errors,
                          "attempted": session.attempted, "failed": session.failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _unit(name: str, known: dict) -> str:
    if name in known:
        return known[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("record_bytes"):
        return "B"
    if name == "concentrator.quadrature.points":
        return "count_computed"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
