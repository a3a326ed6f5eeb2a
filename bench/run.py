"""einflag benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each session runs in a fresh interpreter
(bench/session.py) with the package on PYTHONPATH and BLAS pinned to one
thread, and sessions run in pairs, one per CPU.  An untraced run
(--trace 0) repeats pairs of full sessions until S seconds have passed, at
least one pair, then adds set-up-only sessions until set-up time is a
median of four; it reports the end-to-end metrics.  A traced run
(--trace 1) runs an untraced and a traced session side by side and reports
the per-layer metrics, with the tracing overhead between the two.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

# Total set-up samples per untraced run (full sessions included).
SETUP_SAMPLES = 4
# A run must end within 180 s: start no session that would end past this,
# and kill every session still running at 170 s.
DEADLINE_S = 150.0
KILL_AFTER_S = 170.0
BLAS_THREADS = "1"
# Sessions run in pairs, one per CPU, where there are two CPUs.
PARALLEL = min(2, len(os.sched_getaffinity(0)))


def _sessions(args, batch, out_dir):
    """Run the sessions ``[(unit, mode, trace), ...]`` side by side.

    Each session is its own process; the kernel spreads them over the
    CPUs.  Returns their results in order, or exits if any fails.
    """
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    procs = [
        subprocess.Popen(
            [
                sys.executable, str(BENCH / "session.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--unit", str(unit),
                "--mode", mode,
                "--trace", str(trace),
                "--out-dir", str(out_dir),
            ],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for unit, mode, trace in batch
    ]
    try:
        outs = [p.communicate(timeout=max(1.0, args.deadline - time.perf_counter()))
                for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    results = []
    for (unit, mode, _), p, (out, err) in zip(batch, procs, outs):
        if p.returncode != 0:
            sys.stderr.write(err)
            raise SystemExit(f"session {unit} ({mode}) exited {p.returncode}")
        results.append(json.loads(out.strip().splitlines()[-1]))
    return results


def _untraced(args, out_dir):
    start = time.perf_counter()
    full = []
    while True:
        a = time.perf_counter()
        full += _sessions(args, [(len(full) + i, "full", 0) for i in range(PARALLEL)], out_dir)
        last = time.perf_counter() - a
        elapsed = time.perf_counter() - start
        # Two sessions at least: the report percentiles pool both batches.
        done = elapsed >= args.seconds and len(full) >= 2
        if done or elapsed + 1.5 * last > DEADLINE_S:
            break
    setups = []
    while len(full) + len(setups) < SETUP_SAMPLES:
        n = len(full) + len(setups)
        setups += _sessions(args, [(n + i, "setup", 0) for i in range(PARALLEL)], out_dir)
    lat = [x for s in full for x in s["report_ms"]]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in full + setups), "s"),
        "solve_s": (statistics.median(s["solve_s"] for s in full), "s"),
        "report_ms_p50": (deciles[4], "ms"),
        "report_ms_p90": (deciles[8], "ms"),
        "check_s": (statistics.median(s["check_s"] for s in full), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in full), "MB"),
    }
    print(
        f"# {len(full)} full session(s), {len(full) + len(setups)} set-up "
        f"samples, {len(lat)} curvature reports"
    )
    return full + setups, metrics


def _traced(args, out_dir):
    base, traced = _sessions(args, [(0, "full", 0), (0, "full", 1)], out_dir)
    kept = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    shutil.move(traced["trace_file"], kept)
    print(f"# spans written to {kept.relative_to(ROOT)}")
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    overhead = traced["session_s"] - base["session_s"]
    metrics["trace.untraced_s"] = (base["session_s"], "s")
    metrics["trace.traced_s"] = (traced["session_s"], "s")
    metrics["trace.overhead_ratio"] = (overhead / base["session_s"], "ratio")
    return [base, traced], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    args.deadline = time.perf_counter() + KILL_AFTER_S
    # On SIGTERM, unwind so that the sessions are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "einflag" / "__init__.py").is_file():
        raise SystemExit(f"no einflag source under {ROOT / 'src'}; run from a checkout")

    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"run-{os.getpid()}"
    out_dir.mkdir()
    try:
        sessions, metrics = (_traced if args.trace else _untraced)(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print("# env " + json.dumps(sessions[0]["env"], sort_keys=True))
    for k, s in enumerate(sessions):
        print(
            f"# session {k}: setup {s['setup_s']:.3f} s"
            + (
                f", solve {s['solve_s']:.3f} s, check {s['check_s']:.3f} s, "
                f"rss {s['peak_rss_mb']:.1f} MB"
                if "session_s" in s
                else ""
            )
        )
    failures = [msg for s in sessions for msg in s["failures"]]
    for msg in failures:
        print(f"# FAILED {msg}")
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
