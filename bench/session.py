"""One benchmark session in a fresh interpreter; run.py starts it.

    python3 bench/session.py --workload NAME --seed N --unit K \
        --mode full|setup --trace 0|1 --out-dir DIR

A fresh interpreter starts every ``lru_cache`` memo of the package cold,
as for a user of the command line.  The session prints one JSON object
as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import NullTracer, Tracer, layer_metrics
from workloads import (
    WORKLOADS,
    check_failures,
    load_references,
    report_failures,
    report_inputs,
    solve_failures,
)

ROOT = Path(__file__).resolve().parent.parent


def _openblas_libs():
    """(library, threads, config) of each OpenBLAS that numpy and scipy ship."""
    import ctypes

    import scipy

    out = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            row = {"library": lib.name}
            for field, suffixes, restype in (
                ("threads", ("get_num_threads64_", "get_num_threads"), ctypes.c_int),
                ("config", ("get_config64_", "get_config"), ctypes.c_char_p),
            ):
                for suffix in suffixes:
                    fn = getattr(handle, "scipy_openblas_" + suffix, None)
                    if fn is not None:
                        fn.restype, fn.argtypes = restype, []
                        value = fn()
                        row[field] = value.decode() if isinstance(value, bytes) else value
                        break
            out.append(row)
    return out


def environment():
    """Machine and library facts recorded with every result."""
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": _openblas_libs(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _package():
    """The einflag modules, checked to come from this checkout's src/."""
    import einflag

    src = (ROOT / "src" / "einflag").resolve()
    if Path(einflag.__file__).resolve().parent != src:
        raise SystemExit(f"einflag imported from {einflag.__file__}, not from {src}")
    names = ("flag", "invariant", "curvature", "verify", "cli")
    return {n: importlib.import_module(f"einflag.{n}") for n in names}


def run_session(workload, seed, unit, mode, tracer, refs, out_dir):
    """Run one session; return its measurements as a JSON-ready dict.

    ``workload`` is a value of :data:`workloads.WORKLOADS`.  ``mode`` is
    ``"setup"`` (set-up only) or ``"full"``.  Failed operations are counted
    and described, never raised.
    """
    pkg = _package()
    flag, inv, curv, verify, cli = (
        pkg[n] for n in ("flag", "invariant", "curvature", "verify", "cli")
    )
    res = {"attempted": 0, "failed": 0, "failures": []}

    def record(failures):
        res["attempted"] += 1
        if failures:
            res["failed"] += 1
            res["failures"].extend(failures)

    @contextlib.contextmanager
    def operation(what):
        # An exception fails this operation only; the session goes on.
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - counted in "failed"
            record([f"{what}: {traceback.format_exception_only(exc)[-1].strip()}"])

    span = tracer.span
    with tracer.installed():
        t0 = time.perf_counter()
        spaces = {}
        for f in workload["flags"]:
            with span("flag.parse_flag_spec"):
                spec = flag.parse_flag_spec(f)
            with span("flag.decompose_isotropy"):
                flag.decompose_isotropy(spec)
            with span("invariant.metric_space"):
                space = inv.metric_space(spec)
            with span("invariant.structure"):
                space.structure
            with span("invariant.killing"):
                space.killing
            spaces[f] = space
        res["setup_s"] = time.perf_counter() - t0
        record([])
        if mode == "setup":
            return res

        # One batch straight after set-up, so that every session takes its
        # reports in the same process state.
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, unit])
        res["report_ms"] = []
        for f, coeffs in report_inputs(spaces, workload["reports"], rng):
            with operation(f"curvature {f} at {coeffs.tolist()}"):
                with span("invariant.make_metric"):
                    metric = inv.make_metric(spaces[f], coeffs)
                a = time.perf_counter()
                with span("curvature.curvature"):
                    rep = curv.curvature(metric)
                res["report_ms"].append(1000.0 * (time.perf_counter() - a))
                record(report_failures(rep, refs))

        res["solve_s"] = 0.0
        for k, f in enumerate(workload["flags"]):
            path = Path(out_dir) / f"solve-{unit}-{k}.json"
            with operation(f"solve {f}"):
                a = time.perf_counter()
                with span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["solve", f, "--json", str(path)])
                res["solve_s"] += time.perf_counter() - a
                if rc != 0:
                    record([f"{f}: solve exited {rc}"])
                    continue
                with open(path) as fh:
                    report = json.load(fh)
                path.unlink()
                record(solve_failures(f, report, refs))

        res["check_s"] = 0.0
        res["checks_passed"] = 0
        for f in workload["flags"]:
            with operation(f"check {f}"):
                a = time.perf_counter()
                with span("verify.run_checks"):
                    results = verify.run_checks(f)
                res["check_s"] += time.perf_counter() - a
                res["checks_passed"] += sum(1 for r in results if r.passed)
                record(check_failures(f, results, refs))
        res["session_s"] = time.perf_counter() - t0
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--unit", type=int, default=0)
    ap.add_argument("--mode", choices=["full", "setup"], default="full")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    tracer = Tracer() if args.trace else NullTracer()
    res = run_session(
        WORKLOADS[args.workload],
        args.seed,
        args.unit,
        args.mode,
        tracer,
        load_references(),
        args.out_dir,
    )
    res["env"] = environment()
    if args.trace:
        res["layers"] = layer_metrics(tracer, res["checks_passed"])
        trace_file = Path(args.out_dir) / "trace.json"
        with open(trace_file, "w") as fh:
            json.dump(tracer.dump(), fh)
        res["trace_file"] = str(trace_file)
    sys.stdout.write(json.dumps(res) + "\n")


if __name__ == "__main__":
    main()
