"""Workload definitions and the correctness gate of the einflag benchmark.

A workload is one user session on a fixed set of flags: set up the flags
cold, take a seeded batch of curvature reports at random invariant
metrics, solve each flag with ``einflag solve FLAG --json``, and run the
check suite on each.
The flags fix how much of each layer the session exercises; the seed only
draws the metric coefficients of the report batch.  See README.md for why
each workload was chosen and which layers it bypasses.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")

# Each session sets up, solves and checks every flag of its workload, and
# takes "reports" curvature() reports per flag.  At small d a report takes
# under a millisecond, so those batches run for about a second, which
# evens out the machine's shortest changes of speed.  At d = 129 a report
# takes over 100 ms, so the batch is kept to the 55 that let the two
# sessions of a run pool more than 100, with at least ten samples beyond
# the 90th percentile.
WORKLOADS = {
    "solve-mixed": {"flags": ["D:5:[4,1]:-"], "reports": 2000},
    "solve-diag": {
        "flags": ["B:4:[4]:-", "A:8:[3,3,3]:-", "B:4:[2,2]:+", "C:5:[1,4]:+"],
        "reports": 500,
    },
    "check-large": {"flags": ["A:25:[20,3,3]:-"], "reports": 55},
}


def load_references(path=REFERENCES):
    with open(path) as fh:
        return json.load(fh)


def sample_coeffs(space, rng):
    """Random positive-definite coefficients of an invariant metric.

    Diagonal coefficients are log-uniform in [e^-0.8, e^0.8]; each mixing
    coefficient is a fraction in [-0.85, 0.85] of the geometric mean of its
    two diagonal partners, which keeps the metric positive definite.
    """
    c = np.zeros(space.dim)
    c[: space.n_sub] = np.exp(rng.uniform(-0.8, 0.8, space.n_sub))
    for k, (i, j, _) in enumerate(space.pairs):
        c[space.n_sub + k] = rng.uniform(-0.85, 0.85) * np.sqrt(c[i] * c[j])
    return c


def report_inputs(spaces, per_flag, rng):
    """The seeded report batch: ``(flag, coefficients)`` pairs.

    ``spaces`` maps each flag to its metric space.  The flags take turns,
    so every stretch of the batch mixes them in the same proportion.
    """
    return [(f, sample_coeffs(space, rng)) for _ in range(per_flag) for f, space in spaces.items()]


def solve_failures(flag, report, refs):
    """Ways in which one ``solve --json`` report misses its reference.

    ``report`` is the parsed JSON report.  Returns a list of messages,
    empty when the report passes.
    """
    ref = refs["solve"][flag]
    rtol, defect_tol = refs["match_rtol"], refs["defect_tol"]
    out = []
    if report["count"] != ref["count"]:
        out.append(f"{flag}: {report['count']} solutions, reference {ref['count']}")
    names = report["coefficients"]
    found = [
        np.array([s["coefficients"][n] for n in names]) for s in report["solutions"]
    ]
    for rule_id, coeffs in ref["solutions"].items():
        want = np.array(coeffs, dtype=float)
        if not any(
            v.shape == want.shape
            and np.max(np.abs(v - want)) <= rtol * (1.0 + np.max(np.abs(want)))
            for v in found
        ):
            out.append(f"{flag}: no solution matches reference {rule_id} {coeffs}")
    for s in report["solutions"]:
        if not s["defect"] < defect_tol:
            out.append(f"{flag}: solution {s['index']} has defect {s['defect']:.3e}")
    return out


def report_failures(report, refs):
    """The scalar curvature of a report must equal its direct sum formula."""
    tol = refs["scalar_rtol"]
    err = abs(report.scalar - report.scalar_direct) / (1.0 + abs(report.scalar))
    if not err <= tol:
        return [f"scalar {report.scalar!r} vs scalar_direct {report.scalar_direct!r}"]
    return []


def check_failures(flag, results, refs):
    """Every check of the suite must pass, and the suite must be complete."""
    want = refs["checks"]
    passed = sum(1 for r in results if r.passed)
    out = [f"{flag}: FAIL {r.name}: {r.detail}" for r in results if not r.passed]
    if len(results) != want:
        out.append(f"{flag}: {len(results)} checks ran, reference {want}")
    elif passed != want:
        out.append(f"{flag}: {passed}/{want} checks passed")
    return out
