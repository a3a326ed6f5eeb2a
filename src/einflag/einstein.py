"""Invariant Einstein metrics: exact branches, numeric search, screening.

Einstein metrics come in homothety rays, so everything here works in the
gauge where the last diagonal coefficient equals one.  Exact solutions are
catalogued per family branch in :func:`closed_form_solutions`; the numeric
route in :func:`numeric_solutions` runs a batched damped Newton search over
all starts of a logarithmic coefficient grid at once, re-verifies the root
set on a denser grid, and -- for the families whose Einstein system
eliminates to a single polynomial -- cross-checks the root count against
companion-matrix roots.
A disagreement between the routes raises :class:`ConvergenceGap` instead of
silently trusting either side.

The screening step groups solutions by the scale-invariant Einstein
constant and tries to realize coincidences by explicit isometries: ambient
conjugations that normalize the isotropy algebra pull one metric back to
another, which proves equivalence; distinct constants prove distinctness;
anything else stays undecided.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curvature import _form_coefficients, curvature, reduced_ricci
from .errors import (
    ConvergenceGap,
    InvariantViolation,
    NoCatalogEntry,
    TooManyParameters,
)
from .flag import manifold_name, parse_flag_spec
from .invariant import make_metric, metric_space

__all__ = [
    "EinsteinSolution",
    "EquivalenceGroup",
    "SolutionSet",
    "TableExpectation",
    "TableRow",
    "closed_form_solutions",
    "numeric_solutions",
    "equivalence_screen",
    "published_row",
    "solve",
    "table1_row",
]

DEFECT_TOL = 1e-9
MATCH_RTOL = 1e-6
CONSTANT_RTOL = 1e-8

_LOG_LO, _LOG_HI = math.log(1e-2), math.log(1e2)
# Every start of one grid level goes through one batched damped Newton
# search over all starts of the level (:func:`_batched_roots`).  Diagonal
# axes get the full grid; once an off-diagonal coefficient enters, the
# start set is a coarser diagonal grid crossed with mixing fractions
# (the fraction parametrization keeps every start positive definite).  The
# base level starts only at positive fractions and recovers the negative
# side through verified sign mirrors; the verification level searches both
# signs outright so a missing mirror would surface as a grid disagreement.
_BASE = {"diag_axis": 21, "mixed_axis": 7, "fracs": (0.25, 0.55, 0.85)}
_FINE = {
    "diag_axis": 41,
    "mixed_axis": 9,
    "fracs": (0.2, 0.5, 0.8, -0.2, -0.5, -0.8),
}
# Controls of the batched search: iteration cap; initial, least and
# stalling damping (relative to the largest diagonal entry of J^T J);
# forward-difference step; relative step size at which a start converges.
_MAX_ITER = 100
_DAMP_START = 1e-3
_DAMP_MIN = 1e-14
_DAMP_MAX = 1e10
_DIFF_STEP = 1.49e-8
_STEP_TOL = 1e-10


@dataclass(frozen=True)
class EinsteinSolution:
    """One invariant Einstein metric in the unit-last-coefficient gauge.

    Solutions are shared by the memoised routes, so the arrays of the
    metric and of its curvature report are read-only.
    """

    metric: object
    report: object
    provenance: str  # "closed-form" | "numeric"
    rule_id: str

    @property
    def coeffs(self):
        return self.metric.coeffs

    @property
    def names(self):
        return self.metric.names

    @property
    def defect(self):
        return self.report.einstein_defect

    @property
    def constant(self):
        return self.report.einstein_constant

    @property
    def normalized_constant(self):
        return self.report.normalized_constant

    def __repr__(self):
        vals = ", ".join(f"{n}={c:.6g}" for n, c in zip(self.names, self.coeffs))
        return f"EinsteinSolution[{self.rule_id}]({vals})"


@dataclass(frozen=True)
class EquivalenceGroup:
    """Solutions sharing the normalized Einstein constant, with a verdict.

    ``ProvenDistinct``: the single member differs from every other solution
    in the constant, an isometry invariant.  ``WitnessedEquivalent``: the
    members are pairwise connected by explicit isometry pullbacks.
    ``Undecided``: constants coincide but no witness was found.
    """

    indices: tuple
    constant: float
    tag: str


@dataclass(frozen=True)
class SolutionSet:
    """Deduplicated Einstein metrics of one flag plus their screening."""

    spec: object
    solutions: tuple
    groups: tuple = ()

    @property
    def count(self):
        return len(self.solutions)

    def relation(self, i, j):
        """Screening verdict for one pair of solutions."""
        if i == j:
            return "WitnessedEquivalent"
        gi = next(g for g in self.groups if i in g.indices)
        gj = next(g for g in self.groups if j in g.indices)
        if gi is gj:
            return "WitnessedEquivalent"
        scale = max(1.0, abs(gi.constant), abs(gj.constant))
        if abs(gi.constant - gj.constant) > CONSTANT_RTOL * scale:
            return "ProvenDistinct"
        return "Undecided"


# ---------------------------------------------------------------------------
# closed-form catalog


def _solution(space, coeffs, provenance, rule_id):
    """Certify one candidate through the frame-route curvature report.

    This is the only frame-route evaluation a solution gets; a defect at or
    above ``DEFECT_TOL`` raises :class:`InvariantViolation`.
    """
    metric = make_metric(space, np.array(coeffs, dtype=float))
    report = curvature(metric)
    if report.einstein_defect >= DEFECT_TOL:
        raise InvariantViolation(
            f"{space.spec} candidate {rule_id} has Einstein defect "
            f"{report.einstein_defect:.3e}"
        )
    # the solution is memoised and shared: freeze every array it hands out
    for arr in (
        metric.coeffs,
        metric.matrix,
        metric.spectrum,
        report.coefficients,
        report.ricci,
        report.ricci_tangent,
        report.frame.vectors,
        report.frame.eigenvalues,
    ):
        arr.setflags(write=False)
    return EinsteinSolution(metric, report, provenance, rule_id)


def _catalog_entries(spec):
    """Exact gauge-normalized solutions, as (rule_id, coefficients) pairs."""
    fam, l, part = spec.family, spec.rank, spec.partition
    plus = spec.includes_last_root

    if fam == "A":
        if l == 3 and len(part) == 2:
            # [2,2] splits into two summands; [3,1] and [1,3] are isotropy
            # irreducible, so every invariant metric is normal
            return [("normal", (1.0, 1.0) if part == (2, 2) else (1.0,))]
        if l == 3 and len(part) == 3:
            # three summands with an equivalent pair: one diagonal solution
            # plus four mixed ones related by swaps and mixing-sign flips
            return [
                ("E1", (4.0 / 3.0, 1.0, 1.0, 0.0)),
                ("E2", (2.0 / 3.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)),
                ("E3", (2.0, 3.0, 1.0, 1.0)),
                ("E4", (2.0 / 3.0, 1.0 / 3.0, 1.0, -1.0 / 3.0)),
                ("E5", (2.0, 3.0, 1.0, -1.0)),
            ]
        if len(part) == 3 and part[1] == part[2] and part[1] >= 3:
            l1, m = part[0], part[1]
            out = []
            # branch with equal first two coefficients
            a1 = 2 * m + l1 - 2
            disc1 = l1 * l1 - 4 * (m - 1)
            if disc1 >= 0:
                roots = {(a1 + math.sqrt(disc1)) / (4 * (m - 1)),
                         (a1 - math.sqrt(disc1)) / (4 * (m - 1))}
                for tag, x in zip(("sym+", "sym-"), sorted(roots, reverse=True)):
                    if x > 0:
                        out.append((tag, (x, x, 1.0)))
            # swapped-pair branch
            a2 = m * (m + l1 - 1) * (2 * m + l1 - 2)
            disc2 = (m + l1 - 1) * (
                -l1 * l1 + l1 * (m - 2) ** 2 + m**3 - 4 * m * m + 8 * m - 4
            )
            if disc2 > 0:
                den = 2 * m * m * (m + l1 - 1)
                y1 = (a2 + m * math.sqrt(disc2)) / den
                y2 = (a2 - m * math.sqrt(disc2)) / den
                if y1 > 0 and y2 > 0:
                    out.append(("pair+", (y1, y2, 1.0)))
                    if abs(y1 - y2) > 1e-12 * max(y1, y2):
                        out.append(("pair-", (y2, y1, 1.0)))
            elif disc2 == 0:
                y = a2 / (2 * m * m * (m + l1 - 1))
                if y > 0:
                    out.append(("pair+", (y, y, 1.0)))
            return out
        raise NoCatalogEntry(f"no closed-form catalog for {spec}")

    if fam == "B":
        if part == (l,) and not plus and l >= 3:
            if l == 4:
                return [("mu-half", (0.5, 1.0, 1.0)), ("normal", (1.0, 1.0, 1.0))]
            return [
                ("mu-half", (0.5, 1.0)),
                ("mu-upper", (l / (2.0 * l - 4.0), 1.0)),
            ]
        if part == (1, l - 1) and plus and l >= 3:
            return [("ratio", ((l - 2.0) / (l - 1.0), 1.0))]
        raise NoCatalogEntry(f"no closed-form catalog for {spec}")

    if fam == "C":
        if part == (l,) and not plus and l >= 3:
            # the center direction is Ricci flat at every invariant metric
            return []
        if part == (1, l - 1) and plus and l >= 3:
            return [("mu0-double", (2.0, 1.0))]
        raise NoCatalogEntry(f"no closed-form catalog for {spec}")

    if fam == "D":
        if part == (l,) and not plus:
            # l = 4 splits into two summands; l >= 5 is isotropy irreducible.
            return [("normal", (1.0, 1.0) if l == 4 else (1.0,))]
        if plus and part == (l - 1, 1) and l == 4:
            return [("normal", (1.0, 1.0))]
        shapes = {(l - 1, 1), (1, l - 1)} if not plus else {(1, l - 2, 1)}
        if part in shapes and l >= 4:
            s = math.sqrt(l * l - 5.0 * l + 4.0) / (2.0 * (l - 1.0))
            out = []
            if s > 1e-12:
                out.append(("F1", (1 / (1 + s), (1 - s) / (1 + s), 1.0, 0.0)))
                out.append(("F2", (1 / (1 - s), (1 + s) / (1 - s), 1.0, 0.0)))
            else:
                out.append(("F1", (1.0, 1.0, 1.0, 0.0)))
            out += [
                ("F3", (2.0 / 3.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)),
                ("F4", (2.0, 3.0, 1.0, 1.0)),
                ("F5", (2.0 / 3.0, 1.0 / 3.0, 1.0, -1.0 / 3.0)),
                ("F6", (2.0, 3.0, 1.0, -1.0)),
            ]
            return out
        raise NoCatalogEntry(f"no closed-form catalog for {spec}")

    raise NoCatalogEntry(f"no closed-form catalog for {spec}")


def closed_form_solutions(spec):
    """Exact Einstein metrics of a catalogued flag, verified numerically.

    Raises :class:`NoCatalogEntry` for flags outside the catalog.  Every
    returned solution has passed the Einstein-defect gate.  The catalog is
    evaluated once per flag and process; each call returns a fresh list of
    the memoised solutions.
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    return list(_closed_cached(spec))


@lru_cache(maxsize=None)
def _closed_cached(spec):
    entries = _catalog_entries(spec)
    space = metric_space(spec)
    return tuple(
        _solution(space, coeffs, "closed-form", rule) for rule, coeffs in entries
    )


# ---------------------------------------------------------------------------
# numeric search


def _einstein_residual(engine, coeffs):
    """Einstein equations Ric = lambda g over the metric-space coefficients.

    With rho the Ricci-form coefficients and r = rho/x the per-summand
    values, the metric is Einstein exactly when the r agree and every
    mixing coefficient satisfies rho_b = lambda b.  ``coeffs`` may be one
    coefficient vector or a stack of them, shaped ``(..., n)``.
    """
    s = engine.n_sub
    rho = engine(coeffs)
    r = rho[..., :s] / coeffs[..., :s]
    return np.concatenate(
        [np.diff(r, axis=-1), rho[..., s:] - r[..., s - 1 :] * coeffs[..., s:]],
        axis=-1,
    )


def _difference_jacobian(fun, u, F):
    """Forward-difference Jacobians ``J[b, k, j] = dF_k/du_j`` of a stack.

    ``F`` is ``fun(u)``; all m probes of all rows go through one call.
    """
    h = _DIFF_STEP * np.maximum(1.0, np.abs(u))
    probes = u[:, None, :] + h[:, :, None] * np.eye(u.shape[1])
    return ((fun(probes) - F[:, None, :]) / h[:, :, None]).transpose(0, 2, 1)


def _batched_roots(fun, starts):
    """Solve ``fun(u) = 0`` from every row of ``starts`` at once.

    A Levenberg-Marquardt iteration with one damping factor per start: a
    step is accepted when it lowers |F|, and the damping then shrinks;
    otherwise it grows.  ``fun`` maps ``(..., m)`` to ``(..., m)`` and
    returns ``inf`` on rows outside the search box, so a step out of the
    box is rejected like any step that does not lower |F|.  The Jacobian
    is taken by forward differences (:func:`_difference_jacobian`).  A
    start converges when its proposed step falls below ``_STEP_TOL``
    relative to u; it stalls when its damping passes ``_DAMP_MAX`` or its
    Jacobian is not finite.  Converged and stalled starts leave the active
    set.  Returns the converged rows in start order; starts that do not
    converge within ``_MAX_ITER`` iterations are dropped.
    """
    u = np.array(starts, dtype=float)
    with np.errstate(all="ignore"):
        F = fun(u)
        cost = np.sum(F * F, axis=1)
        damp = np.full(len(u), _DAMP_START)
        converged = np.zeros(len(u), dtype=bool)
        active = np.flatnonzero(np.isfinite(cost))
        for _ in range(_MAX_ITER):
            if not active.size:
                break
            ua, Fa = u[active], F[active]
            J = _difference_jacobian(fun, ua, Fa)
            finite = np.all(np.isfinite(J), axis=(1, 2))
            active, ua, Fa, J = active[finite], ua[finite], Fa[finite], J[finite]
            # damped normal equations (J^T J + mu I) step = -J^T F, with mu
            # at least _DAMP_MIN of the largest diagonal entry of J^T J, so
            # every pivot stays nonzero when J is singular
            Jt = J.transpose(0, 2, 1)
            JtJ = Jt @ J
            scale = np.max(np.diagonal(JtJ, axis1=1, axis2=2), axis=1)
            mu = damp[active] * scale + np.finfo(float).tiny
            A = JtJ + mu[:, None, None] * np.eye(J.shape[2])
            step = -np.linalg.solve(A, Jt @ Fa[:, :, None])[:, :, 0]
            trial = ua + step
            Ft = fun(trial)
            cost_t = np.sum(Ft * Ft, axis=1)
            better = cost_t < cost[active]
            take = active[better]
            u[take], F[take], cost[take] = trial[better], Ft[better], cost_t[better]
            damp[active] = np.where(
                better, np.maximum(damp[active] / 3.0, _DAMP_MIN), damp[active] * 4.0
            )
            small = np.max(np.abs(step), axis=1) <= _STEP_TOL * (
                1.0 + np.max(np.abs(ua), axis=1)
            )
            converged[active[small]] = True
            active = active[~small & (damp[active] <= _DAMP_MAX)]
    return u[converged]


def _append_unique(found, rows, rtol=MATCH_RTOL):
    """Append the rows (one vector or a stack) that match no earlier entry.

    Rows are taken in order, so of several matching rows the first is kept.
    """
    rows = np.atleast_2d(rows)

    def unmatched(rows, other):
        close = np.max(np.abs(rows - other), axis=1) <= rtol * (
            1.0 + np.max(np.abs(other))
        )
        return rows[~close]

    for other in found:
        rows = unmatched(rows, other)
    while len(rows):
        found.append(rows[0])
        rows = unmatched(rows, rows[0])


def _canonical_sort(vectors):
    return sorted(vectors, key=lambda v: tuple(np.round(v, 9)))


def _diag_roots(space, engine, level):
    """Diagonal Einstein candidates (last coefficient gauged to one)."""
    s = space.n_sub
    if s == 1:
        return [np.array([1.0])]

    # gauge coefficient one, mixing coefficients zero
    tail = np.eye(space.dim - s + 1)[0]

    def fun(u):
        c = np.concatenate(
            [np.exp(u), np.broadcast_to(tail, u.shape[:-1] + tail.shape)], axis=-1
        )
        F = _einstein_residual(engine, c)[..., : s - 1]
        outside = np.max(np.abs(u), axis=-1, keepdims=True) > _LOG_HI + 3.0
        return np.where(outside, np.inf, F)

    pts = np.linspace(_LOG_LO, _LOG_HI, level["diag_axis"])
    u = _batched_roots(fun, list(itertools.product(pts, repeat=s - 1)))
    keep = (np.max(np.abs(fun(u)), axis=1) <= 1e-10) & (
        np.max(np.abs(u), axis=1) <= _LOG_HI + 2.0
    )
    found = []
    # the gauged last coefficient is exp(0) = 1
    _append_unique(found, np.exp(np.pad(u[keep], ((0, 0), (0, 1)))))
    return _canonical_sort(found)


def _mixed_roots(space, engine, level):
    """Einstein candidates of a space with equivalent-pair coefficients.

    Positive definiteness is built into the parametrization: the mixing
    coefficients are fractions of the geometric mean of their diagonal
    partners.
    """
    s, p = space.n_sub, len(space.pairs)
    pi = [i for i, _, _ in space.pairs]
    pj = [j for _, j, _ in space.pairs]

    def assemble(u):
        x = np.concatenate(
            [np.exp(u[..., : s - 1]), np.ones(u.shape[:-1] + (1,))], axis=-1
        )
        b = u[..., s - 1 :] * np.sqrt(x[..., pi] * x[..., pj])
        return np.concatenate([x, b], axis=-1)

    def fun(u):
        outside = (np.max(np.abs(u[..., s - 1 :]), axis=-1, keepdims=True) > 0.999) | (
            np.max(np.abs(u[..., : s - 1]), axis=-1, keepdims=True) > _LOG_HI + 3.0
        )
        return np.where(outside, np.inf, _einstein_residual(engine, assemble(u)))

    found = [
        np.concatenate([d, np.zeros(p)]) for d in _diag_roots(space, engine, level)
    ]
    span = 1.5 * math.log(10.0)
    pts = np.linspace(-span, span, level["mixed_axis"])
    starts = [
        diag_start + frac_start
        for diag_start in itertools.product(pts, repeat=s - 1)
        for frac_start in itertools.product(level["fracs"], repeat=p)
    ]
    u = _batched_roots(fun, starts)
    keep = (
        (np.max(np.abs(fun(u)), axis=1) <= 1e-10)
        & (np.max(np.abs(u[:, : s - 1]), axis=1) <= _LOG_HI + 2.0)
        & (np.max(np.abs(u[:, s - 1 :]), axis=1) < 0.999)
    )
    _append_unique(found, assemble(u[keep]))
    # mirror the mixing signs: swapping an equivalent pair is an isometry
    # fixing the diagonal part, so the mirrored coefficients solve too; they
    # are admitted by the same residual test as every grid root
    for vec in list(found):
        if np.max(np.abs(vec[s:])) > 1e-8:
            mirrored = vec.copy()
            mirrored[s:] = -mirrored[s:]
            if np.max(np.abs(_einstein_residual(engine, mirrored))) <= 1e-10:
                _append_unique(found, mirrored)
    return _canonical_sort(found)


def _same_root_set(a, b, rtol=MATCH_RTOL):
    if len(a) != len(b):
        return False
    for vec in a:
        if not any(
            np.max(np.abs(vec - other)) <= rtol * (1.0 + np.max(np.abs(other)))
            for other in b
        ):
            return False
    return True


# -- polynomial cross-checks ------------------------------------------------


def _real_positive_roots(coeffs_ascending, tol=1e-8, imag_tol=1e-5):
    # a double real root splits into a conjugate pair with imaginary part
    # around sqrt(eps) under np.roots, so the imaginary filter must sit well
    # above that; callers re-validate every candidate against the original
    # equations and merge the split pair by proximity
    c = np.array(coeffs_ascending, dtype=float)
    if np.max(np.abs(c)) == 0:
        return []
    c = c / np.max(np.abs(c))
    while len(c) > 1 and abs(c[-1]) < 1e-14:
        c = c[:-1]
    if len(c) <= 1:
        return []
    roots = np.roots(c[::-1])
    out = []
    for r in roots:
        if abs(r.imag) < imag_tol * (1.0 + abs(r)) and r.real > tol:
            out.append(float(r.real))
    return out


def _poly_points_three_block(l1, l2, l3, l):
    """Solutions (x, y) of the three-summand system with last coefficient 1.

    After clearing denominators the two Ricci differences become the plane
    conics f1 and f2 below; eliminating y through the Sylvester resultant
    (or direct substitution when f1 is linear in y) leaves one polynomial
    whose companion-matrix roots enumerate every candidate.
    """
    L = 2.0 * (l - 1.0)

    def f1(x, y):
        return l3 * (x * x - y * y - 1) + L * y - l1 * (1 - x * x - y * y) - L * x * y

    def f2(x, y):
        return l2 * (y * y - x * x - 1) + L * x - l1 * (1 - x * x - y * y) - L * x * y

    points = []

    def consider(x, y):
        if x <= 1e-9 or y <= 1e-9:
            return
        scale = (l1 + l2 + l3 + L) * (1 + x * x + y * y)
        if abs(f1(x, y)) < 1e-7 * scale and abs(f2(x, y)) < 1e-7 * scale:
            _append_unique(points, np.array([x, y]), rtol=1e-5)

    if l1 == l3:
        # f1 factors: x = 1 solves it identically, otherwise y is linear in x
        for y in _real_positive_roots([L - 2.0 * l2, -L, l1 + l2]):
            consider(1.0, y)
        c = (l1 + l3) / L  # y = c (x + 1) on the second factor
        num = [
            (l1 + l2) * c * c - (l1 + l2),
            2 * (l1 + l2) * c * c - L * c + L,
            (l1 + l2) * c * c - L * c + (l1 - l2),
        ]
        for x in _real_positive_roots(num):
            consider(x, c * (x + 1.0))
        return points

    # Sylvester resultant in y of f1 = A1 y^2 + B1 y + C1 and f2 likewise
    A1 = [float(l1 - l3)]
    B1 = [L, -L]
    C1 = [float(-l1 - l3), 0.0, float(l1 + l3)]
    A2 = [float(l1 + l2)]
    B2 = [0.0, -L]
    C2 = [float(-l1 - l2), L, float(l1 - l2)]

    def det3(m):
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        t1 = npoly.polymul(a, npoly.polysub(npoly.polymul(e, i), npoly.polymul(f, h)))
        t2 = npoly.polymul(b, npoly.polysub(npoly.polymul(d, i), npoly.polymul(f, g)))
        t3 = npoly.polymul(c, npoly.polysub(npoly.polymul(d, h), npoly.polymul(e, g)))
        return npoly.polyadd(npoly.polysub(t1, t2), t3)

    Z = [0.0]
    rows = [
        [A1, B1, C1, Z],
        [Z, A1, B1, C1],
        [A2, B2, C2, Z],
        [Z, A2, B2, C2],
    ]
    det = [0.0]
    for j in range(4):
        minor = [
            [rows[r][c] for c in range(4) if c != j] for r in range(1, 4)
        ]
        term = npoly.polymul(rows[0][j], det3(minor))
        det = npoly.polyadd(det, term) if j % 2 == 0 else npoly.polysub(det, term)

    for x in _real_positive_roots(det):
        a1v = float(l1 - l3)
        b1v = L - L * x
        c1v = (l1 + l3) * (x * x - 1.0)
        for y in _real_positive_roots([c1v, b1v, a1v]):
            consider(x, y)
    return points


def _poly_points_b_plus(d, l):
    """Solutions (gamma, rho) with mu = 1 for the two-block B-family flags.

    The second Ricci difference is linear in gamma; substituting into the
    first leaves a single polynomial in rho of degree at most six.
    """
    N = [0.0, -4.0 * (l - 2.0), 4.0 * (l - 1.0)]
    D = [-(d - 1.0), 0.0, d - 1.0]
    A = [l - d + 0.0, 0.0, float(l)]
    B = [0.0, 0.0, -4.0 * (l - 1.0)]
    C = [0.0, 0.0, 4.0 * (d - 2.0)]
    num = npoly.polyadd(
        npoly.polymul(A, npoly.polymul(N, N)),
        npoly.polyadd(
            npoly.polymul(B, npoly.polymul(N, D)),
            npoly.polymul(C, npoly.polymul(D, D)),
        ),
    )
    points = []
    for rho in _real_positive_roots(num):
        Dv = float(npoly.polyval(rho, D))
        if abs(Dv) < 1e-10:
            continue
        gamma = float(npoly.polyval(rho, N)) / Dv
        if gamma <= 1e-9:
            continue
        g1 = (
            4 * (d - 2) * rho * rho
            + (l - d) * gamma * gamma
            + l * gamma * gamma * rho * rho
            - 4 * (l - 1) * gamma * rho * rho
        )
        g2 = (
            4 * (l - 2) * rho
            - (d - 1) * gamma
            - 4 * (l - 1) * rho * rho
            + (d - 1) * gamma * rho * rho
        )
        scale = l * l * (1 + gamma * gamma) * (1 + rho * rho)
        if abs(g1) < 1e-7 * scale and abs(g2) < 1e-7 * scale:
            _append_unique(points, np.array([gamma, rho]), rtol=1e-5)
    return points


def _poly_crosscheck(spec, space, roots):
    """Companion-matrix root count for the polynomially solvable families."""
    fam, l, part = spec.family, spec.rank, spec.partition
    points = None
    if fam == "A" and len(part) == 3 and not space.pairs and space.n_sub == 3:
        points = _poly_points_three_block(part[0], part[1], part[2], l)
    elif fam == "B" and spec.includes_last_root and len(part) == 2 and part[0] >= 2:
        points = _poly_points_b_plus(part[0], l)
    if points is None:
        return
    numeric = [vec[:2] for vec in roots]
    ok = len(points) == len(numeric) and all(
        any(np.max(np.abs(p - q)) <= 1e-5 * (1 + np.max(np.abs(q))) for q in numeric)
        for p in points
    )
    if not ok:
        raise ConvergenceGap(
            f"{spec}: polynomial cross-check found {len(points)} solutions, "
            f"grid search found {len(numeric)}"
        )


def numeric_solutions(spec):
    """Einstein metrics located by multi-start root finding.

    The root set is computed on two grid densities through the reduced
    Ricci engine and must agree; the polynomially solvable families are
    additionally cross-checked against companion-matrix roots.  Each root
    is then certified once by the frame-route curvature report.  Raises
    :class:`TooManyParameters` for metric families with more than four
    coefficients and :class:`ConvergenceGap` when the routes disagree.  The
    search runs once per flag and process; each call returns a fresh list
    of the memoised solutions.
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    return list(_numeric_cached(spec))


@lru_cache(maxsize=None)
def _numeric_cached(spec):
    space = metric_space(spec)
    if space.dim > 4:
        raise TooManyParameters(
            f"{spec} has a {space.dim}-parameter metric family; "
            "the numeric search handles at most 4"
        )
    engine = reduced_ricci(spec)
    search = _mixed_roots if space.pairs else _diag_roots
    roots = search(space, engine, _BASE)
    verify = search(space, engine, _FINE)
    if not _same_root_set(roots, verify):
        raise ConvergenceGap(
            f"{spec}: grid densities disagree "
            f"({len(roots)} vs {len(verify)} solutions)"
        )
    _poly_crosscheck(spec, space, roots)
    return tuple(
        _solution(space, vec, "numeric", f"numeric-{k + 1}")
        for k, vec in enumerate(roots)
    )


# ---------------------------------------------------------------------------
# equivalence screening


def _gauge(space, coeffs):
    coeffs = np.asarray(coeffs, dtype=float).copy()
    s = space.n_sub
    return coeffs / coeffs[s - 1]


def _induced_tangent_map(space, O):
    """Tangent action of an ambient conjugation, or None if it breaks it.

    The candidate must map every tangent-basis matrix back into the span of
    the algebra basis and preserve the tangent subspace; the returned map is
    then orthogonal for the background metric.
    """
    model = space.spec.algebra
    g = float(space.spec.inner_scale) * model.gram
    Bw = space.basis * g
    mats = np.array([e.matrix for e in model.basis], dtype=float)
    d = space.tangent_dim
    images = np.zeros((d, model.n))
    for k in range(d):
        Mk = np.einsum("c,cij->ij", space.basis[k], mats)
        coords, residual = model.expand_matrix(O @ Mk @ O.T)
        if residual > 1e-9:
            return None
        images[k] = coords
    W = Bw @ images.T
    if np.max(np.abs(W.T @ W - np.eye(d))) > 1e-9:
        return None
    if np.max(np.abs(images - W.T @ space.basis)) > 1e-9:
        return None
    return W


def _block_ranges(part):
    out, start = [], 0
    for p in part:
        out.append(range(start, start + p))
        start += p
    return out


def _ambient_candidates(spec):
    """Orthogonal ambient matrices that may normalize the isotropy group."""
    fam, l, part = spec.family, spec.rank, spec.partition
    model = spec.algebra
    N = model.ambient_dim
    cands = []

    if fam == "A":
        blocks = _block_ranges(part)
        perms = [np.eye(N)]
        for i, j in itertools.combinations(range(len(blocks)), 2):
            if part[i] != part[j]:
                continue
            P = np.eye(N)
            for a, b in zip(blocks[i], blocks[j]):
                P[[a, b]] = P[[b, a]]
            perms.append(P)
        flips = [np.eye(N)]
        for blk in blocks:
            F = np.eye(N)
            F[blk[0], blk[0]] = -1.0
            flips.append(F)
        for P in perms:
            for F in flips:
                cands.append(P @ F)

    elif fam == "D":
        eye = np.eye(l)
        sigma = np.block([[eye, np.zeros((l, l))], [np.zeros((l, l)), -eye]])
        flips = [eye]
        for pos in (0, l - 1):
            F = eye.copy()
            F[pos, pos] = -1.0
            flips.append(F)
        F = eye.copy()
        F[0, 0] = -1.0
        F[l - 1, l - 1] = -1.0
        flips.append(F)
        for P in flips:
            for Q in flips:
                M = 0.5 * np.block([[P + Q, P - Q], [P - Q, P + Q]])
                cands.append(M)
                cands.append(sigma @ M)

    return cands


@lru_cache(maxsize=None)
def _witness_maps(spec):
    """Deduplicated tangent isometry actions available for pullbacks."""
    space = metric_space(spec)
    maps = []
    seen = set()
    for O in _ambient_candidates(spec):
        W = _induced_tangent_map(space, O)
        if W is None:
            continue
        key = tuple(np.round(W, 8).ravel())
        if key in seen or np.max(np.abs(W - np.eye(space.tangent_dim))) < 1e-10:
            continue
        seen.add(key)
        maps.append(W)
    return tuple(maps)


def _pulled_coefficients(space, W, coeffs):
    A = space.metric_matrix(coeffs)
    Ap = W.T @ A @ W
    pulled = _form_coefficients(space, Ap)
    if np.max(np.abs(space.metric_matrix(pulled) - Ap)) > 1e-8 * (
        1 + np.max(np.abs(Ap))
    ):
        return None
    return _gauge(space, pulled)


def equivalence_screen(spec, solutions):
    """Group solutions by the normalized Einstein constant and tag them."""
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    n = len(solutions)
    if n == 0:
        return []
    values = np.array([s.normalized_constant for s in solutions])
    order = np.argsort(values, kind="stable")
    classes = [[int(order[0])]]
    for idx in order[1:]:
        prev = values[classes[-1][-1]]
        if abs(values[idx] - prev) <= CONSTANT_RTOL * max(1.0, abs(prev)):
            classes[-1].append(int(idx))
        else:
            classes.append([int(idx)])

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    if any(len(cls) > 1 for cls in classes):
        space = metric_space(spec)
        witnesses = _witness_maps(spec)
        for cls in classes:
            if len(cls) == 1:
                continue
            gauged = {i: _gauge(space, solutions[i].coeffs) for i in cls}
            for i in cls:
                for W in witnesses:
                    pulled = _pulled_coefficients(space, W, solutions[i].coeffs)
                    if pulled is None:
                        continue
                    for j in cls:
                        if j == i:
                            continue
                        if np.max(np.abs(pulled - gauged[j])) <= MATCH_RTOL * (
                            1.0 + np.max(np.abs(gauged[j]))
                        ):
                            union(i, j)

    groups = []
    for cls in classes:
        comps = {}
        for i in cls:
            comps.setdefault(find(i), []).append(i)
        for comp in comps.values():
            if len(cls) == 1:
                tag = "ProvenDistinct"
            elif len(comp) > 1:
                # union-find only joins on an explicit pullback match, so a
                # multi-member component is witnessed even when the wider
                # constant-cluster did not merge
                tag = "WitnessedEquivalent"
            else:
                tag = "Undecided"
            groups.append(
                EquivalenceGroup(
                    indices=tuple(sorted(comp)),
                    constant=float(np.mean(values[comp])),
                    tag=tag,
                )
            )
    groups.sort(key=lambda grp: grp.indices)
    return groups


# ---------------------------------------------------------------------------
# combined entry point


def _merge(closed, numeric):
    merged = list(closed)
    for sol in numeric:
        vec = sol.coeffs
        if any(
            np.max(np.abs(vec - other.coeffs))
            <= MATCH_RTOL * (1.0 + np.max(np.abs(other.coeffs)))
            for other in merged
        ):
            continue
        merged.append(sol)
    return merged


def solve(spec, mode="both"):
    """Locate the invariant Einstein metrics of one flag.

    Results are memoised per (flag, mode) in an immutable
    :class:`SolutionSet`: its solutions and groups are tuples, and the
    coefficient arrays are read-only.

    Parameters
    ----------
    spec : FlagSpec or str
    mode : {"both", "numeric", "closed-form"}
        "both" unions the catalog with the numeric roots (numeric-only when
        the flag has no catalog entry); the single-route modes propagate
        :class:`NoCatalogEntry` untouched.
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    if mode not in ("both", "numeric", "closed-form"):
        raise ValueError(f"unknown mode {mode!r}")
    return _solve_cached(spec, mode)


@lru_cache(maxsize=None)
def _solve_cached(spec, mode):
    if mode == "closed-form":
        sols = closed_form_solutions(spec)
    elif mode == "numeric":
        sols = numeric_solutions(spec)
    else:
        try:
            closed = closed_form_solutions(spec)
        except NoCatalogEntry:
            closed = []
        sols = _merge(closed, numeric_solutions(spec))
    return SolutionSet(spec, tuple(sols), tuple(equivalence_screen(spec, sols)))


@dataclass(frozen=True)
class TableExpectation:
    """Published solution count for one flag: exact, an upper bound, or none."""

    display: str
    exact: int | None = None
    bound: int | None = None
    normal: bool | None = None

    def matches(self, count, normal_is_einstein):
        if self.exact is not None:
            if count != self.exact:
                return False
            if self.normal is not None and normal_is_einstein != self.normal:
                return False
            return True
        if self.bound is not None:
            return count <= self.bound
        return None


def published_row(spec):
    """The published count/normal expectation for a flag, or None.

    Exact rows carry the expected count and whether the normal metric is
    Einstein; family rows known only up to a bound carry the bound; shapes
    outside the published table return None.
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    fam, l = spec.family, spec.rank
    part = tuple(spec.partition)
    plus = spec.includes_last_root
    if fam == "A":
        if l == 3 and part == (2, 2):
            return TableExpectation("1", exact=1, normal=True)
        if l == 3:
            return TableExpectation("5", exact=5, normal=False)
        if len(part) == 3:
            return TableExpectation("<=4", bound=4)
        return None
    if fam == "B":
        if not plus:
            return TableExpectation("2", exact=2, normal=(l == 4))
        d = part[0]
        if d == 1:
            return TableExpectation("1", exact=1, normal=False)
        return TableExpectation("<=3", bound=3) if d == 2 else TableExpectation("<=4", bound=4)
    if fam == "C":
        if not plus:
            return TableExpectation("0", exact=0, normal=False)
        if part[0] == 1:
            return TableExpectation("1", exact=1, normal=False)
        return TableExpectation("<=2", bound=2)
    if fam == "D":
        if not plus and part == (l,):
            return TableExpectation("1", exact=1, normal=True) if l == 4 else None
        if plus and l == 4 and part == (3, 1):
            return TableExpectation("1", exact=1, normal=True)
        if (not plus and sorted(part) == [1, l - 1]) or (plus and len(part) == 3):
            if l == 4:
                return TableExpectation("5", exact=5, normal=True)
            return TableExpectation("6", exact=6, normal=False)
        return None
    return None


@dataclass
class TableRow:
    """Computed summary line for one flag."""

    spec: object
    name: str
    summands: int
    has_equivalent: bool
    count: int
    normal_is_einstein: bool
    solutions: SolutionSet


def table1_row(spec):
    """Solve one flag and summarize it as a table row."""
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    space = metric_space(spec)
    sols = solve(spec)
    normal = np.zeros(space.dim)
    normal[: space.n_sub] = 1.0
    defect = curvature(make_metric(space, normal)).einstein_defect
    return TableRow(
        spec=spec,
        name=manifold_name(spec),
        summands=space.n_sub,
        has_equivalent=bool(space.pairs),
        count=len(sols.solutions),
        normal_is_einstein=bool(defect < DEFECT_TOL),
        solutions=sols,
    )
