"""Multi-start grid search for Einstein metrics, kept as a test oracle.

``solve`` takes its roots from the exact counts of
:mod:`einflag.algebraic`.  This module is the independent route the tests
check them against: a batched damped Newton (Levenberg-Marquardt) search
of the Einstein equations, evaluated through the reduced Ricci engine,
from a logarithmic grid of starts on each stage, plus one mixing fraction
per equivalent pair on the mixed stage, at two grid densities.
:func:`grid_levels` returns the root set of every level of both stages.
"""

import itertools
import math

import numpy as np

from einflag.einstein import _canonical_key, _matches


class ConvergenceGap(AssertionError):
    """Two routes found different root sets."""


_LOG_LO, _LOG_HI = math.log(1e-2), math.log(1e2)
_SPAN = 1.5 * math.log(10.0)
# Grid levels of each stage, coarse then dense: ``axis`` starts per log axis
# over ``[lo, hi]``, crossed with the mixing fractions ``fracs`` of each
# pair (the fraction parametrization keeps every start positive definite).
# The starts of all levels of a stage run through one batched damped Newton
# search (:func:`_level_roots`); the converged rows are split back by
# level, and each level's root set is compared as if searched apart.  The
# mixed base level starts only at positive fractions and recovers the
# negative side through verified sign mirrors; the dense level searches
# both signs outright so a missing mirror would surface as a disagreement.
_LEVELS = {
    "diagonal": (
        {"lo": _LOG_LO, "hi": _LOG_HI, "axis": 21, "fracs": ()},
        {"lo": _LOG_LO, "hi": _LOG_HI, "axis": 41, "fracs": ()},
    ),
    "mixed": (
        {"lo": -_SPAN, "hi": _SPAN, "axis": 7, "fracs": (0.25, 0.55, 0.85)},
        {
            "lo": -_SPAN,
            "hi": _SPAN,
            "axis": 9,
            "fracs": (0.2, 0.5, 0.8, -0.2, -0.5, -0.8),
        },
    ),
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
        [r[..., 1:] - r[..., :-1], rho[..., s:] - r[..., s - 1 :] * coeffs[..., s:]],
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
    set.  Every start keeps its own damping and its steps are taken or
    refused row by row, so no start's path depends on the others.  Returns
    the last iterate of every start, in start order, and the mask of the
    starts that converged within ``_MAX_ITER`` iterations.
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
    return u, converged


def _level_roots(fun, grids):
    """Converged rows of every grid level, from one :func:`_batched_roots` pass.

    The starts of all levels are searched together and their converged rows
    split back by level, in start order; since no start's path depends on
    the others, each level gets the rows a search of its own would give.
    """
    u, converged = _batched_roots(fun, np.concatenate(grids))
    level = np.repeat(np.arange(len(grids)), [len(g) for g in grids])
    return [u[converged & (level == k)] for k in range(len(grids))]


def _append_unique(found, rows):
    """Append the rows (one vector or a stack) that match no earlier entry.

    Rows are taken in order, so of several matching rows the first is kept.
    """
    rows = np.atleast_2d(rows)
    for other in found:
        rows = rows[~_matches(rows, other)]
    while len(rows):
        found.append(rows[0])
        rows = rows[~_matches(rows, rows[0])]


def _require_same(spec, what, roots, other):
    """Raise :class:`ConvergenceGap` unless two routes found one root set."""
    if len(roots) != len(other) or not all(
        any(_matches(vec, b) for b in other) for vec in roots
    ):
        raise ConvergenceGap(
            f"{spec}: {what} disagree ({len(roots)} vs {len(other)} solutions)"
        ) from None


def _stage_roots(space, engine, levels, known=()):
    """Einstein candidates of one stage, one root list per grid level.

    ``levels`` are those of one stage in ``_LEVELS``, or a prefix of them.
    The search runs over the logs of the first s - 1 diagonal coefficients
    (the last is gauged to one) and, where the levels carry mixing
    fractions (the mixed stage), one fraction per pair: the mixing
    coefficient is that fraction of the geometric mean of its diagonal
    partners, which builds positive definiteness into the parametrization.
    Without fractions (the diagonal stage) every mixing coefficient stays
    at zero and only the per-summand Ricci values are equated.  All levels
    run in one batched search; each level's list holds the ``known`` roots
    followed by its own, in canonical order, as full coefficient vectors.
    """
    s = space.n_sub
    p = len(space.pairs) if levels[0]["fracs"] else 0
    pi = [i for i, _, _ in space.pairs]
    pj = [j for _, j, _ in space.pairs]

    def assemble(u):
        c = np.zeros(u.shape[:-1] + (space.dim,))
        c[..., : s - 1] = np.exp(u[..., : s - 1])
        c[..., s - 1] = 1.0
        if p:
            c[..., s:] = u[..., s - 1 :] * np.sqrt(c[..., pi] * c[..., pj])
        return c

    def fun(u):
        # the first s - 1 rows of the residual are the differences of the
        # per-summand Ricci values; a mixed stage adds one row per pair
        outside = (
            np.max(np.abs(u[..., : s - 1]), axis=-1, keepdims=True) > _LOG_HI + 3.0
        )
        if p:
            outside |= np.max(np.abs(u[..., s - 1 :]), axis=-1, keepdims=True) > 0.999
        F = _einstein_residual(engine, assemble(u))[..., : s - 1 + p]
        return np.where(outside, np.inf, F)

    grids = [
        [
            start + fracs
            for start in itertools.product(
                np.linspace(level["lo"], level["hi"], level["axis"]), repeat=s - 1
            )
            for fracs in itertools.product(level["fracs"], repeat=p)
        ]
        for level in levels
    ]
    out = []
    for u in _level_roots(fun, grids):
        keep = (
            (np.max(np.abs(fun(u)), axis=1) <= 1e-10)
            & (np.max(np.abs(u[:, : s - 1]), axis=1) <= _LOG_HI + 2.0)
            & np.all(np.abs(u[:, s - 1 :]) < 0.999, axis=1)
        )
        found = list(known)
        _append_unique(found, assemble(u[keep]))
        # mirror the mixing signs: swapping an equivalent pair is an
        # isometry fixing the diagonal part, so the mirrored coefficients
        # solve too; they are admitted by the same residual test as every
        # grid root
        for vec in list(found):
            if np.any(np.abs(vec[s:]) > 1e-8):
                mirrored = vec.copy()
                mirrored[s:] = -mirrored[s:]
                if np.max(np.abs(_einstein_residual(engine, mirrored))) <= 1e-10:
                    _append_unique(found, mirrored)
        out.append(sorted(found, key=_canonical_key))
    return out


def grid_levels(space, engine, diagonal_roots):
    """The root list of every grid level of both stages of one flag.

    Returns ``{"diagonal": [base, dense], "mixed": [base, dense]}``, the
    mixed stage only on a flag with an equivalent pair.  The mixed levels
    start from ``diagonal_roots`` as known roots, as a mixed stage searched
    after its diagonal stage does.
    """
    out = {"diagonal": _stage_roots(space, engine, _LEVELS["diagonal"])}
    if space.pairs:
        out["mixed"] = _stage_roots(space, engine, _LEVELS["mixed"], diagonal_roots)
    return out
