"""Ricci curvature of invariant metrics, by two routes.

The reference route, :func:`curvature`, works in an orthonormal frame of
the metric.  With frame structure constants ``T[a,b,c] = g([F_a, F_b]_m, F_c)``
the Ricci tensor of a homogeneous space of a compact Lie group is

    Ric[a,b] = -1/2 sum_{i,c} T[a,i,c] T[b,i,c]
               + 1/4 sum_{i,j} T[i,j,a] T[i,j,b]
               - 1/2 B(F_a, F_b)

where B is the Killing form of the transitive group.  The general formula
(A. Besse, Einstein Manifolds, 1987, Cor. 7.38) has one more term,
``-1/2 sum_c Z_c (T[c,a,b] + T[c,b,a])``.  Its trace vector Z is the frame
image of the trace ``z_k = sum_i t[k,i,i]`` of the tangent structure tensor,
which ``MetricSpace.structure_coo`` checks to vanish, once per flag.  Every
report goes through this route: it certifies each solution once, through
the defect gate, and it is the reference of the check suite.

The route has two implementations.  In the canonical eigenframe (the
default) the tangent structure tensor t is almost empty and the frame has
at most two nonzeros per column, so T is expanded from the nonzeros of t
alone and each quadratic sum is a product within groups of entries that
share two indices; no d^3 array is formed.  An explicit ``frame`` runs the
dense :func:`frame_structure` contraction instead, for any orthonormal
frame; it is the reference the ``ricci-frame-independence`` check compares
the sparse route against.

The reduced route, :class:`ReducedRicci`, maps the metric coefficients
straight to the coefficients of the Ricci form over the metric-space
operators, without a frame.  It is the coefficient-space form of the
``[ijk]`` block-sum formula (M. Wang, W. Ziller, Invent. Math. 84, 1986;
J.-S. Park, Y. Sakane, Tokyo J. Math. 20, 1997), extended to the mixing
coefficients of equivalent summand pairs.  It also gives the scalar
curvature, ``tr(A^-1 Ric)``, from the same coefficients.  The numeric
search evaluates its Einstein equations only through it, the variational
check of the suite takes its scalar curvature from it, and the check suite
compares it against the frame route.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .invariant import _coo_transform, _row_entries, metric_space, orthonormal_frame, volume_root

__all__ = [
    "CurvatureReport",
    "curvature",
    "frame_structure",
    "group_ricci",
    "ReducedRicci",
    "reduced_ricci",
    "u_map",
]


def frame_structure(frame):
    """Structure constants of the bracket over a metric-orthonormal frame.

    Parameters
    ----------
    frame : Frame

    Returns
    -------
    ndarray
        ``T[a, b, c] = g([F_a, F_b]_m, F_c)``, antisymmetric in the first
        two slots.  The last slot is lowered with the metric itself, so T
        is fully antisymmetric exactly when the metric is naturally
        reductive.
    """
    space = frame.metric.space
    V = frame.vectors
    t = space.structure
    # g-components of a tangent vector are read off against A V = V^{-T}
    W = np.linalg.inv(V)
    mid = np.einsum("ia,jb,ijk->abk", V, V, t, optimize=True)
    return np.einsum("abk,ck->abc", mid, W, optimize=True)


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature data of one invariant metric.

    Attributes
    ----------
    ricci : ndarray
        Ricci tensor over the orthonormal frame; the metric is Einstein
        exactly when this is a multiple of the identity.
    ricci_tangent : ndarray
        The same bilinear form over the tangent basis.
    coefficients : ndarray
        Expansion of the Ricci form in the metric-space parametrization
        (one slot per summand, then one per equivalent pair).
    scalar : float
        Scalar curvature, the frame trace of ``ricci``.
    scalar_direct : float
        Scalar curvature recomputed from the independent sum formula
        ``-1/4 sum T^2 - 1/2 tr B``; agreement with ``scalar`` is a
        consistency check, not a definition.
    einstein_constant : float
        Best-fit constant ``scalar / dim``.
    einstein_defect : float
        Frobenius distance of ``ricci`` from ``einstein_constant * I``.
    normalized_constant : float
        Scale-invariant constant ``einstein_constant * det(A)^(1/dim)``,
        with ``det(A)`` taken from the coefficient spectrum.
    """

    metric: object
    frame: object = field(repr=False)
    ricci: np.ndarray = field(repr=False)
    ricci_tangent: np.ndarray = field(repr=False)
    coefficients: np.ndarray
    scalar: float
    scalar_direct: float
    einstein_constant: float
    einstein_defect: float
    normalized_constant: float

    def __str__(self):
        return (
            f"curvature(S={self.scalar:.6g}, c={self.einstein_constant:.6g}, "
            f"defect={self.einstein_defect:.3g})"
        )


def _form_coefficients(space, form):
    """Expand an invariant symmetric form over the metric-space operators.

    The projector and intertwiner operators are mutually Frobenius
    orthogonal, so the expansion is a plain inner-product projection.
    """
    rows, norms = space.operator_rows
    return rows @ np.ravel(form) / norms


def _pair_sum(group, index, value, d):
    """``S[index[x], index[y]] += value[x] value[y]`` over x, y of one group.

    The entries are sorted by ``group``; every entry is paired with each
    entry of its group, itself included, and the products are scattered
    into a d x d array.
    """
    if group.size == 0:
        return np.zeros((d, d))
    order = np.argsort(group, kind="stable")
    group, index, value = group[order], index[order], value[order]
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    sizes = np.diff(np.r_[starts, group.size])
    n = np.repeat(sizes, sizes)
    left = np.repeat(np.arange(group.size), n)
    right = np.repeat(np.repeat(starts, sizes), n) + (
        np.arange(left.size) - np.repeat(np.cumsum(n) - n, n)
    )
    return np.bincount(
        index[left] * d + index[right],
        weights=value[left] * value[right],
        minlength=d * d,
    ).reshape(d, d)


def _sparse_terms(space, V, W):
    """The frame sums of the Ricci formula over the nonzeros of T.

    T is expanded from the nonzeros of t through those of ``V``, ``V`` and
    ``W = V^-1``; the canonical frame has at most two nonzeros per column.
    Returns the two quadratic sums and ``sum T^2``, as :func:`_dense_terms`
    does.
    """
    d = space.tangent_dim
    rows = _row_entries(V)
    a, b, c, T = _coo_transform(space.structure_coo, (rows, rows, _row_entries(W.T)), d)
    return _pair_sum(b * d + c, a, T, d), _pair_sum(a * d + b, c, T, d), float(T @ T)


def _dense_terms(frame):
    """The frame sums of the Ricci formula from the dense ``frame_structure``."""
    T = frame_structure(frame)
    return (
        np.einsum("aic,bic->ab", T, T, optimize=True),
        np.einsum("ija,ijb->ab", T, T, optimize=True),
        float(np.einsum("abc,abc->", T, T)),
    )


def curvature(metric, frame=None):
    """Full curvature report of an invariant metric.

    Parameters
    ----------
    metric : InvariantMetric
    frame : Frame, optional
        A metric-orthonormal frame to evaluate in.  Defaults to the
        canonical eigenframe, which is evaluated over the nonzeros of the
        structure tensor.  An explicit frame goes through the dense
        :func:`frame_structure` contraction instead; any metric-orthonormal
        frame must give the same tangent-coordinate Ricci form, which the
        verification suite exploits.

    Returns
    -------
    CurvatureReport
    """
    space = metric.space
    d = space.tangent_dim
    if frame is None:
        frame = orthonormal_frame(metric)
        V = frame.vectors
        # V^T A V = I, so this is V^-1 with the zeros of V^T kept exact
        Vinv = V.T @ metric.matrix
        quad_out, quad_in, square = _sparse_terms(space, V, Vinv)
    else:
        V = frame.vectors
        Vinv = np.linalg.inv(V)
        quad_out, quad_in, square = _dense_terms(frame)

    K = V.T @ space.killing @ V
    ric = -0.5 * quad_out + 0.25 * quad_in - 0.5 * K

    scalar = float(np.trace(ric))
    scalar_direct = float(-0.25 * square - 0.5 * np.trace(K))
    c = scalar / d
    defect = float(np.linalg.norm(ric - c * np.eye(d)))
    normalized = c * float(volume_root(space, metric.spectrum))

    ric_tan = Vinv.T @ ric @ Vinv
    coeffs = _form_coefficients(space, ric_tan)

    return CurvatureReport(
        metric=metric,
        frame=frame,
        ricci=ric,
        ricci_tangent=ric_tan,
        coefficients=coeffs,
        scalar=scalar,
        scalar_direct=scalar_direct,
        einstein_constant=c,
        einstein_defect=defect,
        normalized_constant=normalized,
    )


def u_map(metric, x, y):
    """Symmetric bilinear term of the Levi-Civita connection on the tangent space.

    For tangent coordinate vectors ``x`` and ``y`` this returns the
    coordinates of ``U(x, y)``, defined against a metric-orthonormal frame
    ``(F_a)`` by

        U(x, y) = 1/2 * sum_a ( g([F_a, x]_m, y) + g([F_a, y]_m, x) ) F_a.

    ``U`` is symmetric in its arguments, and it vanishes identically when
    the metric is the normal one (the structure constants are then fully
    antisymmetric).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    V = orthonormal_frame(metric).vectors
    I, J, K, t = metric.space.structure_coo
    Ax, Ay = metric.matrix @ x, metric.matrix @ y
    # g([e_i, x]_m, y) + g([e_i, y]_m, x) over the tangent basis, then F_a = V e
    basis_terms = np.bincount(
        I, weights=t * (x[J] * Ay[K] + y[J] * Ax[K]), minlength=len(x)
    )
    return V @ (0.5 * (V.T @ basis_terms))


def group_ricci(report, tol=1e-8):
    """Per-summand Ricci eigenvalues read off the frame diagonal.

    The frame columns of one summand share an eigenvalue of the metric
    operator, and invariance forces the Ricci diagonal to be constant on
    each such group.  Returns the group values in summand order; a spread
    above ``tol`` within a group raises ValueError.
    """
    diag = np.diag(report.ricci)
    out = []
    for cols in report.frame.groups:
        vals = diag[list(cols)]
        if vals.max() - vals.min() > tol * max(1.0, np.abs(vals).max()):
            raise ValueError("Ricci diagonal is not constant on a summand")
        out.append(vals.mean())
    return np.array(out)


class ReducedRicci:
    """Ricci coefficients of an invariant metric straight from its coefficients.

    For A = sum_p c_p O_p over the operators O of the metric space, the
    inverse A^-1 = sum_q h_q O_q lies in the same span (1/x on an unpaired
    summand, a closed-form 2x2 inverse on a pair), and the coefficients of
    the Ricci form are

        rho_r = -1/2 sum h_q c_p M1[q,p,r]
                + 1/4 sum h_q h_s c_p c_w M2[q,s,p,w,r] - 1/2 kappa_r

    with, for G(A, B, C) = sum t[i,j,k] A[i,I] B[j,J] C[k,K] t[I,J,K],

        M1[q,p,r]     = G(O_r, O_q, O_p) / |O_r|^2
        M2[q,s,p,w,r] = G(O_q, O_s, O_p O_r O_w) / |O_r|^2
        kappa_r       = <killing, O_r> / |O_r|^2.

    On projectors G is the block triple sum ``[ijk]``.  The operators are
    sums of elementary blocks -- the identity on a summand, or ``B0`` and
    ``B0^T`` between the two summands of a pair -- which are closed under
    multiplication because ``B0^T B0 = I``; so G is contracted once per
    triple of elementary blocks, from the matching sub-blocks of t, and
    never on a d x d operator.
    """

    def __init__(self, space):
        self.n_sub = s = space.n_sub
        self.dim = n = space.dim
        self._pi = np.array([i for i, _, _ in space.pairs], dtype=int)
        self._pj = np.array([j for _, j, _ in space.pairs], dtype=int)

        # elementary blocks (row summand, column summand, matrix or None
        # for the identity); L[r, a] = 1 when block a is part of O_r
        blocks = [(i, i, None) for i in range(s)]
        L = np.zeros((n, s + 2 * len(space.pairs)))
        L[np.arange(s), np.arange(s)] = 1.0
        for k, (i, j, B0) in enumerate(space.pairs):
            L[s + k, len(blocks)] = L[s + k, len(blocks) + 1] = 1.0
            blocks += [(j, i, B0), (i, j, B0.T)]
        m = len(blocks)
        where = {(u, v): a for a, (u, v, _) in enumerate(blocks)}
        # E_a E_b = E_c for blocks meeting in a summand; pair blocks multiply
        # to the identity since B0 is square with B0^T B0 = I
        prod = np.zeros((m, m, m))
        for a, (ua, va, _) in enumerate(blocks):
            for b, (ub, vb, _) in enumerate(blocks):
                if va == ub:
                    prod[a, b, where[ua, vb]] = 1.0

        t = space.structure
        sl = space.slices
        G = np.zeros((m, m, m))
        for a, b, c in np.ndindex(m, m, m):
            trio = (blocks[a], blocks[b], blocks[c])
            left = t[sl[trio[0][0]], sl[trio[1][0]], sl[trio[2][0]]]
            for axis, (_, _, M) in enumerate(trio):
                if M is not None:
                    left = np.tensordot(left, M, axes=(axis, 0))
                    left = np.moveaxis(left, -1, axis)
            right = t[sl[trio[0][1]], sl[trio[1][1]], sl[trio[2][1]]]
            G[a, b, c] = np.einsum("ijk,ijk->", left, right)

        sizes = np.array([sl[u].stop - sl[u].start for u, _, _ in blocks])
        killing = space.killing
        kel = np.array(
            [
                np.trace(killing[sl[u], sl[v]]) if M is None
                else np.sum(killing[sl[u], sl[v]] * M)
                for u, v, M in blocks
            ]
        )
        self._norms = norms = L @ sizes
        triple = np.einsum("pa,rb,wc,abd,dce->prwe", L, L, L, prod, prod)
        m1 = np.einsum("ra,qb,pc,abc->qpr", L, L, L, G) / norms
        m2 = np.einsum("qa,sb,prwe,abe->qspwr", L, L, triple, G) / norms
        # both sums run over the products h_q c_p, flattened to one index
        self._m1 = -0.5 * m1.reshape(n * n, n)
        self._m2 = 0.25 * m2.transpose(1, 3, 0, 2, 4).reshape(n * n, n * n * n)
        self._kappa_term = -0.5 * (L @ kel) / norms

    def _inverse(self, coeffs):
        """Coefficients of the inverse operator A^-1 over the same basis.

        ``coeffs`` has shape ``(..., n)``; every row is inverted separately.
        """
        s = self.n_sub
        if s == self.dim:
            return 1.0 / coeffs
        h = np.empty_like(coeffs)
        h[..., :s] = 1.0 / coeffs[..., :s]
        xi, xj, b = coeffs[..., self._pi], coeffs[..., self._pj], coeffs[..., s:]
        det = xi * xj - b * b
        h[..., self._pi] = xj / det
        h[..., self._pj] = xi / det
        h[..., s:] = -b / det
        return h

    def __call__(self, coeffs):
        """Ricci-form coefficients; equal to ``curvature(metric).coefficients``.

        ``coeffs`` may be one coefficient vector or a stack of them, shaped
        ``(..., n)``; the result has the same shape.
        """
        c = np.asarray(coeffs, dtype=float)
        hc = (self._inverse(c)[..., :, None] * c[..., None, :]).reshape(
            c.shape[:-1] + self._m1.shape[:1]
        )
        quad = (hc @ self._m2).reshape(hc.shape + self._m1.shape[1:])
        return np.einsum("...k,...kr->...r", hc, self._m1 + quad) + self._kappa_term

    def scalar(self, coeffs):
        """Scalar curvature; equal to ``curvature(metric).scalar``.

        The scalar is ``tr(A^-1 Ric) = sum_{q,r} h_q rho_r tr(O_q O_r)``, and
        the operators are symmetric and mutually Frobenius orthogonal, so only
        ``q = r`` survives, with ``tr(O_r O_r) = |O_r|^2``.  ``coeffs`` has
        shape ``(..., n)``; the result has shape ``(...)``.
        """
        c = np.asarray(coeffs, dtype=float)
        return np.sum(self._inverse(c) * self(c) * self._norms, axis=-1)


@lru_cache(maxsize=None)
def reduced_ricci(spec):
    """The :class:`ReducedRicci` engine of one flag, built once per process."""
    return ReducedRicci(metric_space(spec))
