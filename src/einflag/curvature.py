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

The route has two implementations, and neither forms a d^3 array.  In the
canonical eigenframe (the default) the tangent structure tensor t is almost
empty and the frame has at most two nonzeros per column, so T is expanded
from the nonzeros of t alone and each quadratic sum is a product within
groups of entries that share two indices.  Where those nonzeros lie depends
only on the flag and on whether each pair's mixing coefficient is zero,
below 1e-14 or beyond, so all the index work -- the expansion of T, the
pairs of both sums, and the frame products ``V^T A``, ``V^T A V``,
``V^T K V`` and ``W^T ric W`` over their nonzeros -- is a
:class:`~einflag.invariant.FramePlan`, built at the first report of each
such state and kept on the metric space.  A report is then a fixed run of
gathers, elementwise products and ``bincount`` s, with no d x d matrix
product.  Each single-term entry rounds as the dense product would; an
entry of two terms, on a mixed pair, is summed without BLAS's fused
multiply-add.  An explicit ``frame`` may be any orthonormal frame, so its T
is dense: :func:`frame_structure` builds it one slab of ``_SLAB`` middle
indices at a time, from the nonzeros of t, and each slab adds its part of
both quadratic sums before the next is built.  That route is the reference
the ``ricci-frame-independence`` check compares the sparse route against.

The reduced route, :class:`ReducedRicci`, maps the metric coefficients
straight to the coefficients of the Ricci form over the metric-space
operators, without a frame.  It is the coefficient-space form of the
``[ijk]`` block-sum formula (M. Wang, W. Ziller, Invent. Math. 84, 1986;
J.-S. Park, Y. Sakane, Tokyo J. Math. 20, 1997), extended to the mixing
coefficients of equivalent summand pairs; its block sums are contracted
from the nonzeros of t as well.  It also gives the scalar
curvature, ``tr(A^-1 Ric)``, from the same coefficients.  The exact
counts rebuild their Einstein equations from its terms
(:meth:`ReducedRicci.terms`), the variational check of the suite takes its
scalar curvature from it, and the check suite compares it against the
frame route.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import _coo_transform, _coo_values, _row_entries
from .invariant import metric_space, orthonormal_frame, volume_root

__all__ = [
    "CurvatureReport",
    "curvature",
    "frame_structure",
    "group_ricci",
    "ReducedRicci",
    "reduced_ricci",
    "u_map",
]

# middle frame indices per slab of the dense frame_structure route: at
# d = 129 a slab's arrays hold d^2 * 16 floats, 2.1 MB each
_SLAB = 16


def frame_structure(frame, cols=slice(None)):
    """Structure constants of the bracket over a metric-orthonormal frame.

    Parameters
    ----------
    frame : Frame
    cols : slice or index array, optional
        The frame indices b of the middle slot to return; all by default.

    Returns
    -------
    ndarray
        ``T[:, cols, :]`` of ``T[a, b, c] = g([F_a, F_b]_m, F_c)``, which is
        antisymmetric in the first two slots.  The last slot is lowered with
        the metric itself, so T is fully antisymmetric exactly when the
        metric is naturally reductive.

    The middle slot is contracted first, over the nonzeros of t alone:
    ``X[i, b, k] = sum_j t[i,j,k] V[j,b]`` is one scatter into a
    ``(d, s, d)`` array for the s columns.  The first slot is then one
    matrix product with ``V^T`` and the last one with ``W^T = V^-T``, so the
    largest array has ``d^2 s`` entries.  ``V^-1`` is the frame's
    :attr:`~einflag.invariant.Frame.inverse`, inverted once per frame.
    """
    space = frame.metric.space
    d = space.tangent_dim
    V = frame.vectors
    Vb = V[:, cols]
    s = Vb.shape[1]
    I, J, K, t = space.structure_coo
    X = np.bincount(
        ((I[:, None] * s + np.arange(s)) * d + K[:, None]).ravel(),
        weights=(t[:, None] * Vb[J]).ravel(),
        minlength=d * s * d,
    )
    Y = V.T @ X.reshape(d, s * d)
    # g-components of a tangent vector are read off against A V = V^{-T}
    return (Y.reshape(d * s, d) @ frame.inverse.T).reshape(d, s, d)


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


def _scatter(keys, values, d):
    """A d x d array with ``values`` at the flat ``keys`` and zeros elsewhere."""
    out = np.zeros(d * d)
    out[keys] = values
    return out.reshape(d, d)


def _planned_ricci(frame):
    """The frame Ricci tensor over its structural entries, from the canonical frame's plan.

    T is expanded from the nonzeros of t through those of V, V and ``W^T``
    (:attr:`~einflag.invariant.FramePlan.structure`), each quadratic sum is
    one product of T's entries per planned pair and one ``bincount``, and
    ``V^T K V`` is gathered from the nonzeros of the Killing form K.
    Returns the entries of ric at the plan's ``ricci`` positions, ``sum T^2``
    and ``tr(V^T K V)``, which the dense route reads off its d x d arrays.
    """
    plan, v, w = frame.sparse
    n = plan.ricci[0].size
    T = _coo_values(
        plan.structure, frame.metric.space.structure_coo[3], (v, v, w[plan.transpose[0]])
    )
    quad_out, quad_in = (
        np.bincount(at, weights=T[left] * T[right], minlength=n)
        for left, right, at in (plan.quad_out, plan.quad_in)
    )
    pattern, killing, at = plan.killing
    K = np.zeros(n)
    K[at] = _coo_values(pattern, killing, (v, v))
    ric = -0.5 * quad_out + 0.25 * quad_in - 0.5 * K
    return ric, float(T @ T), np.sum(K[plan.ricci[1]])


def _dense_terms(frame):
    """The frame sums of the Ricci formula from :func:`frame_structure`.

    T is taken ``_SLAB`` middle indices b at a time.  Each slab adds its
    part of both quadratic sums, ``sum_{i in slab, c} T[a,i,c] T[a',i,c]``
    and ``sum_{i, j in slab} T[i,j,a] T[i,j,a']``, and of ``sum T^2``.
    """
    d = frame.vectors.shape[0]
    quad_out, quad_in, square = np.zeros((d, d)), np.zeros((d, d)), 0.0
    for start in range(0, d, _SLAB):
        T = frame_structure(frame, slice(start, start + _SLAB))
        Tf, Tg = T.reshape(d, -1), T.reshape(-1, d)
        quad_out += Tf @ Tf.T
        quad_in += Tg.T @ Tg
        square += float(np.vdot(Tf, Tf))
    return quad_out, quad_in, square


def curvature(metric, frame=None):
    """Full curvature report of an invariant metric.

    Parameters
    ----------
    metric : InvariantMetric
    frame : Frame, optional
        A metric-orthonormal frame to evaluate in.  Defaults to the
        canonical eigenframe, which is evaluated over the nonzeros of the
        structure tensor by the frame's
        :class:`~einflag.invariant.FramePlan`: ``ricci`` and
        ``ricci_tangent`` are scattered from their structural entries, and
        ``einstein_defect`` is the norm of the dense ``ricci - c I``.  An
        explicit frame goes through the dense :func:`frame_structure`
        contraction instead; any metric-orthonormal frame must give the same
        tangent-coordinate Ricci form, which the verification suite exploits.

    Returns
    -------
    CurvatureReport
    """
    space = metric.space
    d = space.tangent_dim
    if frame is None:
        frame = orthonormal_frame(metric)
        plan, _, w = frame.sparse
        entries, square, killing_trace = _planned_ricci(frame)
        ric = _scatter(plan.ricci[0], entries, d)
        # W = V^-1 from the frame's plan, over the structural entries of ric
        ric_tan = _scatter(plan.tangent[3], _coo_values(plan.tangent, entries, (w, w)), d)
    else:
        quad_out, quad_in, square = _dense_terms(frame)
        K = frame.vectors.T @ space.killing @ frame.vectors
        ric = -0.5 * quad_out + 0.25 * quad_in - 0.5 * K
        killing_trace = np.trace(K)
        ric_tan = frame.inverse.T @ ric @ frame.inverse

    scalar = float(np.trace(ric))
    scalar_direct = float(-0.25 * square - 0.5 * killing_trace)
    c = scalar / d
    defect = float(np.linalg.norm(ric - c * np.eye(d)))
    normalized = c * float(volume_root(space, metric.spectrum))

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


def _block_sums(space, blocks):
    """``G[a,b,c] = sum t[i,j,k] E_a[i,I] E_b[j,J] E_c[k,K] t[I,J,K]`` over the nonzeros of t.

    ``blocks`` lists the elementary blocks ``E = (u, v, M)`` of
    :class:`ReducedRicci`: ``M`` (the identity for None) from summand u to
    summand v.  One map pushes every tangent index i of summand u to the
    indices ``a * d + I`` for each block a that starts at u, so that the
    pushed copy of t keeps the block of every slot in its key.  Each pushed
    entry at ``((a, I), (b, J), (c, K))`` then meets the entry of t at
    ``(I, J, K)``, found by a binary search of the sorted keys of t.
    """
    d, m, sl = space.tangent_dim, len(blocks), space.slices
    push = np.zeros((d, m * d))
    for a, (u, v, M) in enumerate(blocks):
        push[sl[u], a * d + sl[v].start : a * d + sl[v].stop] = (
            np.eye(sl[u].stop - sl[u].start) if M is None else M
        )
    rows = _row_entries(push)
    coo = space.structure_coo
    A, B, C, pushed = _coo_transform(coo, (rows, rows, rows), m * d)
    I, J, K, t = coo
    tkey = (I * d + J) * d + K
    order = np.argsort(tkey)
    tkey, t = tkey[order], t[order]
    key = ((A % d) * d + B % d) * d + C % d
    at = np.minimum(np.searchsorted(tkey, key), tkey.size - 1)
    hit = tkey[at] == key
    block = ((A // d) * m + B // d) * m + C // d
    return np.bincount(
        block[hit], weights=pushed[hit] * t[at[hit]], minlength=m**3
    ).reshape(m, m, m)


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

    Over the products ``hc_k = h_q c_p`` (k = (q, p)) this reads
    ``rho = hc M1 + sum_{l <= k} hc_l hc_k W[l,k] + kappa``.  The quadratic
    term is stored once, at build time, as the weights ``W`` of its
    nonzero products only -- a few of the n^2 (n^2 + 1) / 2 pairs, since the
    block sums vanish on most index combinations -- so an evaluation is
    two gathers, a product and two small matrix products per row.
    """

    def __init__(self, space):
        self.n_sub = s = space.n_sub
        self.dim = n = space.dim
        # the summands (i, j) of each equivalent pair, in pair order
        self.pairs = tuple((i, j) for i, j, _ in space.pairs)
        self._pi = np.array([i for i, _ in self.pairs], dtype=int)
        self._pj = np.array([j for _, j in self.pairs], dtype=int)

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

        G = _block_sums(space, blocks)
        sl = space.slices
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
        # both sums run over the products h_q c_p, flattened to one index;
        # the quadratic sum is symmetric in its two products, so it is kept
        # once per unordered pair of them, and only where it is nonzero
        self._m1 = -0.5 * m1.reshape(n * n, n)
        quad = 0.25 * m2.transpose(0, 2, 1, 3, 4).reshape(n * n, n * n, n)
        left, right = np.triu_indices(n * n)
        weight = quad[left, right] + (left != right)[:, None] * quad[right, left]
        nonzero = np.any(weight != 0.0, axis=1)
        self._left, self._right = left[nonzero], right[nonzero]
        self._quad = weight[nonzero]
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
        # one row per metric: two-dimensional gathers and products are the
        # fast ones
        flat = c.reshape(-1, self.dim)
        hc = (self._inverse(flat)[:, :, None] * flat[:, None, :]).reshape(
            len(flat), self.dim**2
        )
        quad = np.take(hc, self._left, axis=1) * np.take(hc, self._right, axis=1)
        rho = hc @ self._m1 + quad @ self._quad + self._kappa_term
        return rho.reshape(c.shape)

    def terms(self):
        """The Ricci coefficients as Laurent terms in the metric coefficients.

        Write ``det_k = x_i x_j - b_k^2`` for the k-th pair ``(i, j)``.  A
        product ``h_q c_p`` is a signed monomial in the coefficients
        ``x_1, ..., x_s, b_1, ..., b_p`` times a power of one determinant:
        ``c_p / x_q`` for an unpaired summand q, ``x_j c_p / det_k`` and
        ``x_i c_p / det_k`` for the summands i and j of a pair, and
        ``-b_k c_p / det_k`` for its mixing slot.  So
        ``rho = sum_e row_e x^e + killing`` over the terms, on every metric.
        Returns ``(linear, quadratic, killing)``: the terms of the linear and
        of the quadratic sum as ``(e, row)`` pairs, ``e`` a tuple of n + p
        integer exponents (one per coefficient, then one per determinant)
        and ``row`` the n floats of the term in each Ricci coefficient, the
        sign of the monomial included, not merged across equal exponents;
        and the Killing row.  Plain lists of floats, for exact arithmetic
        downstream (:mod:`einflag.algebraic`).
        """
        s, n = self.n_sub, self.dim
        width = n + len(self.pairs)
        # summand -> (its pair, its partner)
        paired = {}
        for k, (i, j) in enumerate(self.pairs):
            paired[i], paired[j] = (k, j), (k, i)
        # h_q as (sign, exponents)
        inverse = []
        for q in range(n):
            e, sign = [0] * width, 1.0
            if q >= s:
                e[q], e[n + q - s], sign = 1, -1, -1.0
            elif q in paired:
                k, partner = paired[q]
                e[partner], e[n + k] = 1, -1
            else:
                e[q] = -1
            inverse.append((sign, e))
        products = []
        for q, p in itertools.product(range(n), repeat=2):
            sign, e = inverse[q]
            products.append((sign, tuple(v + (i == p) for i, v in enumerate(e))))

        linear = [
            (e, [sign * v for v in row])
            for (sign, e), row in zip(products, self._m1.tolist())
        ]
        quadratic = []
        for l, k, row in zip(self._left.tolist(), self._right.tolist(), self._quad.tolist()):
            (sl, el), (sk, ek) = products[l], products[k]
            quadratic.append(
                (tuple(u + v for u, v in zip(el, ek)), [sl * sk * v for v in row])
            )
        return linear, quadratic, self._kappa_term.tolist()

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
