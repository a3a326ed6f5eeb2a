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
which ``MetricSpace.structure`` checks to vanish, once per flag.  This
route is the reference of the check suite, which certifies every solution
of ``solve`` by it again.

The route has two implementations, and neither forms a d^3 array.  In the
canonical eigenframe (the default) the tangent structure tensor t is almost
empty and the frame has at most two nonzeros per column, so T is expanded
from the nonzeros of t alone and each quadratic sum is a product within
groups of entries that share two indices.  Where those nonzeros can lie
depends only on the flag, so all the index work -- the frame's entries as
a gather of per-summand and per-pair factors, the expansion of T, the
pairs of both sums, and the frame products ``V^T A``, ``V^T A V``,
``V^T K V`` and ``W^T ric W`` over their nonzeros, with the entries of t
and of the Killing form gathered per product -- is one
:class:`~einflag.invariant.FramePlan`, built at the first report of the
flag and kept on the metric space.  A report is then a fixed run of
gathers, elementwise products and ``bincount`` s, and it makes no d x d
array: the frame stays its entries over the plan; the scalar curvature and
the defect are summed over the structural entries of ``ricci``; the
coefficients are one product of the operator rows, gathered once at the
plan's keys of ``ricci_tangent``, with that form's entries; and the two
forms themselves are scattered from their entries when they are first
read.  Each single-term entry rounds as the dense product would; an entry
of two terms, on a mixed pair, is summed without BLAS's fused
multiply-add, and the coefficients and the defect differ from their dense
sums only in how BLAS blocks a dot product.  An explicit ``frame`` may be
any orthonormal frame, so its T is dense, and the route never forms it.
Both quadratic sums are the same sums re-associated through the frame's
Gram matrices ``P = V V^T`` and ``R = W W^T``, ``W = V^-T``: ``sum_{b,c}
T[a,b,c] T[a',b,c] = (V^T M V)[a,a']`` with ``M[i,i'] = sum t[i,j,k]
t[i',j',k'] P[j,j'] R[k,k']``, ``sum_{a,b} T[a,b,c] T[a,b,c'] = (W^T N
W)[c,c']`` with ``N[k,k'] = sum t[i,j,k] t[i',j',k'] P[i,i'] P[j,j']``,
and ``sum T^2 = <M, P>``.  Column h of M is one product over the nonzeros
of t whose first index is h, gathered back at the nonzeros of t and summed
per first index; N is the same with the last index as the key.  That
costs ``O(d^2 nnz + d^3)`` and a handful of d x d arrays, and the sums
assume nothing of the frame but that it is invertible.  This route is the
reference the ``ricci-frame-independence`` check compares the sparse route
against.

The reduced route, :class:`ReducedRicci`, maps the metric coefficients
straight to the coefficients of the Ricci form over the metric-space
operators, without a frame.  It is the ``[ijk]`` block-sum formula
(M. Wang, W. Ziller, Invent. Math. 84, 1986; J.-S. Park, Y. Sakane, Tokyo
J. Math. 20, 1997), extended to the mixing coefficients of equivalent
summand pairs.  Its block sums, contracted from the nonzeros of t as well,
and the block traces of the Killing form are integers, and the engine
reads nothing else.  It expands them once into the exact Laurent terms
(:meth:`ReducedRicci.terms`) that the counts solve, and its float Ricci
coefficients and scalar curvature ``tr(A^-1 Ric)``, which certify every
solution of ``solve`` and which the check suite compares against the frame
route, are sums of those same terms.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .algebra import _coo_sums, _coo_transform, _coo_values, _row_entries
from .errors import NoExactCount
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

# a block sum or Killing trace is an integer to this share of its array's largest
_INTEGER_RTOL = 1e-12


def frame_structure(frame):
    """Structure constants of the bracket over a metric-orthonormal frame.

    Parameters
    ----------
    frame : Frame

    Returns
    -------
    ndarray
        ``T[a, b, c] = g([F_a, F_b]_m, F_c)``, a d^3 array, which is
        antisymmetric in the first two slots.  The last slot is lowered with
        the metric itself, so T is fully antisymmetric exactly when the
        metric is naturally reductive.

    No report reads T: :func:`curvature` contracts its sums without it, and
    the tests compare those sums with this T.  The middle and last slots are
    contracted first, over the nonzeros of t alone, per first index i:
    ``X[i] = sum_{j,k} t[i,j,k] V[j,:]^T W[k,:]``, ``W = V^-T``, is one
    product of the columns ``t V[j, :]`` of i's nonzeros with their rows of
    W.  The first slot is then one matrix product with ``V^T``.
    """
    d = frame.metric.space.tangent_dim
    V, W = frame.vectors, frame.inverse.T
    I, J, K, t = frame.metric.space.structure
    X = np.zeros((d, d, d))
    for h, at in _per_key(I, d):
        X[h] = (V[J[at]].T * t[at]) @ W[K[at]]
    return (V.T @ X.reshape(d, -1)).reshape(d, d, d)


def _per_key(key, d):
    """The nonzeros of t per value h of one of its index arrays, as ``(h, at)``
    with ``at`` their positions in :attr:`~einflag.invariant.MetricSpace.structure`;
    the values that no nonzero takes are left out."""
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key, np.arange(d + 1), sorter=order).tolist()
    return [(h, order[lo:hi]) for h, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])) if hi > lo]


def _gram_sum(space, slots, P, R):
    """``M[x, h] = sum t[e] t[s] P[a_e, a_s] R[b_e, b_s]`` over the nonzeros e of t
    with ``key_e = x`` and s with ``key_s = h``.

    ``slots = (key, a, b)`` are three index arrays of ``structure``.
    Column h is ``Y = (P[:, a_s] t_s) @ R[b_s, :]`` over the nonzeros s of
    key h, one ``(d, s) x (s, d)`` product, gathered at ``(a_e, b_e)`` for
    every nonzero e and summed per ``key_e``; so the largest array is d x d.
    """
    d = space.tangent_dim
    key, a, b = slots
    t = space.structure[3]
    flat = a * d + b
    M = np.zeros((d, d))
    for h, at in _per_key(key, d):
        Y = (P[:, a[at]] * t[at]) @ R[b[at]]
        M[:, h] = np.bincount(key, weights=t * Y.take(flat), minlength=d)
    return M


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

    A report of the canonical frame is given ``ricci`` and
    ``ricci_tangent`` as their structural entries, ``(keys, values, d)``;
    each is scattered into a read-only d x d array at its first read and
    kept (:class:`_Form`), so a caller that reads neither makes no d x d
    array.  A form given as an array, as by the explicit-frame route or by
    ``dataclasses.replace``, is kept as it is.
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


class _Form:
    """A d x d form of a :class:`CurvatureReport`, a data descriptor.

    The value the report is built with is kept in its ``__dict__`` under
    the field's name; entries ``(keys, values, d)`` are replaced by their
    :func:`_scatter`, made read-only, at the first read.
    """

    def __init__(self, name):
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            return self
        value = report.__dict__[self.name]
        if isinstance(value, tuple):
            value = _scatter(*value)
            value.setflags(write=False)
            report.__dict__[self.name] = value
        return value

    def __set__(self, report, value):
        # only the dataclass's __init__ gets here, by object.__setattr__; the
        # frozen __setattr__ refuses every later assignment
        report.__dict__[self.name] = value


# set once the dataclass has read its fields, so that each keeps repr=False
CurvatureReport.ricci = _Form("ricci")
CurvatureReport.ricci_tangent = _Form("ricci_tangent")


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
    pattern, t = plan.structure
    T = _coo_sums(pattern, t, (v, v, w[plan.transpose[0]]))
    left, right, at = plan.quads
    quads = np.bincount(at, weights=T[left] * T[right], minlength=2 * n)
    pattern, killing = plan.killing
    K = _coo_sums(pattern, killing, (v, v))
    ric = -0.5 * quads[:n] + 0.25 * quads[n:] - 0.5 * K
    # the plan's entries that are zero at this metric would change how BLAS
    # blocks the dot product, and with it its rounding
    T = T[T != 0]
    return ric, float(T @ T), K[plan.ricci[1]].sum()


def _dense_terms(frame):
    """The frame sums of the Ricci formula in an explicit frame, without T.

    Returns ``sum_{b,c} T[a,b,c] T[a',b,c] = V^T M V``, ``sum_{a,b} T[a,b,c]
    T[a,b,c'] = W^T N W`` and ``sum T^2 = <M, P>``, with M and N the
    :func:`_gram_sum` of the frame's Gram matrices ``P = V V^T`` and ``R = W
    W^T``, keyed on the first and on the last index of t.
    """
    space = frame.metric.space
    I, J, K, _ = space.structure
    V, W = frame.vectors, frame.inverse.T
    P = V @ V.T
    M = _gram_sum(space, (I, J, K), P, W @ W.T)
    quad_out, square = V.T @ M @ V, float(np.vdot(M, P))
    del M  # before N is built: one d x d array less at the peak
    N = _gram_sum(space, (K, I, J), P, P)
    return quad_out, W.T @ N @ W, square


def curvature(metric, frame=None):
    """Full curvature report of an invariant metric.

    Parameters
    ----------
    metric : InvariantMetric
    frame : Frame, optional
        A metric-orthonormal frame to evaluate in.  Defaults to the
        canonical eigenframe, which is evaluated over the nonzeros of the
        structure tensor by the frame's
        :class:`~einflag.invariant.FramePlan`, with no d x d array: every
        scalar and the coefficients are summed over the structural entries
        of ``ricci`` and ``ricci_tangent``, and the two forms are scattered
        from those entries when they are first read.  An explicit frame is
        dense; its sums are contracted through its Gram matrices ``V V^T``
        and ``W W^T`` (:func:`_dense_terms`), in ``O(d^2 nnz + d^3)`` with
        a few d x d arrays and no T.  Any metric-orthonormal frame must give
        the same tangent-coordinate Ricci form, which the verification
        suite exploits.  Either way ``einstein_defect`` is the Frobenius
        norm of ``ricci - c I``, with c taken off the diagonal entries
        alone.

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
        keys, on_diagonal = plan.ricci
        # W = V^-1 from the frame's plan, over the structural entries of ric
        tangent = _coo_values(plan.tangent, entries, (w, w))
        rows, norms = plan.operators
        coeffs = rows @ tangent / norms
        ric, ric_tan = (keys, entries, d), (plan.tangent[3], tangent, d)
        flat = entries
    else:
        quad_out, quad_in, square = _dense_terms(frame)
        K = frame.vectors.T @ space.killing @ frame.vectors
        ric = -0.5 * quad_out + 0.25 * quad_in - 0.5 * K
        killing_trace = np.trace(K)
        ric_tan = frame.inverse.T @ ric @ frame.inverse
        coeffs = _form_coefficients(space, ric_tan)
        flat, on_diagonal = ric.reshape(-1), slice(None, None, d + 1)

    diag = flat[on_diagonal].copy()
    scalar = float(diag.sum())
    scalar_direct = float(-0.25 * square - 0.5 * killing_trace)
    c = scalar / d
    # the norm of ric - c I over ric's entries, with c taken off the diagonal
    # ones and the diagonal put back after, so that no second array is made
    flat[on_diagonal] = diag - c
    defect = math.sqrt(flat.dot(flat))  # as np.linalg.norm takes it
    flat[on_diagonal] = diag
    normalized = c * float(volume_root(space, metric.spectrum))

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
    I, J, K, t = metric.space.structure
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
    for cols in report.metric.space.slices:
        vals = diag[cols]
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
    coo = space.structure
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


def _integers(values, what):
    """The array as exact integers; an entry that is not finite, or is off one by
    over ``_INTEGER_RTOL`` of the largest, raises :class:`NoExactCount` naming it."""
    values = np.asarray(values, dtype=float)
    rounded, finite = np.rint(values), np.isfinite(values)
    scale = np.max(np.abs(values[finite]), initial=0.0)
    bad = ~finite | (np.abs(values - rounded) > _INTEGER_RTOL * scale)
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), values.shape)
        index = ", ".join(str(i) for i in at)
        raise NoExactCount(f"{what}[{index}] = {float(values[at])!r} is no integer")
    return rounded.astype(np.int64)


class ReducedRicci:
    """Ricci coefficients of an invariant metric straight from its coefficients.

    The metric-space operators are sums of elementary blocks ``E = (u, v,
    M)``, ``M`` from summand u to summand v: the identity on a summand, and
    ``B0``, ``B0^T`` between the summands of a pair.  Write ``A = sum_a
    alpha_a E_a`` and ``A^-1 = sum_a eta_a E_a`` (1/x on an unpaired
    summand, a 2x2 inverse on a pair), alpha_a and eta_a the coefficients of
    the operator of block a.  With the block sums ``G[a,b,c] = sum t[i,j,k]
    E_a[i,I] E_b[j,J] E_c[k,K] t[I,J,K]`` and the block Killing traces
    ``k_a = <killing, E_a>``, the Ricci coefficient on the operator O_r is

        rho_r = 1/|O_r|^2 sum_{e in O_r} ( -1/2 sum_{b,c} G[e,b,c] eta_b alpha_c
                  + 1/4 sum_{c,f} alpha_c alpha_f H[E_c E_e E_f] - 1/2 k_e ),
        H[g]  = sum_{a,b} G[a,b,g] eta_a eta_b;

    a product of blocks is a block where each meets the next in a summand
    (``B0^T B0 = I``) and vanishes otherwise.  Every G and k is checked,
    once, to be an integer and kept as one (:func:`_integers`).  The build
    expands these sums exactly into the terms of :meth:`terms`, and the
    scalar curvature ``tr(A^-1 Ric) = sum_r h_r rho_r |O_r|^2`` into one
    more; both outputs sum those terms in floats, so the engine evaluates
    the very polynomials that the exact counts solve.
    """

    def __init__(self, space):
        self.n_sub = s = space.n_sub
        self.dim = n = space.dim
        # the summands (i, j) of each equivalent pair, in pair order
        self.pairs = tuple((i, j) for i, j, _ in space.pairs)
        self._pi, self._pj = np.array(self.pairs, dtype=int).reshape(-1, 2).T
        # elementary blocks (row summand, column summand, matrix or None for
        # the identity) and the operator of each
        blocks = [(i, i, None) for i in range(s)]
        for i, j, B0 in space.pairs:
            blocks += [(j, i, B0), (i, j, B0.T)]
        op = np.r_[np.arange(s), np.repeat(np.arange(s, n), 2)].tolist()
        sl, K = space.slices, space.killing
        self._G = _integers(_block_sums(space, blocks), "block sum G")
        self._k = _integers(
            [np.trace(K[sl[u], sl[v]]) if M is None else np.sum(K[sl[u], sl[v]] * M)
             for u, v, M in blocks],
            "block Killing trace k",
        )
        norms = np.bincount(op, weights=[sl[u].stop - sl[u].start for u, _, _ in blocks])
        # h_q = sign[q] z^power[q], the coefficient of A^-1 on the operator q
        # over z = (coefficients, pair determinants) (see terms)
        p = len(self.pairs)
        eye = np.eye(n + p, dtype=int)
        sign, power = np.where(np.arange(n) < s, 1, -1), -eye[:n]
        power[s:] = eye[s:n] - eye[n:]
        for k, (i, j) in enumerate(self.pairs):
            power[i], power[j] = eye[j] - eye[n + k], eye[i] - eye[n + k]
        eta, alpha = power[op], eye[op]
        # the numerators of rho_r over 4 |O_r|^2, Killing term first, and H[g]
        top = [defaultdict(int, {(0,) * (n + p): -2 * int(v)})
               for v in np.bincount(op, weights=self._k)]
        H, signs = [defaultdict(int) for _ in op], sign[op].tolist()
        for (a, b, c), v in zip(np.argwhere(self._G).tolist(), self._G[self._G != 0].tolist()):
            top[op[a]][tuple(eta[b] + alpha[c])] -= 2 * signs[b] * v
            H[c][tuple(eta[a] + eta[b])] += signs[a] * signs[b] * v
        where = {(u, v): a for a, (u, v, _) in enumerate(blocks)}
        # the rows (c, f, g, e) of E_c E_e E_f = E_g
        chain = [(c, f, where[uc, vf], e)
                 for e, (ue, ve, _) in enumerate(blocks)
                 for c, (uc, vc, _) in enumerate(blocks) if vc == ue
                 for f, (uf, vf, _) in enumerate(blocks) if uf == ve]
        for c, f, g, e in chain:
            for key, v in H[g].items():
                top[op[e]][tuple(np.add(key, alpha[c] + alpha[f]))] += v
        self._terms = terms = tuple(
            MappingProxyType(
                {tuple(map(int, e)): Fraction(v, 4 * int(N)) for e, v in poly.items() if v}
            )
            for poly, N in zip(top, norms)
        )
        # each term of rho_r is one row of the Ricci table, weighted into rho_r,
        # and one of the scalar table, times h_r |O_r|^2, since the operators are
        # symmetric and mutually Frobenius orthogonal; per entry of z, a table
        # holds the distinct exponents and the place of each row's among them
        slot = np.repeat(np.arange(n), [len(poly) for poly in terms])
        keys = np.array([e for poly in terms for e in poly], dtype=int).reshape(-1, n + p)
        coef = np.array([float(c) for poly in terms for c in poly.values()])
        tables = (
            (keys, (slot[:, None] == np.arange(n)) * coef[:, None]),
            (keys + power[slot], sign[slot] * norms[slot] * coef),
        )
        self._ricci, self._scalar = (
            ([np.unique(e, return_inverse=True) for e in E.T], W) for E, W in tables
        )

    def _sum(self, coeffs, columns, weights):
        """The terms of a table summed at a ``(..., n)`` stack: each distinct
        power of an entry of z is taken once, and each term gathers its own."""
        c = np.asarray(coeffs, dtype=float)
        det = c[..., self._pi] * c[..., self._pj] - c[..., self.n_sub:] ** 2
        z = np.concatenate([c, det], axis=-1)
        monomials = 1.0
        for v, (powers, place) in enumerate(columns):
            monomials = monomials * (z[..., v, None] ** powers)[..., place]
        return monomials @ weights

    def __call__(self, coeffs):
        """Ricci-form coefficients, equal to ``curvature(metric).coefficients``,
        of one coefficient vector or a ``(..., n)`` stack, in the same shape."""
        return self._sum(coeffs, *self._ricci)

    def terms(self):
        """The Ricci coefficients as exact Laurent polynomials.

        With ``det_k = x_i x_j - b_k^2`` for the k-th pair ``(i, j)``, eta is
        a signed monomial: ``1 / x_q`` on an unpaired summand q, ``x_j /
        det_k`` and ``x_i / det_k`` on the summands i and j of a pair, and
        ``-b_k / det_k`` on its mixing slot.  Returns one read-only ``{e:
        c}`` per coefficient, built once from G and k alone: ``e`` holds n +
        p integer exponents (the coefficients, then the determinants) and
        ``c`` is a nonzero ``Fraction``.
        """
        return self._terms

    def scalar(self, coeffs):
        """Scalar curvature ``tr(A^-1 Ric)``, equal to ``curvature(metric).scalar``;
        ``(..., n)`` in, ``(...)`` out."""
        return self._sum(coeffs, *self._scalar)


@lru_cache(maxsize=None)
def reduced_ricci(spec):
    """The :class:`ReducedRicci` engine of one flag, built once per process."""
    return ReducedRicci(metric_space(spec))
