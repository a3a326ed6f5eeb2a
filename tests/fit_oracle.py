"""The operator-level reduced Ricci engine and its rational fit, kept as a test oracle.

``ReducedRicci`` now builds its exact Laurent terms from the integer block
sums of the structure constants, and its float evaluation sums those terms.
This module is the route it replaced: the block sums lifted to the operator
tensors ``M1`` and ``M2`` (an n^5 einsum), the quadratic term packed over
the upper triangle of the products ``h_q c_p``, and ``terms()`` returning
float rows that :func:`_ricci_terms` fits to rationals of denominator at
most ``_MAX_DENOMINATOR`` (:func:`_fit`).  The tests compare the package's
engine and exact terms against it.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from einflag.curvature import _block_sums
from einflag.errors import NoExactCount

# an engine entry is zero below, and must match its rational to, this
# fraction of the largest entry of its array
_FIT_RTOL = 1e-12
_MAX_DENOMINATOR = 1000


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


def _fit(rows, what):
    """The entries of one engine array, given as rows of floats, as rationals."""
    flat = [v for row in rows for v in row]
    if not all(math.isfinite(v) for v in flat):
        raise NoExactCount(f"{what} has an entry that is not finite")
    tol = _FIT_RTOL * max((abs(v) for v in flat), default=0.0)

    def rational(v):
        if abs(v) <= tol:
            return Fraction(0)
        q = Fraction(v).limit_denominator(_MAX_DENOMINATOR)
        if abs(float(q) - v) > tol:
            raise NoExactCount(
                f"{what} entry {v!r} is no rational of denominator at most "
                f"{_MAX_DENOMINATOR}"
            )
        return q

    return [[rational(v) for v in row] for row in rows]


def _ricci_terms(engine):
    """The Ricci coefficients of an engine as exact Laurent polynomials.

    One dict ``{e: c}`` per coefficient, over the exponents of
    :meth:`~einflag.curvature.ReducedRicci.terms`: the n metric
    coefficients, then one pair determinant ``x_i x_j - b^2`` per pair.
    """
    linear, quadratic, killing = engine.terms()
    terms = []
    for group, what in ((linear, "M1"), (quadratic, "the quadratic term")):
        terms += zip([e for e, _ in group], _fit([row for _, row in group], what))
    (kappa,) = _fit([killing], "the Killing term")
    width = engine.dim + len(engine.pairs)
    ricci = [{(0,) * width: kappa[r]} for r in range(engine.dim)]
    for e, row in terms:
        for r, c in enumerate(row):
            if c:
                ricci[r][e] = ricci[r].get(e, 0) + c
    return ricci
