"""Dense and padded forms of the sparse contractions, kept as test oracles.

Each function here is the form the package computed before it moved to the
nonzeros of the structure tensor or to a planned report: the structure tensor
scattered from ``MetricSpace.structure``, its nonzeros, into a d^3 array, the
full d^3 einsum of the frame structure constants, the block sums of the
reduced engine from dense slices of that array, the transform of a coordinate
list with every map row padded to the longest one, and the canonical-frame
report with its index work redone per call and its frame products dense.
The family pairing of ambient matrices in its three-branch form, a dense
trace product per family, is kept here too, against the package's pairing
table and its join of entries, and so is the algebra basis as dense matrices
built from the family rules, against the package's list of entries.  The
tests compare the package against them.
"""

import numpy as np

from einflag.algebra import _coo_transform, _coo_values, _row_entries
from einflag.curvature import _form_coefficients
from einflag.invariant import _UNMIXED, volume_root


def dense_structure(space):
    """The d^3 array ``t[a, b, c] = g0([a, b], c)`` scattered from ``space.structure``."""
    d = space.tangent_dim
    I, J, K, V = space.structure
    t = np.zeros((d, d, d))
    t[I, J, K] = V
    return t


def frame_structure(frame):
    """``T[a, b, c] = g([F_a, F_b]_m, F_c)`` by two dense einsums over t."""
    V = frame.vectors
    W = np.linalg.inv(V)
    t = dense_structure(frame.metric.space)
    mid = np.einsum("ia,jb,ijk->abk", V, V, t, optimize=True)
    return np.einsum("abk,ck->abc", mid, W, optimize=True)


def dense_terms(frame):
    """The two quadratic sums of the Ricci formula and ``sum T^2`` from the full T."""
    T = frame_structure(frame)
    return (
        np.einsum("aic,bic->ab", T, T, optimize=True),
        np.einsum("ija,ijb->ab", T, T, optimize=True),
        float(np.einsum("abc,abc->", T, T)),
    )


def block_sums(space, blocks):
    """``G[a, b, c]`` of :class:`~einflag.curvature.ReducedRicci` from dense slices of t."""
    t = dense_structure(space)
    sl = space.slices
    m = len(blocks)
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
    return G


def padded_rows(entries):
    """CSR row entries ``(start, cols, vals)`` padded to ``(rows, k)`` arrays.

    k is the largest row count; the slots a shorter row leaves over hold
    column 0 and value 0.
    """
    start, cols, vals = entries
    counts = np.diff(start)
    k = int(counts.max(initial=0))
    slot = np.arange(cols.size) - np.repeat(start[:-1], counts)
    row = np.repeat(np.arange(counts.size), counts)
    pc, pv = np.zeros((counts.size, k), dtype=np.int64), np.zeros((counts.size, k))
    pc[row, slot], pv[row, slot] = cols, vals
    return pc, pv


def padded_transform(coo, maps, d, budget=1 << 22):
    """The padded ``_coo_transform``: every entry times the longest rows of P, Q, R.

    ``maps`` are CSR row entries, as the package passes them.  The entries
    are expanded in chunks of at most ``budget`` products each, and the
    chunk sums are summed per key, so that a large padding stays in bounded
    memory.
    """
    I, J, K, V = coo
    (ca, va), (cb, vb), (cc, vc) = (padded_rows(m) for m in maps)
    width = max(1, ca.shape[1] * cb.shape[1] * cc.shape[1])
    step = max(1, budget // width)
    keys, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for lo in range(0, len(V), step):
        at = slice(lo, lo + step)
        i, j, k = I[at], J[at], K[at]
        key = (
            (ca[i][:, :, None, None] * d + cb[j][:, None, :, None]) * d
            + cc[k][:, None, None, :]
        )
        val = (
            V[at][:, None, None, None]
            * va[i][:, :, None, None]
            * vb[j][:, None, :, None]
            * vc[k][:, None, None, :]
        )
        keep = val != 0
        chunk, inv = np.unique(key[keep], return_inverse=True)
        keys.append(chunk)
        vals.append(np.bincount(inv, weights=val[keep], minlength=chunk.size))
    keys, inv = np.unique(np.concatenate(keys), return_inverse=True)
    value = np.bincount(inv, weights=np.concatenate(vals), minlength=keys.size)
    return keys // (d * d), keys // d % d, keys % d, value


def pair_sum(group, index, value, d):
    """``S[index[x], index[y]] += value[x] value[y]`` over x, y of one group.

    The entries are sorted by ``group``; every entry is paired with each
    entry of its group, itself included, and the products are scattered
    into a d x d array.
    """
    if group.size == 0:
        return np.zeros((d, d))
    order = np.argsort(group, kind="stable")
    group, index, value = group[order], index[order], value[order]
    edge = np.ones(group.size + 1, dtype=bool)
    edge[1:-1] = group[1:] != group[:-1]
    bounds = np.flatnonzero(edge)
    sizes = bounds[1:] - bounds[:-1]
    # entry x pairs with the n[x] entries of its group, which start at s[x]
    n, s = sizes.repeat(sizes), bounds[:-1].repeat(sizes)
    left = np.arange(group.size).repeat(n)
    right = np.arange(left.size) - (n.cumsum() - n - s).repeat(n)
    return np.bincount(
        index[left] * d + index[right],
        weights=value[left] * value[right],
        minlength=d * d,
    ).reshape(d, d)


def sparse_terms(space, V, W):
    """The two quadratic sums of the Ricci formula and ``sum T^2``, T from the nonzeros of t.

    T is expanded from the nonzeros of t through those of ``V``, ``V`` and
    ``W = V^-1``.
    """
    d = space.tangent_dim
    rows = _row_entries(V)
    a, b, c, T = _coo_transform(space.structure, (rows, rows, _row_entries(W.T)), d)
    return pair_sum(b * d + c, a, T, d), pair_sum(a * d + b, c, T, d), float(T @ T)


def canonical_report(metric):
    """The fields of ``curvature(metric)`` by :func:`sparse_terms` and dense frame products.

    ``V^T A``, ``V^T K V`` and ``W^T ric W`` are d x d matrix products.
    """
    space = metric.space
    d = space.tangent_dim
    V = orthonormal_frame(metric)[0]
    # V^T A V = I, so this is V^-1 with the zeros of V^T kept exact
    W = V.T @ metric.matrix
    quad_out, quad_in, square = sparse_terms(space, V, W)
    K = V.T @ space.killing @ V
    ric = -0.5 * quad_out + 0.25 * quad_in - 0.5 * K
    scalar = float(np.trace(ric))
    c = scalar / d
    ric_tan = W.T @ ric @ W
    return {
        "ricci": ric,
        "ricci_tangent": ric_tan,
        "coefficients": _form_coefficients(space, ric_tan),
        "scalar": scalar,
        "scalar_direct": float(-0.25 * square - 0.5 * np.trace(K)),
        "einstein_constant": c,
        "einstein_defect": float(np.linalg.norm(ric - c * np.eye(d))),
        "normalized_constant": c * float(volume_root(space, metric.spectrum)),
    }


REPORT_FIELDS = (
    "ricci",
    "ricci_tangent",
    "coefficients",
    "scalar",
    "scalar_direct",
    "einstein_constant",
    "einstein_defect",
    "normalized_constant",
)

# the report sums its coefficients and its defect over the plan's entries,
# and the oracle over every d x d position, so the two dot products are
# blocked, and rounded, differently: they agree to this share of the
# oracle's largest value
SUMMED_RTOL = 1e-14


def report_mismatches(report, want, frac):
    """The fields of a canonical ``report`` that break their rule against
    :func:`canonical_report`'s ``want``, as ``(name, gap, bound)``, a bound
    of 0 for a field that must agree bit for bit.

    ``frac`` is the mixing of the metric's pairs relative to ``sqrt(x_i
    x_j)``: None without a pair, else 0.0, 1e-15 or a mixed value.  Where
    every entry is a single product -- no pair, or b = 0 -- both routes
    round the forms and the scalars alike and agree bit for bit.  At b =
    1e-15 the frame is still diagonal but A carries the B0 blocks:
    ``ricci_tangent`` differs from BLAS's fused multiply-add only on its
    O(b) two-term entries, within 1e-27 of its largest, far below the 1e-14
    a plan without those blocks misses by, and every other form and scalar
    agrees bit for bit.  Mixed b agrees to 1e-14.  The coefficients and the
    defect are held to :data:`SUMMED_RTOL` in every case.
    """
    out = []
    for name in REPORT_FIELDS:
        g, w = np.asarray(getattr(report, name)), np.asarray(want[name])
        if name in ("coefficients", "einstein_defect"):
            rtol = SUMMED_RTOL
        elif frac in (None, 0.0) or (frac == 1e-15 and name != "ricci_tangent"):
            rtol = 0.0
        else:
            rtol = 1e-27 if frac == 1e-15 else 1e-14
        gap, bound = float(np.max(np.abs(g - w))), rtol * float(np.max(np.abs(w)))
        if not gap <= bound:
            out.append((name, gap, bound))
    return out


def orthonormal_frame(metric):
    """The canonical frame as a dense d x d matrix V, column by column, and
    ``(v, w)``: V's entries over the space's frame plan and ``W = V^T A``
    summed over the plan from them."""
    space = metric.space
    coeffs = metric.coeffs
    slices = space.slices
    n_sub = space.n_sub
    lam = metric.spectrum
    # each column starts as its basis vector scaled to unit g-length; the
    # columns of a mixed pair are replaced below
    V = np.diag(1.0 / np.sqrt(np.repeat(lam, [s.stop - s.start for s in slices])))

    for k, (i, j, B0) in enumerate(space.pairs):
        si, sj = slices[i], slices[j]
        xi, xj, b = coeffs[i], coeffs[j], coeffs[n_sub + k]
        di = si.stop - si.start
        if abs(b) < _UNMIXED:
            continue
        xi1, xi2 = lam[i], lam[j]
        delta = xi - xj
        gap = np.hypot(2.0 * b, delta)
        # eigenvector components chosen to avoid differencing near-equal
        # quantities: (alpha, beta) is (xi_k - xj, b) or (b, xi_k - xi),
        # whichever difference is the numerically large one
        if delta >= 0:
            a1, b1 = b, -(delta + gap) / 2.0  # xi1 - xi
            a2, b2 = (delta + gap) / 2.0, b  # xi2 - xj
        else:
            a1, b1 = (delta - gap) / 2.0, b  # xi1 - xj
            a2, b2 = b, (gap - delta) / 2.0  # xi2 - xi
        # with u the r-th basis vector of summand i, column r of summand i
        # is a1 u + b1 B0 u and of summand j a2 u + b2 B0 u, at unit g-length
        n1 = np.sqrt(xi1 * (a1 * a1 + b1 * b1))
        n2 = np.sqrt(xi2 * (a2 * a2 + b2 * b2))
        V[si, si], V[sj, si] = np.eye(di) * (a1 / n1), B0 * (b1 / n1)
        V[si, sj], V[sj, sj] = np.eye(di) * (a2 / n2), B0 * (b2 / n2)

    # W = V^T A over the plan, from A's nonzeros, every operator's support
    plan = space.frame_plan
    v = V.ravel()[plan.frame[0]]
    a_at = np.flatnonzero(np.any(space.operators != 0, axis=0))
    w = _coo_values(plan.inverse, metric.matrix.ravel()[a_at], (v, np.ones(len(V))))
    return V, v, w


def _trace_pairs(X, Y):
    """``tr(X Y)`` of every matrix of the stack X with every matrix of Y."""
    return np.inner(
        X.reshape(X.shape[:-2] + (-1,)), Y.swapaxes(-1, -2).reshape(Y.shape[:-2] + (-1,))
    )


def ambient_inner_matrices(model, X, Y):
    """Family inner product of ambient matrices, by dense traces per family.

    ``X`` and ``Y`` are matrices or stacks of them, shaped ``(..., N, N)``;
    as with ``np.inner``, every matrix of X is paired with every matrix of
    Y, giving shape ``X.shape[:-2] + Y.shape[:-2]`` (a float for two
    matrices).
    """
    X, Y = np.asarray(X), np.asarray(Y)
    l = model.rank
    if model.family == "A":
        out = -max(l - 1, 1) * _trace_pairs(X, Y)
    elif model.family == "B":
        top = slice(1, l + 1)
        a, c = X[..., 0, top], Y[..., 0, top]
        A1, A2 = X[..., top, top], Y[..., top, top]
        B1, B2 = X[..., top, l + 1 :], Y[..., top, l + 1 :]
        out = np.inner(a, c) - (_trace_pairs(A1, A2) + _trace_pairs(B1, B2)) / 2.0
    else:
        A1, A2 = X[..., :l, :l], Y[..., :l, :l]
        B1, B2 = X[..., l:, :l], Y[..., l:, :l]
        sign = 1.0 if model.family == "C" else -1.0
        out = (sign * _trace_pairs(B1, B2) - _trace_pairs(A1, A2)) / 2.0
    return float(out) if out.ndim == 0 else out


def _basis(family, l):
    """``(label, matrix)`` of every basis element, from the family rules of
    the :mod:`einflag.algebra` docstring, one dense matrix each."""

    def E(n, i, j):
        M = np.zeros((n, n), dtype=np.int64)
        M[i - 1, j - 1] = 1
        return M

    if family == "A":
        pairs = [(i, j) for i in range(2, l + 2) for j in range(1, i)]
        return [(f"w({i},{j})", E(l + 1, i, j) - E(l + 1, j, i)) for i, j in pairs]
    first = 1 if family == "B" else 0
    N = first + 2 * l
    one, two = slice(first, first + l), slice(first + l, N)

    def blocks(rotation, X):
        # the rotation in both copies, X from copy one to copy two, -X^T back
        M = np.zeros((N, N), dtype=np.int64)
        M[one, one] = M[two, two] = rotation
        M[two, one], M[one, two] = X, -X.T
        return M

    zero = np.zeros((l, l), dtype=np.int64)
    out = []
    for k in range(1, l + 1):
        if family == "B":
            M = np.zeros((N, N), dtype=np.int64)
            M[[k, l + k], 0], M[0, [k, l + k]] = 1, -1
            out.append((f"v({k})", M))
        elif family == "C":
            out.append((f"u({k},{k})", blocks(zero, E(l, k, k))))
    s = 1 if family == "C" else -1
    pairs = [(i, j) for i in range(2, l + 1) for j in range(1, i)]
    out += [(f"w({i},{j})", blocks(E(l, i, j) - E(l, j, i), zero)) for i, j in pairs]
    out += [(f"u({i},{j})", blocks(zero, E(l, i, j) + s * E(l, j, i))) for i, j in pairs]
    return out


def basis_labels(family, rank):
    """The labels of :func:`basis_matrices`, in its order."""
    return [label for label, _ in _basis(family, rank)]


def basis_matrices(family, rank):
    """The basis of the compact algebra as an int64 ``(n, N, N)`` stack in
    label order, built from the family rules of the :mod:`einflag.algebra`
    docstring with no list of entries."""
    return np.array([M for _, M in _basis(family, rank)])
