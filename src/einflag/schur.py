"""The Schur certificate of the dimension of a flag's metric space.

Three probes stand in for the generators of the isotropy action: two random
combinations X, Y of the isotropy reps and one Z of the sign actions, drawn
from a fixed seed.  Each summand is diagonalised on the symmetric probe
``P = XY + YX + Z``.  A map T with ``T G_i = G_j T`` for every probe sends
each eigenspace of ``P_i`` to the one of ``P_j`` with the same eigenvalue, so
only the entries of T between matched eigenvalues are unknowns.  P's
spectrum is simple on every real-type summand met so far: a summand of
dimension d_u then carries d_u unknowns, and their constraint Gram is a
weighted Laplacian.  A summand of complex type keeps a doubled spectrum and
2 d_u unknowns, on the same path.  The null space of each Gram, cut at 1e-9
of its block's norm, counts ``dim Sym End(m_i)`` on each summand and ``dim
Hom(m_i, m_j)`` on each pair; the Gram eigenvalues nearest the cut on either
side are its margin.
"""

import numpy as np
from numpy.random import default_rng


def _probes(reps, signs, d):
    """Two random combinations X, Y of the isotropy reps and one Z of the
    signs, as one ``(3, d, d)`` stack."""
    rng = default_rng(0)
    x, y = rng.standard_normal(reps.count), rng.standard_normal(reps.count)
    z = rng.standard_normal(signs.count)
    key = reps.row * d + reps.col
    at = np.r_[key, key + d * d, signs.row * d + signs.col + 2 * d * d]
    w = np.r_[x[reps.gen] * reps.value, y[reps.gen] * reps.value, z[signs.gen] * signs.value]
    return np.bincount(at, weights=w, minlength=3 * d * d).reshape(3, d, d)


def _probe_block(G):
    """``(lam, U, gens, sq)`` of one summand, from the ``(3, d_u, d_u)`` stack
    of its probe blocks.

    ``lam, U`` is the eigen-decomposition of the symmetric probe ``P = XY +
    YX + Z`` on the summand, ``gens`` the stack in P's eigenbasis, and
    ``sq = sum_p G_p^T G_p`` over it.  Each probe is skew or symmetric, so
    normal, and ``sq`` is also ``sum_p G_p G_p^T``; its trace is the
    squared norm of the stack.
    """
    X, Y, Z = G
    XY = X @ Y
    lam, U = np.linalg.eigh(XY + XY.T + Z)
    gens = U.T @ G @ U
    flat = gens.reshape(-1, lam.size)
    return lam, U, gens, flat.T @ flat


def _block_hom(block_i, block_j, tol):
    """The maps T: m_i -> m_j with T G_i = G_j T per probe, in the probes'
    eigenbases, and the margin of their null-space cut.

    A block is a :func:`_probe_block`.  T commutes with the probes, so it
    sends each eigenspace of ``P_i`` to the one of ``P_j`` with the same
    eigenvalue: the unknowns are the entries ``(a, b)`` of ``U_j^T T U_i``
    at eigenvalues matched within ``tol``, one per eigenvalue where both
    spectra are simple, none between inequivalent summands.  The Gram
    matrix of the constraints is gathered from the blocks' ``sq`` and the
    stacked probes at once.  Returns ``(a, b, null, margin)``: the columns
    of ``null`` are an orthonormal basis of the solutions over the
    unknowns, and the margin is ``(zero, nonzero)``, the largest Gram
    eigenvalue counted as zero and the smallest counted as nonzero,
    relative to the norm of the probe blocks (0 and inf where there are
    none).
    """
    lam_i, _, G_i, sq_i = block_i
    lam_j, _, G_j, sq_j = block_j
    a, b = np.nonzero(np.abs(lam_j[:, None] - lam_i) <= tol)
    if a.size == 0:
        return a, b, np.zeros((0, 0)), (0.0, np.inf)
    A, B = a[:, None], b[:, None]
    cross = np.einsum("pkl,pkl->kl", G_j[:, A, a], G_i[:, B, b])
    gram = (A == a) * sq_i[B, b] + (B == b) * sq_j[A, a] - cross - cross.T
    norm = sq_i.trace() + sq_j.trace()
    # the eigenvalues come ascending, so the zeros are a prefix
    w, v = np.linalg.eigh(gram)
    k = int(np.searchsorted(w, 1e-9 * norm, side="right"))
    zero = max(abs(w[0]), abs(w[k - 1])) / norm if k else 0.0
    nonzero = w[k] / norm if k < w.size else np.inf
    return a, b, v[:, :k], (float(zero), float(nonzero))


def _schur_certificate(probes, slices):
    """Schur's lemma block by block against the ``(3, d, d)`` probe stack.

    Returns ``(found, homs, margin)``: ``dim Sym End(m_i)`` summed over the
    summands, an orthonormal basis of the maps of :func:`_block_hom` for
    each pair ``i < j`` that has any, and the worst margin over every
    block's cut.  The symmetric parts ``T + T^T`` of the maps on a summand
    are counted in its eigenbasis, which is orthonormal, so their singular
    values are those of the maps themselves.
    """
    blocks = [_probe_block(probes[:, sl, sl]) for sl in slices]
    # each spectrum is sorted, so its extremes are its ends
    tol = 1e-8 * max(max(-lam[0], lam[-1]) for lam, *_ in blocks)
    homs = {}
    found = 0
    zero, nonzero = 0.0, np.inf
    for i, (lam_i, U_i, _, _) in enumerate(blocks):
        for j in range(i, len(blocks)):
            a, b, null, (z, nz) = _block_hom(blocks[i], blocks[j], tol)
            zero, nonzero = max(zero, z), min(nonzero, nz)
            if not null.shape[1]:
                continue
            if i < j:
                lam_j, U_j = blocks[j][:2]
                T = np.zeros((null.shape[1], lam_j.size, lam_i.size))
                T[:, a, b] = null.T
                homs[i, j] = list(U_j @ T @ U_i.T)
                found += len(T)
            elif np.array_equal(a, b):
                # every unknown is diagonal, so each map is symmetric
                found += null.shape[1]
            else:
                n = lam_i.size
                mirror = np.searchsorted(a * n + b, b * n + a)
                sym = null + null[mirror]
                found += int((np.linalg.svd(sym, compute_uv=False) > 1e-6).sum())
    return found, homs, (zero, nonzero)
