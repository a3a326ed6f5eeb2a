"""The Schur certificate on the eigenspaces of ``X^2``, kept as a test oracle.

This is the route :func:`einflag.invariant.metric_space` took before it moved
to the simple-spectrum probe ``P = XY + YX + Z``: each summand is
diagonalised on the square of the first probe X, whose spectrum is doubled
because X is skew, and every block's constraint Gram is summed one probe at
a time.  :func:`certificate` has the signature of
``einflag.schur._schur_certificate`` and records no margin;
:func:`metric_space` builds a flag's space with it in place of the
package's certificate.  The tests compare the two.
"""

from unittest import mock

import numpy as np

from einflag import invariant


def x2_blocks(probes, slices):
    """``(lam, U, gens)`` per summand: the eigen-decomposition of X^2 on it and
    the probes in that eigenbasis."""
    blocks = []
    for sl in slices:
        X = probes[0][sl, sl]
        lam, U = np.linalg.eigh(X @ X)
        blocks.append((lam, U, [U.T @ G[sl, sl] @ U for G in probes]))
    return blocks


def block_hom(block_i, block_j, tol):
    """Orthonormal basis of the maps T: m_i -> m_j with T G_i = G_j T per probe.

    A block is ``(lam, U, gens)``: the eigen-decomposition of X^2 on the
    summand and the probes in that eigenbasis.  T sends each eigenspace of
    X_i^2 to the one of X_j^2 with the same eigenvalue, so the unknowns are
    the entries of ``U_j^T T U_i`` at eigenvalues matched within ``tol``.  The
    Gram matrix of the constraints is summed one probe at a time.
    """
    lam_i, U_i, gens_i = block_i
    lam_j, U_j, gens_j = block_j
    a, b = np.nonzero(np.abs(lam_j[:, None] - lam_i[None, :]) <= tol)
    gram = np.zeros((a.size, a.size))
    norm = 0.0
    for Gi, Gj in zip(gens_i, gens_j):
        gb, ga = Gi[np.ix_(b, b)], Gj[np.ix_(a, a)]
        gram += (a[:, None] == a) * (Gi @ Gi.T)[np.ix_(b, b)]
        gram += (b[:, None] == b) * (Gj.T @ Gj)[np.ix_(a, a)]
        gram -= ga * gb + ga.T * gb.T
        norm += np.sum(Gi * Gi) + np.sum(Gj * Gj)
    w, v = np.linalg.eigh(gram)
    maps = []
    for vec in v[:, w <= 1e-9 * norm].T:
        T = np.zeros((lam_j.size, lam_i.size))
        T[a, b] = vec
        maps.append(U_j @ T @ U_i.T)
    return maps


def certificate(probes, slices):
    """``(found, homs, None)`` as ``einflag.schur._schur_certificate`` returns
    them, on the X^2 eigenspaces."""
    blocks = x2_blocks(probes, slices)
    tol = 1e-8 * max(np.max(np.abs(lam)) for lam, _, _ in blocks)
    homs = {}
    found = 0
    for i in range(len(slices)):
        for j in range(i, len(slices)):
            maps = block_hom(blocks[i], blocks[j], tol)
            if i < j:
                homs[i, j] = maps
                found += len(maps)
            elif maps:
                sym = np.array([(T + T.T).ravel() for T in maps])
                found += int(np.sum(np.linalg.svd(sym, compute_uv=False) > 1e-6))
    return found, homs, None


def metric_space(spec):
    """A flag's metric space built cold, certified on the X^2 eigenspaces: the
    certificate is replaced where :func:`einflag.invariant.metric_space`
    looks it up."""
    with mock.patch.object(invariant, "_schur_certificate", certificate):
        return invariant.metric_space.__wrapped__(spec)
