"""The per-candidate equivalence screen in floats, kept as a test oracle.

``equivalence_screen`` pulls solutions back through per-flag coefficient
maps that :func:`einflag.einstein._witness_maps` builds exactly, as signed
permutations read off each candidate's integer action on the algebra basis.
This module is the float route those maps replaced: each candidate built as
a dense matrix from ``np.block``, its tangent action found one candidate at
a time by conjugating and expanding the tangent basis matrices
(:func:`_induced_tangent_map`), and each pull-back made by forming both
metric matrices and projecting (:func:`_pulled_coefficients`).
:func:`coefficient_maps` reads the coefficient map of each of its witnesses,
and :func:`oracle_screen` groups solutions through it, with the union-find
and tags of ``equivalence_screen``.
"""

import itertools

import numpy as np

from conftest import ambient_basis, expand_matrix
# metric_space is read off its module, so that a test's fresh memos reach it
from einflag import invariant
from einflag.curvature import _form_coefficients
from einflag.einstein import (
    CONSTANT_RTOL,
    _gauge,
    _matches,
)


def _block_ranges(part):
    """0-based ambient coordinates per partition block."""
    ends = np.cumsum(part).tolist()
    return [range(end - p, end) for p, end in zip(part, ends)]


def ambient_candidates(spec):
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


def _induced_tangent_map(space, O):
    """Tangent action of an ambient conjugation, or None if it breaks it.

    The candidate must map every tangent-basis matrix back into the span of
    the algebra basis and preserve the tangent subspace; the returned map is
    then orthogonal for the background metric.
    """
    model = space.spec.algebra
    g = float(space.spec.inner_scale) * model.gram
    Bw = space.basis * g
    mats = ambient_basis(model)
    d = space.tangent_dim
    images, residual = expand_matrix(model, O @ np.einsum("kc,cij->kij", space.basis, mats) @ O.T)
    # expand_matrix gives one residual per image
    if np.max(residual) > 1e-9:
        return None
    W = Bw @ images.T
    if np.max(np.abs(W.T @ W - np.eye(d))) > 1e-9:
        return None
    if np.max(np.abs(images - W.T @ space.basis)) > 1e-9:
        return None
    return W


def witness_maps(spec, candidates):
    """Deduplicated tangent isometry actions available for pullbacks."""
    space = invariant.metric_space(spec)
    maps = []
    seen = set()
    for O in candidates:
        W = _induced_tangent_map(space, O)
        if W is None:
            continue
        key = tuple(np.round(W, 8).ravel())
        if key in seen or np.max(np.abs(W - np.eye(space.tangent_dim))) < 1e-10:
            continue
        seen.add(key)
        maps.append(W)
    return tuple(maps)


def coefficient_maps(spec, candidates):
    """The coefficient map of each witness of ``candidates``, as int64 arrays.

    Column k expands ``W^T P_k W`` over the operators with
    ``_form_coefficients``, as :func:`_pulled_coefficients` does; every
    entry lies within 1e-9 of an integer, which it is rounded to.
    """
    space = invariant.metric_space(spec)
    maps = []
    for W in witness_maps(spec, candidates):
        L = np.array([_form_coefficients(space, W.T @ P @ W) for P in space.operators]).T
        assert np.max(np.abs(L - np.rint(L))) <= 1e-9, L
        maps.append(np.rint(L).astype(np.int64))
    return maps


def _pulled_coefficients(space, W, coeffs):
    A = space.metric_matrix(coeffs)
    Ap = W.T @ A @ W
    pulled = _form_coefficients(space, Ap)
    if np.max(np.abs(space.metric_matrix(pulled) - Ap)) > 1e-8 * (
        1 + np.max(np.abs(Ap))
    ):
        return None
    return _gauge(space, pulled)


def oracle_screen(spec, solutions, candidates):
    """``(indices, tag)`` of each group of the solutions, screened through
    the tangent maps of ``candidates``, one pull-back at a time."""
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
        space = invariant.metric_space(spec)
        witnesses = witness_maps(spec, candidates)
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
                        if _matches(pulled, gauged[j]):
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
                tag = "WitnessedEquivalent"
            else:
                tag = "Undecided"
            groups.append((tuple(sorted(comp)), tag))
    return sorted(groups)
