"""The float routes that decided the isotropy decomposition before its exact
certificate, kept as oracles that the exact decisions must agree with.

Each body is the one that ``einflag`` ran: ``split_reductive``'s
least-squares span test at 1e-9, ``_verify_decomposition``'s orthogonality
at 1e-10 and ad-invariance leak at 1e-9 over the orthonormal rows, the
``tangent-complement`` float Gram at 1e-12, ``isotropy-stability`` on ten
random isotropy vectors at 1e-12, ``summand-dimensions``' float rank at
1e-9, and the dense Killing forms ``basis @ K @ basis^T``.  Each returns
what it decided instead of raising.  ``gram_schmidt_loop`` is the plain
loop of ``einflag.flag``, which ``tangent-complement`` compares the frame
rows with.
"""

import numpy as np

from einflag.algebra import _matches
from einflag.flag import _gram_schmidt_loop as gram_schmidt_loop
from einflag.flag import _simple_roots, tangent_basis, theta


def dense_killing(model):
    """The model's Killing form as a dense n x n float array."""
    K = np.zeros((model.n, model.n))
    I, J, V = model.killing_index
    K[I, J] = V
    return K


def tangent_killing(space):
    """The Killing form over the orthonormal tangent rows, ``basis @ K @ basis^T``
    in floats."""
    return space.basis @ dense_killing(space.spec.algebra) @ space.basis.T


def split_reductive(spec):
    """``(isotropy, tangent)`` by least squares: a root lies in the span of
    Theta when its residual is below 1e-9."""
    model = spec.algebra
    th = theta(spec)
    in_span = np.zeros(model.n, dtype=bool)
    if th:
        A = _simple_roots(spec.family, spec.rank)[[i - 1 for i in th]].T.astype(float)
        roots = model.roots.T
        sol, *_ = np.linalg.lstsq(A, roots, rcond=None)
        in_span = np.linalg.norm(A @ sol - roots, axis=0) < 1e-9
    return tuple(np.flatnonzero(in_span).tolist()), tuple(np.flatnonzero(~in_span).tolist())


def orthogonal(dec):
    """Every pair of summands orthogonal within 1e-10, over the orthonormal rows."""
    g = float(dec.spec.inner_scale) * dec.spec.algebra.gram
    subs = dec.submodules
    return all(
        np.max(np.abs((subs[a].orthonormal * g) @ subs[b].orthonormal.T)) <= 1e-10
        for a in range(len(subs))
        for b in range(a + 1, len(subs))
    )


def within_tangent(dec):
    """No span entry above 1e-12 on an isotropy coordinate."""
    tan = set(dec.tangent_indices)
    return all(set(np.nonzero(np.max(np.abs(s.span), axis=0) > 1e-12)[0].tolist()) <= tan for s in dec.submodules)


def invariant(dec):
    """No column of a summand row in the isotropy action reaches another
    summand's rows by more than 1e-9, over the float ``isotropy_action``."""
    act = dec.isotropy_action
    d = sum(s.dim for s in dec.submodules)
    owner = np.repeat(np.arange(len(dec.submodules)), [s.dim for s in dec.submodules])
    elsewhere = owner[act.row] != owner[act.col]
    leak = np.sqrt(
        np.bincount(
            act.gen * d + act.col,
            weights=np.where(elsewhere, act.value * act.value, 0.0),
            minlength=act.count * d,
        )
    )
    return not np.any(leak > 1e-9)


def tangent_complement(dec):
    """The float ``tangent-complement``: the frame rows g0-orthonormal within
    1e-12, no isotropy coordinate above 1e-12, and the dimensions adding up."""
    rows, _ = tangent_basis(dec)
    model = dec.spec.algebra
    w = float(dec.spec.inner_scale) * model.gram
    err = np.max(np.abs((rows * w) @ rows.T - np.eye(rows.shape[0])))
    iso = list(dec.isotropy_indices)
    leak = np.max(np.abs(rows[:, iso])) if iso else 0.0
    return bool(err < 1e-12 and leak < 1e-12 and rows.shape[0] + len(iso) == model.n)


def stability_leak(dec, rng, draws=10):
    """The largest leak of ``[z, W_i]`` out of W_i over ``draws`` random unit
    isotropy vectors z, as ``isotropy-stability`` computed it (it passed
    below 1e-12): ``rows @ ad(z)`` from one scatter of the structure entries
    with an isotropy first index, paired with the nonzeros of the rows."""
    m = dec.spec.algebra
    iso = list(dec.isotropy_indices)
    if not iso:
        return 0.0
    w = float(dec.spec.inner_scale) * m.gram
    summands = [sub.orthonormal for sub in dec.submodules]
    rows = np.vstack(summands)
    bounds = np.cumsum([len(R) for R in summands])[:-1]
    I, J, K, V = m.structure_index
    at = np.isin(I, iso)
    I, J, K, V = I[at], J[at], K[at], V[at]
    r, j = np.nonzero(rows)
    e, f = _matches(J, j)
    key, source = r[f] * m.n + K[e], I[e]
    weight = V[e] * rows[r[f], j[f]]
    worst = 0.0
    for _ in range(draws):
        z = np.zeros(m.n)
        z[iso] = rng.standard_normal(len(iso))
        z /= np.linalg.norm(z)
        images = np.bincount(key, weights=weight * z[source], minlength=rows.size)
        for R, B in zip(summands, np.split(images.reshape(rows.shape), bounds)):
            coeffs = (R * w) @ B.T
            resid = B - coeffs.T @ R
            worst = max(worst, float(np.sqrt(np.sum((resid * w) * resid))))
    return worst


def ranks(dec):
    """Each summand's float rank of its orthonormal rows, at 1e-9."""
    return [int(np.linalg.matrix_rank(s.orthonormal, tol=1e-9)) for s in dec.submodules]


def decisions(dec, rng):
    """The float decisions on a decomposition, in the order of the exact
    certificate's readers: within the tangent space, orthogonal, the ranks,
    ad-invariant (from the isotropy table and from the stability draws) and
    the ``tangent-complement`` verdict."""
    return {
        "within_tangent": within_tangent(dec),
        "orthogonal": orthogonal(dec),
        "ranks": ranks(dec),
        "invariant": invariant(dec),
        "stable": stability_leak(dec, rng) < 1e-12,
        "complement": tangent_complement(dec),
    }
