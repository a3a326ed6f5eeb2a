"""Per-flag verification suite behind the ``check`` command.

Every check re-derives a structural property from raw data instead of
trusting cached fields: orthogonality goes back to ambient matrices, the
Ricci tensor is recomputed in rotated frames, and Einstein solutions are
re-certified by the frame route.  The variational
characterization is probed with central finite differences of the
volume-normalized scalar curvature, taken from the reduced engine
(:meth:`~einflag.curvature.ReducedRicci.scalar`): all ``2 * dim`` probes
of a point go through one engine call, after the positive-definiteness
rule of :func:`~einflag.invariant.positive_spectrum` is applied to each
probe's coefficients, whose spectrum also gives the volume.  That check therefore
builds no frame; the frame route is covered by the curvature checks and
the solution certificates.  The invariance and equivariance checks act on
a form through each generator's support, the tangent indices its entries
touch: the residual vanishes off the rows and columns of the support, so
only those are computed, for all generators of one support size at once.
Off the support, a column of the residual is also zero wherever the
form's rows on the support are, so when the form is sparse enough only
the columns of the support and of those rows' nonzeros are computed; the
pattern of nonzeros is read from each form as it is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .algebra import _matches, _pair_sums
from .algebraic import normal_is_einstein
from .curvature import curvature, reduced_ricci, u_map
from .einstein import (
    DEFECT_TOL,
    _exact_roots,
    _require_countable,
    closed_form_solutions,
    # unused, but bench/tracing.py wraps einflag.verify.numeric_solutions by name
    numeric_solutions,  # noqa: F401
    published_row,
    solve,
)
from .errors import NoCatalogEntry, NoExactCount, NotPositiveDefinite, UnimplementedCase
from .flag import parse_flag_spec
from .invariant import (
    Frame,
    commutation_residual,
    make_metric,
    metric_space,
    orthonormal_frame,
    positive_spectrum,
    volume_root,
)

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]

_SEED = 20240516
# the exact Jacobi test passes a nonzero cyclic sum with at most this probability
_JACOBI_MISS = 1e-12
# a group's residual rows are computed on their narrow column set only when
# that leaves out more than this many of their entries: the narrow set costs
# a fixed handful of array calls, which per-group timings on flags of
# d = 9 to 390 put at about this many entries of the product
_NARROW_MIN = 6000


class _Failure(Exception):
    """Raised by a check body when the verified property does not hold."""


def _require(cond, message):
    if not cond:
        raise _Failure(message)


@dataclass
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    passed: bool
    detail: str = ""


class _Context:
    """Shared per-flag data, built lazily so cheap checks stay cheap."""

    def __init__(self, spec):
        self.spec = spec
        self.model = spec.algebra
        self.rng = default_rng(_SEED)

    @property
    def model(self):
        return self._model

    @model.setter
    def model(self, model):
        # a new model's basis entries are read again from its matrices
        self._model = model
        self.__dict__.pop("basis_entries", None)

    @cached_property
    def basis_entries(self):
        """:func:`_basis_entries` of the model's basis, read once per run."""
        return _basis_entries(self.model.basis)

    @cached_property
    def space(self):
        return metric_space(self.spec)

    @property
    def dec(self):
        return self.space.dec

    @cached_property
    def isotropy_groups(self):
        """:func:`_isotropy_groups` of the space, shared by the checks."""
        return _isotropy_groups(self.space)

    @cached_property
    def solutions(self):
        return solve(self.spec).solutions

    def sample_coeffs(self):
        """A random positive-definite coefficient vector."""
        space = self.space
        c = np.zeros(space.dim)
        c[: space.n_sub] = np.exp(self.rng.uniform(-0.8, 0.8, space.n_sub))
        for k, (i, j, _) in enumerate(space.pairs):
            f = self.rng.uniform(-0.85, 0.85)
            c[space.n_sub + k] = f * np.sqrt(c[i] * c[j])
        return c


# ---------------------------------------------------------------------------
# algebra


def _basis_entries(basis):
    """The nonzeros of the basis matrices as ``(elem, pos, val)``: ``val[x]``
    at the flat position ``pos[x] = row * N + col`` of basis matrix ``elem[x]``,
    read from each element's ``matrix``, so that a changed matrix is seen."""
    mats = np.array([e.matrix for e in basis])
    elem, row, col = np.nonzero(mats)
    return elem, row * mats.shape[-1] + col, mats[elem, row, col]


def _check_ambient_ad_invariance(ctx):
    """``([e_i, e_j], e_k) + (e_j, [e_i, e_k]) = C_ijk g_k + C_ikj g_j = 0`` on
    every structure constant, exactly: the constants and the Gram diagonal
    g are small integers and halves, so each side rounds to nothing."""
    m = ctx.model
    I, J, K, C = m.structure_index
    g = m.gram
    n = m.n
    key = (I * n + J) * n + K
    order = np.argsort(key)
    # C_ikj: the entry at the key with j and k swapped, 0 where C has none
    swapped = (I * n + K) * n + J
    at = order[np.minimum(np.searchsorted(key, swapped, sorter=order), key.size - 1)]
    resid = C * g[K] + np.where(key[at] == swapped, C[at], 0.0) * g[J]
    bad = np.flatnonzero(resid)
    if bad.size:
        e = bad[0]
        raise _Failure(
            f"([e_i,e_j],e_k)+(e_j,[e_i,e_k]) = {resid[e]:.3g} at (i,j,k) = "
            f"({I[e]}, {J[e]}, {K[e]})"
        )
    return f"([e_i,e_j],e_k)+(e_j,[e_i,e_k]) = 0 exactly on all {C.size} structure constants"


def _killing_trace_ratios(m, entries):
    """Ascending generalized eigenvalues of (-Killing form, trace form).

    The trace Gram ``G[e, f] = tr(M_e M_f^T) = -tr(M_e M_f)`` of the skew
    basis matrices is the positive trace form; it is summed exactly, per
    pair of elements that meet, over one join of the basis ``entries``
    (:func:`_basis_entries`) on their ambient position, and a Gram entry
    off the diagonal fails the check.
    With G a diagonal g, ``K x = r G x`` is ``g^-1/2 K g^-1/2 y = r y``, and
    it splits over the connected blocks of K's off-diagonal pattern: one
    stacked ``eigvalsh`` per block size, 1 x 1 blocks included.  A zero
    ratio (the centre of u(l) in the C family) is decided exactly: on a
    block with an eigenvalue near 0, 4K is integral, its nullity comes from
    :func:`_nullity`, and that many of its eigenvalues, the smallest in
    magnitude, are set to 0.
    """
    n = len(m.basis)
    elem, pos, val = entries
    g, (_, _, off) = _pair_sums(elem, pos, val, pos, None, n)
    bad = np.flatnonzero(off)
    if bad.size:
        raise _Failure(f"trace Gram of the basis has an off-diagonal entry {off[bad[0]]:g}")
    scale = 1.0 / np.sqrt(g)
    K = -np.asarray(m.killing_matrix, dtype=float)
    # each index takes the least label of its block, passed along K's
    # off-diagonal nonzeros until no label moves
    r, c = np.nonzero(K)
    r, c = r[r != c], c[r != c]
    label = np.arange(n)
    while True:
        moved = label.copy()
        np.minimum.at(moved, r, label[c])
        if np.array_equal(moved, label):
            break
        label = moved
    order = np.argsort(label, kind="stable")
    _, start, size = np.unique(label[order], return_index=True, return_counts=True)
    ratios = []
    # not np.unique(size): without return_* it imports numpy.ma, 13 ms cold
    for k in np.flatnonzero(np.bincount(size)):
        block = order[start[size == k, None] + np.arange(k)]
        s = scale[block]
        B = K[block[:, :, None], block[:, None, :]] * s[:, :, None] * s[:, None, :]
        ev = np.linalg.eigvalsh(B)
        # eigvalsh is off by about k eps |B|, so only these blocks can be singular
        near = np.flatnonzero(np.min(np.abs(ev), axis=1) <= 1e-8 * np.max(np.abs(ev), axis=1))
        if near.size:
            b = block[near]
            K4 = 4.0 * K[b[:, :, None], b[:, None, :]]
            _require(np.array_equal(K4, np.rint(K4)), "4 x the Killing form is not integral")
            rows, cols = np.nonzero(np.arange(k) < _nullity(K4.astype(np.int64))[:, None])
            ev[near[rows], np.argsort(np.abs(ev[near]), axis=1)[rows, cols]] = 0.0
        ratios.append(ev.ravel())
    return np.sort(np.concatenate(ratios))


def _nullity(M):
    """Nullities of an ``(n, k, k)`` stack of integer matrices, by one
    fraction-free (Bareiss) elimination of the stack in Python integers, so
    that every division is exact; each matrix pivots on its first nonzero
    at or below its rank."""
    A = np.asarray(M).astype(object)
    n, k = A.shape[:2]
    rank = np.zeros(n, dtype=np.int64)
    prev = np.ones(n, dtype=object)
    row = np.arange(k)
    for col in range(k):
        cand = (A[:, :, col] != 0) & (row >= rank[:, None])
        m = np.flatnonzero(cand.any(axis=1))
        top, pivot = rank[m], np.argmax(cand[m], axis=1)
        A[m, pivot], A[m, top] = A[m, top], A[m, pivot]
        X, t = A[m], A[m, top]
        p = t[:, col]
        below = (row > top[:, None])[:, :, None]
        step = (p[:, None, None] * X - X[:, :, col, None] * t[:, None, :]) // prev[m][:, None, None]
        A[m] = np.where(below, step, X)
        prev[m] = p
        rank[m] += 1
    return k - rank


def _check_killing_trace_ratio(ctx):
    m = ctx.model
    ratios = _killing_trace_ratios(m, ctx.basis_entries)
    scale = max(ratios[-1], 1.0)
    _require(ratios[0] > -1e-9 * scale, f"negative ratio {ratios[0]:.2e}")
    clusters = [[ratios[0]]]
    for r in ratios[1:]:
        if r - clusters[-1][-1] > 1e-6 * scale:
            clusters.append([])
        clusters[-1].append(r)
    limit = {"A": 1, "B": 2, "C": 2, "D": 1}[m.family]
    _require(
        len(clusters) <= limit,
        f"{len(clusters)} distinct Killing/trace ratios, expected <= {limit}",
    )
    spread = max(c[-1] - c[0] for c in clusters)
    _require(spread < 1e-9 * scale, f"ratio spread {spread:.2e} within a factor")
    vals = ", ".join(f"{c[0]:.6g}" for c in clusters)
    return f"{len(clusters)} constant ratio(s): {vals}"


def _jacobi_draws(r, v):
    """``(B, k, miss)`` of the exact Jacobi test for structure constants of
    magnitude at most v, at most r of them per output coordinate.

    On integer vectors in ``[-B, B)`` a bracket coordinate sums at most r
    products of magnitude ``v B^2``, and a double bracket at most r of
    magnitude ``r v^2 B^3``, so every product and partial sum of the three
    double brackets of the cyclic sum is an integer of magnitude at most
    ``3 (r v)^2 B^3``.  B is the largest power of two that keeps this below
    2^53, where float64 holds every integer exactly.  The sum is trilinear,
    so if it is not zero, a triple drawn uniformly from ``[-B, B)^3n``
    zeroes it with probability at most ``3 / (2B)`` (Schwartz-Zippel); k is
    the fewest independent triples that all miss it with probability
    ``miss = (3 / (2B))^k`` below ``_JACOBI_MISS``.
    """
    B = 1
    while 3 * (r * v) ** 2 * (2 * B) ** 3 < 2**53:
        B *= 2
    k, miss = 1, 3 / (2 * B)
    while miss >= _JACOBI_MISS:
        k, miss = k + 1, miss * 3 / (2 * B)
    return B, k, miss


def _check_jacobi(ctx):
    """The cyclic sum ``[x,[y,z]] + [y,[z,x]] + [z,[x,y]]`` is exactly 0 at k
    random integer triples of :func:`_jacobi_draws`, with no tolerance; the
    structure constants must be integers."""
    m = ctx.model
    I, J, K, V = m.structure_index
    if not V.size:
        return "the bracket is zero: no structure constants, nothing to test"
    bad = np.flatnonzero(V != np.rint(V))
    if bad.size:
        e = bad[0]
        raise _Failure(
            f"structure constant C[{I[e]}, {J[e]}, {K[e]}] = {V[e]!r} of "
            f"[{m.basis[I[e]].label}, {m.basis[J[e]].label}] at "
            f"{m.basis[K[e]].label} is not an integer"
        )
    r, v = int(np.bincount(K).max()), int(np.max(np.abs(V)))
    _require(3 * (r * v) ** 2 < 2**53, f"structure constants up to {v} leave no exact draw")
    B, k, miss = _jacobi_draws(r, v)
    br = m.bracket_coords
    for x, y, z in ctx.rng.integers(-B, B, size=(k, 3, m.n)).astype(float):
        s = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
        bad = np.flatnonzero(s)
        if bad.size:
            raise _Failure(f"Jacobi cyclic sum {s[bad[0]]:g} at coordinate {bad[0]}")
    return (
        f"cyclic sum exactly 0 at {k} random integer triples in [-{B}, {B})^{m.n}; "
        f"a nonzero one passes with probability <= {miss:.1e}"
    )


def _check_orthogonal_basis(ctx):
    """Every pair of basis matrices pairs to 0 under the family pairing and
    every one to its ``gram`` entry, exactly: the pairing of the basis
    entries of the run is one join of their partner positions (the model's
    pairing table) against their positions, summed over the joined pairs
    only, and every value is an integer or a half."""
    m = ctx.model
    n = m.n
    diag, (e, f, off) = m.pair_entries(*ctx.basis_entries)
    bad = np.flatnonzero(off)
    if bad.size:
        a = bad[0]
        raise _Failure(f"off-diagonal ambient pairing {off[a]:.2e} of ({e[a]}, {f[a]})")
    bad = np.flatnonzero(diag <= 0)
    if bad.size:
        raise _Failure(f"non-positive squared norm at index {bad[0]}")
    bad = np.flatnonzero(diag != m.gram)
    if bad.size:
        raise _Failure(f"gram mismatch at index {bad[0]}: {diag[bad[0]]!r} != {m.gram[bad[0]]!r}")
    return f"basis orthogonal ({n * (n - 1) // 2} pairs), gram positive, exactly"


# ---------------------------------------------------------------------------
# flag decomposition


def _check_tangent_complement(ctx):
    dec, m = ctx.dec, ctx.model
    rows = np.vstack([s.orthonormal for s in dec.submodules])
    w = float(ctx.spec.inner_scale) * m.gram
    G = (rows * w) @ rows.T
    err = np.max(np.abs(G - np.eye(rows.shape[0])))
    _require(err < 1e-12, f"summand frames not g0-orthonormal: {err:.2e}")
    iso = list(dec.isotropy_indices)
    leak = np.max(np.abs(rows[:, iso])) if iso else 0.0
    _require(leak < 1e-12, f"tangent vectors touch isotropy coords: {leak:.2e}")
    _require(
        rows.shape[0] + len(iso) == m.n,
        f"dim mismatch: {rows.shape[0]} tangent + {len(iso)} isotropy != {m.n}",
    )
    return (
        f"{rows.shape[0]} tangent + {len(iso)} isotropy coordinates fill "
        f"the {m.n}-dim algebra orthogonally"
    )


def _check_isotropy_stability(ctx):
    dec, m = ctx.dec, ctx.model
    iso = list(dec.isotropy_indices)
    if not iso:
        return "isotropy algebra is trivial"
    w = float(ctx.spec.inner_scale) * m.gram
    summands = [sub.orthonormal for sub in dec.submodules]
    rows = np.vstack(summands)
    bounds = np.cumsum([len(R) for R in summands])[:-1]
    # (rows @ ad(z))[r, k] = sum C[i, j, k] z[i] rows[r, j] over the entries
    # with i in the isotropy coordinates, paired with the nonzeros of rows
    I, J, K, V = m.structure_index
    at = np.isin(I, iso)
    I, J, K, V = I[at], J[at], K[at], V[at]
    r, j = np.nonzero(rows)
    e, f = _matches(J, j)
    key, source = r[f] * m.n + K[e], I[e]
    weight = V[e] * rows[r[f], j[f]]
    worst = 0.0
    for _ in range(10):
        z = np.zeros(m.n)
        z[iso] = ctx.rng.standard_normal(len(iso))
        z /= np.linalg.norm(z)
        images = np.bincount(key, weights=weight * z[source], minlength=rows.size)
        for R, B in zip(summands, np.split(images.reshape(rows.shape), bounds)):
            coeffs = (R * w) @ B.T
            resid = B - coeffs.T @ R
            worst = max(worst, float(np.sqrt(np.sum((resid * w) * resid))))
    _require(worst < 1e-12, f"bracket leaks out of a summand: {worst:.2e}")
    return f"[k, W_i] stays in W_i, max leak {worst:.1e}"


def _expected_dims(spec):
    """The summand dimensions of the flag's record, by summand name, or None
    without a record; a summand that the formula sizes 0 is absent.  A
    spin-node twin has its representative's dimensions under its own names."""
    record, rep = spec.record, spec.representative
    if record is None:
        return None
    names = dict(record.twin_names) if rep is not spec else {}
    return {names.get(n, n): dim for n, dim in record.dims(rep.rank, rep.partition).items() if dim}


def _check_summand_dimensions(ctx):
    dec = ctx.dec
    for s in dec.submodules:
        _require(
            s.orthonormal.shape[0] == s.dim,
            f"{s.name}: stored dim {s.dim} != frame rows {s.orthonormal.shape[0]}",
        )
        rank = np.linalg.matrix_rank(s.orthonormal, tol=1e-9)
        _require(rank == s.dim, f"{s.name}: rank {rank} != dim {s.dim}")
    expected = _expected_dims(ctx.spec)
    _require(expected is not None, "no dimension formula catalogued for this shape")
    found = {s.name: s.dim for s in dec.submodules}
    _require(
        found == expected,
        f"dims {found} do not match the block-size formulas {expected}",
    )
    total = sum(found.values())
    return f"dims {found} match the block-size formulas (total {total})"


def _check_equivalence_classes(ctx):
    dec, space = ctx.dec, ctx.space
    for cls in dec.equiv_classes:
        _require(len(cls) == 2, f"class {cls} is not a pair")
        i, j = cls
        _require(
            dec.submodules[i].dim == dec.submodules[j].dim,
            f"paired summands {i},{j} have different dimensions",
        )
    declared = {tuple(sorted(c)) for c in dec.equiv_classes}
    realized = {tuple(sorted((i, j))) for i, j, _ in space.pairs}
    _require(
        declared == realized,
        f"declared classes {declared} != intertwined pairs {realized}",
    )
    if declared:
        names = ", ".join(
            f"{dec.submodules[i].name}~{dec.submodules[j].name}"
            for i, j in sorted(declared)
        )
        return f"equivalent pairs: {names}; all other summands inequivalent"
    return "all summands pairwise inequivalent"


# ---------------------------------------------------------------------------
# invariant-metric family


def _check_commutant_dimension(ctx):
    space = ctx.space
    want = space.n_sub + len(space.pairs)
    _require(
        space.dim == want,
        f"metric family has dim {space.dim}, expected {want}",
    )
    worst = commutation_residual(space)
    _require(worst < 1e-10, f"an operator fails to commute: {worst:.2e}")
    zero, nonzero = space.certificate_margin
    return (
        f"{space.dim} = {space.n_sub} summands + {len(space.pairs)} pairs, "
        f"operator commutation residual {worst:.1e}, Schur certificate margin: "
        f"zero Gram eigenvalues <= {zero:.1e}, nonzero >= {nonzero:.1e} of the norm"
    )


def _support_groups(table, d, identity=False):
    """A generator table's generators grouped by the size k of their support.

    The support S of a generator G is the set of tangent indices touched by
    the nonzero entries of G, or with ``identity`` of ``G - I``; G vanishes,
    or equals I, outside ``S x S``.  Returns one ``(order, blocks)`` per
    size: ``blocks`` is the ``(n, k, k)`` stack of the ``G[S, S]``, and
    ``order`` the ``(n, d)`` tangent indices of each generator, S first
    (ascending, as in the blocks), then the others: a form's rows S, columns
    in that order, are ``P[order[:, :k, None], order[:, None, :]]``.
    Generators with an empty support are left out.
    """
    count, gen, row, col, value = table
    diag = row == col
    touch = value != diag if identity else value != 0
    occ = np.zeros((count, d), dtype=bool)
    occ[gen[touch], row[touch]] = True
    occ[gen[touch], col[touch]] = True
    if identity:  # a diagonal entry of G that is not stored is 0, not 1
        stored = np.zeros((count, d), dtype=bool)
        stored[gen[diag], row[diag]] = True
        occ |= ~stored
    size = occ.sum(axis=1)
    pos = np.cumsum(occ, axis=1) - 1  # the place of each index in its support
    inside = occ[gen, row] & occ[gen, col]
    order = np.argsort(~occ, axis=1, kind="stable")
    groups = []
    for k in np.flatnonzero(np.bincount(size)[1:]) + 1:
        members = np.flatnonzero(size == k)
        local = np.zeros(count, dtype=np.int64)
        local[members] = np.arange(members.size)
        at = inside & (size[gen] == k)
        g = gen[at]
        blocks = np.zeros((members.size, k, k))
        blocks[local[g], pos[g, row[at]], pos[g, col[at]]] = value[at]
        groups.append((order[members], blocks))
    return groups


def _row_pattern(P):
    """The columns of the nonzeros of each row of a d x d form, as a ``(d, w)``
    table, w the largest count in a row; a shorter row pads with column 0."""
    r, c = np.nonzero(P)
    count = np.bincount(r, minlength=len(P))
    table = np.zeros((len(P), count.max(initial=0)), dtype=np.int64)
    table[r, np.arange(r.size) - (np.cumsum(count) - count)[r]] = c
    return table


def _support_residuals(P, order, blocks, group, pattern):
    """The rows S of a form's residual under each generator of a group.

    ``P`` is a d x d form, ``pattern`` its :func:`_row_pattern`, or None
    when the group cannot take the narrow columns, and ``(order, blocks)``
    one group of :func:`_support_groups`.  Without ``group`` the blocks are
    generators G and the residual is ``G^T P + P G``; with it they are the
    blocks ``T[S, S]`` of group elements T equal to I outside ``S x S``, and
    the residual is ``T^T P T - P``.  Either vanishes outside the rows and
    columns in S, and its columns S are the transposed rows S of the
    residual of ``P^T``.  In a column c outside S it is ``G[S, S]^T P[S, c]``
    (or that minus ``P[S, c]``), exactly zero where ``P[S, c]`` is.  So when
    S and the pattern's columns of the rows S, ``k (1 + w)`` of them, leave
    out more than ``_NARROW_MIN`` of the ``n k d`` entries of the n
    generators' rows, only those columns are computed, S first; a pattern
    column that lies in S is already among the first k, and its place in the
    tail goes to the first column outside S.  Otherwise every column is,
    ordered as in ``order``.  Either way the largest entry of each
    generator's rows is the same.  Returns the ``(n, k, m)`` rows and the
    ``(n, m)`` columns they hold.
    """
    n, k = blocks.shape[:2]
    d = len(P)
    S = order[:, :k]
    cols = order
    if pattern is not None and n * k * (d - k * (1 + pattern.shape[1])) > _NARROW_MIN:
        at = np.arange(n)[:, None] * d  # flat offsets, one row of d per generator
        inside = np.zeros(n * d, dtype=bool)
        inside[S + at] = True
        tail = pattern[S].reshape(n, -1)
        cols = np.concatenate([S, np.where(inside[tail + at], order[:, k : k + 1], tail)], axis=1)
    # the rows S of P, columns S first, gathered through flat positions
    X = np.ravel(P).take(S[:, :, None] * d + cols[:, None, :])
    rows = np.swapaxes(blocks, 1, 2) @ X
    if group:
        rows[..., :k] = rows[..., :k] @ blocks
        rows -= X
    else:
        rows[..., :k] += X[..., :k] @ blocks
    return rows, cols


def _action_residual(P, actions):
    """Largest entry of the residual of each form of a stack, as in
    :func:`_support_residuals`, over every generator of the groups.

    ``P`` is an ``(m, d, d)`` stack and ``actions`` a list of ``(groups,
    group)``, the support groups and whether they hold group elements.  The
    forms are taken one at a time so that each pass stays in cache, and the
    pattern of each is read once, and only when some group can take the
    narrow columns: a pattern only shrinks the ``n k (d - k)`` entries that
    a group leaves out with an empty one.  Returns the m maxima.  A
    symmetric form's columns S are its rows S transposed, so only its rows
    are computed.
    """
    d = P.shape[-1]
    narrow = any(
        n * k * (d - k) > _NARROW_MIN
        for groups, _ in actions
        for n, k in (blocks.shape[:2] for _, blocks in groups)
    )
    worst = np.zeros(len(P))
    for f, form in enumerate(P):
        symmetric = np.array_equal(form, form.T)
        for side in (form,) if symmetric else (form, np.ascontiguousarray(form.T)):
            pattern = _row_pattern(side) if narrow else None
            for groups, group in actions:
                for order, blocks in groups:
                    rows, _ = _support_residuals(side, order, blocks, group, pattern)
                    worst[f] = max(worst[f], rows.max(), -rows.min())
    return worst


def _isotropy_groups(space):
    """Support groups of the isotropy reps, and of the sign actions S on the
    supports of ``S - I``."""
    d = space.tangent_dim
    return _support_groups(space.reps, d), _support_groups(space.signs, d, identity=True)


def _check_metric_invariance(ctx):
    space = ctx.space
    reps, signs = ctx.isotropy_groups
    A = np.stack([space.metric_matrix(ctx.sample_coeffs()) for _ in range(3)])
    resid = _action_residual(A, [(reps, False), (signs, True)])
    resid /= np.max(np.abs(A), axis=(1, 2))
    worst = max(commutation_residual(space), float(np.max(resid)))
    _require(worst < 1e-10, f"sampled metric not isotropy-invariant: {worst:.2e}")
    return f"sampled metrics invariant under isotropy, residual {worst:.1e}"


def _check_frame_orthonormal(ctx):
    space = ctx.space
    worst = 0.0
    smin = np.inf
    for _ in range(3):
        met = make_metric(space, ctx.sample_coeffs())
        fr = orthonormal_frame(met)
        V = fr.vectors
        worst = max(worst, float(np.max(np.abs(V.T @ met.matrix @ V - np.eye(V.shape[0])))))
        smin = min(smin, float(np.linalg.svd(V, compute_uv=False)[-1]))
    _require(worst < 1e-12, f"frame fails g-orthonormality: {worst:.2e}")
    _require(smin > 1e-9, f"frame does not span the tangent space: sigma_min {smin:.2e}")
    return f"V^T A V = I to {worst:.1e}; frame spans the tangent space"


# ---------------------------------------------------------------------------
# curvature


def _check_frame_independence(ctx):
    space = ctx.space
    met = make_metric(space, ctx.sample_coeffs())
    base = curvature(met)
    fr = orthonormal_frame(met)
    d = space.tangent_dim
    Q, _ = np.linalg.qr(ctx.rng.standard_normal((d, d)))
    rotated = Frame(met, fr.vectors @ Q)
    other = curvature(met, frame=rotated)
    err = float(np.max(np.abs(other.ricci_tangent - base.ricci_tangent)))
    serr = abs(other.scalar - base.scalar) / (1.0 + abs(base.scalar))
    _require(err < 1e-10, f"Ricci depends on the frame: {err:.2e}")
    _require(serr < 1e-10, f"scalar depends on the frame: {serr:.2e}")
    return f"random rotated frame changes Ricci by {err:.1e}"


def _rotation(G, t):
    """``exp(t G)`` of a stack of skew matrices ``G``.

    With ``S = G^T G = -G^2`` the exponential series splits into its even and
    odd terms, ``exp(t G) = cos(t sqrt(S)) + G sin(t sqrt(S)) / sqrt(S)``,
    exact because G commutes with S.  Both functions of S come from one real
    ``eigh``; ``sin(t th) / th = t sinc(t th / pi)`` stays finite at ``th = 0``.
    """
    w, Q = np.linalg.eigh(np.swapaxes(G, 1, 2) @ G)
    th = np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    Qt = np.swapaxes(Q, 1, 2)
    return (Q * np.cos(t * th)) @ Qt + G @ ((Q * (t * np.sinc(t * th / np.pi))) @ Qt)


def _check_ricci_equivariance(ctx):
    space = ctx.space
    met = make_metric(space, ctx.sample_coeffs())
    P = curvature(met).ricci_tangent[None]
    scale = float(np.max(np.abs(P))) + 1.0
    reps, signs = ctx.isotropy_groups
    # the finite rotation exp(0.7 G) is exp(0.7 G[S, S]) on S x S and I elsewhere
    rots = [(order, _rotation(G, 0.7)) for order, G in reps]
    resid = _action_residual(P, [(reps, False), (signs, True), (rots, True)])[0]
    worst = max(commutation_residual(space), resid / scale)
    _require(worst < 1e-10, f"Ricci not isotropy-equivariant: {worst:.2e}")
    return f"Ric(Ad(k)X, Ad(k)Y) = Ric(X, Y) to {worst:.1e}"


def _check_scalar_trace(ctx):
    space = ctx.space
    # the Ricci formula leaves out the trace vector, the frame image of
    # z_k = sum_i t[k,i,i]; structure_coo raises unless z vanishes
    ztr = space.structure_trace
    met = make_metric(space, ctx.sample_coeffs())
    rep = curvature(met)
    sym = float(np.max(np.abs(rep.ricci - rep.ricci.T)))
    _require(sym < 1e-10, f"Ricci not symmetric: {sym:.2e}")
    tr = float(np.trace(rep.ricci))
    err = abs(rep.scalar - tr) / (1.0 + abs(rep.scalar))
    _require(err < 1e-10, f"scalar != trace of Ricci: {err:.2e}")
    err2 = abs(rep.scalar - rep.scalar_direct) / (1.0 + abs(rep.scalar))
    _require(err2 < 1e-10, f"scalar route disagreement: {err2:.2e}")
    return f"scalar = tr Ric = direct formula to {max(err, err2):.1e}; trace of t {ztr:.1e}"


def _check_reduced_route(ctx):
    space = ctx.space
    c = ctx.sample_coeffs()
    reduced = reduced_ricci(ctx.spec)(c)
    full = curvature(make_metric(space, c)).coefficients
    err = float(np.max(np.abs(reduced - full))) / (1.0 + float(np.max(np.abs(full))))
    _require(err < 1e-10, f"reduced engine disagrees with the frame route: {err:.2e}")
    return f"reduced Ricci engine matches the frame computation to {err:.1e}"


def _check_curvature_scaling(ctx):
    space = ctx.space
    c = ctx.sample_coeffs()
    r1 = curvature(make_metric(space, c))
    t = 2.7
    r2 = curvature(make_metric(space, t * c))
    ric_err = float(np.max(np.abs(r2.ricci_tangent - r1.ricci_tangent)))
    sc_err = abs(t * r2.scalar - r1.scalar) / (1.0 + abs(r1.scalar))
    cn_err = abs(r2.normalized_constant - r1.normalized_constant) / (
        1.0 + abs(r1.normalized_constant)
    )
    _require(ric_err < 1e-10, f"Ricci form not scale-invariant: {ric_err:.2e}")
    _require(sc_err < 1e-10, f"scalar does not scale as 1/t: {sc_err:.2e}")
    _require(cn_err < 1e-10, f"normalized constant not scale-free: {cn_err:.2e}")
    return "Ric(t g) = Ric(g), S(t g) = S(g)/t, c-hat scale-free"


def _check_connection_term(ctx):
    space = ctx.space
    d = space.tangent_dim
    normal = make_metric(space, _normal_coeffs(space))
    worst = 0.0
    for _ in range(4):
        x, y = ctx.rng.standard_normal((2, d))
        worst = max(worst, float(np.linalg.norm(u_map(normal, x, y))))
    _require(worst < 1e-10, f"U != 0 for the normal metric: {worst:.2e}")
    met = make_metric(space, ctx.sample_coeffs())
    A = met.matrix
    I, J, K, t = space.structure_coo
    err = 0.0
    for _ in range(4):
        x, y, w = ctx.rng.standard_normal((3, d))
        u = u_map(met, x, y)
        sym = float(np.linalg.norm(u - u_map(met, y, x)))
        lhs = 2.0 * float(u @ (A @ w))
        # the tangent parts of [w, x] and [w, y]
        bwx = np.bincount(K, weights=t * w[I] * x[J], minlength=d)
        bwy = np.bincount(K, weights=t * w[I] * y[J], minlength=d)
        rhs = float(bwx @ (A @ y)) + float(bwy @ (A @ x))
        err = max(err, sym, abs(lhs - rhs) / (1.0 + abs(rhs)))
    _require(err < 1e-10, f"defining identity of U fails: {err:.2e}")
    return f"U vanishes for the normal metric; defining identity holds to {err:.1e}"


def _normal_coeffs(space):
    c = np.zeros(space.dim)
    c[: space.n_sub] = 1.0
    return c


# ---------------------------------------------------------------------------
# Einstein solutions


def _check_solution_certificates(ctx):
    # solve certifies on the reduced engine; the frame route certifies again
    sols = ctx.solutions
    if not sols:
        return "no invariant Einstein metric (nothing to certify)"
    worst_defect = worst_gap = 0.0
    for s in sols:
        rep = curvature(s.metric)
        # relative, with 0 where both vanish (an abelian group is Ricci flat)
        gap = max(
            abs(x - y) / (max(abs(x), abs(y)) or 1.0)
            for x, y in ((s.constant, rep.einstein_constant), (s.scalar, rep.scalar))
        )
        worst_defect = max(worst_defect, s.defect, rep.einstein_defect)
        worst_gap = max(worst_gap, gap)
        _require(s.defect < DEFECT_TOL, f"{s.rule_id}: defect {s.defect:.2e}")
        _require(
            rep.einstein_defect < DEFECT_TOL, f"{s.rule_id}: frame defect {rep.einstein_defect:.2e}"
        )
        _require(gap <= 1e-10, f"{s.rule_id}: engine and frame route differ by {gap:.2e}")
        evs = np.linalg.eigvalsh(s.metric.matrix)
        _require(evs[0] > 0, f"{s.rule_id}: not positive definite")
        gauge = s.coeffs[ctx.space.n_sub - 1]
        _require(abs(gauge - 1.0) < 1e-9, f"{s.rule_id}: gauge coefficient {gauge}")
    for a in range(len(sols)):
        for b in range(a + 1, len(sols)):
            diff = np.max(np.abs(sols[a].coeffs - sols[b].coeffs)) / max(
                1.0, float(np.max(np.abs(sols[a].coeffs)))
            )
            _require(diff > 1e-6, f"solutions {a} and {b} are homothetic")
    return (
        f"{len(sols)} solution(s), max defect {worst_defect:.1e}, frame route "
        f"agrees to {worst_gap:.1e}, all SPD, no duplicates"
    )


def _check_catalog_agreement(ctx):
    try:
        closed = closed_form_solutions(ctx.spec)
    except NoCatalogEntry:
        return "bound-only family: no exact branch catalog to compare"
    roots = _exact_roots(ctx.spec)[0]
    _require(
        len(closed) == len(roots),
        f"catalog finds {len(closed)} solutions, the exact counts {len(roots)}",
    )
    used = set()
    for s in closed:
        best, bidx = np.inf, None
        for k, t in enumerate(roots):
            if k in used:
                continue
            d = float(np.max(np.abs(s.coeffs - t))) / max(
                1.0, float(np.max(np.abs(s.coeffs)))
            )
            if d < best:
                best, bidx = d, k
        _require(
            best < 1e-7,
            f"{s.rule_id}: closest numeric root differs by {best:.2e}",
        )
        used.add(bidx)
    return f"{len(closed)} exact branches each matched by a numeric root to 1e-7"


def _check_mixing_relations(ctx):
    space = ctx.space
    if not (space.n_sub == 3 and len(space.pairs) == 1):
        return "no intertwined coefficient here (nothing to test)"
    i, j, _ = space.pairs[0]
    k0 = ({0, 1, 2} - {i, j}).pop()
    tested = 0
    for s in ctx.solutions:
        b = s.coeffs[3]
        if abs(b) < 1e-8:
            continue
        tested += 1
        xi = np.linalg.eigvalsh(np.array([[s.coeffs[i], b], [b, s.coeffs[j]]]))
        xi0 = s.coeffs[k0]
        r1 = abs(2.0 * xi[0] * xi[1] - xi0 * xi0)
        r2 = abs(xi[0] + xi[1] - 2.0 * np.sqrt(2.0 * xi[0] * xi[1]))
        _require(r1 < 1e-9 * (1.0 + xi0 * xi0), f"{s.rule_id}: 2*xi1*xi2 != xi0^2 ({r1:.2e})")
        _require(r2 < 1e-9 * (1.0 + abs(xi[0] + xi[1])), f"{s.rule_id}: eigenvalue sum relation fails ({r2:.2e})")
    if tested == 0:
        return "no non-diagonal solution (relations vacuous)"
    return f"xi-relations hold on {tested} non-diagonal solution(s)"


def _check_count_bounds(ctx):
    spec = ctx.spec
    count = len(ctx.solutions)
    row = published_row(spec)
    if row is None:
        return f"count {count}; no published row for this shape"
    if row.exact is not None:
        normal = normal_is_einstein(reduced_ricci(spec))
        state = {True: "Einstein", False: "not Einstein"}
        seen = f"count {count}, normal metric {state[normal]}"
        _require(
            row.matches(count, normal),
            f"{seen}; the exact Table 1 row is {row.display}, normal metric {state[row.normal]}",
        )
        return f"{seen}, as the exact Table 1 row {row.display}"
    bound = row.bound
    _require(count <= bound, f"count {count} exceeds the bound {bound}")
    l, d = spec.rank, spec.partition[0]
    if spec.shape == "B-plus" and d != 2 and count >= 1:
        q = l * l * (l - 2) ** 2 - 2 * (d - 1) ** 2 * (d - 2) * (2 * l - d)
        _require(q > 0, f"solutions exist but the existence inequality fails (q = {q})")
        return f"count {count} <= {bound}; existence inequality holds (q = {q} > 0)"
    return f"count {count} <= {bound}"


def _check_variational_critical(ctx):
    space = ctx.space
    scalar = reduced_ricci(ctx.spec).scalar
    h = 1e-6
    steps = h * np.vstack([np.eye(space.dim), -np.eye(space.dim)])

    def grad_inf(c):
        # the 2*dim central-difference probes of c, evaluated in one call
        probes = c + steps
        lam = np.array([positive_spectrum(space, p) for p in probes])
        # volume-normalized scalar: S at c / det(A)^(1/d)
        scale = volume_root(space, lam)
        vol_scalar = scalar(probes / scale[:, None])
        g = (vol_scalar[: space.dim] - vol_scalar[space.dim :]) / (2.0 * h)
        return float(np.max(np.abs(g)))

    at_sol = 0.0
    for s in ctx.solutions:
        at_sol = max(at_sol, grad_inf(np.array(s.coeffs, dtype=float)))
        _require(
            at_sol < 1e-5,
            f"{s.rule_id}: scalar curvature not critical (|grad| = {at_sol:.2e})",
        )
    if space.dim == 1:
        # The volume-1 slice is a single point; criticality is vacuous.
        return "one-parameter family: every metric is homothetic to the solution"
    probes = [np.array(s.coeffs, dtype=float) for s in ctx.solutions]
    if not probes:
        probes = [_normal_coeffs(space)]
    off_min = np.inf
    for c in probes:
        cp = c.copy()
        cp[0] *= 1.3
        try:
            g = grad_inf(cp)
        except NotPositiveDefinite:
            continue
        off_min = min(off_min, g)
        _require(
            g > 1e-2,
            f"perturbed metric looks critical (|grad| = {g:.2e})",
        )
    if ctx.solutions:
        return (
            f"|grad S| <= {at_sol:.1e} at solutions, >= {off_min:.1e} at "
            f"perturbed points (volume-1 slice)"
        )
    return f"no solutions; perturbed-point gradient >= {off_min:.1e}"


_CHECKS = [
    ("ambient-ad-invariance", _check_ambient_ad_invariance),
    ("killing-trace-ratio", _check_killing_trace_ratio),
    ("jacobi-identity", _check_jacobi),
    ("orthogonal-basis", _check_orthogonal_basis),
    ("tangent-complement", _check_tangent_complement),
    ("isotropy-stability", _check_isotropy_stability),
    ("summand-dimensions", _check_summand_dimensions),
    ("equivalence-classes", _check_equivalence_classes),
    ("commutant-dimension", _check_commutant_dimension),
    ("metric-invariance", _check_metric_invariance),
    ("frame-orthonormal", _check_frame_orthonormal),
    ("ricci-frame-independence", _check_frame_independence),
    ("ricci-equivariance", _check_ricci_equivariance),
    ("scalar-trace", _check_scalar_trace),
    ("reduced-route", _check_reduced_route),
    ("curvature-scaling", _check_curvature_scaling),
    ("connection-term", _check_connection_term),
    ("solution-certificates", _check_solution_certificates),
    ("catalog-agreement", _check_catalog_agreement),
    ("mixing-relations", _check_mixing_relations),
    ("count-bounds", _check_count_bounds),
    ("variational-critical", _check_variational_critical),
]

CHECK_NAMES = [name for name, _ in _CHECKS]


def run_checks(spec):
    """Run every invariant check for one flag.

    Parameters
    ----------
    spec : FlagSpec or str

    Returns
    -------
    list of CheckResult
        One entry per check, in a fixed order.  A check failure is
        recorded, not raised; :class:`UnimplementedCase` from the flag
        construction, :class:`TooManyParameters` (raised before the first
        check) and :class:`NoExactCount` from the solver propagate so
        callers can distinguish "unsupported" from "broken".
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    ctx = _Context(spec)
    # construct eagerly: UnimplementedCase should propagate, and a family
    # the solver refuses should be refused before any check runs
    _require_countable(ctx.space)
    results = []
    for name, fn in _CHECKS:
        try:
            results.append(CheckResult(name, True, fn(ctx) or ""))
        except _Failure as exc:
            results.append(CheckResult(name, False, str(exc)))
        except (UnimplementedCase, NoExactCount):
            raise
        except Exception as exc:  # noqa: BLE001 - checks must not abort the suite
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
