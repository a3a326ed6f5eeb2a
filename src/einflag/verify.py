"""Per-flag verification suite behind the ``check`` command.

Every check re-derives a structural property from raw data instead of
trusting cached fields: orthogonality goes back to ambient matrices, the
Ricci tensor is recomputed in rotated frames, and Einstein candidates are
re-certified from their curvature reports.  The variational
characterization is probed with central finite differences of the
volume-normalized scalar curvature, taken from the reduced engine
(:meth:`~einflag.curvature.ReducedRicci.scalar`): all ``2 * dim`` probes
of a point go through one engine call, after the positive-definiteness
rule of :func:`~einflag.invariant.positive_spectrum` is applied to their
coefficients, whose spectrum also gives the volume.  That check therefore
builds no frame; the frame route is covered by the curvature checks and
the solution certificates.  The invariance and equivariance checks act on
a form through each generator's support, the tangent indices its entries
touch: the residual vanishes off the rows and columns of the support, so
only those are computed, for all generators of one support size at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .algebra import _matches
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
        self._space = None
        self._set = None

    @property
    def space(self):
        if self._space is None:
            self._space = metric_space(self.spec)
        return self._space

    @property
    def dec(self):
        return self.space.dec

    @property
    def solutions(self):
        if self._set is None:
            self._set = solve(self.spec)
        return self._set.solutions

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


def _check_ambient_ad_invariance(ctx):
    m = ctx.model
    worst = 0.0
    for _ in range(20):
        x, y, z = (ctx.rng.standard_normal(m.n) for _ in range(3))
        x, y, z = (v / np.linalg.norm(v) for v in (x, y, z))
        a = m.ambient_inner_coords(m.bracket_coords(z, x), y)
        b = m.ambient_inner_coords(x, m.bracket_coords(z, y))
        worst = max(worst, abs(a + b))
    _require(worst < 1e-10, f"ad-invariance residual {worst:.2e}")
    return f"max |([z,x],y)+(x,[z,y])| = {worst:.1e} over 20 random triples"


def _killing_trace_ratios(m):
    """Ascending generalized eigenvalues of (-Killing form, trace form).

    The basis is orthogonal for the trace form, so its Gram is a diagonal
    g, and ``K x = r G x`` is ``g^-1/2 K g^-1/2 y = r y``.  A Gram entry off
    the diagonal fails the check.
    """
    # Flattened dot products give tr(M_e M_f^T) = -tr(M_e M_f) for the
    # skew basis matrices, i.e. exactly the positive trace-form gram; the
    # entries are integers, so the products are exact.
    mats = np.stack([e.matrix.astype(float).reshape(-1) for e in m.basis])
    G = mats @ mats.T
    g = np.diag(G).copy()
    np.fill_diagonal(G, 0.0)
    off = float(np.max(np.abs(G)))
    _require(off == 0.0, f"trace Gram of the basis has an off-diagonal entry {off:.3g}")
    scale = 1.0 / np.sqrt(g)
    K = -np.asarray(m.killing_matrix, dtype=float)
    return np.linalg.eigvalsh(scale[:, None] * K * scale)


def _check_killing_trace_ratio(ctx):
    m = ctx.model
    ratios = _killing_trace_ratios(m)
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


def _check_jacobi(ctx):
    m = ctx.model
    worst = 0.0
    for _ in range(20):
        x, y, z = (ctx.rng.standard_normal(m.n) for _ in range(3))
        x, y, z = (v / np.linalg.norm(v) for v in (x, y, z))
        s = (
            m.bracket_coords(x, m.bracket_coords(y, z))
            + m.bracket_coords(y, m.bracket_coords(z, x))
            + m.bracket_coords(z, m.bracket_coords(x, y))
        )
        worst = max(worst, float(np.linalg.norm(s)))
    _require(worst < 1e-10, f"Jacobi residual {worst:.2e}")
    return f"max cyclic-sum norm = {worst:.1e} over 20 random triples"


def _check_orthogonal_basis(ctx):
    m = ctx.model
    n = m.n
    # floats, so that the pairing of all pairs is one BLAS product
    mats = np.array([e.matrix for e in m.basis], dtype=float)
    G = m.ambient_inner_matrices(mats, mats)
    diag = np.diag(G)
    worst = float(np.max(np.abs(G - np.diag(diag))))
    _require(worst < 1e-12, f"off-diagonal ambient pairing {worst:.2e}")
    bad = np.flatnonzero(diag <= 0)
    if bad.size:
        raise _Failure(f"non-positive squared norm at index {bad[0]}")
    diag_err = float(np.max(np.abs(diag - m.gram)))
    _require(diag_err < 1e-12, f"gram mismatch {diag_err:.2e}")
    return f"basis orthogonal ({n * (n - 1) // 2} pairs), gram positive"


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
    fam, l, p = spec.family, spec.rank, tuple(spec.partition)
    plus = spec.includes_last_root
    if fam == "A":
        if l == 3 and p == (2, 2):
            return {"M1": 2, "M2": 2}
        out = {}
        for mi in range(2, len(p) + 1):
            for ni in range(1, mi):
                out[f"M{mi}{ni}"] = p[mi - 1] * p[ni - 1]
        return out
    if fam == "B":
        if not plus:
            if l == 4:
                return {"V1": 4, "T1": 3, "T2": 3}
            return {"V1": l, "U1": l * (l - 1) // 2}
        d = p[0]
        if d == 1:
            return {"V1_1": l - 1, "V1_2": l}
        return {"U1": d * (d - 1) // 2, "V1_1": d * (l - d), "V1_2": d * (l - d + 1)}
    if fam == "C":
        if not plus:
            return {"V1": 1, "U1": l * (l + 1) // 2 - 1}
        d = p[0]
        out = {"V1": 1, "M21": 2 * d * (l - d)}
        if d >= 2:
            out["U1"] = d * (d + 1) // 2 - 1
        return out
    # D
    if not plus and p == (l,):
        return {"T1": 3, "S1": 3} if l == 4 else {"U1": l * (l - 1) // 2}
    if plus and l == 4 and p == (3, 1):
        return {"T1": 3, "S1": 3}
    if not plus and p == (l - 1, 1):
        return {"U1": (l - 1) * (l - 2) // 2, "W21": l - 1, "U21": l - 1}
    if not plus and p == (1, l - 1):
        return {"U2": (l - 1) * (l - 2) // 2, "W21": l - 1, "U21": l - 1}
    if plus and len(p) == 3:
        return {"V2": (l - 1) * (l - 2) // 2, "M1": l - 1, "N1": l - 1}
    if plus and len(p) == 2:
        d = p[0]
        out = {"M21_1": d * (l - d), "M21_2": d * (l - d)}
        if d >= 2:
            out["U1"] = d * (d - 1) // 2
        return out
    return None


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
    return (
        f"{space.dim} = {space.n_sub} summands + {len(space.pairs)} pairs, "
        f"operator commutation residual {worst:.1e}"
    )


def _support_groups(table, d, identity=False):
    """A generator table's generators grouped by the size k of their support.

    The support S of a generator G is the set of tangent indices touched by
    the nonzero entries of G, or with ``identity`` of ``G - I``; G vanishes,
    or equals I, outside ``S x S``.  Returns one ``(cells, blocks)`` per
    size: ``blocks`` is the ``(n, k, k)`` stack of the ``G[S, S]``, and
    ``cells`` the ``(n, k, d)`` flat positions ``a * d + b`` of the rows S
    of a d x d form, each row with its columns S first (ascending, as in
    the blocks), then the others.  Generators with an empty support are left
    out.
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
        o = order[members]
        groups.append((o[:, :k, None] * d + o[:, None, :], blocks))
    return groups


def _support_residuals(P, cells, blocks, group):
    """The rows S of a form's residual under each generator of a group.

    ``P`` is a d x d form and ``(cells, blocks)`` one group of
    :func:`_support_groups`.  Without ``group`` the blocks are generators G
    and the residual is ``G^T P + P G``; with it they are the blocks
    ``T[S, S]`` of group elements T equal to I outside ``S x S``, and the
    residual is ``T^T P T - P``.  Either vanishes outside the rows and
    columns in S, and its columns S are the transposed rows S of the
    residual of ``P^T``.  Returns ``(n, k, d)``, the columns ordered as in
    ``cells``.
    """
    k = blocks.shape[1]
    X = np.take(P, cells)  # the rows S of P, columns S first
    rows = np.swapaxes(blocks, 1, 2) @ X
    if group:
        rows[..., :k] = rows[..., :k] @ blocks
        rows -= X
    else:
        rows[..., :k] += X[..., :k] @ blocks
    return rows


def _action_residual(P, groups, group=False):
    """Largest entry of the residual of each form of a stack, as in
    :func:`_support_residuals`, over every generator of the groups.

    ``P`` is an ``(m, d, d)`` stack, taken one form at a time so that each
    pass stays in cache; returns the m maxima.  A symmetric form's columns S
    are its rows S transposed, so only its rows are computed.
    """
    worst = np.zeros(len(P))
    for f, form in enumerate(P):
        sides = (form,) if np.array_equal(form, form.T) else (form, form.T)
        for cells, blocks in groups:
            for side in sides:
                rows = _support_residuals(side, cells, blocks, group)
                worst[f] = max(worst[f], rows.max(), -rows.min())
    return worst


def _isotropy_groups(space):
    """Support groups of the isotropy reps, and of the sign actions S on the
    supports of ``S - I``."""
    d = space.tangent_dim
    return _support_groups(space.reps, d), _support_groups(space.signs, d, identity=True)


def _check_metric_invariance(ctx):
    space = ctx.space
    reps, signs = _isotropy_groups(space)
    A = np.stack([space.metric_matrix(ctx.sample_coeffs()) for _ in range(3)])
    resid = np.maximum(_action_residual(A, reps), _action_residual(A, signs, group=True))
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
    rotated = Frame(met, fr.vectors @ Q, fr.eigenvalues, fr.groups, fr.partners)
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
    reps, signs = _isotropy_groups(space)
    # the finite rotation exp(0.7 G) is exp(0.7 G[S, S]) on S x S and I elsewhere
    rots = [(cells, _rotation(G, 0.7)) for cells, G in reps]
    resid = max(
        _action_residual(P, reps)[0],
        _action_residual(P, signs, group=True)[0],
        _action_residual(P, rots, group=True)[0],
    )
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
    sols = ctx.solutions
    if not sols:
        return "no invariant Einstein metric (nothing to certify)"
    worst_defect = 0.0
    for s in sols:
        worst_defect = max(worst_defect, s.defect)
        _require(s.defect < DEFECT_TOL, f"{s.rule_id}: defect {s.defect:.2e}")
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
    return f"{len(sols)} solution(s), max defect {worst_defect:.1e}, all SPD, no duplicates"


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
    bound = None if row is None else row.bound
    if bound is None:
        return f"count {count}; no published bound for this shape"
    _require(count <= bound, f"count {count} exceeds the bound {bound}")
    l, d = spec.rank, spec.partition[0]
    if spec.family == "B" and d != 2 and count >= 1:
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
        lam = positive_spectrum(space, probes)
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
