"""The space of invariant metrics on a catalogued flag manifold.

An invariant metric is determined by a symmetric positive-definite operator
on the tangent space commuting with the full isotropy action.  By Schur's
lemma the operator is a positive multiple of the identity on each
inequivalent summand, plus off-diagonal intertwiner terms for each pair of
equivalent summands.  The isotropy convention here keeps the disconnected
sign components of the stabilizer (products of reflections with pairwise
matching determinants), which is what makes the summand catalogue of
:mod:`einflag.flag` have a clean commutant: its dimension must come out as
the number of summands plus the number of declared equivalent pairs, and
this is proved for every constructed space.

The proof is one block-wise certificate for every tangent dimension.  Three
probes stand in for the generators: two random combinations X, Y of the
isotropy reps and one of the sign actions (these commute, so one generic
combination has their joint commutant), drawn from a fixed seed.  The
symmetric solutions of ``T G = G T`` on each summand count
``dim Sym End(m_i)``, and the solutions of ``T G_i = G_j T`` for each pair
``i < j`` count ``dim Hom(m_i, m_j)``; both are solved only on the matched
eigenspaces of ``X^2``.  The probes are a subset of the generators, so their
commutant contains the true one, and the operator basis is checked to commute
with every generator, so it lies in the true one.  Equal counts therefore
prove the dimension.  An unlucky draw can only overcount, which raises
:class:`~einflag.errors.InvariantViolation`; it never lets a wrong space pass.

The operator basis is canonical: orthogonal projectors onto the summands in
catalogue order, followed by one symmetric intertwiner per equivalent pair,
normalized so its off-diagonal block ``B0`` satisfies ``B0^T B0 = I`` with a
positive leading entry, and stored as the exact signed permutation it rounds
to when there is one (every pair catalogued so far).  Coefficients for the
projectors are the diagonal scales; the intertwiner coefficients are the
mixing parameters (named ``b`` for the four-parameter families).
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.random import default_rng

from .errors import (
    GeneratorMismatch,
    InvariantViolation,
    NotPositiveDefinite,
    UnimplementedCase,
)
from .algebra import _coo_transform, _matches, _row_entries
from .flag import GeneratorTable, decompose_isotropy, tangent_basis

__all__ = [
    "MetricSpace",
    "InvariantMetric",
    "Frame",
    "metric_space",
    "make_metric",
    "metric_eigenvalues",
    "positive_spectrum",
    "volume_root",
    "orthonormal_frame",
    "component_sign_actions",
    "commutation_residual",
    "summand_block",
]

def _position_sign_sets(spec):
    """Candidate sign patterns, as sets of flipped 1-based ambient positions.

    Family A flips pairs of coordinates (even products of reflections stay in
    the special orthogonal group); the other families also flip single
    positions, which acts as a reflection with matching determinant on both
    orthogonal factors.
    """
    npos = spec.rank + 1 if spec.family == "A" else spec.rank
    cands = []
    if spec.family != "A":
        cands += [frozenset({k}) for k in range(1, npos + 1)]
    if npos <= 12:
        cands += [
            frozenset({i, j})
            for i in range(1, npos + 1)
            for j in range(i + 1, npos + 1)
        ]
    else:
        cands += [frozenset({1, j}) for j in range(2, npos + 1)]
        cands += [frozenset({2, j}) for j in range(3, npos + 1)]
    return cands


def _basis_signs(model, candidates):
    """+-1 vectors over the algebra basis, one row per flipped position set.

    A basis vector changes sign when its root has an odd total coefficient
    on the flipped positions.
    """
    roots = np.array([e.root for e in model.basis], dtype=np.int64)
    flips = np.zeros((len(candidates), roots.shape[1]), dtype=np.int64)
    for r, flipped in enumerate(candidates):
        flips[r, [pos - 1 for pos in flipped]] = 1
    return 1.0 - 2.0 * ((flips @ (roots % 2).T) % 2)


def _preserved(B, g, signs):
    """Which rows s of ``signs`` map the span of the rows of B into itself.

    B holds a g-orthonormal basis of the span, so ``M_s = B diag(g s) B^T``
    holds the coordinates of the projection of each ``b_a * s`` onto it.
    ``b_a * s`` has unit g-length, so it lies in the span exactly when its
    row of ``M_s`` has unit norm.  The pairs of nonzeros of B in one column
    give every ``M_s`` at once: one array pass over all candidates.
    """
    a, n = np.nonzero(B)
    v = B[a, n]
    e, f = _matches(n, n)
    key = a[e] * B.shape[0] + a[f]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    terms = (v[e] * v[f] * g[n[e]])[order, None] * signs.T[n[e][order]]
    M = np.add.reduceat(terms, first, axis=0)  # one row per nonzero (a, b)
    row = key[first] // B.shape[0]
    norms = np.add.reduceat(M * M, np.flatnonzero(np.r_[True, row[1:] != row[:-1]]), axis=0)
    return np.all(np.abs(norms - 1.0) <= 1e-10, axis=0)


def component_sign_actions(dec):
    """Sign symmetries of the stabilizer that preserve every summand.

    Returns the kept actions as +-1 vectors over the algebra basis.
    """
    spec = dec.spec
    model = spec.algebra
    g = float(spec.inner_scale) * model.gram
    signs = _basis_signs(model, _position_sign_sets(spec))
    kept = np.ones(len(signs), dtype=bool)
    for sub in dec.submodules:
        kept &= _preserved(sub.orthonormal, g, signs)
    if not kept.any():
        raise GeneratorMismatch(f"no sign symmetry preserves the summands of {spec}")
    return list(signs[kept])


@dataclass
class MetricSpace:
    """Parametrized family of invariant metrics on one flag.

    ``reps`` and ``signs`` are :class:`~einflag.flag.GeneratorTable` s over the
    tangent basis: the isotropy action ``ad(e_p)`` of every isotropy basis
    vector, and the kept sign actions of :func:`component_sign_actions`.
    """

    dec: object
    basis: np.ndarray
    slices: list
    reps: GeneratorTable = field(repr=False)
    signs: GeneratorTable = field(repr=False)
    operators: list = field(repr=False)
    names: list
    pairs: list
    _structure: np.ndarray = field(default=None, repr=False)
    _structure_coo: tuple = field(default=None, repr=False)
    _structure_trace: float = field(default=None, repr=False)
    _operator_rows: tuple = field(default=None, repr=False)
    _killing: np.ndarray = field(default=None, repr=False)

    @property
    def spec(self):
        return self.dec.spec

    @property
    def dim(self):
        return len(self.operators)

    @property
    def tangent_dim(self):
        return self.basis.shape[0]

    @property
    def n_sub(self):
        return len(self.dec.submodules)

    def metric_matrix(self, coeffs):
        # the operators have disjoint supports, so each entry is one product
        d = self.tangent_dim
        return (np.asarray(coeffs, dtype=float) @ self.operator_rows[0]).reshape(d, d)

    @property
    def structure(self):
        """Bracket coefficients over the tangent basis, t[a,b,c] = g0([a,b],c)."""
        if self._structure is None:
            d = self.tangent_dim
            I, J, K, V = self.structure_coo
            t = np.zeros((d, d, d))
            t[I, J, K] = V
            self._structure = t
        return self._structure

    @property
    def structure_coo(self):
        """The nonzeros of :attr:`structure` as ``(I, J, K, V)``, ``t[I, J, K] = V``.

        One gather from the algebra's ``structure_index``: each bracket
        coefficient is pushed through the nonzeros of the tangent basis.  The
        entries at ``(a, b, c)`` and ``(b, a, c)`` are rounded separately, so
        each antisymmetric pair is replaced by half their difference, which
        makes t exactly antisymmetric.  The trace ``z_k = sum_i t[k,i,i]``,
        whose frame image is the trace vector of every metric, must vanish;
        the Ricci formula of :mod:`einflag.curvature` leaves that term out.
        """
        if self._structure_coo is None:
            model = self.spec.algebra
            d = self.tangent_dim
            g = float(self.spec.inner_scale) * model.gram
            rows = _row_entries(self.basis.T)
            a, b, c, v = _coo_transform(
                model.structure_index, (rows, rows, _row_entries((self.basis * g).T)), d
            )
            off = a != b
            lo, hi = np.minimum(a, b)[off], np.maximum(a, b)[off]
            # sorted by (a, b, c), so for a < b the sum is t[a,b,c] - t[b,a,c]
            keys, inv = np.unique((lo * d + hi) * d + c[off], return_inverse=True)
            half = np.bincount(inv, weights=np.where(a < b, v, -v)[off]) / 2
            keep = half != 0
            keys, half = keys[keep], half[keep]
            lo, hi, c = keys // (d * d), keys // d % d, keys % d
            I, J, K, V = np.r_[lo, hi], np.r_[hi, lo], np.r_[c, c], np.r_[half, -half]
            z = np.bincount(I[J == K], weights=V[J == K], minlength=d)
            self._structure_trace = float(np.max(np.abs(z), initial=0.0))
            if self._structure_trace > 1e-12:
                raise InvariantViolation(f"structure tensor of {self.spec} has a nonzero trace")
            self._structure_coo = (I, J, K, V)
        return self._structure_coo

    @property
    def structure_trace(self):
        """``max_k |z_k|`` of the trace of t, which :attr:`structure_coo` bounds."""
        self.structure_coo
        return self._structure_trace

    @property
    def operator_rows(self):
        """The operators flattened to the rows of an ``(n, d*d)`` array, and
        their squared Frobenius norms."""
        if self._operator_rows is None:
            rows = np.array([op.ravel() for op in self.operators])
            self._operator_rows = (rows, np.sum(rows * rows, axis=1))
        return self._operator_rows

    @property
    def killing(self):
        """Killing form over the tangent basis."""
        if self._killing is None:
            model = self.spec.algebra
            self._killing = self.basis @ model.killing_matrix @ self.basis.T
        return self._killing


def _sign_table(flips, B, Bw):
    """The sign actions ``S = B_w diag(s) B^T``, one per row s of ``flips``, as a table.

    One gather of the diagonal entries ``(g, k, k, s_g[k])`` through the
    nonzeros of both bases, as the isotropy action is gathered.
    """
    count, n = flips.shape
    g, k = np.divmod(np.arange(count * n), n)
    one = (np.arange(count + 1), np.arange(count), np.ones(count))
    maps = (one, _row_entries(Bw.T), _row_entries(B.T))
    return GeneratorTable(count, *_coo_transform((g, k, k, flips.ravel()), maps, B.shape[0]))


def _skew_residual(table, d):
    """``max |G + G^T|`` over the generators of a table, from its entries.

    Each entry meets the one at its mirrored position, found by a binary
    search of the sorted keys; an entry without a mirror stands alone.
    """
    key = (table.gen * d + table.row) * d + table.col
    mirror = (table.gen * d + table.col) * d + table.row
    at = np.minimum(np.searchsorted(key, mirror), max(key.size - 1, 0))
    skew = table.value + np.where(key[at] == mirror, table.value[at], 0.0)
    return float(np.max(np.abs(skew), initial=0.0))


def _involution_residual(table, d):
    """``max |S S - I|`` over the generators of a table, from its entries."""
    e, f = _matches(table.gen * d + table.col, table.gen * d + table.row)
    diag = np.arange(table.count * d)  # (g, a) as g * d + a
    key = np.r_[(table.gen[e] * d + table.row[e]) * d + table.col[f], diag * d + diag % d]
    _, inv = np.unique(key, return_inverse=True)
    weights = np.r_[table.value[e] * table.value[f], -np.ones(diag.size)]
    return float(np.max(np.abs(np.bincount(inv, weights=weights)), initial=0.0))


def summand_block(space, table, u):
    """Every generator's diagonal block on summand u, as a ``(count, d_u, d_u)`` stack."""
    s = space.slices[u]
    inside = (table.row >= s.start) & (table.row < s.stop)
    inside &= (table.col >= s.start) & (table.col < s.stop)
    block = np.zeros((table.count, s.stop - s.start, s.stop - s.start))
    block[table.gen[inside], table.row[inside] - s.start, table.col[inside] - s.start] = (
        table.value[inside]
    )
    return block


def commutation_residual(space):
    """Largest entry of ``G O - O G`` over the operator basis and the generators.

    For the projector ``P_i`` of summand i, ``G P_i - P_i G`` is G on the
    blocks of block row i or block column i off the diagonal, and zero
    elsewhere; over all projectors that is every entry of G outside its
    block diagonal.  Given those, the intertwiner of a pair (i, j) leaves
    only ``G_jj B0 - B0 G_ii`` and ``G_ii B0^T - B0^T G_jj``; every generator
    is skew or symmetric, so the second is the transpose of the first up to
    sign and rounding.  No d x d product is formed.
    """
    sl = space.slices
    owner = np.repeat(np.arange(space.n_sub), [s.stop - s.start for s in sl])
    worst = 0.0
    for table in (space.reps, space.signs):
        off_block = owner[table.row] != owner[table.col]
        worst = max(worst, float(np.max(np.abs(table.value[off_block]), initial=0.0)))
        for i, j, B0 in space.pairs:
            resid = summand_block(space, table, j) @ B0 - B0 @ summand_block(space, table, i)
            worst = max(worst, float(np.max(np.abs(resid), initial=0.0)))
    return worst


def _probes(reps, signs, d):
    """Two random combinations of the isotropy reps and one of the signs."""
    rng = default_rng(0)
    x, y = rng.standard_normal(reps.count), rng.standard_normal(reps.count)
    z = rng.standard_normal(signs.count)

    def combine(table, w):
        key = table.row * d + table.col
        return np.bincount(key, weights=w[table.gen] * table.value, minlength=d * d).reshape(d, d)

    return combine(reps, x), combine(reps, y), combine(signs, z)


def _block_hom(block_i, block_j, tol):
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


def _normalized_intertwiner(B0):
    """Scale B0 to B0^T B0 = I with a positive leading entry.

    When the result rounds to a signed permutation within 1e-12, that exact
    permutation is returned: the solved map carries rounding noise in place
    of its zeros, and exact zeros keep the canonical frame sparse.
    """
    G = B0.T @ B0
    c = np.trace(G) / len(G)
    if np.max(np.abs(G - c * np.eye(len(G)))) > 1e-8 * c:
        raise InvariantViolation("intertwiner is not a multiple of an isometry")
    B0 = B0 / np.sqrt(c)
    for val in B0.flatten(order="F"):
        if abs(val) > 1e-8:
            if val < 0:
                B0 = -B0
            break
    R = np.round(B0)
    if (
        np.all(np.sum(np.abs(R), axis=0) == 1)
        and np.all(np.sum(np.abs(R), axis=1) == 1)
        and np.max(np.abs(B0 - R)) <= 1e-12
    ):
        return R
    return B0


def _coefficient_names(spec, n_sub, n_pairs):
    l, part, plus = spec.rank, spec.partition, spec.includes_last_root
    if spec.family == "A":
        if l == 3 and part in {(2, 1, 1), (1, 2, 1), (1, 1, 2)}:
            return ["mu_0", "mu_1", "mu_2", "b"]
        if l == 3 and part == (2, 2):
            return ["mu_1", "mu_2"]
        if len(part) == 3 and n_pairs == 0 and l != 3:
            return ["mu_21", "mu_31", "mu_32"]
    elif spec.family == "B":
        if not plus and part == (l,):
            return ["mu", "gamma_1", "gamma_2"] if l == 4 else ["mu", "gamma"]
        if plus and len(part) == 2:
            return ["rho", "mu"] if part[0] == 1 else ["gamma", "rho", "mu"]
    elif spec.family == "C":
        if not plus and part == (l,):
            return ["mu_0", "mu_1"]
        if plus and len(part) == 2:
            return ["mu_0", "mu_21"] if part[0] == 1 else ["mu_0", "mu_1", "mu_21"]
    elif spec.family == "D":
        if (not plus and part in {(l - 1, 1), (1, l - 1)}) or (
            plus and part == (1, l - 2, 1)
        ):
            return ["gamma", "lambda_1", "lambda_2", "b"]
        if l == 4 and ((part == (4,) and not plus) or (part == (3, 1) and plus)):
            return ["mu_1", "mu_2"]
    return [f"x{i}" for i in range(n_sub)] + [f"b{i}" for i in range(n_pairs)]


@lru_cache(maxsize=None)
def metric_space(spec):
    """Build and verify the invariant-metric family for a flag.

    The generators are kept as :class:`~einflag.flag.GeneratorTable` s:
    ``reps`` is the decomposition's ``isotropy_action``, checked skew entry
    by entry against its mirror, and ``signs`` holds the sign actions,
    gathered the same way and checked to be involutions from their entries.
    """
    dec = decompose_isotropy(spec)
    model = spec.algebra
    g = float(spec.inner_scale) * model.gram
    Bm, slices = tangent_basis(dec)
    Bw = Bm * g
    d = Bm.shape[0]
    subs = dec.submodules

    reps = dec.isotropy_action
    if _skew_residual(reps, d) > 1e-10:
        raise InvariantViolation(f"isotropy action on {spec} is not skew")

    signs = _sign_table(np.array(component_sign_actions(dec)), Bm, Bw)
    if _involution_residual(signs, d) > 1e-10:
        raise InvariantViolation(f"sign action on {spec} is not an involution")

    # Schur's lemma block by block: Sym End(m_i) on each summand and
    # Hom(m_i, m_j) for each pair i < j, against the probes.
    probes = _probes(reps, signs, d)
    blocks = []
    for sl in slices:
        X = probes[0][sl, sl]
        lam, U = np.linalg.eigh(X @ X)
        blocks.append((lam, U, [U.T @ G[sl, sl] @ U for G in probes]))
    tol = 1e-8 * max(np.max(np.abs(lam)) for lam, _, _ in blocks)
    homs = {}
    found = 0
    for i in range(len(slices)):
        for j in range(i, len(slices)):
            maps = _block_hom(blocks[i], blocks[j], tol)
            if i < j:
                homs[i, j] = maps
                found += len(maps)
            elif maps:
                sym = np.array([(T + T.T).ravel() for T in maps])
                found += int(np.sum(np.linalg.svd(sym, compute_uv=False) > 1e-6))

    pairs = []
    for cls in dec.equiv_classes:
        if len(cls) != 2:
            raise UnimplementedCase(
                f"metric space of {spec} has a {len(cls)}-member equivalence class"
            )
        i, j = sorted(cls)
        maps = homs[i, j]
        if len(maps) != 1:
            raise InvariantViolation(
                f"declared pair {subs[i].name}~{subs[j].name} of "
                f"{spec} has intertwiner multiplicity {len(maps)}"
            )
        pairs.append((i, j, _normalized_intertwiner(maps[0])))

    operators = []
    for s in slices:
        P = np.zeros((d, d))
        P[s, s] = np.eye(s.stop - s.start)
        operators.append(P)
    for i, j, B0 in pairs:
        S = np.zeros((d, d))
        S[slices[j], slices[i]] = B0
        S[slices[i], slices[j]] = B0.T
        operators.append(S)

    names = _coefficient_names(spec, len(slices), len(pairs))
    space = MetricSpace(dec, Bm, slices, reps, signs, operators, names, pairs)

    # The operators commute with every generator, so they span part of the
    # true commutant, which the probe commutant contains; equal counts prove
    # that they span all of it.
    if commutation_residual(space) > 1e-10:
        raise InvariantViolation(f"operator basis of {spec} fails to commute")
    declared = {(i, j) for i, j, _ in pairs}
    for (i, j), maps in homs.items():
        if maps and (i, j) not in declared:
            raise InvariantViolation(
                f"summands {subs[i].name} and {subs[j].name} "
                f"of {spec} are equivalent but not declared so"
            )
    if found != len(operators):
        raise InvariantViolation(
            f"{spec}: expected a {len(operators)}-dimensional metric space, "
            f"commutant has dimension {found}"
        )
    return space


@dataclass(frozen=True)
class InvariantMetric:
    """Coefficients, matrix ``A`` and :func:`metric_eigenvalues` ``spectrum`` of a metric."""

    space: MetricSpace
    coeffs: np.ndarray
    matrix: np.ndarray = field(repr=False)
    spectrum: np.ndarray = field(repr=False)

    @property
    def names(self):
        return self.space.names

    def __str__(self):
        body = ", ".join(f"{n}={c:.6g}" for n, c in zip(self.names, self.coeffs))
        return f"metric({body})"


def _eigenvalue_list(space, c):
    """:func:`metric_eigenvalues` of one finite coefficient vector, as floats.

    The same operations as the stacked path, in the same order, on plain
    floats; ``np.hypot`` is kept because ``math.hypot`` rounds differently.
    """
    s = space.n_sub
    vals = c.tolist()
    lam = vals[:s]
    for k, (i, j, _) in enumerate(space.pairs):
        xi, xj, b = vals[i], vals[j], vals[s + k]
        if abs(b) < 1e-14:
            continue
        tr, gap = xi + xj, float(np.hypot(2.0 * b, xi - xj))
        up = tr >= 0
        big = (tr + (gap if up else -gap)) / 2.0
        small = (xi * xj - b * b) / big if big != 0 else 0.0
        lam[i], lam[j] = (small, big) if up else (big, small)
    return lam


def metric_eigenvalues(space, coeffs):
    """Eigenvalues of the metric operator from its coefficients, one per summand.

    An unpaired summand carries ``x_i``.  A pair carries the eigenvalues of
    ``[[x_i, b], [b, x_j]]`` (``B0^T B0 = I``), the smaller ``xi1`` on
    summand i, as in :func:`orthonormal_frame`: the one of larger magnitude
    from the trace, the other from ``xi1 xi2 = x_i x_j - b^2``, so neither
    cancels.  An unmixed pair, ``|b| < 1e-14``, keeps ``x_i`` and ``x_j``.
    Shape ``(..., n)`` in, ``(..., n_sub)`` out, with summand multiplicities.
    """
    c = np.asarray(coeffs, dtype=float)
    s = space.n_sub
    lam = np.array(c[..., :s])
    if not space.pairs:
        return lam
    i, j = np.array([p[:2] for p in space.pairs]).T
    xi, xj, b = c[..., i], c[..., j], c[..., s:]
    tr, gap = xi + xj, np.hypot(2.0 * b, xi - xj)
    up = tr >= 0
    big = (tr + np.where(up, gap, -gap)) / 2.0
    # big is 0 only for x_i = x_j = b = 0, an unmixed pair
    small = np.divide(xi * xj - b * b, big, out=np.zeros_like(big), where=big != 0)
    mixed = np.abs(b) >= 1e-14
    lam[..., i] = np.where(mixed, np.where(up, small, big), xi)
    lam[..., j] = np.where(mixed, np.where(up, big, small), xj)
    return lam


def _indefinite(lo, hi):
    """The positive-definiteness rule: where it fails, from extreme eigenvalues.

    A coefficient vector is a metric when its smallest eigenvalue ``lo``
    exceeds ``1e-12 * max(1, |hi|)``, ``hi`` its largest.  Floats give a
    bool, arrays a mask; the bound is taken as ``max(1e-12, 1e-12 * |hi|)``,
    the same number since rounding is monotone, so both compare alike.
    """
    return (lo <= 1e-12) | (lo <= 1e-12 * abs(hi))


def _not_definite(c, lo):
    return NotPositiveDefinite(
        f"metric coefficients {c.tolist()} are not positive definite",
        min_eigenvalue=float(lo),
    )


def positive_spectrum(space, coeffs):
    """:func:`metric_eigenvalues`, after the :func:`_indefinite` rule.

    ``coeffs`` has shape ``(..., n)``; the first row that fails raises
    :class:`NotPositiveDefinite`.  One vector, as :func:`make_metric` passes
    after rejecting non-finite coefficients, goes through plain floats, bit
    for bit the stacked result.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim == 1:
        lam = _eigenvalue_list(space, c)
        lo = min(lam)
        if _indefinite(lo, max(lam)):
            raise _not_definite(c, lo)
        return np.array(lam)
    lam = metric_eigenvalues(space, c)
    lo = lam.min(axis=-1)
    bad = _indefinite(lo, lam.max(axis=-1))
    if np.any(bad):
        k = np.unravel_index(np.argmax(bad), bad.shape)
        raise _not_definite(c[k], lo[k])
    return lam


def make_metric(space, coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.dim,):
        raise ValueError(f"expected {space.dim} coefficients, got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"metric coefficients {coeffs.tolist()} are not finite")
    lam = positive_spectrum(space, coeffs)
    return InvariantMetric(space, coeffs, space.metric_matrix(coeffs), lam)


def volume_root(space, lam):
    """``det(A)^(1/d)`` from a ``(..., n_sub)`` :func:`metric_eigenvalues` stack."""
    dims = [s.stop - s.start for s in space.slices]
    return np.exp(np.log(lam) @ dims / space.tangent_dim)


@dataclass(frozen=True)
class Frame:
    """A metric-orthonormal frame adapted to the summand structure.

    ``vectors`` has the frame as columns over the tangent basis;
    ``eigenvalues`` holds the metric-operator eigenvalue of each column;
    ``groups`` lists column indices sharing one eigenvalue block, in summand
    order; ``partners`` matches the coupled column pairs of each intertwined
    block.
    """

    metric: InvariantMetric
    vectors: np.ndarray
    eigenvalues: np.ndarray
    groups: list
    partners: list

    @cached_property
    def inverse(self):
        """``vectors^-1``, computed once per frame: the explicit-frame route
        of :func:`~einflag.curvature.curvature` reads it in every slab."""
        return np.linalg.inv(self.vectors)


def orthonormal_frame(metric):
    """The canonical metric-orthonormal eigenframe of an invariant metric."""
    space = metric.space
    coeffs = metric.coeffs
    d = space.tangent_dim
    slices = space.slices
    n_sub = space.n_sub
    lam = metric.spectrum
    eig = np.repeat(lam, [s.stop - s.start for s in slices])
    # each column starts as its basis vector scaled to unit g-length; the
    # columns of a mixed pair are replaced below
    V = np.diag(1.0 / np.sqrt(eig))

    partners = []
    for k, (i, j, B0) in enumerate(space.pairs):
        si, sj = slices[i], slices[j]
        xi, xj, b = coeffs[i], coeffs[j], coeffs[n_sub + k]
        di = si.stop - si.start
        partners += [(si.start + r, sj.start + r) for r in range(di)]
        if abs(b) < 1e-14:
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

    lead = V[np.argmax(np.abs(V) > 1e-12, axis=0), np.arange(d)]
    V[:, lead < 0] *= -1.0

    groups = [list(range(s.start, s.stop)) for s in slices]
    if np.max(np.abs(V.T @ metric.matrix @ V - np.eye(d))) > 1e-9:
        raise InvariantViolation("frame is not orthonormal for the metric")
    return Frame(metric, V, eig, groups, partners)
