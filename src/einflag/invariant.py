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
this is verified explicitly for every constructed space.

The operator basis is canonical: orthogonal projectors onto the summands in
catalogue order, followed by one symmetric intertwiner per equivalent pair,
normalized so its off-diagonal block ``B0`` satisfies ``B0^T B0 = I`` with a
positive leading entry.  Coefficients for the projectors are the diagonal
scales; the intertwiner coefficients are the mixing parameters (named ``b``
for the four-parameter families).
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    GeneratorMismatch,
    InvariantViolation,
    NotPositiveDefinite,
    UnimplementedCase,
)
from .flag import decompose_isotropy

__all__ = [
    "MetricSpace",
    "InvariantMetric",
    "Frame",
    "metric_space",
    "make_metric",
    "orthonormal_frame",
    "component_sign_actions",
]

_FULL_KERNEL_LIMIT = 36
_SMALL_SOLVE_LIMIT = 1024


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


def _basis_signs(model, flipped):
    out = np.ones(model.n)
    for k, e in enumerate(model.basis):
        s = 1
        for pos, c in enumerate(e.root, start=1):
            if c % 2 and pos in flipped:
                s = -s
        out[k] = s
    return out


def component_sign_actions(dec):
    """Sign symmetries of the stabilizer that preserve every summand.

    Returns the kept actions as +-1 vectors over the algebra basis.
    """
    spec = dec.spec
    model = spec.algebra
    g = float(spec.inner_scale) * model.gram
    kept = []
    for flipped in _position_sign_sets(spec):
        s = _basis_signs(model, flipped)
        ok = True
        for sub in dec.submodules:
            B = sub.orthonormal
            img = B * s
            if np.max(np.abs(img - (img @ (B * g).T) @ B)) > 1e-10:
                ok = False
                break
        if ok:
            kept.append(s)
    if not kept:
        raise GeneratorMismatch(f"no sign symmetry preserves the summands of {spec}")
    return kept


def tangent_basis(dec):
    """Stacked orthonormal summand bases and their row slices."""
    rows = np.vstack([s.orthonormal for s in dec.submodules])
    slices = []
    start = 0
    for s in dec.submodules:
        slices.append(slice(start, start + s.dim))
        start += s.dim
    return rows, slices


@dataclass
class MetricSpace:
    """Parametrized family of invariant metrics on one flag."""

    dec: object
    basis: np.ndarray
    slices: list
    reps: list = field(repr=False)
    signs: list = field(repr=False)
    operators: list = field(repr=False)
    names: list
    pairs: list
    _structure: np.ndarray = field(default=None, repr=False)
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
        A = np.zeros((self.tangent_dim, self.tangent_dim))
        for c, op in zip(coeffs, self.operators):
            A += c * op
        return A

    @property
    def structure(self):
        """Bracket coefficients over the tangent basis, t[a,b,c] = g0([a,b],c)."""
        if self._structure is None:
            model = self.spec.algebra
            d = self.tangent_dim
            g = float(self.spec.inner_scale) * model.gram
            Bw = self.basis * g
            t = np.empty((d, d, d))
            for a, x in enumerate(self.basis):
                t[a] = (self.basis @ model.ad(x)) @ Bw.T
            # t[a, b] and t[b, a] are rounded separately; averaging them makes
            # t exactly antisymmetric.  Row by row, so no second d^3 array.
            for a in range(d):
                half = (t[a, a:] - t[a:, a]) / 2
                t[a, a:] = half
                t[a:, a] = -half
            self._structure = t
        return self._structure

    @property
    def killing(self):
        """Killing form over the tangent basis."""
        if self._killing is None:
            model = self.spec.algebra
            self._killing = self.basis @ model.killing_matrix @ self.basis.T
        return self._killing


def _block(mat, slices, i, j):
    return mat[slices[i], slices[j]]


def _intertwiner(gens_i, gens_j, di, dj):
    """One-dimensional kernel of T M_i = M_j T, normalized with T^T T = I."""
    cols = []
    for k in range(dj * di):
        E = np.zeros((dj, di))
        E.flat[k] = 1.0
        rows = [E @ Mi - Mj @ E for Mi, Mj in zip(gens_i, gens_j)]
        cols.append(np.concatenate([r.ravel() for r in rows]))
    L = np.array(cols).T
    _, sv, vt = np.linalg.svd(L)
    tol = max(L.shape) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)
    null_dim = int(np.sum(sv < max(tol, 1e-10)))
    if null_dim != 1:
        return null_dim, None
    B0 = vt[-1].reshape(dj, di)
    G = B0.T @ B0
    c = np.trace(G) / di
    if np.max(np.abs(G - c * np.eye(di))) > 1e-8 * c:
        raise InvariantViolation("intertwiner is not a multiple of an isometry")
    B0 = B0 / np.sqrt(c)
    for val in B0.flatten(order="F"):
        if abs(val) > 1e-8:
            if val < 0:
                B0 = -B0
            break
    return 1, B0


def _sym_commutant_dim(gens, d):
    pairs = [(p, q) for p in range(d) for q in range(p, d)]
    cols = []
    for p, q in pairs:
        A = np.zeros((d, d))
        A[p, q] = 1.0
        A[q, p] = 1.0
        cols.append(np.concatenate([(G @ A - A @ G).ravel() for G in gens]))
    M = np.array(cols).T
    sv = np.linalg.svd(M, compute_uv=False)
    tol = max(M.shape) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)
    return int(np.sum(sv < max(tol, 1e-8)))


def _casimir(space):
    spec = space.spec
    g = float(spec.inner_scale) * spec.algebra.gram
    d = space.tangent_dim
    C = np.zeros((d, d))
    for p, R in zip(space.dec.isotropy_indices, space.reps):
        C -= (R @ R) / g[p]
    return C


def _certify_inequivalent(space):
    """For large spaces, prove that no undeclared pair of summands is
    equivalent (distinct Casimir spectra, sign-action obstruction, or a
    direct intertwiner solve)."""
    dec = space.dec
    slices = space.slices
    declared = {frozenset(p) for p in dec.equiv_classes}
    C = _casimir(space)
    sigs = [np.sort(np.linalg.eigvalsh(_block(C, slices, i, i))) for i in range(space.n_sub)]

    for i in range(space.n_sub):
        for j in range(i + 1, space.n_sub):
            if frozenset((i, j)) in declared:
                continue
            di = slices[i].stop - slices[i].start
            dj = slices[j].stop - slices[j].start
            if di != dj:
                continue
            if np.max(np.abs(sigs[i] - sigs[j])) > 1e-6:
                continue
            blocks_i = [_block(S, slices, i, i) for S in space.signs]
            blocks_j = [_block(S, slices, j, j) for S in space.signs]
            if all(_is_diag(b) for b in blocks_i + blocks_j):
                mask = np.ones((dj, di), dtype=bool)
                for bi, bj in zip(blocks_i, blocks_j):
                    mask &= np.abs(np.subtract.outer(np.diag(bj), np.diag(bi))) < 1e-9
                if not mask.any():
                    continue
            if di * dj <= _SMALL_SOLVE_LIMIT:
                gens_i = [_block(R, slices, i, i) for R in space.reps] + blocks_i
                gens_j = [_block(R, slices, j, j) for R in space.reps] + blocks_j
                null_dim, _ = _intertwiner(gens_i, gens_j, di, dj)
                if null_dim == 0:
                    continue
                raise InvariantViolation(
                    f"summands {dec.submodules[i].name} and {dec.submodules[j].name} "
                    f"of {space.spec} are equivalent but not declared so"
                )
            raise InvariantViolation(
                f"cannot certify inequivalence of {dec.submodules[i].name} and "
                f"{dec.submodules[j].name} for {space.spec}"
            )


def _is_diag(mat):
    return np.max(np.abs(mat - np.diag(np.diag(mat)))) < 1e-10


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
    """Build and verify the invariant-metric family for a flag."""
    dec = decompose_isotropy(spec)
    model = spec.algebra
    g = float(spec.inner_scale) * model.gram
    Bm, slices = tangent_basis(dec)
    Bw = Bm * g
    d = Bm.shape[0]

    reps = []
    for p in dec.isotropy_indices:
        ep = np.zeros(model.n)
        ep[p] = 1.0
        R = Bw @ (Bm @ model.ad(ep)).T
        if np.max(np.abs(R + R.T)) > 1e-10:
            raise InvariantViolation(f"isotropy action on {spec} is not skew")
        reps.append(R)

    signs = []
    for s in component_sign_actions(dec):
        S = Bw @ (Bm * s).T
        if np.max(np.abs(S @ S - np.eye(d))) > 1e-10:
            raise InvariantViolation(f"sign action on {spec} is not an involution")
        signs.append(S)

    pairs = []
    for cls in dec.equiv_classes:
        if len(cls) != 2:
            raise UnimplementedCase(
                f"metric space of {spec} has a {len(cls)}-member equivalence class"
            )
        i, j = cls
        di = slices[i].stop - slices[i].start
        dj = slices[j].stop - slices[j].start
        if di != dj:
            raise InvariantViolation("equivalent summands with different dimensions")
        gens_i = [_block(R, slices, i, i) for R in reps] + [
            _block(S, slices, i, i) for S in signs
        ]
        gens_j = [_block(R, slices, j, j) for R in reps] + [
            _block(S, slices, j, j) for S in signs
        ]
        null_dim, B0 = _intertwiner(gens_i, gens_j, di, dj)
        if null_dim != 1:
            raise InvariantViolation(
                f"declared pair {dec.submodules[i].name}~{dec.submodules[j].name} of "
                f"{spec} has intertwiner multiplicity {null_dim}"
            )
        pairs.append((i, j, B0))

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

    for A in operators:
        for G in reps + signs:
            if np.max(np.abs(G @ A - A @ G)) > 1e-10:
                raise InvariantViolation(f"operator basis of {spec} fails to commute")
    if d <= _FULL_KERNEL_LIMIT:
        found = _sym_commutant_dim(reps + signs, d)
        if found != len(operators):
            raise InvariantViolation(
                f"{spec}: expected a {len(operators)}-dimensional metric space, "
                f"commutant has dimension {found}"
            )
    else:
        _certify_inequivalent(space)
    return space


@dataclass(frozen=True)
class InvariantMetric:
    space: MetricSpace
    coeffs: np.ndarray
    matrix: np.ndarray = field(repr=False)

    @property
    def names(self):
        return self.space.names

    def __str__(self):
        body = ", ".join(f"{n}={c:.6g}" for n, c in zip(self.names, self.coeffs))
        return f"metric({body})"


def make_metric(space, coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.dim,):
        raise ValueError(f"expected {space.dim} coefficients, got {coeffs.shape}")
    A = space.metric_matrix(coeffs)
    evs = np.linalg.eigvalsh(A)
    if evs[0] <= 1e-12 * max(1.0, abs(evs[-1])):
        raise NotPositiveDefinite(
            f"metric coefficients {coeffs.tolist()} are not positive definite",
            min_eigenvalue=float(evs[0]),
        )
    return InvariantMetric(space, coeffs, A)


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


def orthonormal_frame(metric):
    """The canonical metric-orthonormal eigenframe of an invariant metric."""
    space = metric.space
    coeffs = metric.coeffs
    d = space.tangent_dim
    slices = space.slices
    n_sub = space.n_sub
    V = np.zeros((d, d))
    eig = np.zeros(d)
    group_of = {}

    in_pair = {}
    for k, (i, j, _) in enumerate(space.pairs):
        in_pair[i] = k
        in_pair[j] = k

    partners = []
    for idx in range(n_sub):
        s = slices[idx]
        cols = list(range(s.start, s.stop))
        group_of[idx] = cols
        if idx not in in_pair:
            x = coeffs[idx]
            V[s, s] = np.eye(len(cols)) / np.sqrt(x)
            eig[cols] = x

    for k, (i, j, B0) in enumerate(space.pairs):
        si, sj = slices[i], slices[j]
        xi, xj, b = coeffs[i], coeffs[j], coeffs[n_sub + k]
        di = si.stop - si.start
        partners += [(si.start + r, sj.start + r) for r in range(di)]
        if abs(b) < 1e-14:
            V[si, si] = np.eye(di) / np.sqrt(xi)
            V[sj, sj] = np.eye(di) / np.sqrt(xj)
            eig[si] = xi
            eig[sj] = xj
            continue
        delta = xi - xj
        gap = np.hypot(2.0 * b, delta)
        xi2 = (xi + xj + gap) / 2.0
        xi1 = (xi * xj - b * b) / xi2  # product form; the difference cancels
        # eigenvector components chosen to avoid differencing near-equal
        # quantities: (alpha, beta) is (xi_k - xj, b) or (b, xi_k - xi),
        # whichever difference is the numerically large one
        if delta >= 0:
            a1, b1 = b, -(delta + gap) / 2.0  # xi1 - xi
            a2, b2 = (delta + gap) / 2.0, b  # xi2 - xj
        else:
            a1, b1 = (delta - gap) / 2.0, b  # xi1 - xj
            a2, b2 = b, (gap - delta) / 2.0  # xi2 - xi
        for r in range(di):
            u = np.zeros(d)
            u[si.start + r] = 1.0
            v = np.zeros(d)
            v[sj] = B0[:, r]
            c1 = xi1 * (a1 * a1 + b1 * b1)
            V[:, si.start + r] = (a1 * u + b1 * v) / np.sqrt(c1)
            c2 = xi2 * (a2 * a2 + b2 * b2)
            V[:, sj.start + r] = (a2 * u + b2 * v) / np.sqrt(c2)
        eig[si] = xi1
        eig[sj] = xi2

    for c in range(d):
        col = V[:, c]
        lead = col[np.argmax(np.abs(col) > 1e-12)]
        if lead < 0:
            V[:, c] = -col

    groups = [group_of[idx] for idx in range(n_sub)]
    if np.max(np.abs(V.T @ metric.matrix @ V - np.eye(d))) > 1e-9:
        raise InvariantViolation("frame is not orthonormal for the metric")
    return Frame(metric, V, eig, groups, partners)
