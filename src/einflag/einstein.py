"""Invariant Einstein metrics: exact counts, a catalog of exact branches, screening.

Einstein metrics come in homothety rays, so everything here works in the
gauge where the last diagonal coefficient equals one.  :func:`solve` has
one route.  Its solutions are the roots of two stages, each counted
exactly by resultants and Sturm sequences (:mod:`einflag.algebraic`): the
diagonal Einstein metrics, and on a flag with an equivalent pair the ones
with a nonzero mixing coefficient, and each stage's
:class:`StageCertificate` records its count.  A root that an exact branch
of the catalog (:func:`closed_form_solutions`) matches is replaced by the
branch, reported under its name with its own closed-form coefficients,
which may differ from the root in the last bit; each reported solution is
certified once on the reduced engine that the counts solve, which gives
its Einstein constant and defect.  The catalog and the published Table 1
rows are keyed by :attr:`~einflag.flag.FlagSpec.shape`.
A system the exact count does not cover raises :class:`NoExactCount`; no
search stands in for it.

The screening step groups solutions by the scale-invariant Einstein
constant and tries to realize coincidences by explicit isometries: ambient
conjugations that normalize the isotropy algebra pull one metric back to
another, which proves equivalence; distinct constants prove distinctness;
anything else stays undecided.  A witness acts on the metric coefficients
as a linear map, built and checked once per flag in one batched pass over
the candidates (:func:`_witness_maps`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebraic import diagonal_count, mixed_count, normal_is_einstein
# curvature is unused here; bench/tracing.py wraps it by this name
from .curvature import curvature, reduced_ricci  # noqa: F401
from .errors import InvariantViolation, NoCatalogEntry, TooManyParameters
from .flag import TableExpectation, _blocks, manifold_name, parse_flag_spec
from .invariant import make_metric, metric_space, volume_root

__all__ = [
    "EinsteinSolution",
    "EquivalenceGroup",
    "SolutionSet",
    "StageCertificate",
    "TableExpectation",
    "TableRow",
    "closed_form_solutions",
    "numeric_solutions",
    "equivalence_screen",
    "published_row",
    "solve",
    "table1_row",
]

DEFECT_TOL = 1e-9
MATCH_RTOL = 1e-6
CONSTANT_RTOL = 1e-8


@dataclass(frozen=True)
class EinsteinSolution:
    """One invariant Einstein metric in the unit-last-coefficient gauge.

    Its constants, scalar curvature and defect are read off the reduced
    engine (:func:`_solution`).
    Solutions are shared by the memoised routes, so the arrays of the
    metric are read-only.
    """

    metric: object
    constant: float
    normalized_constant: float
    scalar: float
    defect: float
    provenance: str  # "closed-form" | "numeric"
    rule_id: str

    @property
    def coeffs(self):
        return self.metric.coeffs

    def __repr__(self):
        vals = ", ".join(f"{n}={c:.6g}" for n, c in zip(self.metric.names, self.coeffs))
        return f"EinsteinSolution[{self.rule_id}]({vals})"


@dataclass(frozen=True)
class EquivalenceGroup:
    """Solutions sharing the normalized Einstein constant, with a verdict.

    ``ProvenDistinct``: the single member differs from every other solution
    in the constant, an isometry invariant.  ``WitnessedEquivalent``: the
    members are pairwise connected by explicit isometry pullbacks.
    ``Undecided``: constants coincide but no witness was found.
    """

    indices: tuple
    constant: float
    tag: str


@dataclass(frozen=True)
class StageCertificate:
    """How one stage of the exact counts was proved complete.

    ``stage`` is ``"diagonal"`` or ``"mixed"``.  ``status`` is
    ``"certified"``: an exact count proved the stage's solution set.  A
    stage counted through plane curves (a diagonal stage of three summands,
    and every mixed stage) records the ``shear`` k of ``u = x + k y`` it
    was counted through, and every stage the multiplicity of each of its
    roots, in root order.
    """

    stage: str
    status: str
    shear: int | None = None
    multiplicities: tuple = ()


@dataclass(frozen=True)
class SolutionSet:
    """Deduplicated Einstein metrics of one flag plus their screening.

    ``completeness`` holds one :class:`StageCertificate` per stage of the
    exact counts.
    """

    spec: object
    solutions: tuple
    groups: tuple = ()
    completeness: tuple = ()

    @property
    def count(self):
        return len(self.solutions)

    def relation(self, i, j):
        """Screening verdict for one pair of solutions.

        Raises :class:`IndexError` unless both indices lie in
        ``range(count)``.
        """
        for k in (i, j):
            if k not in range(self.count):
                raise IndexError(f"solution index {k} out of range({self.count})")
        if i == j:
            return "WitnessedEquivalent"
        gi = next(g for g in self.groups if i in g.indices)
        gj = next(g for g in self.groups if j in g.indices)
        if gi is gj:
            return "WitnessedEquivalent"
        scale = max(1.0, abs(gi.constant), abs(gj.constant))
        if abs(gi.constant - gj.constant) > CONSTANT_RTOL * scale:
            return "ProvenDistinct"
        return "Undecided"


# ---------------------------------------------------------------------------
# closed-form catalog


def _solution(space, coeffs, provenance, rule_id):
    """Certify one candidate on the reduced engine.

    An Einstein metric of constant c has Ricci coefficients ``rho = c
    alpha``, alpha its own, and scalar curvature ``c d``; a defect ``max
    |rho - c alpha|`` at or above ``DEFECT_TOL`` raises :class:`InvariantViolation`.
    """
    metric = make_metric(space, np.array(coeffs, dtype=float))
    engine = reduced_ricci(space.spec)
    scalar = float(engine.scalar(metric.coeffs))
    c = scalar / space.tangent_dim
    defect = float(np.max(np.abs(engine(metric.coeffs) - c * metric.coeffs)))
    if not defect < DEFECT_TOL:
        raise InvariantViolation(
            f"{space.spec} candidate {rule_id} has Einstein defect {defect:.3e}"
        )
    # the solution is memoised and shared: freeze every array it hands out
    for arr in (metric.coeffs, metric.matrix, metric.spectrum):
        arr.setflags(write=False)
    normalized = c * float(volume_root(space, metric.spectrum))
    return EinsteinSolution(metric, c, normalized, scalar, defect, provenance, rule_id)


def _a_three(l, p):
    # catalogued only with two equal blocks of at least three after the first
    if not (p[1] == p[2] and p[1] >= 3):
        return None
    l1, m = p[0], p[1]
    out = []
    # branch with equal first two coefficients
    a1 = 2 * m + l1 - 2
    disc1 = l1 * l1 - 4 * (m - 1)
    if disc1 >= 0:
        roots = {(a1 + math.sqrt(disc1)) / (4 * (m - 1)), (a1 - math.sqrt(disc1)) / (4 * (m - 1))}
        out += [(tag, (x, x, 1.0)) for tag, x in zip(("sym+", "sym-"), sorted(roots, reverse=True)) if x > 0]
    # swapped-pair branch
    a2 = m * (m + l1 - 1) * (2 * m + l1 - 2)
    disc2 = (m + l1 - 1) * (
        -l1 * l1 + l1 * (m - 2) ** 2 + m**3 - 4 * m * m + 8 * m - 4
    )
    # a double root (disc2 = 0) is the one branch pair+
    if disc2 >= 0:
        den = 2 * m * m * (m + l1 - 1)
        y1 = (a2 + m * math.sqrt(disc2)) / den
        y2 = (a2 - m * math.sqrt(disc2)) / den
        if y1 > 0 and y2 > 0:
            out.append(("pair+", (y1, y2, 1.0)))
            if abs(y1 - y2) > 1e-12 * max(y1, y2):
                out.append(("pair-", (y2, y1, 1.0)))
    return out


def _d_pair(l, p):
    # at l = 4, s = 0 and F2 is F1
    s = math.sqrt(l * l - 5.0 * l + 4.0) / (2.0 * (l - 1.0))
    out = [("F1", (1 / (1 + s), (1 - s) / (1 + s), 1.0, 0.0))]
    if s > 1e-12:
        out.append(("F2", (1 / (1 - s), (1 + s) / (1 - s), 1.0, 0.0)))
    return out + _mixed("F", 3)


def _mixed(tag, first):
    """The four mixed branches of a flag with an equivalent pair, related by
    swaps and mixing-sign flips."""
    coeffs = [(2.0 / 3.0, 1.0 / 3.0, 1.0, 1.0 / 3.0), (2.0, 3.0, 1.0, 1.0)]
    coeffs += [(*c[:3], -c[3]) for c in coeffs]
    return [(f"{tag}{first + k}", c) for k, c in enumerate(coeffs)]


# the exact branches of each shape key from the rank l and partition p, as
# (rule_id, coefficients) pairs; a key absent here, or a formula giving
# None, has no catalog entry.  The "normal" keys have the normal metric only,
# and C-full's center direction is Ricci flat at every invariant metric.
_CLOSED_FORMS = {
    "A3-split": lambda l, p: [("normal", (1.0, 1.0))],
    "A3-irreducible": lambda l, p: [("normal", (1.0,))],
    "D-full": lambda l, p: [("normal", (1.0,))],
    "D4-full": lambda l, p: [("normal", (1.0, 1.0))],
    "A3-pair": lambda l, p: [("E1", (4.0 / 3.0, 1.0, 1.0, 0.0))] + _mixed("E", 2),
    "A-three": _a_three,
    "B-full": lambda l, p: [("mu-half", (0.5, 1.0)), ("mu-upper", (l / (2.0 * l - 4.0), 1.0))],
    "B4-full": lambda l, p: [("mu-half", (0.5, 1.0, 1.0)), ("normal", (1.0, 1.0, 1.0))],
    "B-plus1": lambda l, p: [("ratio", ((l - 2.0) / (l - 1.0), 1.0))],
    "C-full": lambda l, p: [],
    "C-plus1": lambda l, p: [("mu0-double", (2.0, 1.0))],
    "D-pair": _d_pair,
}


def _catalog_entries(spec):
    """Exact gauge-normalized solutions, as (rule_id, coefficients) pairs."""
    entries = _CLOSED_FORMS.get(spec.shape, lambda l, p: None)(spec.rank, spec.partition)
    if entries is None:
        raise NoCatalogEntry(f"no closed-form catalog for {spec}")
    return entries


def closed_form_solutions(spec):
    """Exact Einstein metrics of a catalogued flag, verified numerically.

    Raises :class:`NoCatalogEntry` for flags outside the catalog.  Every
    returned solution has passed the Einstein-defect gate.  The catalog is
    evaluated once per flag and process; each call returns a fresh list of
    the memoised solutions.
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    return list(_closed_cached(spec))


@lru_cache(maxsize=None)
def _closed_cached(spec):
    entries = _catalog_entries(spec)
    space = metric_space(spec)
    return tuple(
        _solution(space, coeffs, "closed-form", rule) for rule, coeffs in entries
    )


# ---------------------------------------------------------------------------
# the roots of the exact counts


def _matches(rows, other):
    """Whether each of ``rows`` (one vector or a stack) matches ``other``.

    The one match rule of the module: every coordinate within
    ``MATCH_RTOL`` of ``other``, relative to one plus its largest entry.
    """
    return np.max(np.abs(rows - other), axis=-1) <= MATCH_RTOL * (
        1.0 + np.max(np.abs(other))
    )


def _canonical_key(vector):
    return tuple(np.round(vector, 9))


def _stage(space, stage, count):
    """The roots of one stage's exact count and the stage's certificate.

    The roots are read-only full coefficient vectors in canonical order:
    the count's free coordinates with the gauged coefficient one inserted,
    and zero mixing coefficients where the count has none.
    """
    s = space.n_sub
    found = []
    for point, m in zip(count.points, count.multiplicities):
        full = point[: s - 1] + (1.0,) + point[s - 1 :]
        vec = np.zeros(space.dim)
        vec[: len(full)] = full
        vec.setflags(write=False)
        found.append((vec, m))
    found.sort(key=lambda item: _canonical_key(item[0]))
    return [vec for vec, _ in found], StageCertificate(
        stage, "certified", count.shear, tuple(m for _, m in found)
    )


def _require_countable(space):
    """Raise :class:`TooManyParameters` for a metric family of more than
    four coefficients, which the exact counts do not cover."""
    if space.dim > 4:
        raise TooManyParameters(
            f"{space.spec} has a {space.dim}-parameter metric family; "
            "the exact counts handle at most 4"
        )


# solve certifies only the roots it reports, so nothing in the package
# calls this; the benchmark tracer (bench/tracing.py) wraps it by this name
def numeric_solutions(spec):
    """The roots of the exact counts (:func:`_exact_roots`), each certified
    on the reduced engine (:func:`_solution`) on every call, as ``numeric-k``.

    Raises :class:`TooManyParameters` for metric families with more than
    four coefficients and :class:`NoExactCount` when a stage cannot be
    counted exactly.
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    space, roots = metric_space(spec), _exact_roots(spec)[0]
    return [_solution(space, v, "numeric", f"numeric-{k + 1}") for k, v in enumerate(roots)]


@lru_cache(maxsize=None)
def _exact_roots(spec):
    """The roots of one flag's exact counts and the certificate of each stage."""
    space = metric_space(spec)
    _require_countable(space)
    engine = reduced_ricci(spec)
    stages = [_stage(space, "diagonal", diagonal_count(engine))]
    if space.pairs:
        stages.append(_stage(space, "mixed", mixed_count(engine)))
    roots = sorted((vec for found, _ in stages for vec in found), key=_canonical_key)
    return tuple(roots), tuple(cert for _, cert in stages)


# ---------------------------------------------------------------------------
# equivalence screening


def _gauge(space, coeffs):
    """Coefficient vectors, or a stack of them, scaled to a unit last
    diagonal coefficient."""
    coeffs = np.asarray(coeffs, dtype=float)
    s = space.n_sub
    return coeffs / coeffs[..., s - 1 : s]


def _ambient_candidates(spec):
    """Orthogonal ambient matrices that may normalize the isotropy group.

    They are signed permutations, returned as one ``(m, N, N)`` stack.  On
    the A family: each swap of two equal blocks (and the identity) times a
    sign flip of the first entry of one block (or none).  On the D family:
    ``M = 0.5 [[P + Q, P - Q], [P - Q, P + Q]]`` and ``diag(I, -I) M`` for
    every two sign flips P, Q of the first and last entries.  Other families
    have none.
    """
    fam, l = spec.family, spec.rank
    N = spec.algebra.ambient_dim
    perms, signs = [], []

    if fam == "A":
        blocks = [[k - 1 for k in blk] for blk in _blocks(spec)]
        swaps = [np.arange(N)]
        for i, j in itertools.combinations(range(len(blocks)), 2):
            if len(blocks[i]) != len(blocks[j]):
                continue
            p, a, b = np.arange(N), blocks[i], blocks[j]
            p[a], p[b] = b, a
            swaps.append(p)
        flips = [np.ones(N)]
        for blk in blocks:
            f = np.ones(N)
            f[blk[0]] = -1.0
            flips.append(f)
        # row i of P F is F's sign at column perm[i]
        for p in swaps:
            for f in flips:
                perms.append(p)
                signs.append(f[p])

    elif fam == "D":
        flips = np.ones((4, l))
        flips[[1, 3], 0] = -1.0
        flips[[2, 3], l - 1] = -1.0
        # every (P, Q): row i of M is p_i at column i where p_i = q_i and at
        # column l + i where they differ, and row l + i mirrors it
        p, q = np.broadcast_arrays(flips[:, None], flips[None])
        i = np.arange(l)
        same = p == q
        row = np.concatenate([np.where(same, i, l + i), np.where(same, l + i, i)], axis=-1)
        perms = np.repeat(row.reshape(-1, N), 2, axis=0)
        signs = np.stack([np.concatenate([p, p], -1), np.concatenate([p, -p], -1)], axis=2)

    # O[k, i, perm[k, i]] = sign[k, i], zero elsewhere
    perm = np.array(perms, dtype=int).reshape(-1, N)
    O = np.zeros(perm.shape + (N,))
    O[np.arange(len(perm))[:, None], np.arange(N), perm] = np.reshape(signs, perm.shape)
    return O


def _witness_tangent_maps(space, candidates):
    """The tangent actions of the ambient candidates, deduplicated, as a
    ``(w, d, d)`` stack.

    One pass over the ``(m, N, N)`` stack of signed permutations: the
    tangent-basis matrices are built once, and their conjugates by every
    candidate are expanded in the algebra basis in one call.  A candidate
    is kept when, to 1e-9, every image lies in the span of the algebra
    basis, its map W is orthogonal for the background metric, and W maps
    the tangent subspace to itself.  Of the maps whose entries agree to 8
    decimals the first is kept, and the identity is skipped.
    """
    model = space.spec.algebra
    d, N, m = space.tangent_dim, model.ambient_dim, len(candidates)
    # (O X O^T)[i, j] sums O[i, a] X[a, b] O[j, b]; a signed permutation has
    # one entry t_r per column r, in row q_r, so each nonzero X[r, c] lands
    # at (q_r, q_c) times t_r t_c.  The conjugates are mostly zeros, so only
    # these entries are formed.
    X = model.ambient_matrices(space.basis)
    k, r, c = np.nonzero(np.abs(X) > 1e-9)
    q = np.argmax(candidates != 0, axis=1)
    t = candidates.sum(axis=1)
    images, residual = model.expand_entries(
        m * d,
        (np.arange(m)[:, None] * d + k).ravel(),
        (q[:, r] * N + q[:, c]).ravel(),
        (X[k, r, c] * t[:, r] * t[:, c]).ravel(),
    )
    images, residual = images.reshape(m, d, model.n), residual.reshape(m, d)
    Bw = space.basis * (float(space.spec.inner_scale) * model.gram)
    W = Bw @ np.swapaxes(images, 1, 2)
    Wt, eye = np.swapaxes(W, 1, 2), np.eye(d)
    kept = (
        (np.max(residual, axis=1) <= 1e-9)
        & (np.max(np.abs(Wt @ W - eye), axis=(1, 2)) <= 1e-9)
        & (np.max(np.abs(images - Wt @ space.basis), axis=(1, 2)) <= 1e-9)
        & (np.max(np.abs(W - eye), axis=(1, 2)) >= 1e-10)
    )
    W = W[kept]
    # the first map of each rounded key; adding 0.0 turns -0.0 into 0.0,
    # as a tuple of the entries would compare it
    first = {}
    for at, key in enumerate(np.round(W, 8) + 0.0):
        first.setdefault(key.tobytes(), at)
    return W[list(first.values())]


@lru_cache(maxsize=None)
def _witness_maps(spec):
    """The coefficient maps of the witnesses, a read-only ``(w, dim, dim)`` stack.

    A witness W pulls the metric with coefficients c back to ``W^T A(c) W``,
    whose coefficients are ``L_W c``: column k of ``L_W`` expands ``W^T P_k
    W`` for the k-th operator ``P_k``.  A witness is kept only if each
    ``W^T P_k W`` lies in the span of the operators, to 1e-8 relative to
    one plus its largest entry; the check runs once per flag, and every
    pull-back is then exact up to rounding.
    """
    space = metric_space(spec)
    W = _witness_tangent_maps(space, _ambient_candidates(spec))
    rows, norms = space.operator_rows
    n, d = space.dim, space.tangent_dim
    maps = np.zeros((len(W), n, n))
    kept = np.ones(len(W), dtype=bool)
    # one operator at a time keeps the (w, d, d) products small
    for k, op in enumerate(space.operators):
        pulled = (np.swapaxes(W, 1, 2) @ op @ W).reshape(len(W), d * d)
        maps[:, :, k] = pulled @ rows.T / norms
        gap = np.max(np.abs(maps[:, :, k] @ rows - pulled), axis=1)
        kept &= gap <= 1e-8 * (1 + np.max(np.abs(pulled), axis=1))
    maps = maps[kept]
    maps.setflags(write=False)
    return maps


def equivalence_screen(spec, solutions):
    """Group solutions by the normalized Einstein constant and tag them.

    Within a class of equal constants, a witness joins solution i to j when
    its pull-back of i, gauged, matches j.  A witness acts on the
    coefficients as a linear map checked once per flag
    (:func:`_witness_maps`), so each class is pulled back through every
    witness in one product.
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
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
        space = metric_space(spec)
        maps = _witness_maps(spec)
        for cls in classes:
            if len(cls) == 1:
                continue
            coeffs = np.array([solutions[i].coeffs for i in cls])
            # pulled[w, a]: member a pulled back by witness w, gauged
            pulled = _gauge(space, coeffs @ np.swapaxes(maps, 1, 2))
            for j in cls:
                hits = np.any(_matches(pulled, _gauge(space, solutions[j].coeffs)), axis=0)
                for i, hit in zip(cls, hits):
                    if hit and i != j:
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
                # union-find only joins on an explicit pullback match, so a
                # multi-member component is witnessed even when the wider
                # constant-cluster did not merge
                tag = "WitnessedEquivalent"
            else:
                tag = "Undecided"
            groups.append(
                EquivalenceGroup(
                    indices=tuple(sorted(comp)),
                    constant=float(np.mean(values[comp])),
                    tag=tag,
                )
            )
    groups.sort(key=lambda grp: grp.indices)
    return groups


# ---------------------------------------------------------------------------
# combined entry point


def solve(spec):
    """Locate the invariant Einstein metrics of one flag.

    The solutions are the roots of the exact counts (:func:`_exact_roots`).
    A root that a closed-form catalog entry matches is reported as that
    entry, in catalog order; every other root follows in root order as
    ``numeric-k``, k its place among all roots.  Each reported solution is
    certified once.  Results are memoised per flag in an immutable
    :class:`SolutionSet`: its solutions and groups are tuples, and the
    coefficient arrays are read-only.
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    return _solve_cached(spec)


@lru_cache(maxsize=None)
def _solve_cached(spec):
    try:
        sols = closed_form_solutions(spec)
    except NoCatalogEntry:
        sols = []
    roots, completeness = _exact_roots(spec)
    space = metric_space(spec)
    for k, vec in enumerate(roots):
        if not any(_matches(vec, other.coeffs) for other in sols):
            sols.append(_solution(space, vec, "numeric", f"numeric-{k + 1}"))
    return SolutionSet(
        spec, tuple(sols), tuple(equivalence_screen(spec, sols)), completeness
    )


def published_row(spec):
    """The published count/normal expectation for a flag, or None.

    Exact rows carry the expected count and whether the normal metric is
    Einstein; family rows known only up to a bound carry the bound; shapes
    outside the published table return None.  The row is the one of the
    flag's :class:`~einflag.flag.ShapeRecord`.
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    return None if spec.record is None else spec.record.row(spec.rank, spec.partition)


@dataclass
class TableRow:
    """Computed summary line for one flag."""

    spec: object
    name: str
    summands: int
    has_equivalent: bool
    count: int
    normal_is_einstein: bool
    solutions: SolutionSet


def table1_row(spec):
    """Solve one flag and summarize it as a table row."""
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    space = metric_space(spec)
    sols = solve(spec)
    return TableRow(
        spec=spec,
        name=manifold_name(spec),
        summands=space.n_sub,
        has_equivalent=bool(space.pairs),
        count=len(sols.solutions),
        normal_is_einstein=normal_is_einstein(reduced_ricci(spec)),
        solutions=sols,
    )
