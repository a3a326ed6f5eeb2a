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
anything else stays undecided.  Every candidate is a signed permutation of
the ambient coordinates, so it permutes the basis up to sign, and a witness
acts on the metric coefficients as a signed permutation, built exactly once
per flag from the integer action of all candidates (:func:`_witness_maps`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import _matches as _join
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

    They are signed permutations, returned as two int64 ``(m, N)`` arrays
    ``(perm, sign)``: candidate k has the entry ``sign[k, i]`` at ``(i,
    perm[k, i])`` and zeros elsewhere.  On the A family: each swap of two
    equal blocks (and the identity) times a sign flip of the first entry of
    one block (or none).  On the D family: ``M = 0.5 [[P + Q, P - Q], [P -
    Q, P + Q]]`` and ``diag(I, -I) M`` for every two sign flips P, Q of the
    first and last entries.  Other families have none.
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

    return tuple(np.array(a, dtype=np.int64).reshape(-1, N) for a in (perms, signs))


def _basis_action(model, perm, sign):
    """How each candidate ``(perm, sign)`` conjugates the algebra basis.

    Returns ``(target, value, closed)``: candidate k maps basis element a to
    ``value[k, a] e_{target[k, a]}`` when ``closed[k]``.  Conjugation ``O X
    O^T`` moves the entry ``X[r, c]`` to ``(q_r, q_c)``, q the inverse of
    perm, times ``t_r t_c`` with ``t_r = sign[q_r]``; every ambient position
    has one owner, so each moved entry is one exact +-1 multiple of its
    owner's entry there, or lands off the algebra.  A candidate is not
    closed when it sends an entry off the algebra or gives one element two
    targets or two signs.
    """
    q = np.argsort(perm, axis=1)
    t = np.take_along_axis(sign, q, axis=1)
    elem, row, col, val = model.entries
    pos = q[:, row] * model.ambient_dim + q[:, col]
    owner = model._owner[pos]
    # _owner_value is +-1 where owned and 0 elsewhere, so this is the
    # moved entry over its owner's
    ratio = val * t[:, row] * t[:, col] * model._owner_value[pos]
    # the entries come element by element: the first names the image
    first = np.searchsorted(elem, np.arange(model.n))
    target, value = owner[:, first], ratio[:, first]
    same = (owner == target[:, elem]) & (ratio == value[:, elem]) & (owner >= 0)
    return target, value, np.all(same, axis=1)


@lru_cache(maxsize=None)
def _witness_maps(spec):
    """The coefficient maps of the witnesses, a read-only int64 ``(w, dim, dim)`` stack.

    A witness W pulls the metric with coefficients c back to ``W^T A(c) W``,
    whose coefficients are ``L_W c``.  Each closed candidate acts on the
    basis as a signed permutation P (:func:`_basis_action`).  It is kept
    when P maps the tangent indices onto themselves, but not as the
    identity, sends each summand's integer span S_u into one summand, and
    sends every declared pair onto a declared pair.  The spans are
    orthogonal and fill the tangent space, so u lands in w exactly when the
    integer products ``S_u P (2 gram) S_v^T`` vanish for every other
    summand v; P is invertible there, so u then fills w, of equal dimension.
    ``L_W`` sends coefficient u to that of its image, and by Schur's lemma
    each pair's mixing coefficient to +- that of its image pair.  The sign is
    that of one trace, ``tr(B0^T W_j^T B0' W_i)`` with B0' the image pair's,
    which must be +-d_i; a trace off that raises :class:`InvariantViolation`.
    Of equal maps the first in candidate order is kept.
    """
    space = metric_space(spec)
    model, s, d = spec.algebra, space.n_sub, space.tangent_dim
    target, value, keep = _basis_action(model, *_ambient_candidates(spec))
    tan = np.array(space.dec.tangent_indices)
    keep &= np.all((np.bincount(tan, minlength=model.n) > 0)[target[:, tan]], axis=1)
    keep &= np.any((target[:, tan] != tan) | (value[:, tan] != 1), axis=1)
    target, value = target[keep], value[keep]

    # every image row of the spans against every row, one integer sum per
    # (candidate, row, row) over the joined columns
    S = np.vstack([sub.span for sub in space.dec.submodules])
    row, col = np.nonzero(S)
    span, gram2 = S[row, col].astype(np.int64), (2 * model.gram).astype(np.int64)
    if not (np.array_equal(span, S[row, col]) and np.array_equal(gram2, 2 * model.gram)):
        raise InvariantViolation(f"the spans of {spec} or twice its Gram diagonal are not integral")
    x, y = _join(target[:, col].ravel(), col)
    k, e = np.divmod(x, col.size)
    keys, inv = np.unique((k * d + row[e]) * d + row[y], return_inverse=True)
    sums = np.zeros(keys.size, dtype=np.int64)
    np.add.at(sums, inv, span[e] * value[k, col[e]] * gram2[col[y]] * span[y])
    keys = keys[sums != 0]
    owner = np.repeat(np.arange(s), space.dims)
    meets = np.zeros((len(target), s, s), dtype=bool)
    meets[keys // (d * d), owner[keys // d % d], owner[keys % d]] = True
    image = np.argmax(meets, axis=2)
    keep = np.all(np.sum(meets, axis=2) == 1, axis=1)
    first, second = (np.array([pair[side] for pair in space.pairs], dtype=int) for side in (0, 1))
    pair_of = np.full((s, s), -1)
    pair_of[first, second] = pair_of[second, first] = np.arange(len(space.pairs))
    pair_image = pair_of[image[:, first], image[:, second]]
    keep &= np.all(pair_image >= 0, axis=1)
    target, value, image, pair_image = (a[keep] for a in (target, value, image, pair_image))

    w, n = len(target), space.dim
    L = np.zeros((w, n, n), dtype=np.int64)
    L[np.arange(w)[:, None], np.arange(s), image] = 1
    starts = np.array([sl.start for sl in space.slices])
    weight = float(spec.inner_scale) * model.gram
    ops = space.operators
    for p, (i, j, B0) in enumerate(space.pairs):
        # W on the pair's rows, to the rows of their images in the same
        # order: W[r, c] = sum_a B_w[r, target a] value[a] B[c, a]
        cols = np.r_[space.slices[i], space.slices[j]]
        rows = np.hstack([starts[image[:, u], None] + np.arange(len(B0)) for u in (i, j)])
        B = space.basis[cols]
        supp = np.flatnonzero(np.any(B, axis=0))
        moved = target[:, supp]
        W = space.basis[rows[:, :, None], moved[:, None, :]] * (weight[moved] * value[:, supp])[:, None, :]
        W = W @ B[:, supp].T
        t = s + pair_image[:, p]
        pulled = np.swapaxes(W, 1, 2) @ ops[t[:, None, None], rows[:, :, None], rows[:, None, :]] @ W
        # the pair's operator holds B0 and its transpose, so half this sum
        # is tr(B0^T W_j^T B0' W_i), B0' the image pair's as it is mapped
        trace = np.sum(ops[s + p][np.ix_(cols, cols)] * pulled, axis=(1, 2)) / 2
        if np.any(np.abs(np.abs(trace) - len(B0)) > 1e-9 * len(B0)):
            raise InvariantViolation(f"a witness of {spec} maps a pair off +-its image pair")
        L[np.arange(w), s + p, t] = np.sign(trace).astype(np.int64)
    seen = {}
    for at, key in enumerate(L.reshape(w, n * n)):
        seen.setdefault(key.tobytes(), at)
    L = L[list(seen.values())]
    L.setflags(write=False)
    return L


def equivalence_screen(spec, solutions):
    """Group solutions by the normalized Einstein constant and tag them.

    Within a class of equal constants, a witness joins solution i to j when
    its pull-back of i, gauged, matches j.  A witness acts on the
    coefficients as an integer map built once per flag
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
