"""Invariant Einstein metrics: exact counts, a catalog of exact branches, screening.

Einstein metrics come in homothety rays, so everything here works in the
gauge where the last diagonal coefficient equals one.  :func:`solve` has
one route.  Its solutions are the roots of two stages, each counted
exactly by resultants and Sturm sequences (:mod:`einflag.algebraic`): the
diagonal Einstein metrics, and on a flag with an equivalent pair the ones
with a nonzero mixing coefficient.  The roots are taken as they are, and
each stage's :class:`StageCertificate` records its count.  A root that an
exact branch of the catalog (:func:`closed_form_solutions`) matches is
reported under the branch's name; each reported solution is certified
once by the frame-route curvature report.  A system the exact count does
not cover raises :class:`NoExactCount`; no search stands in for it.

The screening step groups solutions by the scale-invariant Einstein
constant and tries to realize coincidences by explicit isometries: ambient
conjugations that normalize the isotropy algebra pull one metric back to
another, which proves equivalence; distinct constants prove distinctness;
anything else stays undecided.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebraic import diagonal_count, mixed_count, normal_is_einstein
from .curvature import _form_coefficients, curvature, reduced_ricci
from .errors import InvariantViolation, NoCatalogEntry, TooManyParameters
from .flag import manifold_name, parse_flag_spec
from .invariant import make_metric, metric_space

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

    Solutions are shared by the memoised routes, so the arrays of the
    metric and of its curvature report are read-only.
    """

    metric: object
    report: object
    provenance: str  # "closed-form" | "numeric"
    rule_id: str

    @property
    def coeffs(self):
        return self.metric.coeffs

    @property
    def names(self):
        return self.metric.names

    @property
    def defect(self):
        return self.report.einstein_defect

    @property
    def constant(self):
        return self.report.einstein_constant

    @property
    def normalized_constant(self):
        return self.report.normalized_constant

    def __repr__(self):
        vals = ", ".join(f"{n}={c:.6g}" for n, c in zip(self.names, self.coeffs))
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
    """Certify one candidate through the frame-route curvature report.

    This is the only frame-route evaluation a solution gets; a defect at or
    above ``DEFECT_TOL`` raises :class:`InvariantViolation`.
    """
    metric = make_metric(space, np.array(coeffs, dtype=float))
    report = curvature(metric)
    if report.einstein_defect >= DEFECT_TOL:
        raise InvariantViolation(
            f"{space.spec} candidate {rule_id} has Einstein defect "
            f"{report.einstein_defect:.3e}"
        )
    # the solution is memoised and shared: freeze every array it hands out
    for arr in (
        metric.coeffs,
        metric.matrix,
        metric.spectrum,
        report.coefficients,
        report.ricci,
        report.ricci_tangent,
        report.frame.vectors,
        report.frame.eigenvalues,
    ):
        arr.setflags(write=False)
    return EinsteinSolution(metric, report, provenance, rule_id)


def _catalog_entries(spec):
    """Exact gauge-normalized solutions, as (rule_id, coefficients) pairs."""
    fam, l, part = spec.family, spec.rank, spec.partition
    plus = spec.includes_last_root

    if fam == "A":
        if l == 3 and len(part) == 2:
            # [2,2] splits into two summands; [3,1] and [1,3] are isotropy
            # irreducible, so every invariant metric is normal
            return [("normal", (1.0, 1.0) if part == (2, 2) else (1.0,))]
        if l == 3 and len(part) == 3:
            # three summands with an equivalent pair: one diagonal solution
            # plus four mixed ones related by swaps and mixing-sign flips
            return [
                ("E1", (4.0 / 3.0, 1.0, 1.0, 0.0)),
                ("E2", (2.0 / 3.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)),
                ("E3", (2.0, 3.0, 1.0, 1.0)),
                ("E4", (2.0 / 3.0, 1.0 / 3.0, 1.0, -1.0 / 3.0)),
                ("E5", (2.0, 3.0, 1.0, -1.0)),
            ]
        if len(part) == 3 and part[1] == part[2] and part[1] >= 3:
            l1, m = part[0], part[1]
            out = []
            # branch with equal first two coefficients
            a1 = 2 * m + l1 - 2
            disc1 = l1 * l1 - 4 * (m - 1)
            if disc1 >= 0:
                roots = {(a1 + math.sqrt(disc1)) / (4 * (m - 1)),
                         (a1 - math.sqrt(disc1)) / (4 * (m - 1))}
                for tag, x in zip(("sym+", "sym-"), sorted(roots, reverse=True)):
                    if x > 0:
                        out.append((tag, (x, x, 1.0)))
            # swapped-pair branch
            a2 = m * (m + l1 - 1) * (2 * m + l1 - 2)
            disc2 = (m + l1 - 1) * (
                -l1 * l1 + l1 * (m - 2) ** 2 + m**3 - 4 * m * m + 8 * m - 4
            )
            if disc2 > 0:
                den = 2 * m * m * (m + l1 - 1)
                y1 = (a2 + m * math.sqrt(disc2)) / den
                y2 = (a2 - m * math.sqrt(disc2)) / den
                if y1 > 0 and y2 > 0:
                    out.append(("pair+", (y1, y2, 1.0)))
                    if abs(y1 - y2) > 1e-12 * max(y1, y2):
                        out.append(("pair-", (y2, y1, 1.0)))
            elif disc2 == 0:
                y = a2 / (2 * m * m * (m + l1 - 1))
                if y > 0:
                    out.append(("pair+", (y, y, 1.0)))
            return out
        raise NoCatalogEntry(f"no closed-form catalog for {spec}")

    if fam == "B":
        if part == (l,) and not plus and l >= 3:
            if l == 4:
                return [("mu-half", (0.5, 1.0, 1.0)), ("normal", (1.0, 1.0, 1.0))]
            return [
                ("mu-half", (0.5, 1.0)),
                ("mu-upper", (l / (2.0 * l - 4.0), 1.0)),
            ]
        if part == (1, l - 1) and plus and l >= 3:
            return [("ratio", ((l - 2.0) / (l - 1.0), 1.0))]
        raise NoCatalogEntry(f"no closed-form catalog for {spec}")

    if fam == "C":
        if part == (l,) and not plus and l >= 3:
            # the center direction is Ricci flat at every invariant metric
            return []
        if part == (1, l - 1) and plus and l >= 3:
            return [("mu0-double", (2.0, 1.0))]
        raise NoCatalogEntry(f"no closed-form catalog for {spec}")

    if fam == "D":
        if part == (l,) and not plus:
            # l = 4 splits into two summands; l >= 5 is isotropy irreducible.
            return [("normal", (1.0, 1.0) if l == 4 else (1.0,))]
        if plus and part == (l - 1, 1) and l == 4:
            return [("normal", (1.0, 1.0))]
        shapes = {(l - 1, 1), (1, l - 1)} if not plus else {(1, l - 2, 1)}
        if part in shapes and l >= 4:
            s = math.sqrt(l * l - 5.0 * l + 4.0) / (2.0 * (l - 1.0))
            out = []
            if s > 1e-12:
                out.append(("F1", (1 / (1 + s), (1 - s) / (1 + s), 1.0, 0.0)))
                out.append(("F2", (1 / (1 - s), (1 + s) / (1 - s), 1.0, 0.0)))
            else:
                out.append(("F1", (1.0, 1.0, 1.0, 0.0)))
            out += [
                ("F3", (2.0 / 3.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)),
                ("F4", (2.0, 3.0, 1.0, 1.0)),
                ("F5", (2.0 / 3.0, 1.0 / 3.0, 1.0, -1.0 / 3.0)),
                ("F6", (2.0, 3.0, 1.0, -1.0)),
            ]
            return out
        raise NoCatalogEntry(f"no closed-form catalog for {spec}")

    raise NoCatalogEntry(f"no closed-form catalog for {spec}")


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
    by the frame-route curvature report on every call, as ``numeric-k``.

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
    coeffs = np.asarray(coeffs, dtype=float).copy()
    s = space.n_sub
    return coeffs / coeffs[s - 1]


def _induced_tangent_map(space, O):
    """Tangent action of an ambient conjugation, or None if it breaks it.

    The candidate must map every tangent-basis matrix back into the span of
    the algebra basis and preserve the tangent subspace; the returned map is
    then orthogonal for the background metric.
    """
    model = space.spec.algebra
    g = float(space.spec.inner_scale) * model.gram
    Bw = space.basis * g
    mats = np.array([e.matrix for e in model.basis], dtype=float)
    d = space.tangent_dim
    images, residual = model.expand_matrix(O @ np.einsum("kc,cij->kij", space.basis, mats) @ O.T)
    if residual > 1e-9:
        return None
    W = Bw @ images.T
    if np.max(np.abs(W.T @ W - np.eye(d))) > 1e-9:
        return None
    if np.max(np.abs(images - W.T @ space.basis)) > 1e-9:
        return None
    return W


def _block_ranges(part):
    out, start = [], 0
    for p in part:
        out.append(range(start, start + p))
        start += p
    return out


def _ambient_candidates(spec):
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


@lru_cache(maxsize=None)
def _witness_maps(spec):
    """Deduplicated tangent isometry actions available for pullbacks."""
    space = metric_space(spec)
    maps = []
    seen = set()
    for O in _ambient_candidates(spec):
        W = _induced_tangent_map(space, O)
        if W is None:
            continue
        key = tuple(np.round(W, 8).ravel())
        if key in seen or np.max(np.abs(W - np.eye(space.tangent_dim))) < 1e-10:
            continue
        seen.add(key)
        maps.append(W)
    return tuple(maps)


def _pulled_coefficients(space, W, coeffs):
    A = space.metric_matrix(coeffs)
    Ap = W.T @ A @ W
    pulled = _form_coefficients(space, Ap)
    if np.max(np.abs(space.metric_matrix(pulled) - Ap)) > 1e-8 * (
        1 + np.max(np.abs(Ap))
    ):
        return None
    return _gauge(space, pulled)


def equivalence_screen(spec, solutions):
    """Group solutions by the normalized Einstein constant and tag them."""
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
        witnesses = _witness_maps(spec)
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


@dataclass(frozen=True)
class TableExpectation:
    """Published solution count for one flag: exact, an upper bound, or none."""

    display: str
    exact: int | None = None
    bound: int | None = None
    normal: bool | None = None

    def matches(self, count, normal_is_einstein):
        if self.exact is not None:
            if count != self.exact:
                return False
            if self.normal is not None and normal_is_einstein != self.normal:
                return False
            return True
        if self.bound is not None:
            return count <= self.bound
        return None


def published_row(spec):
    """The published count/normal expectation for a flag, or None.

    Exact rows carry the expected count and whether the normal metric is
    Einstein; family rows known only up to a bound carry the bound; shapes
    outside the published table return None.
    """
    if isinstance(spec, str):
        spec = parse_flag_spec(spec)
    fam, l = spec.family, spec.rank
    part = tuple(spec.partition)
    plus = spec.includes_last_root
    if fam == "A":
        if l == 3 and part == (2, 2):
            return TableExpectation("1", exact=1, normal=True)
        if l == 3:
            return TableExpectation("5", exact=5, normal=False)
        if len(part) == 3:
            return TableExpectation("<=4", bound=4)
        return None
    if fam == "B":
        if not plus:
            return TableExpectation("2", exact=2, normal=(l == 4))
        d = part[0]
        if d == 1:
            return TableExpectation("1", exact=1, normal=False)
        return TableExpectation("<=3", bound=3) if d == 2 else TableExpectation("<=4", bound=4)
    if fam == "C":
        if not plus:
            return TableExpectation("0", exact=0, normal=False)
        if part[0] == 1:
            return TableExpectation("1", exact=1, normal=False)
        return TableExpectation("<=2", bound=2)
    if fam == "D":
        if not plus and part == (l,):
            return TableExpectation("1", exact=1, normal=True) if l == 4 else None
        if plus and l == 4 and part == (3, 1):
            return TableExpectation("1", exact=1, normal=True)
        if (not plus and sorted(part) == [1, l - 1]) or (plus and len(part) == 3):
            if l == 4:
                return TableExpectation("5", exact=5, normal=True)
            return TableExpectation("6", exact=6, normal=False)
        return None
    return None


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
