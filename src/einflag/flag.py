"""Real flag manifolds and their isotropy decompositions.

A flag is encoded by an ordered partition of the rank data together with a
switch saying whether the last simple root belongs to the deleted set Theta:

* family A: the partition sums to ``l + 1`` and the switch must be off;
* families B, C, D: the partition sums to ``l``.

Theta consists of the simple roots interior to each partition block, plus the
last simple root when the switch is on.  The tangent space ``m`` is spanned by
the basis vectors whose restricted roots are *not* in the linear span of
Theta, and it splits into explicitly catalogued irreducible summands with
declared equivalences between them.  The catalogue follows the structure
theory of the isotropy representation for each family, including the
low-rank special cases (split summands for A_3, the two 3-dimensional
summands of the rank-4 B and D flags, and so on).  Shapes outside the
catalogued ranges raise :class:`~einflag.errors.UnimplementedCase`.

Every constructed decomposition is verified a posteriori: submodules must be
pairwise orthogonal, ad(k_Theta)-invariant, and fill the tangent space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraModel, _coo_transform, _row_entries, build_algebra
from .errors import BadFlag, BadPartition, InvariantViolation, UnimplementedCase

__all__ = [
    "FlagSpec",
    "Submodule",
    "Decomposition",
    "GeneratorTable",
    "make_flag",
    "parse_flag_spec",
    "theta",
    "split_reductive",
    "decompose_isotropy",
    "enumerate_small_flags",
    "manifold_name",
]


@dataclass(frozen=True)
class FlagSpec:
    """A flag manifold specification.

    Attributes
    ----------
    algebra : AlgebraModel
    partition : tuple of int
    includes_last_root : bool
        Whether the last simple root is in Theta (never for family A).
    inner_scale : Fraction
        Positive rational multiplying the ambient product to give the
        background metric; chosen so the catalogued bases are orthonormal.
    """

    algebra: AlgebraModel
    partition: tuple
    includes_last_root: bool
    inner_scale: Fraction

    @property
    def family(self):
        return self.algebra.family

    @property
    def rank(self):
        return self.algebra.rank

    def __str__(self):
        parts = ",".join(str(p) for p in self.partition)
        sign = "+" if self.includes_last_root else "-"
        return f"{self.family}:{self.rank}:[{parts}]:{sign}"

    def __repr__(self):
        return f"FlagSpec({self})"


def make_flag(algebra, partition, includes_last_root=False):
    """Validate the partition data and build a :class:`FlagSpec`."""
    partition = tuple(int(p) for p in partition)
    if not partition or any(p < 1 for p in partition):
        raise BadPartition(f"partition parts must be positive, got {partition}")
    total = algebra.rank + 1 if algebra.family == "A" else algebra.rank
    if sum(partition) != total:
        raise BadPartition(
            f"partition {partition} must sum to {total} for family "
            f"{algebra.family} rank {algebra.rank}"
        )
    if algebra.family == "A" and includes_last_root:
        raise BadFlag("family A flags have no last-root option")
    if algebra.family == "A" and len(partition) == 3:
        scale = Fraction(1, 2 * (algebra.rank - 1))
    else:
        scale = Fraction(1)
    return FlagSpec(algebra, partition, bool(includes_last_root), scale)


def parse_flag_spec(text):
    """Parse ``"B:5:[1,4]:+"`` into a :class:`FlagSpec`."""
    try:
        fam, rank_s, parts_s, sign = text.strip().split(":")
        rank = int(rank_s)
        if not (parts_s.startswith("[") and parts_s.endswith("]")):
            raise ValueError
        partition = tuple(int(p) for p in parts_s[1:-1].split(","))
        if sign not in {"+", "-"}:
            raise ValueError
    except ValueError as exc:
        raise ValueError(f"malformed flag spec {text!r}") from exc
    return make_flag(build_algebra(fam, rank), partition, sign == "+")


def _blocks(spec):
    """1-based lambda indices per partition block."""
    out = []
    start = 1
    for p in spec.partition:
        out.append(list(range(start, start + p)))
        start += p
    return out


def theta(spec):
    """Indices (1-based) of the simple roots in Theta."""
    idx = []
    start = 0
    for p in spec.partition:
        idx.extend(range(start + 1, start + p))
        start += p
    if spec.includes_last_root:
        idx.append(spec.rank)
    return tuple(sorted(set(idx)))


def _simple_roots(family, rank):
    dim = rank + 1 if family == "A" else rank
    roots = []
    n_chain = rank if family == "A" else rank - 1
    for i in range(1, n_chain + 1):
        v = np.zeros(dim)
        v[i - 1] = 1.0
        v[i] = -1.0
        roots.append(v)
    if family == "B":
        v = np.zeros(dim)
        v[rank - 1] = 1.0
        roots.append(v)
    elif family == "C":
        v = np.zeros(dim)
        v[rank - 1] = 2.0
        roots.append(v)
    elif family == "D":
        v = np.zeros(dim)
        v[rank - 2] = 1.0
        v[rank - 1] = 1.0
        roots.append(v)
    return np.array(roots)


def split_reductive(spec):
    """Indices of the isotropy and tangent parts of the basis.

    Returns ``(isotropy, tangent)`` as tuples of basis indices.  A basis root
    belongs to the isotropy algebra k_Theta exactly when it lies in the
    linear span of Theta.
    """
    model = spec.algebra
    th = theta(spec)
    in_span = np.zeros(model.n, dtype=bool)
    if th:
        A = _simple_roots(spec.family, spec.rank)[[i - 1 for i in th]].T  # spans Theta
        roots = np.array([e.root for e in model.basis], dtype=float).T
        sol, *_ = np.linalg.lstsq(A, roots, rcond=None)
        in_span = np.linalg.norm(A @ sol - roots, axis=0) < 1e-9
    iso, tan = np.flatnonzero(in_span).tolist(), np.flatnonzero(~in_span).tolist()
    _check_reductive(model, iso, tan)
    return tuple(iso), tuple(tan)


def _check_reductive(model, iso, tan):
    """Raise unless [k_Theta, m] lies in m and k_Theta is a subalgebra."""
    I, J, K, _ = model.structure_index
    # Position of each basis index in iso / tan, or -1 when absent.
    iso_pos = np.full(model.n, -1)
    iso_pos[list(iso)] = np.arange(len(iso))
    tan_pos = np.full(model.n, -1)
    tan_pos[list(tan)] = np.arange(len(tan))
    leaves = np.flatnonzero((iso_pos[I] >= 0) & (tan_pos[J] >= 0) & (tan_pos[K] < 0))
    if leaves.size:
        e = leaves[np.lexsort((tan_pos[J[leaves]], iso_pos[I[leaves]]))[0]]
        raise InvariantViolation(
            f"[{model.basis[I[e]].label}, {model.basis[J[e]].label}] "
            f"leaves the tangent space"
        )
    if np.any((iso_pos[I] >= 0) & (iso_pos[J] >= 0) & (iso_pos[K] < 0)):
        raise InvariantViolation("isotropy set is not a subalgebra")


@dataclass
class Submodule:
    """An irreducible isotropy summand.

    Attributes
    ----------
    name : str
    span : ndarray
        Rows are algebra coordinates of the declared generating vectors.
    orthonormal : ndarray
        Rows orthonormalized for the background metric.
    """

    name: str
    span: np.ndarray
    orthonormal: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self):
        return self.span.shape[0]


class GeneratorTable(NamedTuple):
    """``count`` d x d generators over the tangent basis, stored sparsely.

    Generator ``g`` has ``G_g[row, col] = value`` at the listed entries and
    zeros elsewhere.  The entries are sorted by ``(gen, row, col)``, one per
    position.
    """

    count: int
    gen: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray


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
class Decomposition:
    """Tangent-space decomposition of a flag."""

    spec: FlagSpec
    submodules: list
    equiv_classes: list
    isotropy_indices: tuple
    tangent_indices: tuple

    @property
    def tangent_dim(self):
        return sum(s.dim for s in self.submodules)

    @property
    def equiv_pairs(self):
        return [c for c in self.equiv_classes if len(c) == 2]

    @cached_property
    def isotropy_action(self):
        """The isotropy generators ``ad(e_p)``, p in ``isotropy_indices``, as a
        :class:`GeneratorTable` over the stacked summand bases.

        With B the :func:`tangent_basis` rows and ``B_w`` their background
        weights, generator g is ``R[a, b] = sum C[p, j, k] B_w[a, k] B[b, j]``,
        the background product of ``[e_p, b]`` with ``a``.  One gather from
        the algebra's ``structure_index`` through the nonzeros of both bases.
        """
        model = self.spec.algebra
        B, _ = tangent_basis(self)
        Bw = B * (float(self.spec.inner_scale) * model.gram)
        I, J, K, V = model.structure_index
        count = len(self.isotropy_indices)
        gen = np.full(model.n, -1)
        gen[list(self.isotropy_indices)] = np.arange(count)
        at = gen[I] >= 0
        one = (np.arange(count + 1), np.arange(count), np.ones(count))
        maps = (one, _row_entries(Bw.T), _row_entries(B.T))
        g, a, b, v = _coo_transform((gen[I[at]], K[at], J[at], V[at]), maps, B.shape[0])
        return GeneratorTable(count, g, a, b, v)

    def summary(self):
        eq = {i: f"~{chr(97 + k)}" for k, cls in enumerate(self.equiv_pairs) for i in cls}
        parts = []
        for i, s in enumerate(self.submodules):
            tag = eq.get(i, "")
            parts.append(f"{s.name}[{s.dim}]{tag}")
        return " + ".join(parts)


def _span_from_terms(model, term_lists):
    rows = np.zeros((len(term_lists), model.n))
    for r, terms in enumerate(term_lists):
        for label, coeff in terms:
            rows[r, model.label_index[label]] += coeff
    return rows


def _w(i, j):
    return f"w({i},{j})" if i > j else f"w({j},{i})"


def _u(i, j):
    return f"u({i},{j})" if i >= j else f"u({j},{i})"


def _pairs_between(block_hi, block_lo):
    return [(i, j) for j in block_lo for i in block_hi]


def _pairs_within(block):
    return [(s, t) for idx, s in enumerate(block) for t in block[:idx]]


def _decompose_a(spec, blocks):
    l = spec.rank
    r = len(blocks)
    subs = []
    equiv = []

    def mod_mn(m, n, order=None):
        prs = order if order is not None else _pairs_between(blocks[m - 1], blocks[n - 1])
        return (f"M{m}{n}", [[(_w(i, j), 1.0)] for i, j in prs])

    if l == 3:
        part = spec.partition
        if part == (2, 2):
            subs = [
                ("M1", [[("w(3,1)", 1.0), ("w(4,2)", -1.0)], [("w(4,1)", 1.0), ("w(3,2)", 1.0)]]),
                ("M2", [[("w(3,1)", 1.0), ("w(4,2)", 1.0)], [("w(4,1)", 1.0), ("w(3,2)", -1.0)]]),
            ]
            return subs, []
        if part == (2, 1, 1):
            subs = [
                mod_mn(3, 2),                     # span {w(4,3)}
                mod_mn(2, 1, [(3, 1), (3, 2)]),   # span {w(3,1), w(3,2)}
                mod_mn(3, 1, [(4, 2), (4, 1)]),   # span {w(4,2), w(4,1)}
            ]
            return subs, [(1, 2)]
        if part == (1, 2, 1):
            subs = [mod_mn(3, 1), mod_mn(2, 1), mod_mn(3, 2)]
            return subs, [(1, 2)]
        if part == (1, 1, 2):
            subs = [mod_mn(2, 1), mod_mn(3, 1), mod_mn(3, 2)]
            return subs, [(1, 2)]
        if part == (1, 1, 1, 1):
            order = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
            subs = [(f"M{m}{n}", [[(_w(m, n), 1.0)]]) for m, n in order]
            return subs, [(0, 5), (1, 4), (2, 3)]
        # (3,1), (1,3): fall through to the generic rule

    for m in range(2, r + 1):
        for n in range(1, m):
            subs.append(mod_mn(m, n))
    return subs, equiv


def _decompose_b(spec, blocks):
    l = spec.rank
    r = len(blocks)
    part = spec.partition
    plus = spec.includes_last_root

    if l == 2:
        raise UnimplementedCase("rank-2 B flags carry extra invariant subspaces")
    if l in (3, 4):
        table_shape = (not plus and part == (l,)) or (plus and len(part) == 2)
        if not table_shape:
            raise UnimplementedCase(
                f"B rank {l} flag {part}:{'+' if plus else '-'} is outside the catalogue"
            )

    if not plus and part == (4,) and l == 4:
        subs = [
            ("V1", [[(f"v({k})", 1.0)] for k in range(1, 5)]),
            ("T1", [
                [("u(2,1)", 1.0), ("u(4,3)", 1.0)],
                [("u(3,1)", 1.0), ("u(4,2)", -1.0)],
                [("u(4,1)", 1.0), ("u(3,2)", 1.0)],
            ]),
            ("T2", [
                [("u(2,1)", 1.0), ("u(4,3)", -1.0)],
                [("u(3,1)", 1.0), ("u(4,2)", 1.0)],
                [("u(4,1)", 1.0), ("u(3,2)", -1.0)],
            ]),
        ]
        return subs, []

    subs = []
    equiv = []
    if not plus:
        for i, blk in enumerate(blocks, 1):
            subs.append((f"V{i}", [[(f"v({k})", 1.0)] for k in blk]))
        for m in range(2, r + 1):
            for n in range(1, m):
                prs = _pairs_between(blocks[m - 1], blocks[n - 1])
                a = len(subs)
                subs.append((f"W{m}{n}", [[(_w(i, j), 1.0)] for i, j in prs]))
                subs.append((f"U{m}{n}", [[(_u(i, j), 1.0)] for i, j in prs]))
                equiv.append((a, a + 1))
        for i, blk in enumerate(blocks, 1):
            if len(blk) > 1:
                subs.append((f"U{i}", [[(_u(s, t), 1.0)] for s, t in _pairs_within(blk)]))
        return subs, equiv

    # last root in Theta
    for i, blk in enumerate(blocks[:-1], 1):
        if len(blk) > 1:
            subs.append((f"U{i}", [[(_u(s, t), 1.0)] for s, t in _pairs_within(blk)]))
    for m in range(2, r):
        for n in range(1, m):
            prs = _pairs_between(blocks[m - 1], blocks[n - 1])
            a = len(subs)
            subs.append((f"W{m}{n}", [[(_w(i, j), 1.0)] for i, j in prs]))
            subs.append((f"U{m}{n}", [[(_u(i, j), 1.0)] for i, j in prs]))
            equiv.append((a, a + 1))
    last = blocks[-1]
    for i, blk in enumerate(blocks[:-1], 1):
        minus = [[(_w(s, t), 1.0), (_u(s, t), -1.0)] for t in blk for s in last]
        plus_terms = [[(f"v({t})", 1.0)] for t in blk]
        plus_terms += [[(_w(s, t), 1.0), (_u(s, t), 1.0)] for t in blk for s in last]
        subs.append((f"V{i}_1", minus))
        subs.append((f"V{i}_2", plus_terms))
    return subs, equiv


def _decompose_c(spec, blocks):
    l = spec.rank
    r = len(blocks)
    part = spec.partition
    plus = spec.includes_last_root

    if l == 2:
        raise UnimplementedCase("rank-2 C flags carry extra invariant subspaces")
    if l == 4:
        table_shape = (not plus and part == (4,)) or (plus and len(part) == 2)
        if not table_shape:
            raise UnimplementedCase(
                f"C rank 4 flag {part}:{'+' if plus else '-'} is outside the catalogue"
            )

    subs = []
    equiv = []
    n_v = r if not plus else r - 1
    for i in range(1, n_v + 1):
        subs.append((f"V{i}", [[(f"u({k},{k})", 1.0) for k in blocks[i - 1]]]))
    if n_v >= 2:
        equiv.append(tuple(range(n_v)))

    def u_block(i, blk):
        terms = []
        for a in range(len(blk) - 1):
            terms.append([(f"u({blk[a]},{blk[a]})", 1.0), (f"u({blk[a+1]},{blk[a+1]})", -1.0)])
        terms += [[(_u(s, t), 1.0)] for s, t in _pairs_within(blk)]
        return (f"U{i}", terms)

    for i in range(1, n_v + 1):
        blk = blocks[i - 1]
        if len(blk) > 1:
            subs.append(u_block(i, blk))
    m_hi = r if not plus else r - 1
    for m in range(2, m_hi + 1):
        for n in range(1, m):
            prs = _pairs_between(blocks[m - 1], blocks[n - 1])
            a = len(subs)
            subs.append((f"W{m}{n}", [[(_w(i, j), 1.0)] for i, j in prs]))
            subs.append((f"U{m}{n}", [[(_u(i, j), 1.0)] for i, j in prs]))
            equiv.append((a, a + 1))
    if plus:
        for n in range(1, r):
            prs = _pairs_between(blocks[r - 1], blocks[n - 1])
            terms = [[(_w(i, j), 1.0)] for i, j in prs]
            terms += [[(_u(i, j), 1.0)] for i, j in prs]
            subs.append((f"M{r}{n}", terms))
    return subs, equiv


def _decompose_d(spec, blocks):
    l = spec.rank
    r = len(blocks)
    part = spec.partition
    plus = spec.includes_last_root

    if l == 3:
        raise UnimplementedCase("rank-3 D flags reduce to family A and are not catalogued")
    if l == 4:
        allowed = {((3, 1), False), ((1, 3), False), ((1, 2, 1), True), ((4,), False), ((3, 1), True)}
        if (part, plus) not in allowed:
            raise UnimplementedCase(
                f"D rank 4 flag {part}:{'+' if plus else '-'} is outside the catalogue"
            )
        if part == (4,) and not plus:
            subs = [
                ("T1", [
                    [("u(2,1)", 1.0), ("u(4,3)", 1.0)],
                    [("u(3,1)", 1.0), ("u(4,2)", -1.0)],
                    [("u(4,1)", 1.0), ("u(3,2)", 1.0)],
                ]),
                ("S1", [
                    [("u(4,3)", 1.0), ("u(2,1)", -1.0)],
                    [("u(3,1)", 1.0), ("u(4,2)", 1.0)],
                    [("u(4,1)", 1.0), ("u(3,2)", -1.0)],
                ]),
            ]
            return subs, []
        if part == (3, 1) and plus:
            subs = [
                ("T1", [
                    [("u(2,1)", 1.0), ("w(4,3)", 1.0)],
                    [("u(3,1)", 1.0), ("w(4,2)", -1.0)],
                    [("w(4,1)", 1.0), ("u(3,2)", 1.0)],
                ]),
                ("S1", [
                    [("w(4,3)", 1.0), ("u(2,1)", -1.0)],
                    [("u(3,1)", 1.0), ("w(4,2)", 1.0)],
                    [("w(4,1)", 1.0), ("u(3,2)", -1.0)],
                ]),
            ]
            return subs, []

    subs = []
    equiv = []
    if not plus:
        for i, blk in enumerate(blocks, 1):
            if len(blk) > 1:
                subs.append((f"U{i}", [[(_u(s, t), 1.0)] for s, t in _pairs_within(blk)]))
        for m in range(2, r + 1):
            for n in range(1, m):
                prs = _pairs_between(blocks[m - 1], blocks[n - 1])
                a = len(subs)
                subs.append((f"W{m}{n}", [[(_w(i, j), 1.0)] for i, j in prs]))
                subs.append((f"U{m}{n}", [[(_u(i, j), 1.0)] for i, j in prs]))
                equiv.append((a, a + 1))
        return subs, equiv

    if part[-1] >= 2:
        # both of the last two simple roots are in Theta
        for i, blk in enumerate(blocks[:-1], 1):
            if len(blk) > 1:
                subs.append((f"U{i}", [[(_u(s, t), 1.0)] for s, t in _pairs_within(blk)]))
        for m in range(2, r):
            for n in range(1, m):
                prs = _pairs_between(blocks[m - 1], blocks[n - 1])
                a = len(subs)
                subs.append((f"W{m}{n}", [[(_w(i, j), 1.0)] for i, j in prs]))
                subs.append((f"U{m}{n}", [[(_u(i, j), 1.0)] for i, j in prs]))
                equiv.append((a, a + 1))
        last = blocks[-1]
        for n in range(1, r):
            # the mixed block splits along the two so(l) ideals of the
            # isotropy action: the w-u and w+u combinations are separately
            # invariant and land in different ideals, so no equivalence
            prs = _pairs_between(last, blocks[n - 1])
            minus = [[(_w(i, j), 1.0), (_u(i, j), -1.0)] for i, j in prs]
            plus_half = [[(_w(i, j), 1.0), (_u(i, j), 1.0)] for i, j in prs]
            subs.append((f"M{r}{n}_1", minus))
            subs.append((f"M{r}{n}_2", plus_half))
        return subs, equiv

    # last root in Theta, next-to-last not: final block is the singleton {l}
    for i, blk in enumerate(blocks[:-2], 1):
        if len(blk) > 1:
            subs.append((f"U{i}", [[(_u(s, t), 1.0)] for s, t in _pairs_within(blk)]))
    pen = blocks[-2]
    v_terms = [[(_u(s, t), 1.0)] for s, t in _pairs_within(pen)]
    v_terms += [[(_w(l, t), 1.0)] for t in pen]
    subs.append((f"V{r-1}", v_terms))
    for m in range(2, r - 1):
        for n in range(1, m):
            prs = _pairs_between(blocks[m - 1], blocks[n - 1])
            a = len(subs)
            subs.append((f"W{m}{n}", [[(_w(i, j), 1.0)] for i, j in prs]))
            subs.append((f"U{m}{n}", [[(_u(i, j), 1.0)] for i, j in prs]))
            equiv.append((a, a + 1))
    for n in range(1, r - 1):
        blk = blocks[n - 1]
        m_terms = [[(_w(i, j), 1.0)] for j in blk for i in pen]
        m_terms += [[(_u(l, j), 1.0)] for j in blk]
        n_terms = [[(_u(i, j), 1.0)] for j in blk for i in pen]
        n_terms += [[(_w(l, j), 1.0)] for j in blk]
        a = len(subs)
        subs.append((f"M{n}", m_terms))
        subs.append((f"N{n}", n_terms))
        equiv.append((a, a + 1))
    return subs, equiv


def _orthonormalize(spec, rows):
    """Gram-Schmidt for the background metric.

    Rows linked by shared coordinates form a component, whose output vectors
    lie in its coordinates.  Projections across components are exact zeros,
    so each row visits only the earlier vectors of its own component.
    """
    model = spec.algebra
    scale = float(spec.inner_scale)
    label = list(range(len(rows)))

    def root(i):
        while label[i] != i:
            i = label[i]
        return i

    first, done = {}, {}
    for i, c in np.argwhere(rows).tolist():
        a, b = root(i), root(first.setdefault(c, i))
        label[max(a, b)] = min(a, b)
    out = np.zeros(np.shape(rows))
    for r, v in enumerate(rows):
        earlier = done.setdefault(root(r), [])
        w = v.copy()
        for o in earlier:
            w -= scale * model.ambient_inner_coords(w, o) * o
        nrm = np.sqrt(scale * model.ambient_inner_coords(w, w))
        if nrm < 1e-12:
            raise InvariantViolation("declared submodule span is degenerate")
        out[r] = w / nrm
        earlier.append(out[r])
    return out


@lru_cache(maxsize=None)
def decompose_isotropy(spec):
    """Decompose the tangent space into catalogued irreducible summands."""
    model = spec.algebra
    blocks = _blocks(spec)
    iso, tan = split_reductive(spec)
    builder = {"A": _decompose_a, "B": _decompose_b, "C": _decompose_c, "D": _decompose_d}
    raw_subs, equiv = builder[spec.family](spec, blocks)
    if not raw_subs:
        raise UnimplementedCase(f"{spec} has no tangent summand: the flag is a point")

    submodules = []
    for name, terms in raw_subs:
        span = _span_from_terms(model, terms)
        submodules.append(Submodule(name, span, _orthonormalize(spec, span)))

    dec = Decomposition(spec, submodules, [tuple(c) for c in equiv], iso, tan)
    _verify_decomposition(dec)
    return dec


def _verify_decomposition(dec):
    spec = dec.spec
    model = spec.algebra
    g = float(spec.inner_scale) * model.gram
    tan_set = set(dec.tangent_indices)

    total = sum(s.dim for s in dec.submodules)
    if total != len(dec.tangent_indices):
        raise InvariantViolation(
            f"submodule dimensions sum to {total}, tangent space has "
            f"dimension {len(dec.tangent_indices)} for {spec}"
        )

    for s in dec.submodules:
        support = np.nonzero(np.max(np.abs(s.span), axis=0) > 1e-12)[0]
        if not set(support.tolist()) <= tan_set:
            raise InvariantViolation(f"submodule {s.name} of {spec} leaves the tangent space")

    weighted = [s.orthonormal * g for s in dec.submodules]
    for a in range(len(dec.submodules)):
        for b in range(a + 1, len(dec.submodules)):
            if np.max(np.abs(weighted[a] @ dec.submodules[b].orthonormal.T)) > 1e-10:
                raise InvariantViolation(
                    f"submodules {dec.submodules[a].name} and "
                    f"{dec.submodules[b].name} of {spec} are not orthogonal"
                )

    # ad(k_Theta)-invariance of every summand.  The summands fill the tangent
    # space and split_reductive has checked [k_Theta, m] in m, so ad(e_p)
    # leaves a summand exactly when the column of a summand vector in the
    # isotropy action reaches another summand's rows.
    act = dec.isotropy_action
    d = total
    owner = np.repeat(np.arange(len(dec.submodules)), [s.dim for s in dec.submodules])
    elsewhere = owner[act.row] != owner[act.col]
    leak = np.sqrt(
        np.bincount(
            act.gen * d + act.col,
            weights=np.where(elsewhere, act.value * act.value, 0.0),
            minlength=act.count * d,
        )
    )
    bad = np.flatnonzero(leak > 1e-9)
    if bad.size:
        s = dec.submodules[owner[bad[0] % d]]
        raise InvariantViolation(f"submodule {s.name} of {spec} is not ad-invariant")


def enumerate_small_flags(family, rank):
    """All catalogued flags of the family with two or three summands."""
    build_algebra(family, rank)  # validates the rank
    specs = []
    if family == "A":
        if rank == 3:
            parts = [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2)]
        else:
            parts = [
                (a, b, rank + 1 - a - b)
                for a in range(1, rank)
                for b in range(1, rank + 1 - a)
                if rank + 1 - a - b >= 1
            ]
        for p in parts:
            specs.append(make_flag(build_algebra(family, rank), p))
        return specs
    if family in ("B", "C"):
        if rank == 2:
            raise UnimplementedCase(f"rank-2 {family} flags are not catalogued")
        specs.append(make_flag(build_algebra(family, rank), (rank,)))
        for d in range(1, rank):
            specs.append(make_flag(build_algebra(family, rank), (d, rank - d), True))
        return specs
    # family D
    if rank == 3:
        raise UnimplementedCase("rank-3 D flags are not catalogued")
    if rank == 4:
        shapes = [((4,), False), ((3, 1), True), ((3, 1), False), ((1, 3), False), ((1, 2, 1), True)]
    else:
        shapes = [((rank - 1, 1), False), ((1, rank - 1), False), ((1, rank - 2, 1), True)]
        shapes += [((d, rank - d), True) for d in range(1, rank - 1)]
    for part, plus in shapes:
        specs.append(make_flag(build_algebra(family, rank), part, plus))
    return specs


def manifold_name(spec):
    """Display name of the underlying homogeneous space."""
    l = spec.rank
    p = spec.partition
    plus = spec.includes_last_root
    if spec.family == "A":
        inner = "x".join(f"O({k})" for k in p)
        return f"SO({l + 1})/S({inner})"
    if spec.family == "B":
        if not plus and p == (l,):
            return f"(SO({l})xSO({l + 1}))/SO({l})"
        if plus and len(p) == 2:
            d = p[0]
            if d == 1:
                return f"(SO({l})xSO({l + 1}))/(SO({l - 1})xSO({l}))"
            return f"(SO({l})xSO({l + 1}))/(SO({d})xSO({l - d})xSO({l - d + 1}))"
    if spec.family == "C":
        if not plus and p == (l,):
            return f"U({l})/O({l})"
        if plus and len(p) == 2:
            d = p[0]
            return f"U({l})/(O({d})xU({l - d}))"
    if spec.family == "D":
        if not plus and p in {(l - 1, 1), (1, l - 1)}:
            return f"(SO({l})xSO({l}))/S(O({l - 1})xO(1))"
        if plus and p == (1, l - 2, 1):
            return f"(SO({l})xSO({l}))/S(O({l - 1})xO(1))"
        if l == 4 and ((p == (4,) and not plus) or (p == (3, 1) and plus)):
            return "(SO(4)xSO(4))/SO(4)"
        if plus and len(p) == 2:
            d = p[0]
            return f"(SO({l})xSO({l}))/(SO({d})xSO({l - d})xSO({l - d}))"
    return f"{spec.family}{l} flag {list(p)}{'+' if plus else '-'}"
