"""Real flag manifolds and their isotropy decompositions.

A flag is encoded by an ordered partition of the rank data together with a
switch saying whether the last simple root belongs to the deleted set Theta:

* family A: the partition sums to ``l + 1`` and the switch must be off;
* families B, C, D: the partition sums to ``l``.

Theta consists of the simple roots interior to each partition block, plus the
last simple root when the switch is on.  The tangent space ``m`` is spanned by
the basis vectors whose restricted roots are *not* in the linear span of
Theta, and it splits into explicitly catalogued irreducible summands with
declared equivalences between them.

The catalogue is a case analysis over flag shapes: one :class:`ShapeRecord`
per key of :attr:`FlagSpec.shape` holds the key's listed flags, inner scale,
manifold name, coefficient names, Table 1 row and summand dimensions, so
:attr:`FlagSpec.inner_scale` is derived from the record, not stored.  The
last two simple roots of D_l, ``l_{l-1} -+ l_l``, are the spin nodes of its
diagram, and the symmetry that swaps them (``l_l -> -l_l``) maps Theta of
``D:l:[l-1,1]:+`` onto Theta of ``D:l:[l]:-``: the two are one flag, with one
key, and the twin is built by its representative's builder under the swap,
keeping its own summand names.  Shapes outside the catalogued ranges raise
:class:`~einflag.errors.UnimplementedCase`.

Every constructed decomposition is verified a posteriori, exactly, on its
declared integer spans (:attr:`Decomposition.certificate`): submodules must be
pairwise orthogonal, of full rank, ad(k_Theta)-invariant, and fill the
tangent space.  No tolerance and no random draw enters these decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .algebra import (
    AlgebraModel,
    _block_stack,
    _components,
    _coo_pattern,
    _coo_sums,
    _coo_transform,
    _matches,
    _nullity,
    _row_entries,
    build_algebra,
)
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

    The background metric is the ambient product times ``inner_scale``, a
    positive rational read from the flag's :attr:`record` so that the
    catalogued bases are orthonormal.
    """

    algebra: AlgebraModel
    partition: tuple
    includes_last_root: bool

    @property
    def family(self):
        return self.algebra.family

    @property
    def rank(self):
        return self.algebra.rank

    @property
    def representative(self):
        """The flag whose builder decomposes this one: the flag itself, or
        for a D flag whose last block is the singleton ``{l}`` with the last
        root in Theta, the flag of the Theta that the spin-node swap
        ``l_l -> -l_l`` gives (the singleton joins the block before it)."""
        return self._swapped or self

    @cached_property
    def _swapped(self):
        # the swapped flag or None, never the flag itself: a flag that refers
        # to itself would wait for the cycle collector to free its algebra
        part = self.partition
        if self.family == "D" and self.includes_last_root and len(part) > 1 and part[-1] == 1:
            return make_flag(self.algebra, part[:-2] + (part[-2] + 1,))
        return None

    @cached_property
    def shape(self):
        """The catalogue key of the flag, or None outside the catalogue: the
        key of the record whose flags at the rank hold the
        :attr:`representative`, so a spin-node twin has its representative's
        key.  The README tabulates each key's flags and Table 1 row.
        """
        if (self.family, self.rank) in _REFUSED:
            return None
        rep = self.representative
        flag = (rep.partition, rep.includes_last_root)
        keys = (k for k, record in _RECORDS.items() if k[0] == self.family and flag in record.flags(self.rank))
        return next(keys, None)

    @cached_property
    def record(self):
        """The :class:`ShapeRecord` of the flag's shape.  An A flag outside
        the catalogue gets the generic A record, whose name and summand
        formulas hold for every A flag; any other such flag gets None."""
        return _RECORDS.get(self.shape, _A_FLAG if self.family == "A" else None)

    @cached_property
    def inner_scale(self):
        return Fraction(1) if self.record is None else self.record.inner_scale(self.rank)

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
    return FlagSpec(algebra, partition, bool(includes_last_root))


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
    ends = list(accumulate(spec.partition))
    return [list(range(end - p + 1, end + 1)) for p, end in zip(spec.partition, ends)]


def theta(spec):
    """Indices (1-based) of the simple roots in Theta."""
    idx = [i for blk in _blocks(spec) for i in blk[:-1]]
    if spec.includes_last_root:
        idx.append(spec.rank)
    return tuple(sorted(set(idx)))


def _simple_roots(family, rank):
    """The chain ``l_i - l_{i+1}``, then B's ``l_l``, C's ``2 l_l`` or D's
    ``l_{l-1} + l_l``, as integer rows."""
    eye = np.eye(rank + 1 if family == "A" else rank, dtype=np.int64)
    last = {"A": eye[:0], "B": eye[-1:], "C": 2 * eye[-1:], "D": eye[-2:-1] + eye[-1:]}
    return np.vstack([eye[:-1] - eye[1:], last[family]])


def _root_coordinates(family, roots):
    """Twice the coordinates of each integer root over :func:`_simple_roots`,
    exact integers.

    With P the partial sums of a root's lambda coordinates r, the chain root
    ``l_i - l_{i+1}`` takes ``P_i``; B's ``l_l`` takes ``P_l``, C's ``2 l_l``
    takes ``P_l / 2`` and D's ``l_{l-1} -+ l_l`` take ``(P_{l-1} -+ r_l) / 2``.
    """
    P = np.cumsum(roots, axis=1)
    twice = 2 * P[:, : roots.shape[1] - (family == "A")]
    if family == "C":
        twice[:, -1] = P[:, -1]
    elif family == "D":
        twice[:, -2], twice[:, -1] = P[:, -2] - roots[:, -1], P[:, -2] + roots[:, -1]
    return twice


def split_reductive(spec):
    """Indices of the isotropy and tangent parts of the basis.

    Returns ``(isotropy, tangent)`` as tuples of basis indices.  A basis root
    belongs to the isotropy algebra k_Theta exactly when it lies in the
    linear span of Theta: the simple roots are independent, so exactly when
    its integer coordinates over them (:func:`_root_coordinates`, checked
    to rebuild every root) vanish off Theta.
    """
    model = spec.algebra
    twice = _root_coordinates(spec.family, model.roots)
    if np.any(twice @ _simple_roots(spec.family, spec.rank) != 2 * model.roots):
        raise InvariantViolation(f"the roots of {spec} do not expand over its simple roots")
    outside = np.ones(spec.rank, dtype=bool)
    outside[[i - 1 for i in theta(spec)]] = False
    in_span = ~np.any(twice[:, outside], axis=1)
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


class DecompositionCertificate(NamedTuple):
    """The exact decisions on a decomposition, from its declared integer spans.

    The rows are the stacked spans, summand by summand, then one unit row
    per isotropy coordinate: ``entries`` are their nonzeros ``(row, col,
    val)``, int64, and ``owner`` is the summand of each row, the number of
    summands for an isotropy row.

    ``gram`` holds the nonzeros ``(a, b, value)`` of the rows' integer Gram
    under twice the algebra's Gram diagonal, both orders, sorted: the
    background product is ``inner_scale / 2`` times it.  An entry between
    two owners is a pair of summands that are not orthogonal, or a summand
    row that touches an isotropy coordinate.  ``label`` is each row's
    component under the entries within its owner, and ``ranks`` the exact
    rank of each summand's rows, from :func:`_gram_ranks`.

    The isotropy action between the summand rows is, for the g-th isotropy
    basis vector e_p, ``A_g[a, b] = <row a, [e_p, row b]>`` in the same
    integer product; ``leaks`` are its nonzero entries ``(gen, a, b, value)``
    whose rows a and b lie in different summands.  With the rows orthogonal
    and of full rank, and ``[k_Theta, m]`` in m, a summand is
    ad(k_Theta)-invariant exactly when none of its rows b leaks.
    ``action`` is the layout of that gather, ``(at, order, pattern)``: the
    structure entries it reads, the span entries listed by coordinate, and
    its :func:`~einflag.algebra._coo_pattern`, whose ``keys`` are the
    computed entries; :attr:`Decomposition.isotropy_action` takes its values
    over the same layout when the orthonormal rows have the spans' nonzeros.
    """

    entries: tuple
    owner: np.ndarray
    gram: tuple
    label: np.ndarray
    ranks: np.ndarray
    action: tuple
    leaks: tuple


def _as_int64(values, what):
    """``values`` as int64, or :class:`InvariantViolation` naming ``what``
    where one of them is not an integer."""
    values = np.asarray(values)
    exact = values.astype(np.int64)
    if np.any(exact != values):
        raise InvariantViolation(f"{what} is not integral")
    return exact


def _gram_entries(row, col, val, weight, size):
    """The nonzeros ``(a, b, value)`` of ``R diag(weight) R^T`` for the integer
    R of ``size`` rows with the nonzeros ``(row, col, val)``: one join of
    the entries on their column, summed exactly per pair of rows.  Both
    orders and the diagonal are listed, sorted by ``(a, b)``."""
    x, y = _matches(col, col)
    keys, inv = np.unique(row[x] * size + row[y], return_inverse=True)
    sums = np.bincount(inv, weights=val[x] * val[y] * weight[col[x]], minlength=keys.size)
    keys, sums = keys[sums != 0], sums[sums != 0]
    return keys // size, keys % size, sums.astype(np.int64)


def _gram_ranks(a, b, value, size):
    """``(label, rank)`` of a positive semidefinite integer Gram given by its
    nonzeros: each row's component under the entries off the diagonal
    (:func:`~einflag.algebra._components`), and the exact rank of each
    component, stored at its least row, 0 elsewhere.  A row alone has rank 1
    unless it is zero; a larger component has its size less the nullity of
    its Gram block (:func:`~einflag.algebra._nullity`)."""
    off = a != b
    rank = np.zeros(size, dtype=np.int64)
    if not off.any():
        rank[a] = value != 0
        return np.arange(size), rank
    label = _components(a[off], b[off], size)
    for members, blocks in _block_stack(label, a, b, value):
        k = blocks.shape[1]
        rank[members[:, 0]] = (blocks[:, 0, 0] != 0) if k == 1 else k - _nullity(blocks)
    return label, rank


def _certificate(dec):
    """Build :attr:`Decomposition.certificate`."""
    model = dec.spec.algebra
    subs = dec.submodules
    span = np.vstack([s.span for s in subs])
    d, iso = len(span), np.asarray(dec.isotropy_indices, dtype=np.int64)
    size = d + iso.size
    owner = np.r_[np.repeat(np.arange(len(subs)), [s.dim for s in subs]), np.full(iso.size, len(subs))]
    weight = _as_int64(2 * model.gram, "twice the Gram diagonal")
    r, c = np.nonzero(span)
    v = _as_int64(span[r, c], f"a declared span of {dec.spec}")
    row, col = np.r_[r, d + np.arange(iso.size)], np.r_[c, iso]
    val = np.r_[v, np.ones(iso.size, dtype=np.int64)]
    gram = _gram_entries(row, col, val, weight, size)
    a, b, G = gram
    within = owner[a] == owner[b]
    label, rank = _gram_ranks(a[within], b[within], G[within], size)
    ranks = np.bincount(owner[:d], weights=rank[:d], minlength=len(subs)).astype(np.int64)

    # A_g[a, b] = sum C[p, j, k] row_b[j] (weight row_a)[k] over the summand
    # rows, one gather from structure_index through their nonzeros, listed
    # by coordinate (order)
    I, J, K, V = model.structure_index
    gen = np.full(model.n, -1)
    gen[iso] = np.arange(iso.size)
    at = np.flatnonzero(gen[I] >= 0)
    order = np.argsort(c * d + r)
    by_coord = (np.searchsorted(c[order], np.arange(model.n + 1)), r[order])
    one = (np.arange(iso.size + 1), np.arange(iso.size))
    pattern = _coo_pattern((gen[I[at]], K[at], J[at]), (one, by_coord, by_coord), d)
    A = _coo_sums(pattern, V[at][pattern[0]], (None, (v * weight[c])[order], v[order]))
    keys = pattern[3]
    g, a, b = keys // (d * d), keys // d % d, keys % d
    bad = (A != 0) & (owner[a] != owner[b])
    leaks = (g[bad], a[bad], b[bad], _as_int64(A[bad], "the isotropy action"))
    return DecompositionCertificate((row, col, val), owner, gram, label, ranks, (at, order, pattern), leaks)


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

    @cached_property
    def certificate(self):
        """The :class:`DecompositionCertificate` of the declared spans, exact:
        built at its first read from the spans, the algebra's
        ``structure_index`` and ``gram``, never from the orthonormal rows."""
        return _certificate(self)

    @cached_property
    def isotropy_action(self):
        """The isotropy generators ``ad(e_p)``, p in ``isotropy_indices``, as a
        :class:`GeneratorTable` over the stacked summand bases.

        With B the :func:`tangent_basis` rows and ``B_w`` their background
        weights, generator g is ``R[a, b] = sum C[p, j, k] B_w[a, k] B[b, j]``,
        the background product of ``[e_p, b]`` with ``a``.  One gather from
        the algebra's ``structure_index`` through the nonzeros of both bases:
        where every row is its span row scaled (no Gram component of more
        than one row), those nonzeros are the span's, and the gather takes
        the certificate's layout and only multiplies and sums its values.
        """
        model = self.spec.algebra
        B, _ = tangent_basis(self)
        d, count = len(B), len(self.isotropy_indices)
        w = float(self.spec.inner_scale) * model.gram
        I, J, K, V = model.structure_index
        cert = self.certificate
        if np.bincount(cert.label).max() == 1:
            at, order, pattern = cert.action
            r, c, _ = cert.entries
            r, c = r[: order.size][order], c[: order.size][order]
            Bv = B[r, c]
            v = _coo_sums(pattern, V[at][pattern[0]], (None, Bv * w[c], Bv))
            keys = pattern[3]
            return GeneratorTable(count, keys // (d * d), keys // d % d, keys % d, v)
        Bw = B * w
        gen = np.full(model.n, -1)
        gen[list(self.isotropy_indices)] = np.arange(count)
        at = gen[I] >= 0
        one = (np.arange(count + 1), np.arange(count), np.ones(count))
        maps = (one, _row_entries(Bw.T), _row_entries(B.T))
        g, a, b, v = _coo_transform((gen[I[at]], K[at], J[at], V[at]), maps, d)
        return GeneratorTable(count, g, a, b, v)


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


def _within_summands(blocks):
    """The summand ``U{i}`` of the pairs inside block i, for each listed block of
    more than one index, numbered from 1."""
    return [
        (f"U{i}", [[(_u(s, t), 1.0)] for s, t in _pairs_within(blk)])
        for i, blk in enumerate(blocks, 1)
        if len(blk) > 1
    ]


def _add_equivalent_pairs(subs, equiv, blocks, m_hi):
    """Append ``W{m}{n}`` and ``U{m}{n}`` for each ``1 <= n < m <= m_hi``, declared
    equivalent: the w and u vectors of the pairs between blocks m and n."""
    for m in range(2, m_hi + 1):
        for n in range(1, m):
            prs = _pairs_between(blocks[m - 1], blocks[n - 1])
            equiv.append((len(subs), len(subs) + 1))
            subs.append((f"W{m}{n}", [[(_w(i, j), 1.0)] for i, j in prs]))
            subs.append((f"U{m}{n}", [[(_u(i, j), 1.0)] for i, j in prs]))


# the second summand of each A3 pair, by block sizes
_A3_PAIR_IMAGES = {
    (2, 1, 1): ("M31", [[("w(4,2)", 1.0)], [("w(4,1)", -1.0)]]),
    (1, 2, 1): ("M32", [[("w(4,3)", 1.0)], [("w(4,2)", -1.0)]]),
    (1, 1, 2): ("M32", [[("w(4,2)", 1.0)], [("w(3,2)", -1.0)]]),
}


def _decompose_a(spec, blocks):
    def mod_mn(m, n):
        prs = _pairs_between(blocks[m - 1], blocks[n - 1])
        return (f"M{m}{n}", [[(_w(i, j), 1.0)] for i, j in prs])

    if spec.shape == "A3-split":
        subs = [
            ("M1", [[("w(3,1)", 1.0), ("w(4,2)", -1.0)], [("w(4,1)", 1.0), ("w(3,2)", 1.0)]]),
            ("M2", [[("w(3,1)", 1.0), ("w(4,2)", 1.0)], [("w(4,1)", 1.0), ("w(3,2)", -1.0)]]),
        ]
        return subs, []
    if spec.shape == "A3-pair":
        # the one-dimensional summand first, then the equivalent pair, the
        # second summand's rows the images of the first's, so that its
        # intertwiner is the identity (metric_space checks this)
        subs = sorted((mod_mn(m, n) for m, n in ((2, 1), (3, 1), (3, 2))), key=lambda s: len(s[1]) > 1)
        subs[2] = _A3_PAIR_IMAGES[tuple(map(len, blocks))]
        return subs, [(1, 2)]
    if spec.rank == 3 and len(blocks) == 4:
        # the uncatalogued [1,1,1,1]: six lines, three equivalent pairs
        order = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
        return [mod_mn(m, n) for m, n in order], [(0, 5), (1, 4), (2, 3)]
    return [mod_mn(m, n) for m in range(2, len(blocks) + 1) for n in range(1, m)], []


def _so4_halves(names, sign):
    """The two three-dimensional ideals of so(4) on ``u(i,j)``, ``i, j <= 4``:
    each of ``u(2,1)``, ``u(3,1)``, ``u(4,1)`` plus and minus its dual
    ``u(4,3)``, ``-u(4,2)``, ``u(3,2)``; the first row of the second ideal is
    taken times ``sign``."""
    duals = [("u(2,1)", "u(4,3)", 1.0), ("u(3,1)", "u(4,2)", -1.0), ("u(4,1)", "u(3,2)", 1.0)]
    first = [[(a, 1.0), (b, s)] for a, b, s in duals]
    second = [[(a, 1.0), (b, -s)] for a, b, s in duals]
    second[0] = [(a, sign * c) for a, c in second[0]]
    return [(names[0], first), (names[1], second)]


def _last_root_summands(blocks, name, with_v):
    """The summands of a B or D flag whose last block has the last root in
    Theta: the pairs and ``U{i}`` of the other blocks, then the w-u and w+u
    halves ``{name(n)}_1``, ``{name(n)}_2`` of block n against the last one,
    the second led by the ``v`` rows of block n when ``with_v``.  The halves
    land in different ideals of the isotropy action, so no equivalence."""
    subs, equiv = _within_summands(blocks[:-1]), []
    _add_equivalent_pairs(subs, equiv, blocks, len(blocks) - 1)
    for n, blk in enumerate(blocks[:-1], 1):
        prs = _pairs_between(blocks[-1], blk)
        v_rows = [[(f"v({t})", 1.0)] for t in blk] if with_v else []
        subs.append((f"{name(n)}_1", [[(_w(i, j), 1.0), (_u(i, j), -1.0)] for i, j in prs]))
        subs.append((f"{name(n)}_2", v_rows + [[(_w(i, j), 1.0), (_u(i, j), 1.0)] for i, j in prs]))
    return subs, equiv


def _decompose_b(spec, blocks):
    if spec.shape == "B4-full":
        return [("V1", [[(f"v({k})", 1.0)] for k in range(1, 5)])] + _so4_halves(("T1", "T2"), 1.0), []
    if spec.includes_last_root:
        return _last_root_summands(blocks, lambda n: f"V{n}", True)
    subs, equiv = [(f"V{i}", [[(f"v({k})", 1.0)] for k in blk]) for i, blk in enumerate(blocks, 1)], []
    _add_equivalent_pairs(subs, equiv, blocks, len(blocks))
    return subs + _within_summands(blocks), equiv


def _decompose_c(spec, blocks):
    r = len(blocks)
    n_v = r - 1 if spec.includes_last_root else r
    subs = [(f"V{i}", [[(f"u({k},{k})", 1.0) for k in blk]]) for i, blk in enumerate(blocks[:n_v], 1)]
    equiv = [tuple(range(n_v))] if n_v >= 2 else []
    for i, blk in enumerate(blocks[:n_v], 1):
        if len(blk) > 1:
            # the traceless diagonal of block i, then its pairs
            diag = [[(f"u({a},{a})", 1.0), (f"u({b},{b})", -1.0)] for a, b in zip(blk, blk[1:])]
            subs.append((f"U{i}", diag + [[(_u(s, t), 1.0)] for s, t in _pairs_within(blk)]))
    _add_equivalent_pairs(subs, equiv, blocks, n_v)
    if spec.includes_last_root:
        for n, blk in enumerate(blocks[:-1], 1):
            prs = _pairs_between(blocks[-1], blk)
            subs.append((f"M{r}{n}", [[(_w(i, j), 1.0)] for i, j in prs] + [[(_u(i, j), 1.0)] for i, j in prs]))
    return subs, equiv


def _decompose_d(spec, blocks):
    # a last block {l} with the last root in Theta is a spin-node twin,
    # built through its representative
    r = len(blocks)
    if spec.shape == "D4-full":
        return _so4_halves(("T1", "S1"), -1.0), []
    if spec.includes_last_root:
        return _last_root_summands(blocks, lambda n: f"M{r}{n}", False)
    subs, equiv = _within_summands(blocks), []
    _add_equivalent_pairs(subs, equiv, blocks, r)
    return subs, equiv


def _spin_swap(model):
    """The basis permutation of the spin-node swap ``l_l -> -l_l`` of D_l,
    read off ``model.roots``: it exchanges ``w(l,j)`` and ``u(l,j)`` and fixes
    every other element.  A root and its negative name one element, and two
    roots ``+-l_i +- l_j`` agree up to sign exactly where their product is +-2."""
    flipped = model.roots * np.r_[np.ones(model.rank - 1), -1.0]
    return np.argmax(np.abs(flipped @ model.roots.T), axis=1)


def _gram_schmidt_loop(spec, rows):
    """Gram-Schmidt for the background metric: every earlier vector projected
    out in turn."""
    model = spec.algebra
    scale = float(spec.inner_scale)
    out = []
    for v in rows:
        w = v.copy()
        for o in out:
            w -= scale * model.ambient_inner_coords(w, o) * o
        out.append(w / np.sqrt(scale * model.ambient_inner_coords(w, w)))
    return np.array(out)


def _orthonormalize(spec, rows):
    """The declared rows orthonormalized for the background metric, decided
    on their exact Gram.

    The integer Gram ``G = R (2 gram) R^T`` of the rows R links rows with a
    nonzero entry off its diagonal into components (:func:`_gram_ranks`).
    A row alone in its component is divided by ``sqrt(scale |r|^2)``, its
    squared norm ``G_rr / 2`` read off exactly, as Gram-Schmidt would round
    it: one vectorized division.  Only the rows of larger components, the
    traceless diagonals of C's U summands, go through
    :func:`_gram_schmidt_loop`, one component at a time.  A component of
    less than full rank raises :class:`InvariantViolation`: the span is
    degenerate.
    """
    model = spec.algebra
    k = len(rows)
    r, c = np.nonzero(rows)
    v = _as_int64(rows[r, c], "a declared span")
    weight = _as_int64(2 * model.gram, "twice the Gram diagonal")
    a, b, G = _gram_entries(r, c, v, weight, k)
    label, rank = _gram_ranks(a, b, G, k)
    size = np.bincount(label, minlength=k)
    if not np.array_equal(rank, np.where(label == np.arange(k), size, 0)):
        raise InvariantViolation("declared submodule span is degenerate")
    norm2 = np.zeros(k)
    norm2[a[a == b]] = G[a == b] / 2
    out = rows / np.sqrt(float(spec.inner_scale) * norm2)[:, None]
    for root in np.flatnonzero(size > 1):
        members = np.flatnonzero(label == root)
        out[members] = _gram_schmidt_loop(spec, rows[members])
    return out


# every flag of these ranks is refused, and at the gated ranks every flag
# outside the catalogue
_REFUSED = {
    ("B", 2): "rank-2 B flags carry extra invariant subspaces",
    ("C", 2): "rank-2 C flags carry extra invariant subspaces",
    ("D", 3): "rank-3 D flags reduce to family A and are not catalogued",
}
_GATED_RANKS = {"B": (3, 4), "C": (4,), "D": (4,)}


@lru_cache(maxsize=None)
def decompose_isotropy(spec):
    """Decompose the tangent space into catalogued irreducible summands."""
    model = spec.algebra
    iso, tan = split_reductive(spec)
    if (spec.family, spec.rank) in _REFUSED:
        raise UnimplementedCase(_REFUSED[spec.family, spec.rank])
    if spec.rank in _GATED_RANKS.get(spec.family, ()) and spec.shape is None:
        sign = "+" if spec.includes_last_root else "-"
        raise UnimplementedCase(
            f"{spec.family} rank {spec.rank} flag {spec.partition}:{sign} is outside the catalogue"
        )
    # a spin-node twin is its representative's summands under the swap,
    # with the names of its record
    rep = spec.representative
    builder = {"A": _decompose_a, "B": _decompose_b, "C": _decompose_c, "D": _decompose_d}
    raw_subs, equiv = builder[spec.family](rep, _blocks(rep))
    if not raw_subs:
        raise UnimplementedCase(f"{spec} has no tangent summand: the flag is a point")
    swap = _spin_swap(model) if rep is not spec else slice(None)
    names = dict(spec.record.twin_names) if rep is not spec and spec.record else {}

    # the summands are orthogonal (_verify_decomposition), so no Gram
    # component joins two of them and their stacked spans orthonormalize as
    # each one on its own
    spans = [_span_from_terms(model, terms)[:, swap] for _, terms in raw_subs]
    rows = np.split(_orthonormalize(spec, np.vstack(spans)), np.cumsum([len(x) for x in spans])[:-1])
    submodules = [Submodule(names.get(name, name), x, r) for (name, _), x, r in zip(raw_subs, spans, rows)]

    dec = Decomposition(spec, submodules, [tuple(c) for c in equiv], iso, tan)
    _verify_decomposition(dec)
    return dec


def _verify_decomposition(dec):
    """Raise :class:`InvariantViolation` unless the summands fill the tangent
    space, stay in it, are pairwise orthogonal, have full rank and are
    ad(k_Theta)-invariant, each read off :attr:`Decomposition.certificate`
    exactly.  The summands fill the tangent space and split_reductive has
    checked ``[k_Theta, m]`` in m, so ad(e_p) leaves a summand exactly when
    the image of one of its rows pairs with another summand's row."""
    spec, subs = dec.spec, dec.submodules
    total = sum(s.dim for s in subs)
    if total != len(dec.tangent_indices):
        raise InvariantViolation(
            f"submodule dimensions sum to {total}, tangent space has "
            f"dimension {len(dec.tangent_indices)} for {spec}"
        )
    cert = dec.certificate
    owner, (a, b, _) = cert.owner, cert.gram
    cross = owner[a] < owner[b]
    touch = np.flatnonzero(cross & (owner[b] == len(subs)))
    if touch.size:
        raise InvariantViolation(f"submodule {subs[owner[a[touch[0]]]].name} of {spec} leaves the tangent space")
    cross = np.flatnonzero(cross)
    if cross.size:
        u, w = owner[a[cross[0]]], owner[b[cross[0]]]
        raise InvariantViolation(f"submodules {subs[u].name} and {subs[w].name} of {spec} are not orthogonal")
    for s, rank in zip(subs, cert.ranks):
        if rank != s.dim:
            raise InvariantViolation(f"submodule {s.name} of {spec} has rank {rank} < {s.dim}")
    _, _, leak, _ = cert.leaks
    if leak.size:
        raise InvariantViolation(f"submodule {subs[owner[leak.min()]].name} of {spec} is not ad-invariant")


def enumerate_small_flags(family, rank):
    """All catalogued flags of the family with two or three summands, the
    listed flags of each of the family's records in turn."""
    if (family, rank) in _REFUSED:
        raise UnimplementedCase(_REFUSED[family, rank])
    algebra = build_algebra(family, rank)  # validates the rank
    return [
        make_flag(algebra, part, plus)
        for key, record in _RECORDS.items()
        if key[0] == family and record.listed
        for part, plus in record.flags(rank)
    ]


def manifold_name(spec):
    """Display name of the underlying homogeneous space."""
    if spec.record is not None:
        return spec.record.name(spec.rank, spec.partition)
    return f"{spec.family}{spec.rank} flag {list(spec.partition)}{'+' if spec.includes_last_root else '-'}"


# ---------------------------------------------------------------------------
# the catalogue: one record per shape key


@dataclass(frozen=True)
class TableExpectation:
    """Published solution count for one flag: exact, an upper bound, or none."""

    display: str
    exact: int | None = None
    bound: int | None = None
    normal: bool | None = None

    def matches(self, count, normal_is_einstein):
        if self.exact is not None:
            return count == self.exact and self.normal in (None, normal_is_einstein)
        return None if self.bound is None else count <= self.bound


def _exact(count, normal):
    return lambda l, p: TableExpectation(str(count), exact=count, normal=normal)


def _bound(bound):
    return lambda l, p: TableExpectation(f"<={bound}", bound=bound)


@dataclass(frozen=True)
class ShapeRecord:
    """What the catalogue states about one shape key.

    ``flags(l)``: the ``(partition, includes_last_root)`` of the key's flags at
    rank l in table order, every representative and each listed twin, which
    :func:`enumerate_small_flags` lists where ``listed``.  The formulas
    ``name``, ``dims`` (``{summand name: dim}``, a summand sized 0 absent)
    and ``row`` (the Table 1 :class:`TableExpectation`, or None) read the
    rank l and partition p, ``dims`` those of the
    :attr:`~FlagSpec.representative`.  ``coefficient_names`` None means the
    generic names; ``twin_names`` maps a representative's summand names to a
    spin-node twin's.
    """

    flags: object
    name: object
    dims: object
    coefficient_names: tuple | None = None
    row: object = lambda l, p: None
    inner_scale: object = lambda l: Fraction(1)
    twin_names: tuple = ()
    listed: bool = True


def _a_name(l, p):
    return f"SO({l + 1})/S({'x'.join(f'O({k})' for k in p)})"


def _a_dims(l, p):
    return {f"M{m}{n}": p[m - 1] * p[n - 1] for m in range(2, len(p) + 1) for n in range(1, m)}


def _b_full_name(l, p):
    return f"(SO({l})xSO({l + 1}))/SO({l})"


def _c_plus_name(l, p):
    return f"U({l})/(O({p[0]})xU({l - p[0]}))"


def _d_full_name(l, p):
    return f"(SO({l})xSO({l}))/SO({l})"


def _b_plus_dims(l, p):
    return {"U1": p[0] * (p[0] - 1) // 2, "V1_1": p[0] * (l - p[0]), "V1_2": p[0] * (l - p[0] + 1)}


def _c_plus_dims(l, p):
    return {"V1": 1, "M21": 2 * p[0] * (l - p[0]), "U1": p[0] * (p[0] + 1) // 2 - 1}


# the records of each family in the order that enumerate_small_flags lists
# their flags; each key starts with its family's letter
_RECORDS = {
    "A3-pair": ShapeRecord(
        lambda l: [((2, 1, 1), False), ((1, 2, 1), False), ((1, 1, 2), False)] if l == 3 else [],
        _a_name, _a_dims, ("mu_0", "mu_1", "mu_2", "b"), _exact(5, False), lambda l: Fraction(1, 2 * (l - 1)),
    ),
    "A3-split": ShapeRecord(
        lambda l: [((2, 2), False)] if l == 3 else [],
        _a_name, lambda l, p: {"M1": 2, "M2": 2}, ("mu_1", "mu_2"), _exact(1, True),
    ),
    "A3-irreducible": ShapeRecord(
        lambda l: [((3, 1), False), ((1, 3), False)] if l == 3 else [], _a_name, _a_dims, listed=False
    ),
    "A-three": ShapeRecord(
        lambda l: [] if l == 3 else [
            ((a, b, l + 1 - a - b), False) for a in range(1, l) for b in range(1, l + 1 - a)
        ],
        _a_name, _a_dims, ("mu_21", "mu_31", "mu_32"), _bound(4), lambda l: Fraction(1, 2 * (l - 1)),
    ),
    "B-full": ShapeRecord(
        lambda l: [((l,), False)] if l != 4 else [],
        _b_full_name, lambda l, p: {"V1": l, "U1": l * (l - 1) // 2}, ("mu", "gamma"), _exact(2, False),
    ),
    "B4-full": ShapeRecord(
        lambda l: [((4,), False)] if l == 4 else [],
        _b_full_name, lambda l, p: {"V1": 4, "T1": 3, "T2": 3}, ("mu", "gamma_1", "gamma_2"), _exact(2, True),
    ),
    "B-plus1": ShapeRecord(
        lambda l: [((1, l - 1), True)],
        lambda l, p: f"(SO({l})xSO({l + 1}))/(SO({l - 1})xSO({l}))",
        _b_plus_dims, ("rho", "mu"), _exact(1, False),
    ),
    "B-plus": ShapeRecord(
        lambda l: [((d, l - d), True) for d in range(2, l)],
        lambda l, p: f"(SO({l})xSO({l + 1}))/(SO({p[0]})xSO({l - p[0]})xSO({l - p[0] + 1}))",
        _b_plus_dims, ("gamma", "rho", "mu"), lambda l, p: _bound(3 if p[0] == 2 else 4)(l, p),
    ),
    "C-full": ShapeRecord(
        lambda l: [((l,), False)],
        lambda l, p: f"U({l})/O({l})",
        lambda l, p: {"V1": 1, "U1": l * (l + 1) // 2 - 1}, ("mu_0", "mu_1"), _exact(0, False),
    ),
    "C-plus1": ShapeRecord(
        lambda l: [((1, l - 1), True)], _c_plus_name, _c_plus_dims, ("mu_0", "mu_21"), _exact(1, False),
    ),
    "C-plus": ShapeRecord(
        lambda l: [((d, l - d), True) for d in range(2, l)],
        _c_plus_name, _c_plus_dims, ("mu_0", "mu_1", "mu_21"), _bound(2),
    ),
    "D-full": ShapeRecord(
        lambda l: [((l,), False)] if l >= 5 else [],
        _d_full_name, lambda l, p: {"U1": l * (l - 1) // 2}, twin_names=(("U1", "V1"),), listed=False,
    ),
    "D4-full": ShapeRecord(
        lambda l: [((4,), False), ((3, 1), True)] if l == 4 else [],
        _d_full_name, lambda l, p: {"T1": 3, "S1": 3}, ("mu_1", "mu_2"), _exact(1, True),
    ),
    "D-pair": ShapeRecord(
        lambda l: [((l - 1, 1), False), ((1, l - 1), False), ((1, l - 2, 1), True)],
        lambda l, p: f"(SO({l})xSO({l}))/S(O({l - 1})xO(1))",
        # the U block of l - 1 indices beside the pair W21 ~ U21
        lambda l, p: {"U1": p[0] * (p[0] - 1) // 2, "U2": p[1] * (p[1] - 1) // 2, "W21": l - 1, "U21": l - 1},
        ("gamma", "lambda_1", "lambda_2", "b"),
        lambda l, p: (_exact(5, True) if l == 4 else _exact(6, False))(l, p),
        twin_names=(("U2", "V2"), ("W21", "M1"), ("U21", "N1")),
    ),
    "D-plus": ShapeRecord(
        lambda l: [((d, l - d), True) for d in range(1, l - 1)] if l >= 5 else [],
        lambda l, p: f"(SO({l})xSO({l}))/(SO({p[0]})xSO({l - p[0]})xSO({l - p[0]}))",
        lambda l, p: {"M21_1": p[0] * (l - p[0]), "M21_2": p[0] * (l - p[0]), "U1": p[0] * (p[0] - 1) // 2},
    ),
}

# an A flag outside the catalogue: its name and summands follow the A rule
_A_FLAG = ShapeRecord(lambda l: [], _a_name, _a_dims, listed=False)
