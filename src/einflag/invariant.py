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
this is proved for every constructed space.  The sign components that keep
every summand are computed, not searched for: :func:`_sign_actions` takes
them as one GF(2) kernel of the root parities, and each acts on the tangent
basis as an exact +-1 diagonal.

The proof is one block-wise certificate for every tangent dimension,
:func:`einflag.schur._schur_certificate`.  Three probes stand in for the
generators: two random combinations X, Y of the isotropy reps and one of the
sign actions (these commute, so one generic combination has their joint
commutant), drawn from a fixed seed.  The symmetric solutions of
``T G = G T`` on each summand count ``dim Sym End(m_i)``, and the solutions
of ``T G_i = G_j T`` for each pair ``i < j`` count ``dim Hom(m_i, m_j)``,
both on the matched eigenspaces of the symmetric probe ``P = XY + YX + Z``;
the margin of their null-space cuts is recorded on the space.  The probes
are a subset of the generators, so their commutant contains the true one,
and the operator basis is checked to commute with every generator, so it
lies in the true one.  Equal counts therefore prove the dimension.  An
unlucky draw can only overcount, which raises
:class:`~einflag.errors.InvariantViolation`; it never lets a wrong space pass.

The operator basis is canonical: orthogonal projectors onto the summands in
catalogue order, followed by one symmetric intertwiner per equivalent pair.
Every pair is declared aligned: the catalogue lists the second summand's
rows as the images of the first's, so the intertwiner sends row r of
summand i to row r of summand j, and its off-diagonal block ``B0`` is the
identity.  :func:`metric_space` checks that the solved map is a multiple of
the identity and raises :class:`~einflag.errors.InvariantViolation`, naming
the pair, where it is not.  Coefficients for the projectors are the
diagonal scales; the intertwiner coefficients are the mixing parameters
(named ``b`` for the four-parameter families).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvariantViolation, NotPositiveDefinite, UnimplementedCase
from .algebra import _coo_pattern, _coo_sums, _coo_transform, _matches, _row_entries
from .flag import GeneratorTable, decompose_isotropy, tangent_basis
from .schur import _probes, _schur_certificate

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
    "commutation_residual",
]

# a pair with |b| below this is unmixed: a diagonal frame, eigenvalues x_i, x_j
_UNMIXED = 1e-14


def _gf2_kernel(rows, n):
    """A basis of the s in GF(2)^n with ``<r, s> = 0`` for every row r, all
    as int bitmasks.

    The elimination pivots on the lowest set bit of each row and keeps the
    rows reduced, so each pivot bit is set in its own row alone.  The basis
    vector of a free bit f is f with the pivots of the rows that hold f, all
    below f.
    """
    pivots = {}
    for r in set(rows):
        for p, row in pivots.items():
            if r >> p & 1:
                r ^= row
        if r:
            low = (r & -r).bit_length() - 1
            for p in pivots:
                if pivots[p] >> low & 1:
                    pivots[p] ^= r
            pivots[low] = r
    return [
        1 << f | sum(1 << p for p, row in pivots.items() if row >> f & 1)
        for f in range(n)
        if f not in pivots
    ]


def _sign_actions(spec, B):
    """A basis of the sign symmetries of the stabilizer that keep every
    summand: ``(flips, table)``, the flipped ambient positions of each as an
    int bitmask (position k at bit k - 1), and their actions on the rows of
    the tangent basis B, a :class:`~einflag.flag.GeneratorTable` of exact
    +-1 diagonals.

    A flip s of the ambient positions multiplies basis element p by
    ``(-1)^<r_p, s>``, r_p its root mod 2.  On family A the flips are even,
    as the group is SO(l+1); B, C and D may flip single positions.  If s
    gives one sign to every nonzero of a row of B, then rows sharing a
    coordinate share that sign, and as the rows are orthonormal ``B_w
    diag(s) B^T`` is exactly ``diag(sigma)``, sigma_a the sign of row a's
    first nonzero: s keeps every summand.  A flip that gives a row two signs
    moves it off its line; it could stay in the summand only if the summand
    also held the sign-mixed partner row, which no catalogued summand does.
    Were one to, this group would be too small, the probe commutant would
    overcount and :func:`metric_space` would raise.  So the group is the
    GF(2) kernel of ``r_p ^ r_first(a)`` over every nonzero (a, p) of B, with
    the all-ones row on family A.
    """
    parity = spec.algebra.roots % 2
    npos = parity.shape[1]
    bits = parity @ (1 << np.arange(npos))
    a, p = np.nonzero(B)
    first = p[np.r_[True, a[1:] != a[:-1]]]
    rows = (bits[p] ^ bits[first[a]]).tolist()
    if spec.family == "A":
        rows.append((1 << npos) - 1)
    flips = np.array(_gf2_kernel(rows, npos), dtype=np.int64)
    on = (flips[:, None] >> np.arange(npos)) & 1
    sigma = 1.0 - 2.0 * ((on @ parity[first].T) % 2)
    count, d = sigma.shape
    diag = np.tile(np.arange(d), count)
    return flips, GeneratorTable(count, np.repeat(np.arange(count), d), diag, diag, sigma.ravel())


@dataclass
class MetricSpace:
    """Parametrized family of invariant metrics on one flag.

    ``reps`` and ``signs`` are :class:`~einflag.flag.GeneratorTable` s over the
    tangent basis: the isotropy action ``ad(e_p)`` of every isotropy basis
    vector, and a basis of the sign actions of the stabilizer that preserve
    every summand, each given by all d of its diagonal entries, every one
    exactly +-1.0.
    ``operators`` is the read-only ``(n, d, d)`` stack of the operator basis.
    ``pairs`` lists ``(i, j, B0)`` per declared pair, ``i < j``, with ``B0``
    the read-only identity, as every pair is aligned.
    ``certificate_margin`` is the ``(zero, nonzero)`` margin of the Schur
    certificate that proved its dimension: over every block, the largest
    Gram eigenvalue counted as zero and the smallest counted as nonzero,
    each relative to its block's norm, on either side of the cut at 1e-9.
    The derived per-flag data below is built at its first use and kept.
    """

    dec: object
    basis: np.ndarray
    slices: list
    reps: GeneratorTable = field(repr=False)
    signs: GeneratorTable = field(repr=False)
    operators: np.ndarray = field(repr=False)
    names: list
    pairs: list
    certificate_margin: tuple

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

    @cached_property
    def dims(self):
        """The dimension of each summand, in summand order, read-only."""
        dims = np.array([s.stop - s.start for s in self.slices])
        dims.setflags(write=False)
        return dims

    def metric_matrix(self, coeffs):
        # the operators have disjoint supports, so each entry is one product
        d = self.tangent_dim
        return (np.asarray(coeffs, dtype=float) @ self.operator_rows[0]).reshape(d, d)

    @cached_property
    def structure(self):
        """Bracket coefficients over the tangent basis, t[a,b,c] = g0([a,b],c),
        as their nonzeros ``(I, J, K, V)``, ``t[I, J, K] = V``.

        One gather from the algebra's ``structure_index``: each bracket
        coefficient is pushed through the nonzeros of the tangent basis.  The
        entries at ``(a, b, c)`` and ``(b, a, c)`` are rounded separately, so
        each antisymmetric pair is replaced by half their difference, which
        makes t exactly antisymmetric.  The trace ``z_k = sum_i t[k,i,i]``,
        whose frame image is the trace vector of every metric, must vanish;
        the Ricci formula of :mod:`einflag.curvature` leaves that term out.
        """
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
        coo = (np.r_[lo, hi], np.r_[hi, lo], np.r_[c, c], np.r_[half, -half])
        trace = _trace_size(coo, d)
        if trace > 1e-12:
            raise InvariantViolation(
                f"structure tensor of {self.spec} has a nonzero trace, max |z_k| = {trace!r}"
            )
        return coo

    @cached_property
    def structure_trace(self):
        """``max_k |z_k|`` of the trace of t, which :attr:`structure` bounds."""
        return _trace_size(self.structure, self.tangent_dim)

    @cached_property
    def operator_rows(self):
        """The operators flattened to the rows of an ``(n, d*d)`` array, and
        their squared Frobenius norms."""
        rows = self.operators.reshape(self.dim, -1)
        return rows, np.sum(rows * rows, axis=1)

    @cached_property
    def killing(self):
        """Killing form over the tangent basis, a d x d array scattered from
        exact values (:func:`_tangent_killing`): exactly symmetric, and zero
        wherever the exact form is."""
        return _tangent_killing(self)

    @cached_property
    def frame_plan(self):
        """The :class:`FramePlan` of the canonical frame, for every metric."""
        return _frame_plan(self)


def _tangent_killing(space):
    """The Killing form over the orthonormal tangent rows, scattered from
    exact span traces.

    With S the stacked declared rows and K the algebra's integer
    ``killing_index``, ``T = S K S^T`` is exact: two joins of their
    nonzeros.  The form is symmetric and ad(k_Theta)-invariant, so on each
    block (u, v) of the metric space's operators, a summand or either side
    of an aligned pair, T is ``c G_u``, G_u the certificate's integer Gram
    of u's rows and c the block's first entry over G_u's first diagonal
    entry, and T vanishes on every other block.  Both are checked entry by
    entry in integers, and so is ``G_u = G_v`` on each pair, else
    :class:`InvariantViolation`: the orthonormal rows of a pair are then
    the same combinations of the declared ones on both sides, and over
    them every block is ``2 c / scale`` times the identity, its trace
    ``tr(2 G_u^-1 T / scale) = 2 c d_u / scale``: one correctly rounded
    value per block, scattered on its identity pattern.
    """
    spec, cert = space.spec, space.dec.certificate
    d, scale = space.tangent_dim, spec.inner_scale
    # the span entries come first, the isotropy unit rows after them
    r, c, v = (x[: cert.action[1].size] for x in cert.entries)
    KI, KJ, KV = spec.algebra.killing_index
    # s_a K s_b: each span entry meets the Killing entries of its column,
    # and each of those the span entries of its own column
    x, y = _matches(c, KI)
    row, col, part = r[x], KJ[y], v[x] * KV[y]
    x, y = _matches(col, c)
    Td = np.bincount(row[x] * d + r[y], weights=part[x] * v[y], minlength=d * d).astype(np.int64).reshape(d, d)
    ga, gb, G = cert.gram
    mine = (ga < d) & (gb < d)
    Gd = np.zeros((d, d), dtype=np.int64)
    Gd[ga[mine], gb[mine]] = G[mine]
    # on each block (u, w), c = num / den from its first entry and G_u's
    # first diagonal entry; each block is cleared from Td once checked
    sl, names = space.slices, [s.name for s in space.dec.submodules]
    out = np.zeros((d, d))
    for u, w in [(u, u) for u in range(space.n_sub)] + [p for i, j, _ in space.pairs for p in ((i, j), (j, i))]:
        Tb, Gb = Td[sl[u], sl[w]], Gd[sl[u], sl[u]]
        num, den = int(Tb[0, 0]), int(Gb[0, 0])
        if np.any(Tb * den != num * Gb) or not np.array_equal(Gb, Gd[sl[w], sl[w]]):
            raise InvariantViolation(
                f"the Killing form of {spec} is no multiple of the background metric on {names[u]}, {names[w]}"
            )
        # Python's division of integers rounds correctly
        np.fill_diagonal(out[sl[u], sl[w]], 2 * scale.denominator * num / (scale.numerator * den))
        Tb[...] = 0
    if Td.any():
        a, b = np.argwhere(Td)[0]
        owner = cert.owner
        raise InvariantViolation(f"the Killing form of {spec} pairs {names[owner[a]]} and {names[owner[b]]} off its blocks")
    return out


def _trace_size(coo, d):
    """``max_k |z_k|`` of the trace ``z_k = sum_i t[k,i,i]`` of t's nonzeros."""
    I, J, K, V = coo
    z = np.bincount(I[J == K], weights=V[J == K], minlength=d)
    return float(np.max(np.abs(z), initial=0.0))


def _key_rows(keys, d):
    """The ``(start, cols)`` of :func:`~einflag.algebra._row_entries` for the
    sorted flat keys of a d x d pattern."""
    return np.searchsorted(keys, np.arange(d + 1) * d), keys % d


@dataclass(frozen=True)
class FramePlan:
    """The index work of a canonical-frame report, one per flag.

    With V the frame, A the metric, ``W = V^T A = V^-1`` and t the tangent
    structure tensor, each field is one :func:`~einflag.algebra._coo_pattern`
    or a gather list, so a report is a fixed sequence of gathers,
    elementwise products and ``bincount`` s.  Every array is read-only.
    The positions are laid out as if every equivalent pair were mixed; an
    entry of V or A that is zero at a metric adds only exact zeros to the
    sums, so one plan serves every metric of the flag.

    Attributes
    ----------
    frame : tuple
        The flat positions of the nonzeros of V, V's rows, and the role of
        each nonzero: its index into the factors of :func:`_frame_factors`,
        one per summand and four per pair, whose gather over the
        roles is V's entries.
    metric : ndarray
        The flat position in A of the entry of each product of ``inverse``.
    inverse : tuple
        ``W = V^T A`` from the entries of A, keys in W's row order.
    gram : tuple
        ``W V`` from the entries of W, and the identity over its keys: their
        distance is the frame check.
    transpose : tuple
        W's entries in the row order of ``W^T``, and those rows.
    structure : tuple
        ``T[a,b,c] = sum t[i,j,k] V[i,a] V[j,b] W[c,k]`` from the entries of
        t, and the entry of t of each of its products.
    ricci : tuple
        The flat positions of the frame Ricci tensor's structural entries,
        those of the two quadratic sums, of ``V^T K V`` and the diagonal,
        and which of them lie on the diagonal.  The sums below are kept
        over these entries alone.
    quads : tuple
        ``(left, right, at)`` of the two quadratic sums of the Ricci formula,
        the outer one's pairs first: each entry of T with each entry sharing
        its ``(b, c)``, resp. its ``(a, b)``, in the stable order of that
        shared pair, summed into Ricci entry ``at`` of the outer sum, or
        ``at - n`` of the inner one, n the number of Ricci entries.
    killing : tuple
        ``V^T K V`` from the nonzeros of the Killing form K, summed straight
        into the Ricci entries, and the entry of K of each of its products.
    tangent : tuple
        ``W^T ric W`` from the Ricci entries.
    operators : tuple
        The operator rows of :attr:`MetricSpace.operator_rows` gathered at
        the keys of ``tangent``, an ``(n, k)`` array, and their squared
        norms: a report's Ricci coefficients are one product of those rows
        with the entries of ``W^T ric W``.
    """

    frame: tuple
    metric: np.ndarray
    inverse: tuple
    gram: tuple
    transpose: tuple
    structure: tuple
    ricci: tuple
    quads: tuple
    killing: tuple
    tangent: tuple
    operators: tuple


def _quad_plan(group, index, d):
    """``(left, right, key)``: each entry paired with each of its group, itself included,
    and the flat d x d position ``(index[left], index[right])`` of each pair.

    The entries are taken in a stable sort by ``group``, and each one's
    partners in the same order.
    """
    order = np.argsort(group, kind="stable")
    left, right = _matches(group[order], group[order])
    left, right = order[left], order[right]
    return left, right, index[left] * d + index[right]


def _frame_plan(space):
    """Build the :class:`FramePlan` of :attr:`MetricSpace.frame_plan`.

    On a pair (i, j) the frame (:func:`orthonormal_frame`) and A both have
    the identity pattern in each of the pair's four blocks, as every pair is
    aligned.
    """
    d = space.tangent_dim
    sl = space.slices
    vmask, amask = np.eye(d, dtype=bool), np.eye(d, dtype=bool)
    for i, j, _ in space.pairs:
        eye = np.eye(space.dims[i], dtype=bool)
        amask[sl[j], sl[i]] = amask[sl[i], sl[j]] = vmask[sl[j], sl[i]] = vmask[sl[i], sl[j]] = eye
    v_at, a_at = np.flatnonzero(vmask), np.flatnonzero(amask)
    v_rows = _key_rows(v_at, d)
    ident = (np.arange(d + 1), np.arange(d))
    inverse = _coo_pattern(np.divmod(a_at, d), (v_rows, ident), d)
    w_keys = inverse[3]
    w_rows = _key_rows(w_keys, d)
    gram = _coo_pattern(np.divmod(w_keys, d), (ident, v_rows), d)
    # V's columns are never empty and A's diagonal is full, so W V has every
    # diagonal entry of the identity it is checked against
    row, col = np.divmod(gram[3], d)
    identity = (row == col).astype(float)
    w_t = w_keys % d * d + w_keys // d
    to_t = np.argsort(w_t)
    t_rows = _key_rows(w_t[to_t], d)
    I, J, K, _ = space.structure
    structure = _coo_pattern((I, J, K), (v_rows, v_rows, t_rows), d)
    a, b, c = structure[3] // (d * d), structure[3] // d % d, structure[3] % d
    quad_out = _quad_plan(b * d + c, a, d)
    quad_in = _quad_plan(a * d + b, c, d)
    k_at = np.flatnonzero(space.killing)
    killing = _coo_pattern(np.divmod(k_at, d), (v_rows, v_rows), d)
    # the whole diagonal is kept, so that a trace sums the same d entries as
    # the dense np.trace does
    ricci = np.zeros(d * d, dtype=bool)
    ricci[np.r_[quad_out[2], quad_in[2], killing[3], np.arange(d) * (d + 1)]] = True
    ricci = np.flatnonzero(ricci)
    row, col = np.divmod(ricci, d)
    n = ricci.size
    quads = (
        np.r_[quad_out[0], quad_in[0]],
        np.r_[quad_out[1], quad_in[1]],
        np.r_[np.searchsorted(ricci, quad_out[2]), n + np.searchsorted(ricci, quad_in[2])],
    )
    src, pos, inv, keys = killing
    killing = (src, pos, np.searchsorted(ricci, keys)[inv], ricci)
    tangent = _coo_pattern((row, col), (w_rows, w_rows), d)
    rows, norms = space.operator_rows
    plan = FramePlan(
        frame=(v_at, v_rows, _frame_roles(space, v_at)),
        metric=a_at[inverse[0]],
        inverse=inverse,
        gram=(gram, identity),
        transpose=(to_t, t_rows),
        structure=(structure, space.structure[3][structure[0]]),
        ricci=(ricci, np.flatnonzero(row == col)),
        quads=quads,
        killing=(killing, space.killing.ravel()[k_at][killing[0]]),
        tangent=tangent,
        operators=(rows[:, tangent[3]], norms),
    )
    _freeze(tuple(vars(plan).values()))
    return plan


def _frame_roles(space, v_at):
    """The role of each nonzero of V, at the flat positions ``v_at``: its index
    into :func:`_frame_factors`.

    A column of an unpaired summand u holds its diagonal entry alone, role u.
    Pair k's entries take the four roles after the summands' and the earlier
    pairs': ``(e1, f1, e2, f2)``, the entries in the rows of summand i and
    of summand j of a column of summand i, then of a column of summand j.
    """
    d, n_sub = space.tangent_dim, space.n_sub
    row, col = np.divmod(v_at, d)
    owner = np.repeat(np.arange(n_sub), space.dims)
    role = owner[col]
    for k, (i, j, _) in enumerate(space.pairs):
        at = (role == i) | (role == j)
        role[at] = n_sub + 4 * k + 2 * (owner[col[at]] == j) + (owner[row[at]] == j)
    return role


def _freeze(tree):
    """Make every array of nested tuples read-only."""
    if isinstance(tree, np.ndarray):
        tree.setflags(write=False)
    else:
        for item in tree:
            _freeze(item)


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


def _summand_block(space, table, u):
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
    block diagonal.  Given those, the intertwiner of an aligned pair (i, j)
    leaves only ``G_jj - G_ii`` and its transpose up to sign, as every
    generator is skew or symmetric.  No d x d product is formed.
    """
    sl = space.slices
    owner = np.repeat(np.arange(space.n_sub), [s.stop - s.start for s in sl])
    worst = 0.0
    for table in (space.reps, space.signs):
        off_block = owner[table.row] != owner[table.col]
        worst = max(worst, float(np.max(np.abs(table.value[off_block]), initial=0.0)))
        for i, j, _ in space.pairs:
            resid = _summand_block(space, table, j) - _summand_block(space, table, i)
            worst = max(worst, float(np.max(np.abs(resid), initial=0.0)))
    return worst


def _coefficient_names(spec, n_sub, n_pairs):
    """The names of the flag's record, else ``x{i}`` per summand, ``b{i}`` per pair."""
    names = getattr(spec.record, "coefficient_names", None)
    return list(names) if names else [f"x{i}" for i in range(n_sub)] + [f"b{i}" for i in range(n_pairs)]


@lru_cache(maxsize=None)
def metric_space(spec):
    """Build and verify the invariant-metric family for a flag.

    The generators are kept as :class:`~einflag.flag.GeneratorTable` s:
    ``reps`` is the decomposition's ``isotropy_action``, checked skew entry
    by entry against its mirror, and ``signs`` holds the exact +-1 diagonal
    sign actions of :func:`_sign_actions`.  The solved intertwiner of each
    declared pair must be a multiple of the identity within 1e-12 of its
    scale.
    """
    dec = decompose_isotropy(spec)
    Bm, slices = tangent_basis(dec)
    d = Bm.shape[0]
    subs = dec.submodules

    reps = dec.isotropy_action
    if _skew_residual(reps, d) > 1e-10:
        raise InvariantViolation(f"isotropy action on {spec} is not skew")
    _, signs = _sign_actions(spec, Bm)

    # Schur's lemma block by block: Sym End(m_i) on each summand and
    # Hom(m_i, m_j) for each pair i < j, against the probes.
    found, homs, margin = _schur_certificate(_probes(reps, signs, d), slices)

    pairs = []
    for cls in dec.equiv_classes:
        if len(cls) != 2:
            raise UnimplementedCase(
                f"metric space of {spec} has a {len(cls)}-member equivalence class"
            )
        i, j = sorted(cls)
        maps = homs.get((i, j), [])
        pair = f"declared pair {subs[i].name}~{subs[j].name} of {spec}"
        if len(maps) != 1:
            raise InvariantViolation(f"{pair} has intertwiner multiplicity {len(maps)}")
        eye = np.eye(len(maps[0]))
        c = np.trace(maps[0]) / len(eye)
        if np.max(np.abs(maps[0] - c * eye)) > 1e-12 * abs(c):
            raise InvariantViolation(f"{pair} is not aligned: its intertwiner is no multiple of the identity")
        eye.setflags(write=False)
        pairs.append((i, j, eye))

    operators = np.zeros((len(slices) + len(pairs), d, d))
    for k, s in enumerate(slices):
        operators[k, s, s] = np.eye(s.stop - s.start)
    for k, (i, j, eye) in enumerate(pairs, len(slices)):
        operators[k, slices[j], slices[i]] = operators[k, slices[i], slices[j]] = eye
    operators.setflags(write=False)

    names = _coefficient_names(spec, len(slices), len(pairs))
    space = MetricSpace(dec, Bm, slices, reps, signs, operators, names, pairs, margin)

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
    """Coefficients, matrix ``A`` and ``spectrum`` of a metric: the array of
    its :func:`metric_eigenvalues`, one per summand."""

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


def metric_eigenvalues(space, coeffs):
    """Eigenvalues of the metric operator from one coefficient vector, one
    per summand, as a list of floats.

    An unpaired summand carries ``x_i``.  A pair carries the eigenvalues of
    ``[[x_i, b], [b, x_j]]`` (the pair is aligned), the smaller ``xi1`` on
    summand i, as in :func:`orthonormal_frame`: the one of larger magnitude
    from the trace, the other from ``xi1 xi2 = x_i x_j - b^2``, so neither
    cancels.  An unmixed pair, ``|b| < _UNMIXED``, keeps ``x_i`` and ``x_j``.
    ``np.hypot`` is kept because ``math.hypot`` rounds differently.
    """
    s = space.n_sub
    vals = np.asarray(coeffs, dtype=float).tolist()
    lam = vals[:s]
    for k, (i, j, _) in enumerate(space.pairs):
        xi, xj, b = vals[i], vals[j], vals[s + k]
        if abs(b) < _UNMIXED:
            continue
        tr, gap = xi + xj, float(np.hypot(2.0 * b, xi - xj))
        up = tr >= 0
        big = (tr + (gap if up else -gap)) / 2.0
        # big is 0 only for x_i = x_j = b = 0, an unmixed pair
        small = (xi * xj - b * b) / big if big != 0 else 0.0
        lam[i], lam[j] = (small, big) if up else (big, small)
    return lam


def positive_spectrum(space, coeffs):
    """:func:`metric_eigenvalues` of one coefficient vector, as an array,
    after the positive-definiteness rule.

    The coefficients are a metric when the smallest eigenvalue ``lo``
    exceeds ``1e-12 * max(1, |hi|)``, ``hi`` the largest; otherwise
    :class:`NotPositiveDefinite` is raised with ``lo``.
    """
    lam = metric_eigenvalues(space, coeffs)
    lo = min(lam)
    if lo <= 1e-12 or lo <= 1e-12 * abs(max(lam)):
        raise NotPositiveDefinite(
            f"metric coefficients {np.asarray(coeffs, dtype=float).tolist()} "
            "are not positive definite",
            min_eigenvalue=lo,
        )
    return np.array(lam)


def make_metric(space, coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.dim,):
        raise ValueError(f"expected {space.dim} coefficients, got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"metric coefficients {coeffs.tolist()} are not finite")
    lam = positive_spectrum(space, coeffs)
    return InvariantMetric(space, coeffs, space.metric_matrix(coeffs), lam)


def volume_root(space, lam):
    """``det(A)^(1/d)`` from a metric's ``spectrum``, or from a ``(count,
    n_sub)`` stack of spectra, one root per row."""
    return np.exp(np.log(lam) @ space.dims / space.tangent_dim)


@dataclass(frozen=True)
class Frame:
    """A metric-orthonormal frame adapted to the summand structure.

    ``vectors`` has the frame as columns over the tangent basis; the columns
    of summand i are those of ``space.slices[i]``.  A frame built from
    explicit columns is given them as ``dense``.  The canonical frame of
    :func:`orthonormal_frame` has ``sparse = (plan, v, w)`` instead: the
    space's :class:`FramePlan` and the entries of V and of ``W = V^-1``
    over the plan, which is all a report reads; its ``vectors`` are
    scattered from v at their first read.
    """

    metric: InvariantMetric
    dense: np.ndarray = field(default=None, repr=False)
    sparse: tuple = field(default=None, repr=False)

    @cached_property
    def vectors(self):
        """The frame's columns over the tangent basis, a d x d array."""
        if self.sparse is None:
            return self.dense
        plan, v, _ = self.sparse
        d = self.metric.space.tangent_dim
        V = np.zeros(d * d)
        V[plan.frame[0]] = v
        return V.reshape(d, d)

    @cached_property
    def inverse(self):
        """``vectors^-1``, computed once per frame: the explicit-frame route
        of :func:`~einflag.curvature.curvature` reads it for ``W = V^-T`` and
        again for ``ricci_tangent``."""
        return np.linalg.inv(self.vectors)


def _frame_factors(space, metric):
    """The value of every role of :func:`_frame_roles` at one metric.

    The first ``n_sub`` are ``1 / sqrt(lambda_u)``, the diagonal of V on each
    summand.  On a mixed pair, column r of summand i is ``e1 u + f1 v`` and
    of summand j ``e2 u + f2 v`` (u and v the r-th basis vectors of summands
    i and j), ``(e1, f1)`` and ``(e2, f2)`` the eigenvectors ``(a1, b1)``
    and ``(a2, b2)`` scaled to unit g-length.  An unmixed pair keeps V
    diagonal, with +0 elsewhere.  A pair's factors are taken in plain
    floats, which round as float64 arrays do; ``np.hypot`` is kept because
    ``math.hypot`` rounds differently.
    """
    inv = 1.0 / np.sqrt(metric.spectrum)
    if not space.pairs:
        return inv
    s = space.n_sub
    out, c, lam = inv.tolist(), metric.coeffs.tolist(), metric.spectrum.tolist()
    for k, (i, j, _) in enumerate(space.pairs):
        xi, xj, b = c[i], c[j], c[s + k]
        if abs(b) < _UNMIXED:
            out += (out[i], 0.0, 0.0, out[j])
            continue
        delta = xi - xj
        gap = float(np.hypot(2.0 * b, delta))
        # eigenvector components chosen to avoid differencing near-equal
        # quantities: (alpha, beta) is (xi_k - xj, b) or (b, xi_k - xi),
        # whichever difference is the numerically large one
        if delta >= 0:
            a1, b1 = b, -(delta + gap) / 2.0  # xi1 - xi
            a2, b2 = (delta + gap) / 2.0, b  # xi2 - xj
        else:
            a1, b1 = (delta - gap) / 2.0, b  # xi1 - xj
            a2, b2 = b, (gap - delta) / 2.0  # xi2 - xi
        n1 = math.sqrt(lam[i] * (a1 * a1 + b1 * b1))
        n2 = math.sqrt(lam[j] * (a2 * a2 + b2 * b2))
        out += (a1 / n1, b1 / n1, a2 / n2, b2 / n2)
    return np.array(out)


def orthonormal_frame(metric):
    """The canonical metric-orthonormal eigenframe of an invariant metric.

    V's entries over the space's :class:`FramePlan` are one gather of
    :func:`_frame_factors`; ``W = V^T A`` and the check ``W V = I`` are
    summed over the plan as well, so no d x d array is formed.  The entries
    of V and W are read-only, as the plan is.
    """
    plan = metric.space.frame_plan
    v = _frame_factors(metric.space, metric)[plan.frame[2]]
    w = _coo_sums(plan.inverse, metric.matrix.take(plan.metric), (v, None))
    gram, identity = plan.gram
    if np.abs(_coo_sums(gram, w[gram[0]], (None, v)) - identity).max() > 1e-9:
        raise InvariantViolation("frame is not orthonormal for the metric")
    _freeze((v, w))
    return Frame(metric, sparse=(plan, v, w))
