"""Compact symmetry algebras of the split classical families.

For each family the maximal-compact part ``k`` of the split real form is
realized by explicit integer ambient matrices:

* ``A_l``: k = so(l+1), basis ``w(i,j) = E_ij - E_ji``.
* ``B_l``: k = so(l) + so(l+1) inside gl(2l+1), basis ``v(k)``, ``w(i,j)``,
  ``u(i,j)`` (restricted-root vectors for ``l_k``, ``l_i - l_j``,
  ``l_i + l_j``).
* ``C_l``: k = u(l) inside gl(2l), basis ``u(k,k)``, ``w(i,j)``, ``u(i,j)``
  (roots ``2 l_k``, ``l_i - l_j``, ``l_i + l_j``).
* ``D_l``: k = so(l) + so(l) inside gl(2l), basis ``w(i,j)``, ``u(i,j)``.

B, C and D act on two copies of R^l and share one rule: ``w(i,j)`` is the
rotation ``E_ij - E_ji`` in both copies, and ``u(i,j)`` maps copy one to
copy two by ``E_ij + s E_ji`` and back by minus its transpose, ``s = +1``
for C and -1 for B and D.  C's ``u(k,k)`` is the case i = j, with the one
entry ``E_kk`` each way.  B puts its extra coordinate 0 first, and its
``v(k)`` is ``E_k0 - E_0k`` with k read in both copies.  Always ``i > j``;
the basis lists B's ``v(k)`` or C's ``u(k,k)`` by k, then every ``w(i,j)``
and then every ``u(i,j)``, each by i and then j.

The basis is built as one list of integer entries ``(elem, row, col, val)``,
the nonzeros of its ambient matrices: two for each A element and for C's
``u(k,k)``, four for every other, each +-1.  No dense ambient matrix is
formed, and every ambient position records the one basis element that owns
it.  The commutators of all basis pairs ``i < j`` come from one join of that
list with itself (an entry in column c meets every entry in row c), summed
exactly per pair and position.  Each position is expanded through its owner, giving the
``(k, c)`` with ``[e_i, e_j] = sum c e_k``; an entry outside the span, an
element whose positions disagree on c, or an expansion that does not rebuild
the commutator raises :class:`~einflag.errors.ClosureViolation` naming the
pair.

Everything downstream reads the result as flat arrays,
``structure_index = (I, J, K, V)`` with ``C[I, J, K] = V``, listing both
orders ``(i, j)`` and ``(j, i)``.  A bracket is a scatter-sum over these
arrays, never a loop over vector entries, and no ``ad(x)`` matrix is
formed.  The Killing form is the trace of ``ad . ad`` from the same arrays,
never a closed-form multiple of the trace form (k is not simple for the B
and D families).

The ambient inner product ``(.,.)`` is the family pairing under which each
basis is orthogonal: minus the Killing form of so(l+1) for the A family, and
the block pairings of the matrix realizations otherwise.  It is one table
over the flat ambient positions, a weight ``w(p)`` and a partner position
``pi(p)`` with ``(X, Y) = sum_p w(p) X[p] Y[pi(p)]``, so the pairing of two
lists of entries is one join of each entry's partner against the positions
(:func:`_pair_sums`), summed over the joined pairs only; the Gram diagonal
``gram`` is read off that join of the basis entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ClosureViolation, UnsupportedRank

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
# larger ranks are refused before any allocation: A:25 (dimension 325) is the
# largest algebra the tests and the benchmark build, and `einflag list` at
# rank 25 already needs gigabytes
_MAX_RANK = 25


def _root_label(root):
    """Human-readable restricted root, e.g. ``(0,1,0,-1) -> "l2-l4"``."""
    plus, minus = [], []
    for pos in range(len(root), 0, -1):
        c = root[pos - 1]
        if c > 0:
            plus.append(f"l{pos}" if c == 1 else f"{c}l{pos}")
        elif c < 0:
            minus.append(f"l{pos}" if c == -1 else f"{-c}l{pos}")
    out = "+".join(plus)
    for term in minus:
        out += f"-{term}"
    return out


@dataclass(frozen=True)
class BasisElement:
    """One basis vector of the compact algebra.

    Attributes
    ----------
    label : str
        ``"w(i,j)"`` / ``"u(i,j)"`` / ``"v(k)"`` / ``"u(k,k)"``.
    root : tuple of int
        Restricted root in lambda coordinates (length l+1 for A, l else).

    Its ambient matrix is held by the model, as the element's rows of
    :attr:`AlgebraModel.entries`.
    """

    label: str
    root: tuple

    @property
    def root_label(self):
        return _root_label(self.root)

    def __repr__(self):
        return f"BasisElement({self.label}, root={self.root_label})"


def _unit(root_dim, entries):
    root = [0] * root_dim
    for pos, c in entries:
        root[pos - 1] += c
    return tuple(root)


def _build_basis(family, l):
    """Return ``(N, basis, entries)``: the ambient dimension, the list of
    :class:`BasisElement` and their entries ``(elem, row, col, val)``,
    element by element and in ``(row, col)`` order within each."""
    basis, entries = [], []

    def element(label, cells, root):
        # a later cell on the same position replaces the earlier one: the
        # two halves of C's u(k,k) coincide
        at = {(r, c): v for r, c, v in cells}
        entries.extend((len(basis), r, c, v) for (r, c), v in sorted(at.items()))
        basis.append(BasisElement(label, root))

    if family == "A":
        N = l + 1
        for i in range(2, N + 1):
            for j in range(1, i):
                element(f"w({i},{j})", [(i - 1, j - 1, 1), (j - 1, i - 1, -1)], _unit(N, [(i, 1), (j, -1)]))
    else:
        # two copies of R^l, coordinate i at p + i in the first and q + i in
        # the second, after B's extra coordinate 0; C's u is symmetric across them
        p = 0 if family == "B" else -1
        q, N, s = p + l, 2 * l + p + 1, 1 if family == "C" else -1

        def u(i, j):
            # at i = j the cells coincide: C's u(k,k), of root 2 l_k
            cells = [(q + i, p + j, 1), (q + j, p + i, s), (p + j, q + i, -1), (p + i, q + j, -s)]
            element(f"u({i},{j})", cells, _unit(l, [(i, 1), (j, 1)]))

        for k in range(1, l + 1):
            if family == "B":
                cells = [(p + k, 0, 1), (0, p + k, -1), (q + k, 0, 1), (0, q + k, -1)]
                element(f"v({k})", cells, _unit(l, [(k, 1)]))
            elif family == "C":
                u(k, k)
        pairs = [(i, j) for i in range(2, l + 1) for j in range(1, i)]
        for i, j in pairs:
            cells = [(p + i, p + j, 1), (p + j, p + i, -1), (q + i, q + j, 1), (q + j, q + i, -1)]
            element(f"w({i},{j})", cells, _unit(l, [(i, 1), (j, -1)]))
        for i, j in pairs:
            u(i, j)
    return N, basis, tuple(np.array(entries, dtype=np.int64).T.copy())


def _matches(keys, targets):
    """Every index pair ``(e, f)`` with ``keys[e] == targets[f]``.

    One stable sort of ``targets`` and two ``searchsorted`` calls; the pairs
    come ordered by e, then by f.
    """
    order = np.argsort(targets, kind="stable")
    ordered = targets[order]
    lo = np.searchsorted(ordered, keys, "left")
    counts = np.searchsorted(ordered, keys, "right") - lo
    e = np.repeat(np.arange(len(keys)), counts)
    start = np.cumsum(counts) - counts
    return e, order[np.arange(len(e)) - np.repeat(start - lo, counts)]


def _pairing_table(family, l, N):
    """The family pairing as ``(weight, partner)`` over the flat positions
    ``p = r N + c``: ``(X, Y) = sum_p weight[p] X[p] Y[partner[p]]``.

    A pairs every position with its transpose at ``-max(l-1, 1)``.  B pairs
    ``(0, c)``, ``1 <= c <= l``, with itself at 1, its top-left l x l block
    with the transpose at -1/2, and ``(1+i, l+1+j)`` with ``(1+j, l+1+i)`` at
    -1/2.  C and D pair the top-left l x l block with the transpose at
    -1/2, and ``(l+i, j)`` with ``(l+j, i)``, ``j < l``, at +1/2 (C) or -1/2
    (D).  Every other position weighs 0 and has partner -1, which no
    position matches.
    """
    r, c = np.divmod(np.arange(N * N), N)
    if family == "A":
        rules = [(np.ones(N * N, dtype=bool), -max(l - 1, 1), c, r)]
    elif family == "B":
        top, right = (r >= 1) & (r <= l), c > l
        rules = [
            ((r == 0) & (c >= 1) & (c <= l), 1.0, r, c),
            (top & (c >= 1) & ~right, -0.5, c, r),
            (top & right, -0.5, c - l, r + l),
        ]
    else:
        rules = [
            ((r < l) & (c < l), -0.5, c, r),
            ((r >= l) & (c < l), 0.5 if family == "C" else -0.5, c + l, r - l),
        ]
    weight, partner = np.zeros(N * N), np.full(N * N, -1)
    for at, w, pr, pc in rules:
        weight[at] = w
        partner[at] = (pr * N + pc)[at]
    return weight, partner


def _pair_sums(elem, pos, val, partner, weight, n):
    """Sums of ``weight[x] val[x] val[y]`` per element pair over the joined entries.

    Entry x is ``val[x]`` at the flat position ``pos[x]`` of matrix
    ``elem[x] < n``; it joins every entry y with ``pos[y] == partner[x]``.
    ``weight`` may be None, for 1.  Returns ``(diag, (e, f, sums))``:
    ``diag[e]`` is the sum of the pair ``(e, e)``, and ``sums`` are those of
    the pairs ``e != f`` that meet in some join, sorted by ``(e, f)``; a pair
    that never meets sums to 0.
    """
    x, y = _matches(partner, pos)
    prod = val[x] * val[y]
    if weight is not None:
        prod = weight[x] * prod
    keys, inv = np.unique(elem[x] * n + elem[y], return_inverse=True)
    sums = np.bincount(inv, weights=prod, minlength=keys.size)
    e, f = keys // n, keys % n
    diag = np.zeros(n)
    diag[e[e == f]] = sums[e == f]
    off = e != f
    return diag, (e[off], f[off], sums[off])


class AlgebraModel:
    """A compact symmetry algebra with cached exact structure data.

    Not constructed directly; use :func:`build_algebra`.
    """

    def __init__(self, family, rank):
        self.family = family
        self.rank = rank
        self.ambient_dim, self.basis, self.entries = _build_basis(family, rank)
        self.n = len(self.basis)
        self.label_index = {e.label: i for i, e in enumerate(self.basis)}
        # the root of each basis element, one read-only (n, root_dim) row each
        self.roots = np.array([e.root for e in self.basis], dtype=np.int64)
        self.roots.setflags(write=False)
        # the basis: val[x] at (row[x], col[x]) of element elem[x], read-only
        elem, row, col, val = self.entries
        for arr in self.entries:
            arr.setflags(write=False)
        # Each ambient position belongs to at most one basis element, which
        # makes exact expansion a positionwise lookup: _owner[r * N + c] is
        # that element (-1 for none) and _owner_value its entry there.
        N = self.ambient_dim
        self._owner = np.full(N * N, -1)
        self._owner[row * N + col] = elem
        self._owner_value = np.zeros(N * N, dtype=np.int64)
        self._owner_value[row * N + col] = val
        self.pairing = _pairing_table(family, rank, N)
        for arr in self.pairing:
            arr.setflags(write=False)
        self.gram = self.pair_entries(elem, row * N + col, val)[0]
        self.structure_index = self._build_structure()
        self.killing_matrix = self._build_killing()

    # -- ambient pairing ---------------------------------------------------

    def pair_entries(self, elem, pos, val):
        """The family pairing of matrices given by their nonzero entries.

        Entry x is ``val[x]`` at the flat position ``pos[x] = row * N + col``
        of matrix ``elem[x]``, an index below ``n``.  Returns the
        :func:`_pair_sums` ``(diag, (e, f, sums))`` of the pairing table:
        each matrix paired with itself, and the pairing of matrices e and f
        for every other pair with a joined entry.
        """
        weight, partner = self.pairing
        return _pair_sums(elem, pos, val, partner[pos], weight[pos], self.n)

    # -- structure table ---------------------------------------------------

    def _pair_label(self, pair):
        i, j = divmod(int(pair), self.n)
        return f"[{self.basis[i].label}, {self.basis[j].label}]"

    def _build_structure(self):
        """``structure_index`` from the basis entries, with every bracket checked.

        Each basis product ``e_a e_b`` pairs an entry of a in column c with
        every entry of b in row c; for ``i < j`` the products of ``(i, j)`` and
        ``(j, i)`` sum to the commutator ``[e_i, e_j]``, one exact integer per
        ambient position.  A position must be owned by a basis element, the
        positions of one element must give one coefficient, and the expansion
        rebuilt from all the entries of its elements must be the commutator.
        A failure raises :class:`ClosureViolation` naming the first such pair.
        """
        n, N = self.n, self.ambient_dim
        elem, row, col, val = self.entries
        x, y = _matches(col, row)
        a, b = elem[x], elem[y]
        x, y, a, b = (arr[a != b] for arr in (x, y, a, b))  # e_i e_i cancels
        key = (np.minimum(a, b) * n + np.maximum(a, b)) * (N * N) + row[x] * N + col[y]
        keys, inv = np.unique(key, return_inverse=True)
        bracket = np.bincount(inv, weights=np.where(a < b, val[x], -val[x]) * val[y])
        nonzero = bracket != 0
        keys, bracket = keys[nonzero], bracket[nonzero]
        pair, pos = keys // (N * N), keys % (N * N)

        k = self._owner[pos]
        outside = np.flatnonzero(k < 0)
        if outside.size:
            e = outside[0]
            raise ClosureViolation(
                f"{self._pair_label(pair[e])} has an entry at "
                f"{divmod(int(pos[e]), N)} outside the basis span"
            )
        coeff = bracket / self._owner_value[pos]
        groups, first, inv = np.unique(pair * n + k, return_index=True, return_inverse=True)
        c = coeff[first]
        bad = np.flatnonzero(coeff != c[inv])
        if bad.size:
            raise ClosureViolation(f"inconsistent expansion of {self._pair_label(pair[bad[0]])}")

        # rebuild each expansion (pair, k) from every entry of element k: its
        # entries are the `count` rows of the element-major list from
        # searchsorted(elem, k)
        gpair, gk = groups // n, groups % n
        count = np.bincount(elem, minlength=n)[gk]
        g = np.repeat(np.arange(groups.size), count)
        offset = np.searchsorted(elem, gk) - (np.cumsum(count) - count)
        src = np.arange(g.size) + np.repeat(offset, count)
        rkey = gpair[g] * (N * N) + row[src] * N + col[src]
        at = np.minimum(np.searchsorted(keys, rkey), max(keys.size - 1, 0))
        bad = np.flatnonzero((keys[at] != rkey) | (bracket[at] != c[g] * val[src]))
        if bad.size:
            raise ClosureViolation(
                f"expansion of {self._pair_label(gpair[g[bad[0]]])} does not reconstruct"
            )

        # both orders (i, j) and (j, i), so every nonzero entry of the
        # antisymmetric tensor C appears exactly once
        i, j = (gpair // n).astype(np.intp), (gpair % n).astype(np.intp)
        arrays = (np.r_[i, j], np.r_[j, i], np.r_[gk, gk].astype(np.intp), np.r_[c, -c])
        for arr in arrays:
            arr.setflags(write=False)
        return arrays

    def _build_killing(self):
        # K[a, b] = tr(ad_a ad_b) = sum_{j,k} C[a,j,k] C[b,k,j]: each entry e
        # with key j*n + k pairs with every entry f whose transposed key
        # K[f]*n + J[f] equals it
        I, J, K, V = self.structure_index
        n = self.n
        e, f = _matches(J * n + K, K * n + J)
        Kill = np.bincount(
            I[e] * n + I[f], weights=V[e] * V[f], minlength=n * n
        ).reshape(n, n)
        return (Kill + Kill.T) / 2.0

    # -- coordinate operations ----------------------------------------------

    def bracket_coords(self, x, y):
        """Coordinates of ``[x, y]`` for coordinate vectors x, y."""
        I, J, K, V = self.structure_index
        return np.bincount(K, weights=V * x[I] * y[J], minlength=self.n)

    def ambient_inner_coords(self, x, y):
        return float(np.dot(x * self.gram, y))

    def __repr__(self):
        return f"AlgebraModel({self.family}{self.rank}, dim={self.n})"


def _row_entries(M):
    """The nonzeros of M row by row, in CSR form ``(start, cols, vals)``.

    Row r holds ``cols[start[r]:start[r + 1]]`` and the matching ``vals``,
    columns ascending.
    """
    entries = np.ravel(M)
    flat = np.flatnonzero(entries)
    width = M.shape[1]
    start = np.searchsorted(flat, np.arange(M.shape[0] + 1) * width)
    return start, flat % width, entries[flat]


def _coo_pattern(index, maps, d):
    """The index half of :func:`_coo_transform`, which depends on no value.

    ``index`` holds one index array of the entries of t per map, and ``maps``
    the ``(start, cols)`` of each map's :func:`_row_entries`.  Each entry is
    expanded into one product per combination of entries in its rows of the
    maps, their true counts multiplied, never a row padded to the longest.
    Returns ``(src, pos, inv, keys)``: product x takes entry ``src[x]`` of t
    and row entry ``pos[m][x]`` of map m, and it is summed into ``keys[inv[x]]``;
    ``keys`` are the output indices flattened over ``range(d)``, sorted.
    """
    count = [np.diff(start)[i] for (start, _), i in zip(maps, index)]
    n = np.prod(count, axis=0)
    src = np.arange(n.size).repeat(n)
    # the product's number among its entry's products, in mixed radix with
    # the last map fastest, picks the row entry of each map
    local = np.arange(src.size) - (n.cumsum() - n).repeat(n)
    slots = []
    for c in count[:0:-1]:
        local, r = np.divmod(local, c[src])
        slots.append(r)
    slots.append(local)
    pos, key = [], np.zeros(src.size, dtype=np.int64)
    for (start, cols), i, slot in zip(maps, index, slots[::-1]):
        pos.append(start[i[src]] + slot)
        key = key * d + cols[pos[-1]]
    keys, inv = np.unique(key, return_inverse=True)
    return src, tuple(pos), inv, keys


def _coo_values(pattern, values, maps):
    """The value half of :func:`_coo_transform`: the entries over ``pattern``'s keys.

    ``values`` are the entries of t and ``maps`` the row entry values of each
    map.  Each product is taken in the order ``((t P) Q) R``, as a dense
    product of t with the maps one after the other would round it.
    """
    return _coo_sums(pattern, np.asarray(values, dtype=float)[pattern[0]], maps)


def _coo_sums(pattern, val, maps):
    """:func:`_coo_values` from ``val``, the entry of t of each product, gathered already.

    A map given as None is the identity: its factor 1.0 is left out, which
    changes no bit of a product.
    """
    _, pos, inv, keys = pattern
    for vals, p in zip(maps, pos):
        if vals is not None:
            val = val * vals[p]
    return np.bincount(inv, weights=val, minlength=keys.size)


def _coo_transform(coo, maps, d):
    """``S[a,b,c] = sum t[i,j,k] P[i,a] Q[j,b] R[k,c]`` over the nonzeros of t.

    ``coo = (I, J, K, V)`` lists the nonzeros of t and ``maps`` holds the
    :func:`_row_entries` of P, Q and R, whose columns run over ``range(d)``.
    :func:`_coo_pattern` lays out the products, which :func:`_coo_values`
    sums per key.  Returns the entries of S as ``(a, b, c, value)`` sorted by
    ``(a, b, c)``; an entry whose products cancel to zero is kept.
    """
    *index, V = coo
    pattern = _coo_pattern(index, [m[:2] for m in maps], d)
    keys = pattern[3]
    return keys // (d * d), keys // d % d, keys % d, _coo_values(pattern, V, [m[2] for m in maps])


@lru_cache(maxsize=None)
def build_algebra(family, rank):
    """Build the compact algebra model for a classical family.

    Parameters
    ----------
    family : {"A", "B", "C", "D"}
    rank : int
        At least 1 (A), 2 (B, C) or 3 (D), and at most 25.
    """
    if family not in _MIN_RANK:
        raise ValueError(f"unknown family {family!r}")
    if rank < _MIN_RANK[family]:
        raise UnsupportedRank(
            f"family {family} requires rank >= {_MIN_RANK[family]}, got {rank}"
        )
    if rank > _MAX_RANK:
        raise UnsupportedRank(f"rank {rank} exceeds the supported maximum {_MAX_RANK}")
    return AlgebraModel(family, rank)

