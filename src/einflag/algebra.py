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

At build time the bracket of every basis pair ``i < j`` is expanded exactly
(integer arithmetic) into the table ``_struct``, mapping ``(i, j)`` to the
``(k, c)`` with ``[e_i, e_j] = sum c e_k``; every expansion is rebuilt and
compared with the matrix commutator, and a failure to close raises
:class:`~einflag.errors.ClosureViolation`.

Everything downstream reads one flat form of that table,
``structure_index = (I, J, K, V)`` with ``C[I, J, K] = V``, listing both
orders ``(i, j)`` and ``(j, i)``.  Brackets and the dense ``ad(x)`` are
scatter-sums over these arrays, never a loop over vector entries.  The
Killing form is the trace of ``ad . ad`` from the same arrays, never a
closed-form multiple of the trace form (k is not simple for the B and D
families).

The ambient inner product ``(.,.)`` is the family pairing under which each
basis is orthogonal: minus the Killing form of so(l+1) for the A family, and
the block pairings of the matrix realizations otherwise.
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
    matrix : numpy.ndarray
        Integer ambient matrix.
    root : tuple of int
        Restricted root in lambda coordinates (length l+1 for A, l else).
    """

    label: str
    matrix: np.ndarray
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
    """Return (ambient_dim, list[BasisElement])."""
    basis = []
    if family == "A":
        N = l + 1
        for i in range(2, N + 1):
            for j in range(1, i):
                M = np.zeros((N, N), dtype=np.int64)
                M[i - 1, j - 1] = 1
                M[j - 1, i - 1] = -1
                basis.append(
                    BasisElement(f"w({i},{j})", M, _unit(N, [(i, 1), (j, -1)]))
                )
        return N, basis

    if family == "B":
        N = 2 * l + 1
        for k in range(1, l + 1):
            M = np.zeros((N, N), dtype=np.int64)
            M[k, 0] = 1
            M[0, k] = -1
            M[l + k, 0] = 1
            M[0, l + k] = -1
            basis.append(BasisElement(f"v({k})", M, _unit(l, [(k, 1)])))
        for i in range(2, l + 1):
            for j in range(1, i):
                M = np.zeros((N, N), dtype=np.int64)
                M[i, j] = 1
                M[j, i] = -1
                M[l + i, l + j] = 1
                M[l + j, l + i] = -1
                basis.append(
                    BasisElement(f"w({i},{j})", M, _unit(l, [(i, 1), (j, -1)]))
                )
        for i in range(2, l + 1):
            for j in range(1, i):
                M = np.zeros((N, N), dtype=np.int64)
                M[l + i, j] = 1
                M[j, l + i] = -1
                M[i, l + j] = 1
                M[l + j, i] = -1
                basis.append(
                    BasisElement(f"u({i},{j})", M, _unit(l, [(i, 1), (j, 1)]))
                )
        return N, basis

    if family == "C":
        N = 2 * l
        for k in range(1, l + 1):
            M = np.zeros((N, N), dtype=np.int64)
            M[l + k - 1, k - 1] = 1
            M[k - 1, l + k - 1] = -1
            basis.append(BasisElement(f"u({k},{k})", M, _unit(l, [(k, 2)])))
        for i in range(2, l + 1):
            for j in range(1, i):
                M = np.zeros((N, N), dtype=np.int64)
                M[i - 1, j - 1] = 1
                M[j - 1, i - 1] = -1
                M[l + i - 1, l + j - 1] = 1
                M[l + j - 1, l + i - 1] = -1
                basis.append(
                    BasisElement(f"w({i},{j})", M, _unit(l, [(i, 1), (j, -1)]))
                )
        for i in range(2, l + 1):
            for j in range(1, i):
                M = np.zeros((N, N), dtype=np.int64)
                M[l + i - 1, j - 1] = 1
                M[l + j - 1, i - 1] = 1
                M[i - 1, l + j - 1] = -1
                M[j - 1, l + i - 1] = -1
                basis.append(
                    BasisElement(f"u({i},{j})", M, _unit(l, [(i, 1), (j, 1)]))
                )
        return N, basis

    # family == "D"
    N = 2 * l
    for i in range(2, l + 1):
        for j in range(1, i):
            M = np.zeros((N, N), dtype=np.int64)
            M[i - 1, j - 1] = 1
            M[j - 1, i - 1] = -1
            M[l + i - 1, l + j - 1] = 1
            M[l + j - 1, l + i - 1] = -1
            basis.append(
                BasisElement(f"w({i},{j})", M, _unit(l, [(i, 1), (j, -1)]))
            )
    for i in range(2, l + 1):
        for j in range(1, i):
            M = np.zeros((N, N), dtype=np.int64)
            M[l + i - 1, j - 1] = 1
            M[l + j - 1, i - 1] = -1
            M[i - 1, l + j - 1] = 1
            M[j - 1, l + i - 1] = -1
            basis.append(
                BasisElement(f"u({i},{j})", M, _unit(l, [(i, 1), (j, 1)]))
            )
    return N, basis


def _dict_of(M):
    rows, cols = np.nonzero(M)
    return {(int(r), int(c)): int(M[r, c]) for r, c in zip(rows, cols)}


def _dict_commutator(a, b):
    """Commutator of two sparse integer matrices given as position dicts."""
    out = {}
    for (r1, c1), v1 in a.items():
        for (r2, c2), v2 in b.items():
            if c1 == r2:
                key = (r1, c2)
                out[key] = out.get(key, 0) + v1 * v2
            if c2 == r1:
                key = (r2, c1)
                out[key] = out.get(key, 0) - v1 * v2
    return {k: v for k, v in out.items() if v != 0}


class AlgebraModel:
    """A compact symmetry algebra with cached exact structure data.

    Not constructed directly; use :func:`build_algebra`.
    """

    def __init__(self, family, rank):
        self.family = family
        self.rank = rank
        self.ambient_dim, self.basis = _build_basis(family, rank)
        self.n = len(self.basis)
        self.label_index = {e.label: i for i, e in enumerate(self.basis)}
        self._mat_dicts = [_dict_of(e.matrix) for e in self.basis]
        # Each ambient position belongs to at most one basis element, which
        # makes exact expansion a positionwise lookup.
        self._owner = {}
        for k, d in enumerate(self._mat_dicts):
            for pos, val in d.items():
                self._owner[pos] = (k, val)
        self.gram = np.array(
            [self.ambient_inner_matrices(e.matrix, e.matrix) for e in self.basis]
        )
        self._struct = self._build_structure()
        self.structure_index = self._index_form()
        self.killing_matrix = self._build_killing()

    # -- ambient pairing ---------------------------------------------------

    def ambient_inner_matrices(self, X, Y):
        """Family inner product of two ambient matrices."""
        l = self.rank
        if self.family == "A":
            scale = max(l - 1, 1)
            return -scale * float(np.einsum("ij,ji->", X, Y))
        if self.family == "B":
            a = X[0, 1 : l + 1]
            c = Y[0, 1 : l + 1]
            A1, A2 = X[1 : l + 1, 1 : l + 1], Y[1 : l + 1, 1 : l + 1]
            B1, B2 = X[1 : l + 1, l + 1 :], Y[1 : l + 1, l + 1 :]
            return float(
                a @ c
                - (np.einsum("ij,ji->", A1, A2) + np.einsum("ij,ji->", B1, B2)) / 2.0
            )
        if self.family == "C":
            A1, A2 = X[:l, :l], Y[:l, :l]
            B1, B2 = X[l:, :l], Y[l:, :l]
            return float(
                (np.einsum("ij,ji->", B1, B2) - np.einsum("ij,ji->", A1, A2)) / 2.0
            )
        A1, A2 = X[:l, :l], Y[:l, :l]
        B1, B2 = X[l:, :l], Y[l:, :l]
        return float(
            -(np.einsum("ij,ji->", A1, A2) + np.einsum("ij,ji->", B1, B2)) / 2.0
        )

    # -- structure table ---------------------------------------------------

    def expand_matrix(self, M, tol=1e-9):
        """Expand an ambient matrix in the basis.

        Returns ``(coords, residual)`` where ``residual`` is the magnitude of
        the part of ``M`` that does not lie in the basis span (including any
        positionwise inconsistency).
        """
        coords = np.zeros(self.n)
        claimed = np.zeros(self.n, dtype=bool)
        residual = 0.0
        rows, cols = np.nonzero(np.abs(np.asarray(M, dtype=float)) > tol)
        for r, c in zip(rows, cols):
            pos = (int(r), int(c))
            own = self._owner.get(pos)
            val = float(M[pos])
            if own is None:
                residual = max(residual, abs(val))
                continue
            k, base_val = own
            coeff = val / base_val
            if claimed[k]:
                residual = max(residual, abs(coeff - coords[k]))
            else:
                coords[k] = coeff
                claimed[k] = True
        return coords, residual

    def _build_structure(self):
        struct = {}
        for i in range(self.n):
            di = self._mat_dicts[i]
            for j in range(i + 1, self.n):
                P = _dict_commutator(di, self._mat_dicts[j])
                if not P:
                    continue
                entries = {}
                for pos, val in P.items():
                    own = self._owner.get(pos)
                    if own is None:
                        raise ClosureViolation(
                            f"[{self.basis[i].label}, {self.basis[j].label}] has "
                            f"an entry at {pos} outside the basis span"
                        )
                    k, base_val = own
                    coeff = val / base_val
                    if k in entries:
                        if entries[k] != coeff:
                            raise ClosureViolation(
                                f"inconsistent expansion of "
                                f"[{self.basis[i].label}, {self.basis[j].label}]"
                            )
                    else:
                        entries[k] = coeff
                # Cross-check: reconstruct and compare exactly.
                recon = {}
                for k, coeff in entries.items():
                    for pos, val in self._mat_dicts[k].items():
                        recon[pos] = recon.get(pos, 0) + coeff * val
                if {p: v for p, v in recon.items() if v != 0} != P:
                    raise ClosureViolation(
                        f"expansion of [{self.basis[i].label}, "
                        f"{self.basis[j].label}] does not reconstruct"
                    )
                struct[(i, j)] = tuple(sorted(entries.items()))
        return struct

    def _index_form(self):
        """Flatten ``_struct`` into arrays ``I, J, K, V`` with C[I,J,K] = V.

        Both orders ``(i, j)`` and ``(j, i)`` are listed, so every nonzero
        entry of the antisymmetric tensor C appears exactly once.
        """
        table = np.array(
            [
                (i, j, k, c)
                for (i, j), entries in self._struct.items()
                for k, c in entries
            ],
            dtype=float,
        ).reshape(-1, 4)
        i, j, k = table[:, :3].astype(np.intp).T
        c = table[:, 3]
        arrays = (
            np.concatenate([i, j]),
            np.concatenate([j, i]),
            np.concatenate([k, k]),
            np.concatenate([c, -c]),
        )
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def _build_killing(self):
        # K[a, b] = tr(ad_a ad_b) = sum_{j,k} C[a,j,k] C[b,k,j]: each entry e
        # with key j*n + k pairs with every entry f whose transposed key
        # K[f]*n + J[f] equals it, found by a sort and two searchsorted calls
        I, J, K, V = self.structure_index
        n = self.n
        key, tkey = J * n + K, K * n + J
        order = np.argsort(tkey, kind="stable")
        tkey = tkey[order]
        lo = np.searchsorted(tkey, key, "left")
        counts = np.searchsorted(tkey, key, "right") - lo
        e = np.repeat(np.arange(len(key)), counts)
        start = np.cumsum(counts) - counts
        f = order[np.arange(len(e)) - np.repeat(start - lo, counts)]
        Kill = np.bincount(
            I[e] * n + I[f], weights=V[e] * V[f], minlength=n * n
        ).reshape(n, n)
        return (Kill + Kill.T) / 2.0

    # -- coordinate operations ----------------------------------------------

    def bracket_coords(self, x, y):
        """Coordinates of ``[x, y]`` for coordinate vectors x, y."""
        I, J, K, V = self.structure_index
        return np.bincount(K, weights=V * x[I] * y[J], minlength=self.n)

    def ad(self, x):
        """Dense matrix of ``ad(x)`` acting on row vectors: ``y @ ad(x) == [x, y]``."""
        I, J, K, V = self.structure_index
        n = self.n
        return np.bincount(J * n + K, weights=V * x[I], minlength=n * n).reshape(n, n)

    def ambient_inner_coords(self, x, y):
        return float(np.dot(x * self.gram, y))

    def __repr__(self):
        return f"AlgebraModel({self.family}{self.rank}, dim={self.n})"


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

