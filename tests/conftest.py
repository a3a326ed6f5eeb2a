"""Shared fixtures and flag lists, helpers that build and edit generator
tables, the dense forms of the algebra basis, of its expansion and of
``ad(x)``, with the entry-wise scatter and expansion they wrap, and readouts
of a decomposition and of its sign symmetries."""

import sys
from functools import lru_cache

import numpy as np
import pytest

import einflag.einstein
from einflag.flag import GeneratorTable, tangent_basis
from einflag.invariant import _sign_actions
import sweeps

# every `table1 --max-l 6` flag, plus the large three-summand flag
FLAGS = [str(s) for s in sweeps.table_rows(6)] + ["A:25:[20,3,3]:-"]
# every flag with an equivalent pair up to rank 10
PAIR_FLAGS = ["A:3:[2,1,1]:-", "A:3:[1,2,1]:-", "A:3:[1,1,2]:-"] + sweeps.pair_flags(range(4, 11))


@pytest.fixture
def cold_search(monkeypatch):
    """Empty exact-root and solve memos for one test.

    The test gets fresh memos; the shared ones, and what later tests find
    in them, come back untouched when it ends.
    """
    for name in ("_exact_roots", "_solve_cached"):
        memo = getattr(einflag.einstein, name)
        monkeypatch.setattr(einflag.einstein, name, lru_cache(maxsize=None)(memo.__wrapped__))


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty copies of every memo of the package for one test.

    Each ``lru_cache`` function bound in an ``einflag`` module is replaced,
    under every module name it is bound to, by one fresh memo of the same
    function, so the test builds every flag, space and engine again; the
    shared memos come back untouched when it ends.
    """
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("einflag")]
    fresh = {}
    for module in modules:
        for name, value in list(vars(module).items()):
            if hasattr(value, "cache_clear") and hasattr(value, "__wrapped__"):
                if id(value) not in fresh:
                    fresh[id(value)] = lru_cache(maxsize=None)(value.__wrapped__)
                monkeypatch.setattr(module, name, fresh[id(value)])


@pytest.fixture
def kept_memos(monkeypatch):
    """The shared memos for a sweep in one test: the sweep's drop of every
    flag memo after each flag, which bounds a long run's memory, is skipped."""
    monkeypatch.setattr(sweeps, "_drop_flag_memos", lambda: None)


def expand_entries(model, count, mat, pos, vals):
    """Expand ``count`` ambient matrices, given by their nonzero entries,
    in the basis.

    Entry e is ``vals[e]`` at the flat position ``pos[e] = row * N + col``
    of matrix ``mat[e]``.  Returns ``(coords, residual)``: ``coords[i]``
    are the coordinates of matrix i, and ``residual[i]`` the largest
    magnitude in it of a part that does not lie in the basis span
    (including any positionwise inconsistency).  Each ambient position has
    one owner (``model._owner``), so the expansion is a positionwise lookup.
    """
    k = model._owner[pos]
    owned = k >= 0
    residual = np.zeros(count)
    np.maximum.at(residual, mat[~owned], np.abs(vals[~owned]))
    coeff = vals[owned] / model._owner_value[pos[owned]]
    # the first entry of each element, in the given order, sets its
    # coordinate; every later one must agree with it
    key = mat[owned] * model.n + k[owned]
    keys, first, inv = np.unique(key, return_index=True, return_inverse=True)
    coords = np.zeros((count, model.n))
    coords.flat[keys] = coeff[first]
    np.maximum.at(residual, mat[owned], np.abs(coeff - coeff[first][inv]))
    return coords, residual


def ambient_matrices(model, coords):
    """The ambient matrices of coordinate vectors, ``(..., n)`` to ``(..., N, N)``.

    Every ambient position has one owner, so each entry is one product of
    the model's entries, and :func:`expand_entries` inverts this exactly.
    """
    coords = np.asarray(coords, dtype=float)
    N = model.ambient_dim
    elem, row, col, val = model.entries
    out = np.zeros(coords.shape[:-1] + (N * N,))
    out[..., row * N + col] = coords[..., elem] * val
    return out.reshape(coords.shape[:-1] + (N, N))


def expand_matrix(model, M, tol=1e-9):
    """Expand an ambient matrix, or a stack of them, in the algebra basis.

    The dense form of :func:`expand_entries`, which reads the entries of
    magnitude above ``tol``.  Returns ``(coords, residual)`` shaped
    ``M.shape[:-2] + (n,)`` and ``M.shape[:-2]`` (a float for one matrix).
    """
    M = np.asarray(M, dtype=float)
    flat = M.reshape(-1, model.ambient_dim**2)
    mat, pos = np.nonzero(np.abs(flat) > tol)
    coords, residual = expand_entries(model, len(flat), mat, pos, flat[mat, pos])
    residual = residual.reshape(M.shape[:-2])
    if residual.ndim == 0:
        residual = float(residual)
    return coords.reshape(M.shape[:-2] + (model.n,)), residual


def ambient_basis(model):
    """The ambient matrices of the algebra basis, an ``(n, N, N)`` float
    stack in label order, scattered from the model's entries."""
    return ambient_matrices(model, np.eye(model.n))


def dense_generators(table, d):
    """The generators of a :class:`~einflag.flag.GeneratorTable` as a ``(count, d, d)`` stack."""
    G = np.zeros((table.count, d, d))
    G[table.gen, table.row, table.col] = table.value
    return G


def edit_first_generator(table, d, rows, cols, deltas):
    """``table`` with ``deltas`` added to generator 0 at ``(rows, cols)``;
    negative indices count from d, and new positions become entries."""
    rows, cols = np.mod(rows, d), np.mod(cols, d)
    key = np.r_[(table.gen * d + table.row) * d + table.col, rows * d + cols]
    keys, inv = np.unique(key, return_inverse=True)
    value = np.bincount(inv, weights=np.r_[table.value, deltas])
    return GeneratorTable(table.count, keys // (d * d), keys // d % d, keys % d, value)


def component_sign_actions(dec):
    """A basis of the sign symmetries of the stabilizer that preserve every
    summand of a decomposition, as a list of +-1 vectors over the algebra basis."""
    flips, _ = _sign_actions(dec.spec, tangent_basis(dec)[0])
    return list(flip_signs(dec.spec.algebra, flips))


def flip_signs(model, flips):
    """The +-1 vectors over the algebra basis of flips given as int bitmasks
    of ambient positions: basis element p changes sign when its root has an
    odd total coefficient on the flipped positions."""
    parity = model.roots % 2
    on = (np.asarray(flips, dtype=np.int64)[:, None] >> np.arange(parity.shape[1])) & 1
    return 1.0 - 2.0 * ((on @ parity.T) % 2)


NO_GENERATORS = GeneratorTable(0, *[np.zeros(0, dtype=np.int64)] * 3, np.zeros(0))


def ad_matrix(model, x):
    """Dense matrix of ``ad(x)`` acting on row vectors: ``y @ ad_matrix(model, x) == [x, y]``."""
    I, J, K, V = model.structure_index
    n = model.n
    return np.bincount(J * n + K, weights=V * x[I], minlength=n * n).reshape(n, n)


def tangent_dim(dec):
    """The dimension of a decomposition's tangent space, summed over its summands."""
    return sum(s.dim for s in dec.submodules)


def summary(dec):
    """``"U1[6] + W21[4]~a + U21[4]~a"``: each summand, its dimension and the tag
    of its equivalent pair."""
    pairs = [c for c in dec.equiv_classes if len(c) == 2]
    eq = {i: f"~{chr(97 + k)}" for k, cls in enumerate(pairs) for i in cls}
    return " + ".join(f"{s.name}[{s.dim}]{eq.get(i, '')}" for i, s in enumerate(dec.submodules))
