"""Shared fixtures and flag lists, and helpers that build and edit generator tables."""

import sys
from functools import lru_cache

import numpy as np
import pytest

import einflag.einstein
from einflag.cli import _table_rows
from einflag.flag import GeneratorTable

# every `table1 --max-l 6` flag, plus the large three-summand flag
FLAGS = [str(s) for s in _table_rows(6)] + ["A:25:[20,3,3]:-"]
# every flag with an equivalent pair up to rank 10
PAIR_FLAGS = ["A:3:[2,1,1]:-", "A:3:[1,2,1]:-", "A:3:[1,1,2]:-"] + [
    text
    for l in range(4, 11)
    for text in (f"D:{l}:[{l - 1},1]:-", f"D:{l}:[1,{l - 1}]:-", f"D:{l}:[1,{l - 2},1]:+")
]


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


NO_GENERATORS = GeneratorTable(0, *[np.zeros(0, dtype=np.int64)] * 3, np.zeros(0))
