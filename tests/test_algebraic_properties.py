"""Property tests of the exact-count kernels, against built-in roots.

Polynomials are built from known rational roots as linear factors, so the
Sturm counts, the isolated roots, the square-free factors and the
resultants all have an answer known in advance.
"""

from fractions import Fraction

import pytest

import einflag.algebraic as algebraic

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def product(factors):
    out = [1]
    for f in factors:
        out = algebraic._mul(out, f)
    return out


def linear(root):
    """The primitive integer factor ``d x - n`` of the rational ``n / d``."""
    return [-root.numerator, root.denominator]


fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
root_sets = st.lists(fractions, min_size=1, max_size=5, unique=True)


@settings(max_examples=80, deadline=None, database=None)
@given(
    root_sets,
    st.lists(st.integers(1, 3), min_size=5, max_size=5),
    st.booleans(),
    fractions,
    fractions,
)
def test_sturm_counts_the_built_in_roots(roots, mults, no_real_root, a, b):
    # p = prod (d x - n)^m, times x^2 + 1 (no real root) or not: the Sturm
    # count on (a, b] is the number of distinct built-in roots there
    a, b = min(a, b), max(a, b)
    factors = [linear(r) for r, m in zip(roots, mults) for _ in range(m)]
    if no_real_root:
        factors.append([1, 0, 1])
    p = product(factors)
    assert algebraic._count(algebraic._sturm(p), a, b) == sum(a < r <= b for r in roots)


@settings(max_examples=80, deadline=None, database=None)
@given(root_sets, st.booleans())
def test_positive_roots_are_recovered_exactly(roots, no_real_root):
    factors = [linear(r) for r in roots] + ([[1, 0, 1]] if no_real_root else [])
    found = algebraic._positive_roots(product(factors))
    assert [r.exact for r in found] == sorted(r for r in roots if r > 0)


@settings(max_examples=80, deadline=None, database=None)
@given(root_sets, st.lists(st.integers(1, 4), min_size=5, max_size=5), st.integers(-5, 5))
def test_yun_factors_multiply_back(roots, mults, scale):
    p = [scale * c for c in product(
        [linear(r) for r, m in zip(roots, mults) for _ in range(m)]
    )]
    if not scale:
        return
    parts = algebraic._yun(p)
    # c prod f^m, with primitive factors: the product is p made primitive
    assert product([f for f, m in parts for _ in range(m)]) == algebraic._primitive(p)
    assert len({m for _, m in parts}) == len(parts)
    for f, _ in parts:
        assert len(algebraic._gcd(f, algebraic._deriv(f))) == 1  # square-free


def as_y_polynomial(p):
    """A polynomial in y whose coefficients are constants in u."""
    return [[c] if c else [] for c in p]


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True),
    st.integers(1, 4),
)
def test_resultant_vanishes_exactly_on_a_shared_factor(left, right, lead):
    P = as_y_polynomial([lead * c for c in product([[-r, 1] for r in left])])
    Q = as_y_polynomial(product([[-r, 1] for r in right]))
    (R,) = algebraic._subresultant(P, Q, 0)
    shared = set(left) & set(right)
    assert (R == []) == bool(shared)
    if len(shared) == 1 and min(len(P), len(Q)) > 2:
        # the first subresultant is then the shared factor, up to a constant
        s10, s11 = (algebraic._value(s, 0) for s in algebraic._subresultant(P, Q, 1))
        assert -s10 / s11 == shared.pop()
