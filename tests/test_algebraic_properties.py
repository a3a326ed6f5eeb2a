"""Property tests of the exact-count kernels, against built-in roots.

Polynomials are built from known rational roots as linear factors, so the
Sturm counts, the isolated roots, the square-free factors and the
resultants all have an answer known in advance.  The float-guided
refinement is held to the state plain bisection leaves, and the Bareiss
determinant to a cofactor expansion.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest

import einflag.algebraic as algebraic
from einflag.errors import InvariantViolation

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
    # (a, b] over the common denominator of its ends
    lo, hi = a.numerator * b.denominator, b.numerator * a.denominator
    den = a.denominator * b.denominator
    assert algebraic._count(algebraic._sturm(p), lo, hi, den) == sum(a < r <= b for r in roots)


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


# ---------------------------------------------------------------------------
# float-guided refinement against plain bisection


def quadratic(d, n):
    """``d x^2 - n``, whose roots +-sqrt(n / d) are irrational unless n d is a
    square."""
    return [-n, 0, d]


irrational = st.tuples(st.integers(1, 9), st.integers(1, 99)).filter(
    lambda dn: math.isqrt(dn[0] * dn[1]) ** 2 != dn[0] * dn[1]
)


def refined(factor, interval, guess):
    """The state ``(lo, hi, den, exact)`` that refine leaves on the root in
    ``interval``: with the float guess of the module, or with ``guess`` in
    its place where that is not None."""
    root = algebraic._Root(factor, *interval)
    if guess is None:
        root.refine()
    else:
        with mock.patch.object(algebraic, "_float_guess", lambda _: guess):
            root.refine()
    return root.lo, root.hi, root.den, root.exact


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.lists(fractions, max_size=4, unique=True),
    st.lists(irrational, min_size=1, max_size=3, unique_by=lambda dn: Fraction(dn[1], dn[0])),
    st.floats(-(2.0**-38), 2.0**-38),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
    ),
)
def test_float_guided_refinement_ends_as_plain_bisection(roots, quadratics, shift, wild):
    # on every positive root: the module's own guess, a guess near the root
    # that may sit in a neighbouring cell, and any float at all (NaN, +-inf,
    # zero, negative, beyond the interval) all end in the state of plain
    # bisection, which a NaN guess leaves to do all the work
    p = product([linear(r) for r in roots] + [quadratic(d, n) for d, n in quadratics])
    factor = algebraic._Factor(p)
    intervals = algebraic._isolate(factor.seq, 0, algebraic._root_bound(p), 1)
    assert len(intervals) == sum(r > 0 for r in roots) + len(quadratics)
    exact_roots = []
    for interval in intervals:
        want = refined(factor, interval, math.nan)
        lo, hi, den, exact = want
        near = float(exact if exact is not None else Fraction(lo + hi, 2 * den)) * (1.0 + shift)
        for guess in (None, near, wild):
            assert refined(factor, interval, guess) == want, guess
        if exact is not None:
            exact_roots.append(exact)
    # the rational roots, and they alone, are recognized exactly
    assert exact_roots == sorted(r for r in roots if r > 0)


@pytest.mark.parametrize("d, n", [(2, 3), (1, 2), (7, 50), (3, 1)])
def test_float_guess_jumps_onto_the_bisection_path(d, n):
    # the guess moves the root into a cell about 2^-44 relative wide in two
    # exact signs, and refine goes on from there to plain bisection's state
    factor = algebraic._Factor(quadratic(d, n))
    (interval,) = algebraic._isolate(factor.seq, 0, algebraic._root_bound(factor.p), 1)
    root = algebraic._Root(factor, *interval)
    root._jump(algebraic._float_guess(root))
    width = Fraction(root.hi - root.lo, root.den)
    assert 2.0**-46 < width / Fraction(root.hi, root.den) < 2.0**-42
    assert refined(factor, interval, None) == refined(factor, interval, math.nan)


# ---------------------------------------------------------------------------
# the Bareiss determinant against a cofactor expansion, exact division


def laplace(rows):
    """Determinant of a square polynomial matrix by cofactors of its first row."""
    if not rows:
        return [1]
    total = []
    for c, entry in enumerate(rows[0]):
        if entry:
            term = algebraic._mul(entry, laplace([row[:c] + row[c + 1:] for row in rows[1:]]))
            total = algebraic._add(total, term if c % 2 == 0 else algebraic._neg(term))
    return total


# entries are zero half the time, so pivots vanish and rows are swapped
entries = st.one_of(
    st.just([]), st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(algebraic._trim)
)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 7), st.integers(1, 3), st.data())
def test_bareiss_determinants_equal_the_cofactor_expansion(n, extra, data):
    # n rows, n - 1 + extra wide: one determinant per column past the first
    # n - 1, each that column after the shared ones
    rows = data.draw(st.lists(st.lists(entries, min_size=n - 1 + extra, max_size=n - 1 + extra),
                              min_size=n, max_size=n))
    want = [laplace([row[: n - 1] + [row[c]] for row in rows]) for c in range(n - 1, n - 1 + extra)]
    assert algebraic._det(rows) == want


def test_bareiss_determinant_of_a_singular_matrix_is_zero():
    rows = [[[1, 2], [3], [0, 1]], [[2, 4], [6], [0, 2]], [[5], [], [1, 1, 1]]]
    assert laplace(rows) == [] and algebraic._det(rows) == [[]]


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=5).map(algebraic._trim),
    st.lists(st.integers(-20, 20), min_size=2, max_size=4).map(algebraic._primitive),
)
def test_exact_quotient_by_a_primitive_divisor_is_in_integers(a, b):
    if len(b) < 2:
        return
    assert algebraic._quo(algebraic._mul(a, b), b) == a


@pytest.mark.parametrize("a, b", [
    ([1, 0, 1], [-1, 1]),  # x^2 + 1 by x - 1: remainder 2
    ([1, 1], [2, 2]),  # x + 1 by 2x + 2: 1/2, exact over Q but not in Z[x]
    ([3], [0, 1]),  # a constant by x
])
def test_exact_quotient_refuses_a_remainder(a, b):
    with pytest.raises(InvariantViolation, match="left a remainder"):
        algebraic._quo(a, b)
