"""Exact counts of the invariant Einstein metrics of a flag.

Each Ricci coefficient of the reduced Ricci engine is a Laurent polynomial
in the metric coefficients and the pair determinants ``x_i x_j - b^2``
(:meth:`~einflag.curvature.ReducedRicci.terms`), with rational
coefficients built from the integer block sums of the structure constants;
no float reaches this module.  :func:`diagonal_system` takes them on a
diagonal metric ``x_1, ..., x_s``, gauges ``x_s = 1`` and clears
denominators: the Einstein equations ``r_{i+1} = r_i`` of the
per-summand Ricci values become integer polynomials -- one univariate
polynomial on a two-summand flag, two plane curves ``f1, f2`` in
``(x, y)`` on a three-summand flag.  On a flag with an equivalent pair,
:func:`mixed_system` rebuilds the equations of a metric with a mixing
coefficient b in ``(x_1, x_2, B = b^2)``, and :func:`mixed_count`
eliminates B, which leaves two plane curves again.

:func:`diagonal_count` and :func:`mixed_count` count their positive
solutions exactly.  A plane system is sheared to ``u = x + k y`` so that
both equations keep a constant leading coefficient in y; the Sylvester
resultant ``R(u)`` then vanishes exactly at the u of the common
solutions, and the first subresultant ``s11(u) y + s10(u)`` gives the one
solution over a root where ``s11`` does not vanish (D. Cox, J. Little,
D. O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3).  ``R`` is split into square-free parts
(D. Y. Y. Yun, SYMSAC 1976), whose positive roots are isolated by Sturm
sequences and bisected in exact arithmetic; the signs of y and x at a
root are decided by Sturm counts as well (S. Basu, R. Pollack, M.-F. Roy,
*Algorithms in Real Algebraic Geometry*, ch. 2 and 8).  Where ``s11``
vanishes at a root, that root must be rational: it is substituted exactly
and the common roots of ``gcd(f1, f2)`` in y over it are counted.

Every step is exact integer or rational arithmetic from the standard
library.  A system that no listed shear puts in a countable position, or
that has any other shape the counts do not cover, raises
:class:`NoExactCount` with the reason; nothing is ever rounded to make it
fit.

Univariate polynomials are coefficient lists in ascending order, with no
trailing zero (``[]`` is the zero polynomial); plane polynomials are dicts
``{(i, j): c}`` for ``c x^i y^j``, and other multivariate ones dicts over
their exponent tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation, NoExactCount

__all__ = ["ExactCount", "diagonal_count", "diagonal_system", "mixed_count", "mixed_system",
           "normal_is_einstein"]

# shears u = x + k y, tried in order until one puts the system in a
# countable position
_SHEARS = (2, 3, 5, 7, 11)
# roots are bisected to 2^-_ROOT_BITS of their interval's end; the nearest
# rational of denominator at most _RATIONAL_DENOMINATOR is then tried as
# the exact root, and kept only if it is one (two such rationals are
# further apart than that width, for roots below 2^18)
_ROOT_BITS = 58
_RATIONAL_DENOMINATOR = 2**20


@dataclass(frozen=True)
class ExactCount:
    """Every solution of one gauged Einstein system, counted exactly.

    ``points`` holds one tuple ``(x_1, ..., x_{s-1})`` of floats per
    solution (the gauged ``x_s = 1`` left out), followed by its mixing
    coefficient on the mixed stage.  Each diagonal coordinate is rounded
    from a rational: the solution itself where it is rational, else its
    value at the end of an isolating interval narrower than
    ``2^-_ROOT_BITS`` relative; a mixing coefficient is the square root of
    the rational ``b^2`` there.  ``solve`` takes these floats as its
    roots.  ``multiplicities`` holds the multiplicity of each one as a
    root of the eliminated polynomial (of ``R`` on a plane system), and
    ``shear`` the k of ``u = x + k y`` (None on a two-summand flag).
    """

    points: tuple
    multiplicities: tuple
    shear: int | None


# ---------------------------------------------------------------------------
# univariate kernels


def _trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])


def _neg(a):
    return [-c for c in a]


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _deriv(a):
    return [i * c for i, c in enumerate(a)][1:]


def _primitive(a):
    """The integer polynomial with coprime coefficients and positive leading
    coefficient that is a rational multiple of ``a``."""
    a = _trim(a)
    if not a:
        return []
    den = math.lcm(*(Fraction(c).denominator for c in a))
    ints = [int(Fraction(c) * den) for c in a]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _rem(a, b):
    """A positive multiple of the remainder of ``a`` by ``b`` (integers).

    Each step scales by ``|lc(b)|`` instead of ``lc(b)``, so the sign of
    the remainder is kept; Sturm sequences and gcds only need that.
    """
    a = list(a)
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    while len(a) >= len(b):
        c = sign * a[-1]
        shift = len(a) - len(b)
        a = [scale * v for v in a]
        for i, v in enumerate(b):
            a[shift + i] -= c * v
        a = _trim(a)
    g = math.gcd(*a) if a else 1
    return [v // g for v in a]


def _gcd(a, b):
    """Greatest common divisor over Q, as a primitive integer polynomial."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _rem(a, b)
    return _primitive(a)


def _quo(a, b):
    """Exact quotient ``a / b`` over Q."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for i, v in enumerate(b):
            a[shift + i] -= c * v
        a = _trim(a)
    if a:
        raise InvariantViolation("an exact polynomial division left a remainder")
    return q


def _value(p, t):
    """``p(t)`` exactly, for a rational t."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _sign(p, n, d=1):
    """Sign of the integer polynomial ``p`` at ``n / d`` (integers, d > 0)."""
    acc, power = 0, 1
    # d^deg p(n/d) by Horner, in integers
    for c in reversed(p):
        acc = acc * n + c * power
        power *= d
    return (acc > 0) - (acc < 0)


def _sturm(p):
    """Sturm sequence of the square-free part of ``p``.

    With a square-free first member, :func:`_count` is right on every
    ``(a, b]``, also when a or b is a root.
    """
    p = _primitive(_quo(p, _gcd(p, _deriv(p))))
    seq = [p, _primitive(_deriv(p))]
    while seq[-1]:
        seq.append(_neg(_rem(seq[-2], seq[-1])))
    return seq[:-1]


def _variations(seq, t):
    signs = [s for s in (_sign(p, t.numerator, t.denominator) for p in seq) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _count(seq, a, b):
    """Number of distinct roots in ``(a, b]`` of the first polynomial of the
    Sturm sequence ``seq``."""
    return _variations(seq, a) - _variations(seq, b)


def _yun(p):
    """Square-free decomposition: ``[(f, m), ...]`` with ``p = c prod f^m``.

    Every factor has positive degree and is a primitive integer polynomial;
    distinct factors are coprime.
    """
    out = []
    c = _gcd(p, _deriv(p))
    w, y = _quo(p, c), _quo(_deriv(p), c)
    z = _add(y, _neg(_deriv(w)))
    m = 1
    while len(w) > 1:
        g = _gcd(w, z)
        if len(g) > 1:
            out.append((g, m))
        w = _quo(w, g)
        y = _quo(z, g)
        z = _add(y, _neg(_deriv(w)))
        m += 1
    return out


def _root_bound(p):
    """An integer above the modulus of every root of ``p`` (Cauchy)."""
    return 2 + max(abs(Fraction(c)) for c in p[:-1]) // abs(Fraction(p[-1]))


def _isolate(p, lo, hi):
    """Disjoint intervals ``(a, b]`` within ``(lo, hi]``, in increasing
    order, each holding exactly one root of the square-free ``p``."""
    seq = _sturm(p)
    lo, hi = Fraction(lo), Fraction(hi)
    todo, out = [(lo, hi, _count(seq, lo, hi))], []
    while todo:
        a, b, n = todo.pop()
        if n == 1:
            out.append((a, b))
        elif n > 1:
            m = (a + b) / 2
            left = _count(seq, a, m)
            todo += [(a, m, left), (m, b, n - left)]
    return sorted(out)


class _Root:
    """The one root of the square-free integer polynomial ``p`` in
    ``(lo/den, hi/den]``, with integer ends; ``exact`` is the root itself
    once it is known as a rational, else None."""

    def __init__(self, p, a, b):
        self.p = p
        self.den = math.lcm(a.denominator, b.denominator)
        self.lo, self.hi = int(a * self.den), int(b * self.den)
        self.top = _sign(p, self.hi, self.den)
        self.exact = b if self.top == 0 else None

    @property
    def a(self):
        return Fraction(self.lo, self.den)

    @property
    def b(self):
        return Fraction(self.hi, self.den) if self.exact is None else self.exact

    def halve(self):
        """Halve the interval, keeping the root; stop at an exact root."""
        if self.exact is not None:
            return
        mid = self.lo + self.hi
        self.lo, self.hi, self.den = 2 * self.lo, 2 * self.hi, 2 * self.den
        sign = _sign(self.p, mid, self.den)
        if sign == 0:
            self.exact = Fraction(mid, self.den)
        elif sign == self.top:
            self.hi = mid
        else:
            self.lo = mid

    def refine(self):
        """Bisect below ``2^-_ROOT_BITS`` relative width and recognize a
        rational root exactly."""
        while self.exact is None and (self.hi - self.lo) << _ROOT_BITS > self.hi:
            self.halve()
        if self.exact is None:
            mid = Fraction(self.lo + self.hi, 2 * self.den)
            r = mid.limit_denominator(_RATIONAL_DENOMINATOR)
            if self.a < r <= self.b and _sign(self.p, r.numerator, r.denominator) == 0:
                self.exact = r
        return self

    def sign_of(self, q):
        """Sign of the integer polynomial ``q`` at the root, exactly."""
        if self.exact is None:
            g = _gcd(self.p, q)
            if len(g) > 1 and _count(_sturm(g), self.a, self.b):
                return 0
            # q does not vanish at the root: narrow until it has no root
            # in (a, b]
            seq = _sturm(q)
            while self.exact is None and _count(seq, self.a, self.b):
                self.halve()
        b = self.b
        return _sign(q, b.numerator, b.denominator)


def _positive_roots(p, hi=None):
    """Refined roots of the square-free ``p`` in ``(0, hi]`` (all positive
    roots by default)."""
    if len(p) < 2:
        return []
    hi = _root_bound(p) if hi is None else hi
    return [_Root(p, a, b).refine() for a, b in _isolate(p, 0, hi)]


# ---------------------------------------------------------------------------
# the Einstein systems


def normal_is_einstein(engine):
    """Whether the normal metric ``x = 1, b = 0`` is Einstein, decided exactly.

    There each pair determinant is one, so each Ricci coefficient is the sum
    of its terms free of b: the diagonal ones must agree and the mixing ones
    vanish.
    """
    s, n = engine.n_sub, engine.dim
    values = [
        sum(c for e, c in poly.items() if not any(e[s:n]))
        for poly in engine.terms()
    ]
    return len(set(values[:s])) == 1 and not any(values[s:])


def _combine(terms):
    """The polynomial ``{e: c}`` of ``(e, c)`` terms, equal exponents merged
    and zero coefficients dropped."""
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _pmul(f, g):
    """Product of two multivariate polynomials ``{e: c}``."""
    return _combine(
        (tuple(u + v for u, v in zip(e, e2)), c * c2)
        for e, c in f.items()
        for e2, c2 in g.items()
    )


def _ppow(f, k):
    out = {(0,) * len(next(iter(f))): 1}
    for _ in range(k):
        out = _pmul(out, f)
    return out


def _einstein_equations(engine, ricci):
    """The equations ``r_{i+1} = r_i`` of the per-summand Ricci values
    ``r_i = rho_i / x_i``, then ``rho_b / b = r_s`` for each mixing slot
    that ``ricci`` holds."""
    s = engine.n_sub

    def over(r):
        # rho_r divided by the coefficient in its own slot
        return {e[:r] + (e[r] - 1,) + e[r + 1:]: c for e, c in ricci[r].items()}

    def minus(f, g):
        return _combine([*f.items(), *((e, -c) for e, c in g.items())])

    ratios = [over(r) for r in range(s)]
    return [minus(ratios[r + 1], ratios[r]) for r in range(s - 1)] + [
        minus(over(slot), ratios[-1]) for slot in range(s, len(ricci))
    ]


def _gauge(eq, slot):
    """``eq`` at ``x = 1`` in ``slot``, over the other exponents."""
    gauged = _combine((e[:slot] + e[slot + 1:], c) for e, c in eq.items())
    if not gauged:
        raise NoExactCount("an Einstein equation vanishes identically")
    return gauged


def _content_free(poly):
    """``poly`` with its monomial content divided out (or the monomial
    denominator cleared) and coprime integer coefficients, the one on the
    largest exponent positive, whatever the order of the terms.

    The result is a rational multiple of ``poly`` times a monomial, so it
    keeps every solution with all coordinates positive.
    """
    low = [min(e[i] for e in poly) for i in range(len(next(iter(poly))))]
    terms = sorted(poly.items())
    keys = [tuple(v - m for v, m in zip(e, low)) for e, _ in terms]
    return dict(zip(keys, _primitive([c for _, c in terms])))


def diagonal_system(engine):
    """The gauged diagonal Einstein equations of an engine, in integers.

    Returns one primitive integer polynomial per equation ``r_{i+1} = r_i``
    (``i < s - 1``), over the exponents of ``x_1, ..., x_{s-1}`` with
    ``x_s = 1``: a coefficient list in x when ``s = 2``, a dict
    ``{(i, j): c}`` otherwise.  The mixing coefficients are zero, so each
    pair determinant is ``x_i x_j``.  Each equation was multiplied by a
    nonzero rational and a monomial, which keeps its positive solutions.
    Raises :class:`NoExactCount` when an equation vanishes identically.
    """
    s, n = engine.n_sub, engine.dim

    def diagonal(poly):
        # b = 0: only the terms free of b remain, with det_k = x_i x_j
        out = []
        for e, c in poly.items():
            if any(e[s:n]):
                continue
            x = list(e[:s])
            for k, (i, j) in enumerate(engine.pairs):
                x[i] += e[n + k]
                x[j] += e[n + k]
            out.append((tuple(x), c))
        return _combine(out)

    ricci = [diagonal(poly) for poly in engine.terms()[:s]]
    equations = []
    for eq in _einstein_equations(engine, ricci):
        eq = _content_free(_gauge(eq, s - 1))
        if s == 2:
            poly = [0] * (max(eq)[0] + 1)
            for (i,), c in eq.items():
                poly[i] = c
            eq = poly
        equations.append(eq)
    return equations


def mixed_system(engine):
    """The gauged Einstein equations of a metric with one mixing coefficient.

    On a flag of three summands with one equivalent pair ``(i, j)`` the
    metric is ``(x_1, x_2, x_3, b)``.  With ``x_3 = 1`` and ``B = b^2``,
    returns the two equations ``r_2 = r_1``, ``r_3 = r_2`` and the mixing
    equation ``rho_b / b = r_3`` as primitive integer polynomials
    ``{(i, j, k): c}`` for ``c x_1^i x_2^j B^k``: the powers of the pair
    determinant ``x_i x_j - b^2`` are cleared, the monomial content is
    divided out, and every equation must be even in b.  Each equation was
    multiplied by a nonzero rational, a power of the determinant and a
    monomial, which keeps its solutions with positive coordinates and a
    positive determinant.  Raises :class:`NoExactCount` on any other shape,
    and as :func:`diagonal_system` does.
    """
    s, n = engine.n_sub, engine.dim
    if s != 3 or len(engine.pairs) != 1:
        raise NoExactCount(
            f"{s} summands and {len(engine.pairs)} pairs; the exact mixed count "
            "covers three summands with one pair"
        )
    ((i, j),) = engine.pairs
    det = {
        tuple((v == i) + (v == j) for v in range(n)): 1,
        tuple(2 * (v == s) for v in range(n)): -1,
    }
    equations = []
    for eq in _einstein_equations(engine, engine.terms()):
        low = min(e[n] for e in eq)
        expanded = _combine(
            term
            for e, c in eq.items()
            for term in _pmul({e[:n]: c}, _ppow(det, e[n] - low)).items()
        )
        gauged = _gauge(expanded, s - 1)
        if any(e[-1] % 2 for e in gauged):
            raise NoExactCount("an Einstein equation is not even in the mixing coefficient")
        equations.append(_content_free({e[:-1] + (e[-1] // 2,): c for e, c in gauged.items()}))
    return equations


# ---------------------------------------------------------------------------
# counting


class _NotGeneric(Exception):
    """The current shear does not put the system in a countable position."""


def _shear(f, k):
    """``f(u - k y, y)`` as coefficients in y, each a polynomial in u."""
    deg = max(i + j for i, j in f)
    out = [[] for _ in range(deg + 1)]
    for (i, j), c in f.items():
        for a in range(i + 1):
            term = [0] * (i - a) + [c * math.comb(i, a) * (-k) ** a]
            out[a + j] = _add(out[a + j], term)
    while out and not out[-1]:
        out.pop()
    return out


def _det(rows):
    """Determinant of a square matrix of polynomials.

    Laplace expansion row by row, with the minors of the rows so far kept
    per set of columns used: no division, so it stays in integers.
    """
    n = len(rows)
    minors = {0: [1]}
    for r, row in enumerate(rows):
        nxt = {}
        for used, minor in minors.items():
            for c in range(n):
                if used >> c & 1 or not row[c]:
                    continue
                term = _mul(row[c], minor)
                if (r + bin(used & ((1 << c) - 1)).count("1")) % 2:
                    term = _neg(term)
                key = used | 1 << c
                nxt[key] = _add(nxt.get(key, []), term)
        minors = {k: v for k, v in nxt.items() if v}
    return minors.get((1 << n) - 1, [])


def _subresultant(P, Q, j):
    """Coefficients ``[s_j0, ..., s_jj]`` of the j-th subresultant in y.

    ``P`` and ``Q`` are coefficient lists in y of polynomials in u.  The
    rows are ``y^t P`` (t < deg Q - j) and ``y^t Q`` (t < deg P - j) over
    the powers of y from the top; ``s_ji`` is the minor of the leading
    columns but one, with the column of ``y^i`` last.
    """
    p, q = len(P) - 1, len(Q) - 1
    width = p + q - j
    rows = []
    for F, times in ((P, q - j), (Q, p - j)):
        for t in range(times):
            row = [[] for _ in range(width)]
            for e, c in enumerate(F):
                row[width - 1 - (e + t)] = c
            rows.append(row)
    lead = len(rows) - 1
    return [_det([row[:lead] + [row[width - 1 - i]] for row in rows]) for i in range(j + 1)]


class _PlaneRoot:
    """One positive common root ``(x, y)`` of two plane curves.

    ``t`` is a refined :class:`_Root` of a univariate polynomial, and the
    root is ``x = xt(t) / den(t)``, ``y = yt(t) / den(t)`` with ``den``
    nonzero at t.  ``point`` holds (x, y) as rationals at the end of t's
    interval when the root was found (the root itself where t is exact),
    and ``multiplicity`` the multiplicity of the root of the resultant it
    lies over.
    """

    def __init__(self, t, xt, yt, den, multiplicity):
        self.t, self.xt, self.yt, self.den = t, xt, yt, den
        b = t.b
        d = _value(den, b)
        self.point = (_value(xt, b) / d, _value(yt, b) / d)
        self.multiplicity = multiplicity

    def sign_of(self, f):
        """Sign of the plane polynomial ``f`` at the root, exactly."""
        if not f:
            return 0
        deg = max(i + j for i, j in f)
        # den^deg f(xt / den, yt / den), a polynomial in t
        num = []
        for (i, j), c in f.items():
            term = [c]
            for factor, times in ((self.xt, i), (self.yt, j), (self.den, deg - i - j)):
                for _ in range(times):
                    term = _mul(term, factor)
            num = _add(num, term)
        return self.t.sign_of(num) * self.t.sign_of(self.den) ** deg


def _fiber(F1, F2, u, k, m):
    """Solutions over the rational u where the subresultant degenerates.

    The common roots y of the two equations specialized at u, with
    ``x = u - k y`` positive, as :class:`_PlaneRoot` of multiplicity m.
    """
    G = _gcd([_value(c, u) for c in F1], [_value(c, u) for c in F2])
    G = _primitive(_quo(G, _gcd(G, _deriv(G))))
    top = u / k
    return [
        _PlaneRoot(y, [u, -k], [0, 1], [1], m)
        for y in _positive_roots(G, top)
        if y.exact != top
    ]


def _count_plane(f1, f2, k):
    """Positive solutions of ``f1 = f2 = 0`` through the shear k, as
    :class:`_PlaneRoot`."""
    F1, F2 = _shear(f1, k), _shear(f2, k)
    # a constant leading coefficient in y keeps every common root finite
    # and lets the (sub)resultants specialize at every u
    if len(F1[-1]) != 1 or len(F2[-1]) != 1:
        raise _NotGeneric
    if len(F1) == 1 or len(F2) == 1:
        return []  # an equation that is a nonzero constant
    (R,) = _subresultant(F1, F2, 0)
    if not R:
        raise NoExactCount("the two Einstein equations share a curve of solutions")
    if min(len(F1), len(F2)) == 2:
        # an equation linear in y is its own first subresultant
        s10, s11 = F1 if len(F1) == 2 else F2
    else:
        s10, s11 = _subresultant(F1, F2, 1)
    # x s11 = u s11 + k s10 gives the sign of x = u - k y
    xs11 = _add(_mul([0, 1], s11), [k * c for c in s10])
    found = []
    for factor, m in _yun(R):
        g11 = _gcd(factor, s11)
        for root in _positive_roots(factor):
            sign11 = root.sign_of(s11)
            if sign11 == 0:
                # the root is one of g11; exact if g11 is linear
                if len(g11) == 2:
                    root.exact = Fraction(-g11[0], g11[1])
                if root.exact is None:
                    raise _NotGeneric
                found += _fiber(F1, F2, root.exact, k, m)
            elif -root.sign_of(s10) * sign11 > 0 and root.sign_of(xs11) * sign11 > 0:
                found.append(_PlaneRoot(root, xs11, _neg(s10), s11, m))
    return found


def _count_system(f1, f2):
    """The positive solutions of two plane curves, through the first shear
    of ``_SHEARS`` that puts them in a countable position, and that shear."""
    for shear in _SHEARS:
        try:
            return _count_plane(f1, f2, shear), shear
        except _NotGeneric:
            continue
    raise NoExactCount(f"no shear u = x + k y with k in {_SHEARS} is generic")


def diagonal_count(engine):
    """Count the diagonal Einstein metrics of an engine's flag exactly.

    Returns an :class:`ExactCount`; raises :class:`NoExactCount` with the
    reason when the system cannot be rebuilt or counted exactly.
    """
    s = engine.n_sub
    if s == 1:
        return ExactCount(((),), (1,), None)
    if s > 3:
        raise NoExactCount(f"{s} summands; the exact count covers two and three")
    system = diagonal_system(engine)
    shear = None
    if s == 2:
        (p,) = system
        found = [
            ((root.b,), m) for factor, m in _yun(p) for root in _positive_roots(factor)
        ]
    else:
        roots, shear = _count_system(*system)
        found = [(root.point, root.multiplicity) for root in roots]
    return _exact_count(found, shear)


def _exact_count(found, shear):
    found.sort(key=lambda item: item[0])
    return ExactCount(
        points=tuple(tuple(map(float, point)) for point, _ in found),
        multiplicities=tuple(m for _, m in found),
        shear=shear,
    )


def _plane_value(f, x, y):
    return sum(c * x**i * y**j for (i, j), c in f.items())


def _square_root(q):
    """The positive square root of the positive rational q: exact where q
    is the square of a rational, else the float root."""
    top, bottom = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if top * top == q.numerator and bottom * bottom == q.denominator:
        return Fraction(top, bottom)
    return math.sqrt(q)


def mixed_count(engine):
    """Count the Einstein metrics with a nonzero mixing coefficient exactly.

    The mixing equation of :func:`mixed_system` must be linear in
    ``B = b^2``, ``p1(x) B + p0(x) = 0``.  Substituting ``B = -p0 / p1``
    into the other two equations, with the powers of ``p1`` cleared and the
    monomial content divided out, leaves two plane curves, whose positive
    solutions are counted as on the diagonal.  At each solution ``p1`` must
    be nonzero, decided exactly; a solution is kept when ``0 < B`` and the
    pair determinant ``x_i x_j - B`` is positive, also decided exactly, and
    it gives the two metrics ``b = +-sqrt(B)``.  Returns an
    :class:`ExactCount` whose points are ``(x_1, x_2, b)``; raises
    :class:`NoExactCount` with the reason when any step does not apply.
    """
    f1, f2, mix = mixed_system(engine)
    if max(k for _, _, k in mix) != 1:
        raise NoExactCount("the mixing equation is not linear in b^2")
    p1 = {e[:2]: c for e, c in mix.items() if e[2] == 1}
    p0 = {e[:2]: c for e, c in mix.items() if e[2] == 0}
    minus_p0 = {e: -c for e, c in p0.items()}

    def eliminate(f):
        # f(x, y, -p0 / p1) p1^d for the degree d of f in B
        d = max(k for _, _, k in f)
        out = _combine(
            term
            for (i, j, k), c in f.items()
            for term in _pmul({(i, j): c}, _pmul(_ppow(minus_p0, k), _ppow(p1, d - k))).items()
        )
        if not out:
            raise NoExactCount("an Einstein equation vanishes on the mixing equation")
        return _content_free(out)

    roots, shear = _count_system(eliminate(f1), eliminate(f2))
    # (x_i x_j - B) p1 = x_i x_j p1 + p0 over the plane, x_3 = 1
    ((i, j),) = engine.pairs
    pair = {tuple((v == i) + (v == j) for v in range(engine.n_sub - 1)): 1}
    det = _combine([*_pmul(pair, p1).items(), *p0.items()])
    found = []
    for root in roots:
        sign1 = root.sign_of(p1)
        if sign1 == 0:
            raise NoExactCount("the b^2 coefficient of the mixing equation vanishes at a root")
        if root.sign_of(p0) * sign1 < 0 and root.sign_of(det) * sign1 > 0:
            x, y = root.point
            b = _square_root(-_plane_value(p0, x, y) / _plane_value(p1, x, y))
            found += [((x, y, b), root.multiplicity), ((x, y, -b), root.multiplicity)]
    return _exact_count(found, shear)
