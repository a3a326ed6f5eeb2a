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

Every step is exact arithmetic from the standard library, and nearly all
of it is in plain integers: the engine's rational terms are scaled once by
their least common denominator, every polynomial division is exact in
Z[x] (by Gauss's lemma, or by Sylvester's identity in the fraction-free
Bareiss determinant of the subresultants), and each interval end is an
integer over a common denominator.  ``Fraction`` remains only where a
rational point is the answer: an exact root (``_Root.exact``), the value
of a polynomial there (:func:`_value`) and the search for a rational root
(``limit_denominator``).  Floats only guess: a float Newton root picks a
cell of the bisection's own dyadic lattice, kept only when exact integer
signs at both of its ends bracket the root.  Bisection passes through that
same cell, so every interval, exact root and point is bit for bit the one
plain bisection gives; a guess that fails the check (NaN, overflow, a
wrong cell, a root at a cell end) leaves plain bisection to do the work.
The Sturm sequences and plane substitutions that a root's signs need are
built once per square-free factor and polynomial, within one count call.

A system that no listed shear puts in a countable position, or that has
any other shape the counts do not cover, raises :class:`NoExactCount` with
the reason; nothing is ever rounded to make it fit.

Univariate polynomials are coefficient lists in ascending order, with no
trailing zero (``[]`` is the zero polynomial); plane polynomials are dicts
``{(i, j): c}`` for ``c x^i y^j``, and other multivariate ones dicts over
their exponent tuples.
"""

from __future__ import annotations

import math
import operator
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
# a float Newton guess of a root picks the bisection cell about
# 2^-_GUESS_BITS relative wide that holds it, within _NEWTON_STEPS steps
_GUESS_BITS = 44
_NEWTON_STEPS = 100


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
# univariate kernels, in integers


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
    coefficient that is a rational multiple of the integer polynomial ``a``."""
    a = _trim(a)
    if not a:
        return []
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


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
    """Exact quotient ``a / b`` of integer polynomials, in integers.

    The quotient has integer coefficients wherever it is used: by Gauss's
    lemma when b is primitive and divides a over Q, and by Sylvester's
    identity in :func:`_det`.  A division that is not exact in Z[x] raises
    :class:`InvariantViolation`.
    """
    a, lead, n = list(a), b[-1], len(b)
    q = [0] * max(len(a) - n + 1, 0)
    for shift in range(len(q) - 1, -1, -1):
        c, r = divmod(a[shift + n - 1], lead)
        if r:
            break
        if c:
            q[shift] = c
            for i, v in enumerate(b):
                a[shift + i] -= c * v
    if any(a):
        raise InvariantViolation("an exact polynomial division left a remainder")
    return q


def _hom(p, n, d, deg):
    """``d^deg p(n / d)`` in integers, by Horner, for ``deg >= deg p``."""
    acc, power = 0, d ** (deg - len(p) + 1) if p else 1
    for c in reversed(p):
        acc = acc * n + c * power
        power *= d
    return acc


def _value(p, t):
    """``p(t)`` exactly, for a rational t."""
    n, d = t.numerator, t.denominator
    deg = max(len(p) - 1, 0)
    return Fraction(_hom(p, n, d, deg), d**deg)


def _sign(p, n, d=1):
    """Sign of the integer polynomial ``p`` at ``n / d`` (integers, d > 0)."""
    v = _hom(p, n, d, len(p) - 1)
    return (v > 0) - (v < 0)


def _sturm(p):
    """Sturm sequence of the square-free part of ``p``.

    With a square-free first member, :func:`_count` is right on every
    ``(a, b]``, also when a or b is a root.
    """
    p = _primitive(p)
    seq = [p, _primitive(_deriv(p))]
    while seq[-1]:
        seq.append(_neg(_rem(seq[-2], seq[-1])))
    seq.pop()
    if len(seq[-1]) > 1:
        # the last member is gcd(p, p') up to a constant: start again from
        # the square-free part
        return _sturm(_quo(p, _primitive(seq[-1])))
    return seq


def _variations(seq, n, d=1):
    """Sign changes along the Sturm sequence ``seq`` at ``n / d`` (d > 0)."""
    changes, last = 0, 0
    for p in seq:
        sign = _sign(p, n, d)
        if sign:
            changes += last and sign != last
            last = sign
    return changes


def _count(seq, lo, hi, den=1):
    """Number of distinct roots in ``(lo/den, hi/den]`` of the first
    polynomial of the Sturm sequence ``seq`` (integers, den > 0)."""
    return _variations(seq, lo, den) - _variations(seq, hi, den)


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
    return 2 + max(abs(c) for c in p[:-1]) // abs(p[-1])


def _isolate(seq, lo, hi, den):
    """Disjoint intervals ``(a/e, b/e]`` within ``(lo/den, hi/den]``, as
    integer triples ``(a, b, e)`` in increasing order, each holding exactly
    one root of the square-free first member of the Sturm sequence
    ``seq``.  Each bisection halves an interval at its midpoint, and the
    Sturm variations at each end are read once."""
    todo = [(lo, hi, den, _variations(seq, lo, den), _variations(seq, hi, den))]
    out = []
    while todo:
        a, b, d, va, vb = todo.pop()
        if va - vb == 1:
            out.append((a, b, d))
        elif va - vb > 1:
            mid, d = a + b, 2 * d
            vm = _variations(seq, mid, d)
            # the right half below the left, so the left one is taken first
            todo += [(mid, 2 * b, d, vm, vb), (2 * a, mid, d, va, vm)]
    return out


class _Factor:
    """One square-free integer polynomial ``p`` whose roots a count refines.

    It holds what its roots share: the Sturm sequence of p, and for each
    polynomial q that a root is asked the sign of, the Sturm sequences of
    ``gcd(p, q)`` and of q, each built on first use.  It lives as long as
    one count call.
    """

    def __init__(self, p):
        self.p = p
        self.seq = _sturm(p)
        self._common, self._sturms = {}, {}

    def common(self, q):
        """Sturm sequence of ``gcd(p, q)``, or None where it is constant."""
        key = tuple(q)
        if key not in self._common:
            g = _gcd(self.p, q)
            self._common[key] = _sturm(g) if len(g) > 1 else None
        return self._common[key]

    def sturm(self, q):
        """Sturm sequence of q."""
        key = tuple(q)
        if key not in self._sturms:
            self._sturms[key] = _sturm(q)
        return self._sturms[key]


def _float_guess(root):
    """A float near the root, for :meth:`_Root.refine`.

    Newton steps on p in floats, inside a bracket that each step's float
    sign narrows (p has the sign ``root.top`` above the root and the other
    one below it), with a bisection of the bracket where a step leaves it.
    The result may be anything, NaN where the floats overflow: it is only a
    guess.
    """
    try:
        coeffs = [float(c) for c in reversed(root.p)]
        a, b = root.lo / root.den, root.hi / root.den
    except OverflowError:
        return math.nan
    x = 0.5 * (a + b)
    for _ in range(_NEWTON_STEPS):
        fx = dfx = 0.0
        for c in coeffs:
            dfx = dfx * x + fx
            fx = fx * x + c
        if fx == 0 or fx != fx:
            return x
        if (fx > 0) == (root.top > 0):
            b = x
        else:
            a = x
        step = x - fx / dfx if dfx else math.nan
        if not a < step < b:
            step = 0.5 * (a + b)
        if abs(step - x) <= 1e-15 * abs(x):
            return step
        x = step
    return x


class _Root:
    """The one root of a square-free integer polynomial ``p`` in
    ``(lo/den, hi/den]``, with integer ends over the least common
    denominator and ``lo >= 0``; ``exact`` is the root itself once it is
    known as a rational, else None.  ``factor`` is the :class:`_Factor` of
    p."""

    def __init__(self, factor, lo, hi, den):
        g = math.gcd(lo, hi, den)
        self.factor, self.p = factor, factor.p
        self.lo, self.hi, self.den = lo // g, hi // g, den // g
        self.top = _sign(self.p, self.hi, self.den)
        self.exact = Fraction(self.hi, self.den) if self.top == 0 else None

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

    def _jump(self, guess):
        """Move to the bisection cell about ``2^-_GUESS_BITS`` relative wide
        that holds the float ``guess``, when exact signs at both its ends
        bracket the root; else stay.

        Every halving keeps ``hi - lo``, so the cells of k halvings are
        ``(lo 2^k + j w, lo 2^k + (j + 1) w]`` over ``den 2^k``, with
        ``w = hi - lo``.  When the root is inside one of them, with nonzero
        signs at its ends, no midpoint on the way there is the root and each
        halving keeps the half that holds it.  With ``lo >= 0`` the right
        end only grows on the way, and the cell is far wider than
        ``2^-_ROOT_BITS`` relative, so :meth:`refine` bisects through the
        same state.
        """
        if not (guess > 0 and math.isfinite(guess)):
            return
        w = self.hi - self.lo
        k = _GUESS_BITS + w.bit_length() - self.den.bit_length() - math.frexp(guess)[1]
        if k <= 0:
            return
        n, d = guess.as_integer_ratio()
        j = ((n * self.den - self.lo * d) << k) // (w * d)
        if not 0 <= j < 1 << k:
            return
        lo, den = (self.lo << k) + j * w, self.den << k
        hi = lo + w
        if _sign(self.p, lo, den) == -self.top and _sign(self.p, hi, den) == self.top:
            self.lo, self.hi, self.den = lo, hi, den

    def refine(self):
        """Bisect below ``2^-_ROOT_BITS`` relative width and recognize a
        rational root exactly.

        A float Newton guess jumps to a cell of the bisection on the way
        (:meth:`_jump`), so the interval and ``exact`` end bit for bit as
        plain bisection leaves them.
        """
        if self.exact is None:
            self._jump(_float_guess(self))
        while self.exact is None and (self.hi - self.lo) << _ROOT_BITS > self.hi:
            self.halve()
        # a rational root of p has a denominator that divides lc(p), so the
        # interval holds a multiple of 1 / lc(p) wherever a rational can be
        # found in it
        lead = abs(self.p[-1])
        if self.exact is None and (self.hi * lead) // self.den * self.den > self.lo * lead:
            r = Fraction(self.lo + self.hi, 2 * self.den).limit_denominator(_RATIONAL_DENOMINATOR)
            n, d = r.numerator, r.denominator
            if self.lo * d < n * self.den <= self.hi * d and _sign(self.p, n, d) == 0:
                self.exact = r
        return self

    def sign_of(self, q):
        """Sign of the integer polynomial ``q`` at the root, exactly."""
        if self.exact is None:
            common = self.factor.common(q)
            if common is not None and _count(common, self.lo, self.hi, self.den):
                return 0
            # q does not vanish at the root: narrow until it has no root
            # in (a, b]
            seq = self.factor.sturm(q)
            while self.exact is None and _count(seq, self.lo, self.hi, self.den):
                self.halve()
        if self.exact is None:
            return _sign(q, self.hi, self.den)
        return _sign(q, self.exact.numerator, self.exact.denominator)


def _positive_roots(p, hi=None):
    """Refined roots of the square-free ``p`` in ``(0, hi]`` (all positive
    roots by default; hi an integer or a Fraction)."""
    if len(p) < 2:
        return []
    factor = _Factor(p)
    hi = _root_bound(p) if hi is None else hi
    return [
        _Root(factor, a, b, d).refine()
        for a, b, d in _isolate(factor.seq, 0, hi.numerator, hi.denominator)
    ]


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
    out = {}
    for e, c in f.items():
        for e2, c2 in g.items():
            key = tuple(map(operator.add, e, e2))
            out[key] = out.get(key, 0) + c * c2
    return {e: c for e, c in out.items() if c}


def _powers(f, top):
    """``[f^0, f^1, ..., f^top]`` of a multivariate polynomial."""
    out = [{(0,) * len(next(iter(f))): 1}]
    for _ in range(top):
        out.append(_pmul(out[-1], f))
    return out


def _grouped(poly, slot):
    """``poly`` as ``{k: g_k}`` with ``poly = sum_k g_k v^k`` for the
    variable v of exponent ``slot``, each ``g_k`` over the other exponents."""
    out = {}
    for e, c in poly.items():
        out.setdefault(e[slot], {})[e[:slot] + e[slot + 1:]] = c
    return out


def _integer_terms(engine):
    """The engine's Ricci coefficients times one positive integer, the least
    common denominator of all their terms, so that every coefficient is an
    integer.  Every equation built from them is then that integer times the
    one built from the engine's own terms, and its primitive form is the
    same."""
    terms = engine.terms()
    scale = math.lcm(*(c.denominator for poly in terms for c in poly.values()))
    return [{e: c.numerator * (scale // c.denominator) for e, c in poly.items()} for poly in terms]


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

    ricci = [diagonal(poly) for poly in _integer_terms(engine)[:s]]
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
    system = [_grouped(eq, n) for eq in _einstein_equations(engine, _integer_terms(engine))]
    # each power of the determinant is formed once, for the terms it
    # multiplies together
    powers = _powers(det, max(max(groups) - min(groups) for groups in system))
    equations = []
    for groups in system:
        low = min(groups)
        expanded = _combine(
            term for m, g in groups.items() for term in _pmul(g, powers[m - low]).items()
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
    """Determinants of polynomial matrices that share all columns but one.

    ``rows`` are n rows of integer polynomials, n - 1 + t wide; returns the
    t determinants of the first n - 1 columns with each further column
    last, in order (a square matrix gives a list of its determinant alone).
    Fraction-free Bareiss elimination (E. H. Bareiss, *Math. Comp.* 22,
    1968) clears the shared columns once: step k replaces each entry below
    and right of the pivot by a 2x2 minor divided by the previous pivot, a
    division that is exact in Z[u], so everything stays in integers.  A
    zero pivot is swapped with a row below, which flips the sign.
    """
    m = [list(row) for row in rows]
    n = len(m)
    if not n:
        return [[1]]
    width = len(m[0])
    sign, prev = 1, [1]
    for k in range(n - 1):
        if not m[k][k]:
            below = next((i for i in range(k + 1, n) if m[i][k]), None)
            if below is None:
                return [[] for _ in range(width - n + 1)]
            m[k], m[below] = m[below], m[k]
            sign = -sign
        pivot, row = m[k][k], m[k]
        for i in range(k + 1, n):
            lead, other = m[i][k], m[i]
            for j in range(k + 1, width):
                minor = _mul(other[j], pivot)
                if lead and row[j]:
                    minor = _add(minor, _neg(_mul(lead, row[j])))
                other[j] = _quo(minor, prev) if prev != [1] else minor
        prev = pivot
    last = m[-1][n - 1:]
    return last if sign > 0 else [_neg(v) for v in last]


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
    return _det([row[:lead] + [row[width - 1 - i] for i in range(j + 1)] for row in rows])


class _Lift:
    """The map ``t -> (xt(t) / den(t), yt(t) / den(t))`` from the roots t
    of one count to plane points, with ``den^deg f(xt / den, yt / den)``, a
    polynomial in t, built once for each plane polynomial f it is asked
    about."""

    def __init__(self, xt, yt, den):
        self.xt, self.yt, self.den = xt, yt, den
        self._numerators = {}

    def numerator(self, f):
        key = frozenset(f.items())
        if key not in self._numerators:
            deg = max(i + j for i, j in f)
            powers = []
            for v in (self.xt, self.yt, self.den):
                powers.append([[1]])
                for _ in range(deg):
                    powers[-1].append(_mul(powers[-1][-1], v))
            num = []
            for (i, j), c in f.items():
                term = _mul(_mul(powers[0][i], powers[1][j]), powers[2][deg - i - j])
                num = _add(num, [c * v for v in term])
            self._numerators[key] = num, deg
        return self._numerators[key]


class _PlaneRoot:
    """One positive common root ``(x, y)`` of two plane curves.

    ``t`` is a refined :class:`_Root` of a univariate polynomial, and the
    root is ``(x, y)`` of t under ``lift``, a :class:`_Lift` whose ``den``
    is nonzero at t.  ``point`` holds (x, y) as rationals at the end of t's
    interval when the root was found (the root itself where t is exact),
    and ``multiplicity`` the multiplicity of the root of the resultant it
    lies over.
    """

    def __init__(self, t, lift, multiplicity):
        self.t, self.lift = t, lift
        b = t.b
        d = _value(lift.den, b)
        self.point = (_value(lift.xt, b) / d, _value(lift.yt, b) / d)
        self.multiplicity = multiplicity

    def sign_of(self, f):
        """Sign of the plane polynomial ``f`` at the root, exactly."""
        if not f:
            return 0
        num, deg = self.lift.numerator(f)
        return self.t.sign_of(num) * self.t.sign_of(self.lift.den) ** deg


def _fiber(F1, F2, u, k, m):
    """Solutions over the rational u where the subresultant degenerates.

    The common roots y of the two equations specialized at u, with
    ``x = u - k y`` positive, as :class:`_PlaneRoot` of multiplicity m.
    """
    n, d = u.numerator, u.denominator
    # each equation at u, times a positive integer
    G1, G2 = ([_hom(c, n, d, max(map(len, F)) - 1) for c in F] for F in (F1, F2))
    G = _gcd(G1, G2)
    G = _primitive(_quo(G, _gcd(G, _deriv(G))))
    top = u / k
    # x = (n - k d y) / d and y = d y / d
    lift = _Lift([n, -k * d], [0, d], [d])
    return [_PlaneRoot(y, lift, m) for y in _positive_roots(G, top) if y.exact != top]


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
    lift = _Lift(xs11, _neg(s10), s11)
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
                found.append(_PlaneRoot(root, lift, m))
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


def _plane_values(fs, x, y):
    """The values of the plane polynomials ``fs`` at the rationals (x, y),
    each times one common positive integer, in integers."""
    d = math.lcm(x.denominator, y.denominator)
    X, Y = x.numerator * (d // x.denominator), y.numerator * (d // y.denominator)
    deg = max(i + j for f in fs for i, j in f)
    return [sum(c * X**i * Y**j * d ** (deg - i - j) for (i, j), c in f.items()) for f in fs]


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
    # the powers of -p0 and p1 are formed once, for both equations
    top = max(k for f in (f1, f2) for _, _, k in f)
    minus_p0 = _powers({e: -c for e, c in p0.items()}, top)
    powers1 = _powers(p1, top)

    def eliminate(f):
        # f(x, y, -p0 / p1) p1^d for the degree d of f in B
        groups = _grouped(f, 2)
        d = max(groups)
        out = _combine(
            term
            for k, g in groups.items()
            for term in _pmul(g, _pmul(minus_p0[k], powers1[d - k])).items()
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
            v0, v1 = _plane_values((p0, p1), x, y)
            b = _square_root(Fraction(-v0, v1))
            found += [((x, y, b), root.multiplicity), ((x, y, -b), root.multiplicity)]
    return _exact_count(found, shear)
