"""Univariate polynomials with exact rational coefficients.

Provides what the exact verdicts use: characteristic polynomials via
fraction-free Faddeev-LeVerrier, Sturm root counting and bisection to the
largest real root (exact coefficients only, in integers: a primitive
pseudo-remainder sequence, the square-free part by exact division, both
bracket ends over one shared denominator and every sign by integer Horner),
and exact sign evaluation at quadratic-surd points r*sqrt(s) (every sign
condition in the source material evaluates at such a point, so signs are
certified without floating point; one positive factor clears every
denominator, so the evaluation and the sign comparison run on integers).
Polynomial division and gcds over Fraction live in the tests, as the
reference the integer routines are checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Union

import numpy as np

Coeff = Union[int, Fraction, float]
# bisection stops once the bracket is narrower than 1/ROOT_SCALE and returns its midpoint
ROOT_SCALE = 10 ** 14
# a float estimate of the top root proposes a bracket about 2**-SEED_BITS of its size wide
SEED_BITS = 40
NEWTON_STEPS = 200  # at most this many Newton steps for that estimate


class PolynomialError(ValueError):
    pass


def _norm(coeffs: Iterable[Coeff]) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Polynomial:
    """Polynomial stored as ascending coefficients; exact when all rational."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff]):
        self.coeffs = _norm(coeffs)

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial([])
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def shift_up(self, k: int) -> "Polynomial":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return Polynomial([0] * k + list(self.coeffs))

    def __repr__(self):
        return f"Polynomial({self.to_descending_str()})"

    def to_descending_str(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            body = f"{mag}" if k == 0 else (var if k == 1 else f"{var}^{k}")
            if k > 0 and mag != 1:
                body = f"{mag}*{body}"
            terms.append(("- " if c < 0 else "+ ") + body)
        head = terms[0].replace("+ ", "").replace("- ", "-")
        return " ".join([head] + terms[1:])


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier, exact on rational matrices)
# ---------------------------------------------------------------------------


def char_poly(matrix) -> Polynomial:
    """det(xI - M) with exact rational coefficients; M needs rational entries.

    Fraction-free: Faddeev-LeVerrier on the integer matrix D*M, D the lcm of
    the denominators, divides exactly by k; x**(n-k) gets Fraction(c_k, D**k).
    A float entry raises PolynomialError.
    """
    rows = [list(r) for r in (matrix.tolist() if isinstance(matrix, np.ndarray) else matrix)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PolynomialError("char_poly requires a square matrix")
    if n == 0:
        return Polynomial([1])
    if not all(isinstance(x, (int, Fraction)) for r in rows for x in r):
        raise PolynomialError("char_poly requires rational entries")
    d = math.lcm(*(x.denominator for r in rows for x in r))
    a = [[x.numerator * (d // x.denominator) for x in r] for r in rows]
    m = [[0] * n for _ in range(n)]
    c = [1]  # c[0] multiplies x^n
    for k in range(1, n + 1):
        # M_k = A (M_{k-1} + c_{k-1} I)
        for i in range(n):
            m[i][i] += c[-1]
        cols = list(zip(*m))
        m = [[sum(map(mul, row, col)) for col in cols] for row in a]
        c.append(-sum(m[i][i] for i in range(n)) // k)
    return Polynomial([Fraction(ck, d ** k) for k, ck in reversed(list(enumerate(c)))])


# ---------------------------------------------------------------------------
# Exact evaluation at r*sqrt(s)
# ---------------------------------------------------------------------------


def _surd_ints(p: Polynomial, r: Fraction, s: Fraction) -> tuple[int, int, int]:
    """Integers (U, V, F) with F * p(r*sqrt(s)) = U + V*sqrt(s): for r = a/b, s = c/d and
    den the lcm of p's denominators, F = den * b**deg * d**(deg // 2) > 0 clears them all."""
    if not p.is_exact():
        raise PolynomialError("eval_at_sqrt requires exact coefficients")
    if s < 0:
        raise PolynomialError("sqrt argument must be nonnegative")
    a, b, c, d = r.numerator, r.denominator, s.numerator, s.denominator
    deg = max(p.degree, 0)
    den = math.lcm(*(ck.denominator for ck in p.coeffs))
    uv = [0, 0]
    for k, ck in enumerate(p.coeffs):
        if ck:
            uv[k % 2] += (ck.numerator * (den // ck.denominator) * a ** k * b ** (deg - k)
                          * c ** (k // 2) * d ** (deg // 2 - k // 2))
    return uv[0], uv[1], den * b ** deg * d ** (deg // 2)


def eval_at_sqrt(p: Polynomial, r: Fraction, s: Fraction) -> tuple[Fraction, Fraction]:
    """Exact (U, V) with p(r*sqrt(s)) = U + V*sqrt(s); requires exact coeffs."""
    u, v, scale = _surd_ints(p, Fraction(r), Fraction(s))
    return Fraction(u, scale), Fraction(v, scale)


def sign_at_sqrt(p: Polynomial, r, s) -> int:
    """Exact sign of p(r*sqrt(s)) in {-1, 0, +1}: that of U when U and V agree, else
    that of the larger of |U| and |V|*sqrt(c/d), compared as U**2 * d against V**2 * c."""
    s = Fraction(s)
    u, v, _ = _surd_ints(p, Fraction(r), s)
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su == sv:
        return su
    diff = u * u * s.denominator - v * v * s.numerator
    return su if diff > 0 else sv if diff < 0 else 0


# ---------------------------------------------------------------------------
# Largest-root isolation: Sturm sequence + bisection, all in integers
# ---------------------------------------------------------------------------


def _primitive(ints: Iterable[int]) -> tuple[int, ...]:
    """ints without leading zeros, divided by their positive gcd."""
    ints = list(ints)
    ints = ints[next((i for i, c in enumerate(ints) if c), len(ints)):]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def _pseudo_divide(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Long division of a by b in integers, scaling the dividend by a divisor
    of |lc(b)| where a step needs it, so no sign flips: (quot, rem) with rem
    a positive multiple of rem(a, b).  When b is primitive and divides a, no
    step scales (Gauss's lemma) and quot is a / b."""
    quot, r = [], list(a)
    for k in range(len(a) - len(b) + 1):
        s = abs(b[0]) // math.gcd(r[k], b[0])
        quot.append(s * r[k] // b[0])
        r = [s * c for c in r]
        for i in range(1, len(b)):
            r[k + i] -= quot[-1] * b[i]
    return quot, r[len(a) - len(b) + 1:]


def _sturm(q: tuple[int, ...]) -> list[tuple[int, ...]]:
    deg = len(q) - 1
    seq = [q, _primitive(c * (deg - i) for i, c in enumerate(q[:-1]))]
    while len(seq[-1]) > 1:
        rem = _primitive(-c for c in _pseudo_divide(seq[-2], seq[-1])[1])
        if not rem:
            break
        seq.append(rem)
    return seq


def _integer_coeffs(p: Polynomial) -> tuple[int, ...]:
    """Descending coefficients of p's primitive integer multiple (same signs), floats exactly."""
    ratios = [(c.numerator, c.denominator) if isinstance(c, (int, Fraction))
              else tuple(map(int, Fraction(c).as_integer_ratio())) for c in reversed(p.coeffs)]
    d = math.lcm(*(den for _, den in ratios))
    return _primitive(num * (d // den) for num, den in ratios)


def sturm_sequence(p: Polynomial) -> list[tuple[int, ...]]:
    """Sturm sequence of p's square-free part, each member as the descending
    coefficients of its primitive integer multiple (same signs).  Built from
    integer pseudo-remainders, it equals the Euclidean sequence over Fraction.
    p's own sequence ends in gcd(p, p') up to a constant factor; p divided by
    it exactly, with p's leading sign, is the square-free part."""
    return _squarefree_sturm(_integer_coeffs(p))


def _squarefree_sturm(ints: tuple[int, ...]) -> list[tuple[int, ...]]:
    seq = _sturm(ints)
    if len(seq[-1]) > 1:
        quot = _pseudo_divide(seq[0], seq[-1])[0]
        seq = _sturm(tuple(c if seq[-1][0] > 0 else -c for c in quot))
    return seq


def _sign_at(q: tuple[int, ...], num: int, den: int) -> int:
    """Sign of q(num/den), den > 0, as that of den**deg * q(num/den) by integer Horner."""
    acc, scale = 0, 1
    for c in q:
        acc, scale = acc * num + c * scale, scale * den
    return (acc > 0) - (acc < 0)


def _variations_at(seq: list[tuple[int, ...]], num: int, den: int) -> int:
    """Sign changes along seq at num/den, zeros skipped."""
    signs = [v for v in (_sign_at(q, num, den) for q in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _bracket(lo, hi) -> tuple[int, int, int]:
    """(a, b, d) with lo = a/d and hi = b/d over one shared denominator d."""
    try:
        lo, hi = Fraction(lo), Fraction(hi)
    except (OverflowError, ValueError) as exc:  # an infinite or NaN end
        raise PolynomialError(f"bracket ends must be finite: {exc}") from None
    if lo > hi:
        raise PolynomialError("empty bracket: lo > hi")
    d = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def count_real_roots(p: Polynomial, lo, hi) -> int:
    """Number of distinct real roots of an exact polynomial in (lo, hi]."""
    if not p.is_exact():
        raise PolynomialError("count_real_roots requires exact coefficients")
    a, b, d = _bracket(lo, hi)
    seq = sturm_sequence(p)
    return _variations_at(seq, a, d) - _variations_at(seq, b, d)


def _refine_bracket(q: tuple[int, ...], a: int, b: int, d: int) -> float:
    """Bisect [a/d, b/d], where q changes sign, doubling d at each halving."""
    going_up = _sign_at(q, a, d) < 0
    while (b - a) * ROOT_SCALE >= d:
        mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        v = _sign_at(q, mid, d)
        if v == 0:
            return float(Fraction(mid, d))
        if (v < 0) == going_up:
            a = mid
        else:
            b = mid
    return float(Fraction(a + b, 2 * d))


def _top_root_estimate(q: tuple[int, ...]) -> float:
    """A float near the largest real root of q (descending ints, square-free):
    Newton's method in floats from Fujiwara's bound, which lies above every
    root, until a step no longer decreases x.  From above the top root this
    converges to it when every root is real; with complex roots it may stop
    anywhere, so the caller only takes the value as a proposal."""
    try:
        c = [x / q[0] for x in q]  # monic
    except OverflowError:
        return math.nan
    deg = len(c) - 1
    x = 2 * max([abs(c[k]) ** (1 / k) for k in range(1, deg)] + [abs(c[deg] / 2) ** (1 / deg)])
    for _ in range(NEWTON_STEPS):
        f = df = 0.0
        for coef in c:
            f, df = f * x + coef, df * x + f
        nxt = x - f / df if df else math.nan
        if not nxt < x:
            break
        x = nxt
    return x


def _seed(seq: list[tuple[int, ...]], a: int, b: int, d: int, v_b: int):
    """(a, b, d, k) of the dyadic sub-bracket of [a/d, b/d], about
    2**-SEED_BITS * |x| wide, that holds a float estimate x of the top root,
    when two Sturm counts certify it: no root above its top end (its count
    equals v_b, that of b/d) and k >= 1 roots in it; else None.  It is a
    bracket of the lattice that halving [a/d, b/d] visits, never finer than
    where _refine_bracket stops, so the halvings go on from it as they would
    have gone on from [a/d, b/d]."""
    x, w = _top_root_estimate(seq[0]), b - a
    if not (math.isfinite(x) and w):
        return None
    stop = (w * ROOT_SCALE // d).bit_length()  # the depth at which _refine_bracket stops
    j = min(stop, max(0, w.bit_length() - d.bit_length() - math.frexp(x)[1] + SEED_BITS))
    num, den = x.as_integer_ratio()
    i = -(-((num * d - a * den) << j) // (w * den)) - 1  # x in (a_i, a_i + w], over d << j
    if not 0 <= i < 1 << j:
        return None
    a, d = (a << j) + i * w, d << j
    if _variations_at(seq, a + w, d) != v_b:
        return None
    k = _variations_at(seq, a, d) - v_b
    return (a, a + w, d, k) if k else None


def max_real_root(p: Polynomial, lo=None, hi=None) -> float:
    """Largest real root of an exact polynomial in [lo, hi]; default bracket
    is the Cauchy root bound, computed in integers on p's primitive multiple.

    A float estimate proposes a narrow sub-bracket of the bisection lattice
    and Sturm counts certify it (_seed); the halvings then start there, and
    from the whole bracket when the proposal is not certified.  Either way
    they end on the same bracket, so the float returned is the same."""
    if p.is_zero() or p.degree == 0:
        raise PolynomialError("polynomial has no roots")
    if not p.is_exact():
        raise PolynomialError("max_real_root requires exact coefficients")
    ints = _integer_coeffs(p)
    lead = abs(ints[0])
    b, d = _primitive((lead + max(map(abs, ints)), lead))  # Cauchy b/d, lowest terms: same lattice
    a, b, d = (-b, b, d) if lo is None and hi is None else _bracket(
        Fraction(-b, d) if lo is None else lo, Fraction(b, d) if hi is None else hi)
    # halve towards the upper half while it holds a root, then refine the top root alone
    seq = _squarefree_sturm(ints)
    q = seq[0]
    v_b = _variations_at(seq, b, d)
    # the certified seed, else the whole bracket, with k its roots in (a/d, b/d]
    a, b, d, k = _seed(seq, a, b, d, v_b) or (a, b, d, _variations_at(seq, a, d) - v_b)
    if _sign_at(q, b, d) == 0:
        return float(Fraction(b, d))
    if k == 0:
        if _sign_at(q, a, d) == 0:
            return float(Fraction(a, d))
        raise PolynomialError("no real roots in bracket")
    while k > 1 or _sign_at(q, a, d) == 0:
        mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        v_mid = _variations_at(seq, mid, d)
        if v_mid > v_b:
            a, k = mid, v_mid - v_b
        elif _sign_at(q, mid, d) == 0:
            return float(Fraction(mid, d))
        else:
            b, v_b = mid, v_mid
    return _refine_bracket(q, a, b, d)
