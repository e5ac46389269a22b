"""Univariate polynomials with exact rational coefficients.

Provides the pieces the verification campaigns lean on: characteristic
polynomials via fraction-free Faddeev-LeVerrier, Descartes sign-variation
bounds, Sturm root counting and bisection to the largest real root (each
sign read off integer Horner on a primitive integer polynomial), and exact
sign evaluation at quadratic-surd points r*sqrt(s) (every sign condition in
the source material evaluates at such a point, so signs are certified
without floating point).  Root counting and isolation take exact
coefficients only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

Coeff = Union[int, Fraction, float]
# bracket width at which bisection stops and returns the midpoint
ROOT_TOL = Fraction(1, 10 ** 14)


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

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Polynomial([Fraction(c) / lead for c in self.coeffs])

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

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "coefficients_ascending": [
                str(c) if isinstance(c, Fraction) else c for c in self.coeffs
            ],
            "exact": self.is_exact(),
        }

    # -- exact division / gcd ----------------------------------------------

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise PolynomialError("division by zero polynomial")
        rem = [Fraction(c) for c in self.coeffs]
        den = [Fraction(c) for c in other.coeffs]
        dq = len(rem) - len(den)
        if dq < 0:
            return Polynomial([]), Polynomial(rem)
        quot = [Fraction(0)] * (dq + 1)
        for k in range(dq, -1, -1):
            factor = rem[k + len(den) - 1] / den[-1]
            quot[k] = factor
            if factor:
                for i, d in enumerate(den):
                    rem[k + i] -= factor * d
        return Polynomial(quot), Polynomial(rem)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
            if not b.is_zero():
                b = b.monic()
        return a.monic() if not a.is_zero() else a


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier, exact on rational matrices)
# ---------------------------------------------------------------------------


def char_poly(matrix) -> Polynomial:
    """det(xI - M) with exact rational coefficients when entries are rational.

    Fraction-free: Faddeev-LeVerrier on the integer matrix D*M, D the lcm of
    the denominators, divides exactly by k; x**(n-k) gets Fraction(c_k, D**k).
    Inexact matrices fall back to eigenvalue-based float coefficients.
    """
    rows = [list(r) for r in (matrix.tolist() if isinstance(matrix, np.ndarray) else matrix)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PolynomialError("char_poly requires a square matrix")
    if n == 0:
        return Polynomial([1])
    exact = all(isinstance(x, (int, Fraction)) for r in rows for x in r)
    if not exact:
        vals = np.linalg.eigvals(np.asarray(rows, dtype=float))
        coeffs = np.poly(vals)  # descending, leading 1
        if np.max(np.abs(coeffs.imag)) > 1e-8 * max(1.0, np.max(np.abs(coeffs.real))):
            raise PolynomialError("characteristic polynomial has non-real coefficients")
        return Polynomial(list(coeffs.real[::-1]))
    d = math.lcm(*(Fraction(x).denominator for r in rows for x in r))
    a = [[int(x * d) for x in r] for r in rows]
    m = [[0] * n for _ in range(n)]
    c = [1]  # c[0] multiplies x^n
    for k in range(1, n + 1):
        # M_k = A (M_{k-1} + c_{k-1} I)
        for i in range(n):
            m[i][i] += c[-1]
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in a]
        c.append(-sum(m[i][i] for i in range(n)) // k)
    return Polynomial([Fraction(ck, d ** k) for k, ck in reversed(list(enumerate(c)))])


# ---------------------------------------------------------------------------
# Descartes' rule of signs
# ---------------------------------------------------------------------------


def _sign_variations(coeffs: Sequence[Coeff]) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def descartes_bounds(p: Polynomial) -> tuple[int, int]:
    """(bound on positive roots, bound on negative roots) by sign variations."""
    if p.is_zero():
        raise PolynomialError("Descartes bounds undefined for the zero polynomial")
    pos = _sign_variations(p.coeffs)
    neg = _sign_variations([c if k % 2 == 0 else -c for k, c in enumerate(p.coeffs)])
    return pos, neg


# ---------------------------------------------------------------------------
# Exact evaluation at r*sqrt(s)
# ---------------------------------------------------------------------------


def eval_at_sqrt(p: Polynomial, r: Fraction, s: Fraction) -> tuple[Fraction, Fraction]:
    """Exact (U, V) with p(r*sqrt(s)) = U + V*sqrt(s); requires exact coeffs."""
    if not p.is_exact():
        raise PolynomialError("eval_at_sqrt requires exact coefficients")
    r, s = Fraction(r), Fraction(s)
    if s < 0:
        raise PolynomialError("sqrt argument must be nonnegative")
    u = Fraction(0)
    v = Fraction(0)
    rk = Fraction(1)
    for k, c in enumerate(p.coeffs):
        if c:
            half = s ** (k // 2)
            if k % 2 == 0:
                u += c * rk * half
            else:
                v += c * rk * half
        rk *= r
    return u, v


def sign_at_sqrt(p: Polynomial, r, s) -> int:
    """Exact sign of p(r*sqrt(s)) in {-1, 0, +1}."""
    u, v = eval_at_sqrt(p, Fraction(r), Fraction(s))
    s = Fraction(s)
    if v == 0 or s == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return 1 if v > 0 else -1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    # mixed signs: compare |U|^2 against |V|^2 * s
    lhs, rhs = u * u, v * v * s
    if lhs == rhs:
        return 0
    big_is_u = lhs > rhs
    return (1 if u > 0 else -1) if big_is_u else (1 if v > 0 else -1)


# ---------------------------------------------------------------------------
# Largest-root isolation: Sturm sequence + bisection
# ---------------------------------------------------------------------------


def sturm_sequence(p: Polynomial) -> list[tuple[int, ...]]:
    """p's Sturm sequence, built in Fraction, each member as the descending
    coefficients of its primitive integer multiple (same signs); [0] is p's."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero() and seq[-1].degree > 0:
        rem = seq[-2].divmod(seq[-1])[1]
        if rem.is_zero():
            break
        seq.append(-1 * rem)
    out = []
    for q in (q for q in seq if not q.is_zero()):
        d = math.lcm(*(Fraction(c).denominator for c in q.coeffs))
        ints = [int(c * d) for c in reversed(q.coeffs)]
        g = math.gcd(*ints)
        out.append(tuple(c // g for c in ints))
    return out


def _sign_at(q: tuple[int, ...], x: Fraction) -> int:
    """Sign of q(x), x = num/den, as that of den**deg * q(x) by integer Horner."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in q:
        acc, scale = acc * num + c * scale, scale * den
    return (acc > 0) - (acc < 0)


def _variations_at(seq: list[tuple[int, ...]], x: Fraction) -> int:
    return _sign_variations([_sign_at(q, x) for q in seq])


def count_real_roots(p: Polynomial, lo, hi) -> int:
    """Number of distinct real roots of an exact polynomial in (lo, hi]."""
    if not p.is_exact():
        raise PolynomialError("count_real_roots requires exact coefficients")
    seq = sturm_sequence(_squarefree_part(p))
    return _variations_at(seq, Fraction(lo)) - _variations_at(seq, Fraction(hi))


def _squarefree_part(p: Polynomial) -> Polynomial:
    g = p.gcd(p.derivative())
    if g.degree <= 0:
        return p
    return p.divmod(g)[0]


def _refine_bracket(q: tuple[int, ...], a: Fraction, b: Fraction) -> Fraction:
    going_up = _sign_at(q, a) < 0
    while b - a >= ROOT_TOL:
        mid = (a + b) / 2
        v = _sign_at(q, mid)
        if v == 0:
            return mid
        if (v < 0) == going_up:
            a = mid
        else:
            b = mid
    return (a + b) / 2


def max_real_root(p: Polynomial, lo=None, hi=None) -> float:
    """Largest real root of an exact polynomial in [lo, hi]; default bracket
    is the Cauchy root bound."""
    if p.is_zero() or p.degree == 0:
        raise PolynomialError("polynomial has no roots")
    if not p.is_exact():
        raise PolynomialError("max_real_root requires exact coefficients")
    bound = 1 + max(abs(Fraction(c)) for c in p.coeffs) / abs(p.coeffs[-1])
    lo = -bound if lo is None else lo
    hi = bound if hi is None else hi
    # halve towards the upper half while it holds a root, then refine the top root alone
    seq = sturm_sequence(_squarefree_part(p))
    q = seq[0]
    a, b = Fraction(lo), Fraction(hi)
    if _sign_at(q, b) == 0:
        return float(b)
    v_b = _variations_at(seq, b)
    k = _variations_at(seq, a) - v_b  # roots in (a, b]
    if k == 0:
        if _sign_at(q, a) == 0:
            return float(a)
        raise PolynomialError("no real roots in bracket")
    while k > 1 or _sign_at(q, a) == 0:
        mid = (a + b) / 2
        v_mid = _variations_at(seq, mid)
        if v_mid > v_b:
            a, k = mid, v_mid - v_b
        elif _sign_at(q, mid) == 0:
            return float(mid)
        else:
            b, v_b = mid, v_mid
    return float(_refine_bracket(q, a, b))
