import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicyclic_spectra import (
    Polynomial,
    PolynomialError,
    char_poly,
    count_real_roots,
    eval_at_sqrt,
    evaluate_exact,
    max_real_root,
    family_quotient,
    named_polynomial,
    phi1_sign_holds,
    polynomials,
    rational_pstar_functions,
    sign_at_sqrt,
)
from bicyclic_spectra.quotient import SIGN_LEDGER
from conftest import (_reference_squarefree, _reference_sturm, poly_derivative, poly_divmod,
                      poly_gcd, reference_char_poly, reference_count_real_roots,
                      reference_eval_at_sqrt, reference_max_real_root, reference_real_roots,
                      reference_sign_at_sqrt)


def cauchy_bound(p: Polynomial) -> Fraction:
    return 1 + max(abs(Fraction(c)) for c in p.coeffs) / abs(p.coeffs[-1])


def top_root_reference(p: Polynomial, lo, hi) -> float:
    """Largest root by isolating every root in the bracket."""
    return reference_real_roots(p, lo, hi)[-1]


def close_roots(a: float, b: float) -> bool:
    # both are midpoints of brackets narrower than 1e-14 around the same root
    return math.isclose(a, b, rel_tol=1e-15, abs_tol=1e-14)


class TestPolynomialBasics:
    def test_normalization(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1 and p.coeffs == (1, 2)
        assert Polynomial([0, 0]).is_zero()

    def test_arithmetic(self):
        p = Polynomial([1, 1])      # 1 + x
        q = Polynomial([-1, 1])     # -1 + x
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (2 * p).coeffs == (2, 2)
        assert p.shift_up(2).coeffs == (0, 0, 1, 1)

    def test_int_and_fraction_coefficients_compare_equal(self):
        p, q = Polynomial([Fraction(3), 1]), Polynomial([3, 1])
        assert p == q and hash(p) == hash(q)
        assert Polynomial([Fraction(1, 2), 1]) != q

    def test_call_horner(self):
        p = Polynomial([Fraction(1), Fraction(-2), Fraction(1)])
        assert p(Fraction(3)) == Fraction(4)
        assert p(1) == 0

    def test_derivative(self):
        assert poly_derivative(Polynomial([5, 0, 3])).coeffs == (0, 6)

    def test_divmod_and_gcd(self):
        p = Polynomial([Fraction(-1), Fraction(0), Fraction(1)])  # x^2 - 1
        d = Polynomial([Fraction(-1), Fraction(1)])               # x - 1
        q, r = poly_divmod(p, d)
        assert r.is_zero() and q.coeffs == (1, 1)
        assert poly_gcd(p, d).coeffs == (-1, 1)

    def test_descending_str(self):
        p = Polynomial([2000, -984, -4, 1])
        assert p.to_descending_str("L") == "L^3 - 4*L^2 - 984*L + 2000"


class TestCharPoly:
    def test_one_by_one(self):
        assert char_poly([[Fraction(7)]]).coeffs == (-7, 1)

    def test_companion_of_known_poly(self):
        # companion matrix of x^3 - 2x - 5
        m = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
        assert char_poly(m).coeffs == (-5, -2, 0, 1)

    def test_float_matrix_rejected(self):
        with pytest.raises(PolynomialError, match="rational entries"):
            char_poly(np.array([[0.0, 2.5], [2.5, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(PolynomialError):
            char_poly([[1, 2, 3], [4, 5, 6]])

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_on_random_integer_matrices(self, rows):
        p = char_poly(rows)
        vals = np.linalg.eigvals(np.array(rows, dtype=float))
        # evaluate the exact char poly at the numerical eigenvalues
        for lam in vals:
            acc = 0.0 + 0j
            for c in reversed(p.coeffs):
                acc = acc * lam + float(c)
            assert abs(acc) < 1e-6 * max(1.0, abs(lam)) ** 3 + 1e-6


class TestRealRoots:
    def test_cubic_with_rational_roots(self):
        p = Polynomial([0, -1, 0, 1])
        assert count_real_roots(p, -2, 2) == 3
        assert max_real_root(p, -2, 2) == 1.0
        assert max_real_root(p, -2, Fraction(1, 2)) == pytest.approx(0, abs=1e-14)
        assert max_real_root(p, -2, Fraction(-1, 2)) == pytest.approx(-1, abs=1e-14)

    def test_double_root_multiplicity(self):
        p = Polynomial([1, -2, 1])  # (x - 1)^2: one distinct root
        assert count_real_roots(p, 0, 2) == 1
        assert max_real_root(p, 0, 2) == pytest.approx(1, abs=1e-14)

    def test_triple_root(self):
        p = Polynomial([-1, 3, -3, 1]) * Polynomial([-5, 1])  # (x - 1)^3 (x - 5)
        assert count_real_roots(p, 0, 10) == 2
        assert max_real_root(p, 0, 10) == pytest.approx(5, abs=1e-14)
        assert max_real_root(p, 0, 2) == pytest.approx(1, abs=1e-14)

    def test_irrational_roots(self):
        p = Polynomial([-2, 0, 1])
        assert count_real_roots(p, 0, 2) == 1
        assert max_real_root(p, 0, 2) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_respects_interval(self):
        p = Polynomial([0, -1, 0, 1])
        assert count_real_roots(p, 0.5, 2) == 1
        assert max_real_root(p, 0.5, 2) == pytest.approx(1, abs=1e-14)
        assert max_real_root(p, -2, -0.5) == pytest.approx(-1, abs=1e-14)

    def test_count_real_roots(self):
        p = Polynomial([Fraction(0), Fraction(-1), Fraction(0), Fraction(1)])
        assert count_real_roots(p, -2, 2) == 3
        assert count_real_roots(p, Fraction(1, 2), 2) == 1

    def test_errors(self):
        with pytest.raises(PolynomialError, match="polynomial has no roots"):
            max_real_root(Polynomial([]))
        with pytest.raises(PolynomialError, match="polynomial has no roots"):
            max_real_root(Polynomial([Fraction(3)]))
        with pytest.raises(PolynomialError, match="polynomial has no roots"):
            max_real_root(Polynomial([0.5]))  # the degree check comes before exactness

    def test_max_real_root_default_bracket(self):
        assert max_real_root(Polynomial([-6, 11, -6, 1])) == pytest.approx(3, abs=1e-9)

    def test_count_rejects_reversed_bracket(self):
        p = Polynomial([-6, 11, -6, 1])  # (x - 1)(x - 2)(x - 3)
        with pytest.raises(PolynomialError, match="empty bracket"):
            count_real_roots(p, 5, 0)
        with pytest.raises(PolynomialError, match="empty bracket"):
            count_real_roots(p, Fraction(1, 3), 1e-300)
        assert count_real_roots(p, 2, 2) == count_real_roots(p, 4, 4) == 0

    @given(st.lists(st.integers(-6, 6), min_size=3, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_roots_actually_vanish(self, coeffs):
        p = Polynomial([Fraction(c) for c in coeffs])
        if p.is_zero() or p.degree < 1:
            return
        if count_real_roots(p, -50, 50) == 0:
            return
        scale = max(1.0, max(abs(float(c)) for c in p.coeffs))
        r = max_real_root(p, -50, 50)
        assert abs(p(r)) <= 1e-6 * scale * (1 + abs(r)) ** p.degree


class TestMaxRealRoot:
    def test_family_quotient_polynomials(self):
        polys = [char_poly(family_quotient(tag, n, f).b)
                 for f in rational_pstar_functions()
                 for tag in ("G2", "G3", "G4") for n in range(6, 15)]
        assert len(polys) == 162
        for p in polys:
            b = cauchy_bound(p)
            assert close_roots(max_real_root(p), top_root_reference(p, -b, b)), p

    def test_repeated_top_root(self):
        # (x - 2)^3 (x + 1)
        p = Polynomial([-8, 4, 6, -5, 1])
        b = cauchy_bound(p)
        assert close_roots(max_real_root(p), top_root_reference(p, -b, b))
        assert max_real_root(p) == pytest.approx(2, abs=1e-14)

    def test_root_on_bracket_ends(self):
        p = Polynomial([3, -4, 1])  # (x - 1)(x - 3)
        assert max_real_root(p, 0, 3) == 3.0 == top_root_reference(p, 0, 3)
        assert max_real_root(p, 1, 2) == 1.0 == top_root_reference(p, 1, 2)

    def test_no_real_roots(self):
        with pytest.raises(PolynomialError, match="no real roots"):
            max_real_root(Polynomial([1, 0, 1]))
        with pytest.raises(PolynomialError, match="no real roots"):
            max_real_root(Polynomial([3, -4, 1]), 4, 5)

    def test_reversed_bracket(self):
        p = Polynomial([-6, 11, -6, 1])  # (x - 1)(x - 2)(x - 3)
        with pytest.raises(PolynomialError, match="empty bracket"):
            max_real_root(p, 5, 0)
        with pytest.raises(PolynomialError, match="empty bracket"):
            max_real_root(p, lo=13)  # above the default hi, the Cauchy bound 12
        # lo == hi: the root if lo is one, else no root
        assert max_real_root(p, 2, 2) == 2.0
        with pytest.raises(PolynomialError, match="no real roots"):
            max_real_root(p, Fraction(5, 2), Fraction(5, 2))

    def test_rejects_inexact_coefficients(self):
        for p in (Polynomial([0.5, 1.0]), Polynomial([1.0, -2.0, 1.0])):
            with pytest.raises(PolynomialError, match="requires exact coefficients"):
                max_real_root(p)

    @pytest.mark.parametrize("end", [math.inf, -math.inf, math.nan])
    def test_non_finite_bracket_ends(self, end):
        # Fraction's OverflowError (an infinity) and ValueError (NaN) do not leak
        p = Polynomial([-2, 0, 1])
        for call in (lambda: max_real_root(p, lo=end), lambda: max_real_root(p, hi=end),
                     lambda: max_real_root(p, end, end), lambda: count_real_roots(p, end, 2),
                     lambda: count_real_roots(p, 0, end)):
            with pytest.raises(PolynomialError, match="bracket ends must be finite"):
                call()

    def test_sturm_sequence_of_inexact_coefficients(self):
        # float and numpy coefficients are read exactly, as their integer ratios
        sturm = polynomials.sturm_sequence
        assert sturm(Polynomial([0.5, 1.0])) == [(2, 1), (1,)]
        assert sturm(Polynomial([-2.5, 0.0, 1.0])) == [(2, 0, -5), (1, 0), (1,)]
        assert sturm(Polynomial([np.int64(-2), 0, 1])) == [(1, 0, -2), (1, 0), (1,)]

    @given(st.lists(st.integers(-6, 6), min_size=3, max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_matches_full_isolation(self, coeffs):
        p = Polynomial([Fraction(c) for c in coeffs])
        if p.degree < 1:
            return
        b = cauchy_bound(p)
        roots = reference_real_roots(p, -b, b)
        if not roots:
            with pytest.raises(PolynomialError):
                max_real_root(p)
            return
        assert close_roots(max_real_root(p), roots[-1])


class TestSqrtEvaluation:
    def test_exact_zero(self):
        p = Polynomial([Fraction(-2), Fraction(0), Fraction(1)])  # x^2 - 2
        assert sign_at_sqrt(p, 1, 2) == 0
        u, v = eval_at_sqrt(p, Fraction(1), Fraction(2))
        assert (u, v) == (0, 0)

    def test_signs(self):
        p = Polynomial([Fraction(-3), Fraction(0), Fraction(1)])  # x^2 - 3
        assert sign_at_sqrt(p, 1, 2) == -1   # 2 - 3 < 0
        assert sign_at_sqrt(p, 1, 4) == 1    # 4 - 3 > 0
        q = Polynomial([Fraction(-1), Fraction(1)])  # x - 1
        assert sign_at_sqrt(q, Fraction(1, 2), 2) == -1  # sqrt(2)/2 < 1
        assert sign_at_sqrt(q, 1, 2) == 1

    def test_mixed_sign_comparison(self):
        # p(x) = x - c with c between sqrt(2) approximants exercises U<0<V
        q = Polynomial([Fraction(-141421, 100000), Fraction(1)])
        assert sign_at_sqrt(q, 1, 2) == 1
        q = Polynomial([Fraction(-141422, 100000), Fraction(1)])
        assert sign_at_sqrt(q, 1, 2) == -1

    def test_decomposition_matches_float(self):
        p = Polynomial([Fraction(4), Fraction(-3), Fraction(0), Fraction(2)])
        r, s = Fraction(7, 3), Fraction(5)
        u, v = eval_at_sqrt(p, r, s)
        x = float(r) * math.sqrt(5)
        assert float(u) + float(v) * math.sqrt(5) == pytest.approx(
            2 * x ** 3 - 3 * x + 4, rel=1e-12)

    def test_requires_exact(self):
        with pytest.raises(PolynomialError):
            eval_at_sqrt(Polynomial([0.5, 1.0]), Fraction(1), Fraction(2))
        with pytest.raises(PolynomialError):
            sign_at_sqrt(Polynomial([1, 1]), 1, -2)


def same_surd(p: Polynomial, r, s) -> None:
    """eval_at_sqrt and sign_at_sqrt equal the Fraction reference."""
    u, v = eval_at_sqrt(p, r, s)
    assert (u, v) == reference_eval_at_sqrt(p, r, s)
    assert type(u) is Fraction and type(v) is Fraction
    assert sign_at_sqrt(p, r, s) == reference_sign_at_sqrt(p, r, s)


def random_rational(rng, bound: int, den_max: int):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den_max))


class TestSurdMatchesReference:
    def test_random_polynomials_and_points(self):
        rng = random.Random(1501)
        for trial in range(3000):
            deg = rng.randint(-1, 8)  # -1 is the zero polynomial
            coeffs = [rng.randint(-30, 30) if rng.random() < 0.5 else random_rational(rng, 30, 12)
                      for _ in range(deg + 1)]
            r = rng.choice([Fraction(0), random_rational(rng, 9, 1), random_rational(rng, 9, 7)])
            root = Fraction(rng.randint(0, 6), rng.randint(1, 4))
            s = rng.choice([Fraction(0), root * root, Fraction(rng.randint(0, 60), rng.randint(1, 9))])
            if trial % 3 == 0 and root * root == s:
                # a factor vanishing at r*sqrt(s): U and V of opposite signs that cancel
                coeffs = (Polynomial(coeffs or [1]) * Polynomial([-r * root, 1])).coeffs
            elif trial % 3 == 1 and rng.random() < 0.3:
                coeffs = [0 if k % 2 == 0 else c for k, c in enumerate(coeffs)]  # U = 0
            same_surd(Polynomial(coeffs), r, s)

    def test_sign_ledger_points_to_60(self):
        for cond in SIGN_LEDGER:
            for n in range(cond.n_min, 61):
                r, s = cond.point(n)
                same_surd(named_polynomial(cond.poly_name, n, cond.weight), r, s)

    def test_phi1_points_every_rational_weight(self):
        for f in rational_pstar_functions():
            for n in range(6, 61):
                p, r = named_polynomial("phi1", n, f), evaluate_exact(f, n - 1, 1)
                same_surd(p, r, n - 1)
                assert phi1_sign_holds(f, n) == (reference_sign_at_sqrt(p, r, n - 1) == -1)


def family_matrices():
    return [family_quotient(tag, n, f).b for f in rational_pstar_functions()
            for tag in ("G2", "G3", "G4") for n in range(6, 15)]


def same_max_root(p: Polynomial, lo=None, hi=None) -> None:
    """max_real_root equals the Fraction reference as a float, or both raise."""
    try:
        expected = reference_max_real_root(p, lo, hi)
    except PolynomialError:
        with pytest.raises(PolynomialError):
            max_real_root(p, lo, hi)
        return
    assert max_real_root(p, lo, hi) == expected


def typed(p: Polynomial) -> list:
    """p's coefficients with their types, so 3 and Fraction(3) differ."""
    return [(type(c), c) for c in p.coeffs]


def same_char_poly(rows) -> Polynomial:
    p, ref = char_poly(rows), reference_char_poly(rows)
    assert typed(p) == typed(ref) and all(type(c) is Fraction for c in p.coeffs)
    return p


def primitive_ints(q: Polynomial) -> tuple[int, ...]:
    """q's descending coefficients as its primitive integer multiple (same signs)."""
    d = math.lcm(*(Fraction(c).denominator for c in q.coeffs))
    ints = [int(c * d) for c in reversed(q.coeffs)]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def sturm_used_by_max_real_root(p: Polynomial) -> list:
    """The Sturm sequence max_real_root isolates p's largest root with: what
    the private entry that sturm_sequence shares returns to it."""
    seen = []
    inner = polynomials._squarefree_sturm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomials, "_squarefree_sturm", lambda q: seen.append(inner(q)) or seen[-1])
        try:
            max_real_root(p)
        except PolynomialError:  # no real root; the sequence was built first
            pass
    assert len(seen) == 1
    return seen[0]


def reference_primitive_sturm(p: Polynomial) -> list:
    return [primitive_ints(q) for q in _reference_sturm(_reference_squarefree(p))]


@st.composite
def repeated_root_polynomials(draw):
    """c * prod (x - r)^m, some m >= 2, times an integer factor."""
    p = Polynomial([draw(st.sampled_from([-3, -1, 1, 2]))])
    roots = draw(st.lists(st.tuples(st.fractions(-6, 6, max_denominator=5), st.integers(1, 3)),
                          min_size=1, max_size=4))
    roots[0] = (roots[0][0], max(roots[0][1], 2))
    for root, mult in roots:
        for _ in range(mult):
            p = p * Polynomial([-root, 1])
    extra = Polynomial(draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4)))
    return p if extra.is_zero() else p * extra


RATIONALS = st.one_of(st.just(0), st.integers(-4, 4),
                      st.fractions(min_value=-5, max_value=5, max_denominator=12))


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 6))
    return [[draw(RATIONALS) for _ in range(n)] for _ in range(n)]


def sturm_counts(p: Polynomial, lo=None, hi=None) -> int:
    """Sturm-sequence evaluations max_real_root makes on p in [lo, hi]."""
    calls = []
    inner = polynomials._variations_at
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomials, "_variations_at", lambda *a: calls.append(a) or inner(*a))
        try:
            max_real_root(p, lo, hi)
        except PolynomialError:
            pass
    return len(calls)


def from_roots(*roots, times: Polynomial = Polynomial([1])) -> Polynomial:
    p = times
    for r in roots:
        p = p * Polynomial([-Fraction(r), 1])
    return p


class TestSeededIsolation:
    """A float estimate proposes a sub-bracket, Sturm counts certify it, and
    the root is the bisection's from the whole bracket, bit for bit."""

    def test_family_roots_take_three_sturm_counts(self):
        # the count at hi, at the seed's top end and at its bottom end; the
        # unseeded isolation made about 20 per family polynomial
        # (test_family_quotient_polynomials checks their roots bit for bit)
        assert [sturm_counts(char_poly(m)) for m in family_matrices()] == [3] * 162

    @pytest.mark.parametrize("root", [1000, Fraction(123457, 7), 10 ** 5 + Fraction(1, 3),
                                      Fraction(10 ** 7, 3), 9999999, 10 ** 7])
    def test_large_roots(self, root):
        # the seed's bracket is relative to the root, so it holds above 300,
        # where a float cannot place a root within 1e-14
        p = from_roots(root, 1, -root / 2)
        same_max_root(p)
        assert sturm_counts(p) == 3

    def test_close_large_roots(self):
        p = from_roots(10 ** 6, 10 ** 6 + Fraction(1, 10 ** 6), 3)
        same_max_root(p)
        same_max_root(p, 10 ** 6 - 1, 10 ** 6 + 1)

    def test_complex_roots(self):
        # Newton's method from above lands below the top root 6, on the root -2
        lands_low = from_roots(-4, -2, 6, times=Polynomial([64 + Fraction(1, 100), -16, 1]))
        assert polynomials._top_root_estimate(polynomials.sturm_sequence(lands_low)[0]) == -2.0
        eps2 = Fraction(1, 10 ** 6)
        for p in (lands_low,
                  from_roots(1, times=Polynomial([9 + eps2, -6, 1])),  # stalls near 3 +- 1e-3 i
                  from_roots(1, 2, times=Polynomial([9 + eps2, -6, 1])),
                  from_roots(2, times=Polynomial([1, 0, 1])),
                  from_roots(-5, times=Polynomial([1, 1, 0, 0, 1])),
                  from_roots(*range(1, 8), times=Polynomial([100, 0, 1])),
                  Polynomial([1, 0, 1]), Polynomial([1, 0, 0, 0, 1])):  # no real root: both raise
            same_max_root(p)

    def test_roots_on_seed_bracket_ends(self):
        # an exact root, proposed exactly, is the top end b of its seed bracket
        # (a, b]; the sign test at b returns it
        for p, lo, hi, root in [(from_roots(1, -1), None, None, 1.0),
                                (from_roots(1, 3), 0, 4, 3.0),
                                (from_roots(0, -1), None, None, 0.0),
                                (from_roots(Fraction(5, 4), Fraction(-3, 8)), -1, 2, 1.25)]:
            same_max_root(p, lo, hi)
            assert max_real_root(p, lo, hi) == root
            assert sturm_counts(p, lo, hi) == 3

    @pytest.mark.parametrize("lo,hi", [(0, 3), (6, 9), (-9, 0), (0, 5 - Fraction(1, 10 ** 20)),
                                       (5 + Fraction(1, 10 ** 20), 6), (1, 1), (5, 5),
                                       (Fraction(49999, 10 ** 4), Fraction(50001, 10 ** 4)),
                                       (-1.5, 4.999999999999999)])
    def test_brackets_that_exclude_the_float_root(self, lo, hi):
        same_max_root(from_roots(1, 5), lo, hi)  # the estimate is 5.0

    def test_narrow_bracket_around_a_root(self):
        p = Polynomial([-2, 0, 1])
        same_max_root(p, Fraction(14142135623, 10 ** 10), Fraction(14142135624, 10 ** 10))
        same_max_root(p, 1.4142135623730950, 1.4142135623730951)

    def test_wrong_proposals_fall_back(self, monkeypatch):
        # proposals that are no root, a lower root, or a few seed brackets (at
        # most 2**-38 * |x| wide) off the top root fail their Sturm counts;
        # the halvings then start from the whole bracket and return the same float
        polys = [char_poly(m) for m in family_matrices()[::9]]
        polys += [from_roots(1, 5), from_roots(-4, -2, 6), from_roots(10 ** 6, 3, -1)]
        lowest = [reference_real_roots(p, -cauchy_bound(p), cauchy_bound(p))[0] for p in polys]
        true_estimate = polynomials._top_root_estimate
        for propose in (lambda x, lower: math.nan, lambda x, lower: math.inf,
                        lambda x, lower: -math.inf, lambda x, lower: lower,
                        lambda x, lower: x * (1 + 2.0 ** -36), lambda x, lower: x * (1 - 2.0 ** -36),
                        lambda x, lower: x + 1e6, lambda x, lower: -1e300):
            for p, lower in zip(polys, lowest):
                monkeypatch.setattr(polynomials, "_top_root_estimate",
                                    lambda q: propose(true_estimate(q), lower))
                same_max_root(p)
            monkeypatch.undo()


class TestFractionFreeMatchesReference:
    """The integer char_poly and Sturm evaluator against the Fraction code."""

    def test_family_quotient_polynomials(self):
        polys = [same_char_poly(m) for m in family_matrices()]
        assert len(polys) == 162
        for p in polys:
            b = cauchy_bound(p)
            assert max_real_root(p) == reference_max_real_root(p)
            assert count_real_roots(p, 0, b) == reference_count_real_roots(p, 0, b)

    def test_family_sturm_sequences(self):
        for p in (char_poly(m) for m in family_matrices()):
            assert sturm_used_by_max_real_root(p) == reference_primitive_sturm(p)

    @given(repeated_root_polynomials())
    @settings(max_examples=80, deadline=None)
    def test_sturm_sequences_with_repeated_roots(self, p):
        assert sturm_used_by_max_real_root(p) == reference_primitive_sturm(p)

    def test_root_path_divides_no_polynomial(self, monkeypatch):
        # Polynomial arithmetic (division, gcd, derivative) builds Polynomials;
        # the root path works on integer tuples and builds none
        polys = [char_poly(m) for m in family_matrices()]
        calls = []

        def counted(self, coeffs, inner=Polynomial.__init__):
            calls.append(coeffs)
            inner(self, coeffs)

        monkeypatch.setattr(Polynomial, "__init__", counted)
        for p in polys:
            max_real_root(p)
            count_real_roots(p, 0, cauchy_bound(p))
        assert calls == []

    def test_family_char_poly_accepts_numpy_object_arrays(self):
        for m in family_matrices()[::27]:
            assert typed(char_poly(np.array(m, dtype=object))) == typed(reference_char_poly(m))

    @given(rational_matrices())
    @settings(max_examples=60, deadline=None)
    def test_random_rational_matrices(self, rows):
        p = same_char_poly(rows)
        same_max_root(p)
        sym = [[rows[i][j] + rows[j][i] for j in range(len(rows))] for i in range(len(rows))]
        q = same_char_poly(sym)
        same_max_root(q)

    @pytest.mark.parametrize("factors", [
        [(2, 3), (-1, 1)],
        [(Fraction(1, 3), 2), (Fraction(-5, 2), 3)],
        [(0, 2), (1, 2), (-1, 1)],
        [(Fraction(7, 5), 4)],
    ])
    def test_repeated_roots(self, factors):
        p = Polynomial([1])
        for root, mult in factors:
            for _ in range(mult):
                p = p * Polynomial([-Fraction(root), Fraction(1)])
        b = cauchy_bound(p)
        same_max_root(p)
        assert count_real_roots(p, -b, b) == reference_count_real_roots(p, -b, b) == len(factors)

    def test_roots_on_bisection_midpoints(self):
        p = Polynomial([0, -1, 0, 1])  # x(x - 1)(x + 1); Cauchy bracket [-2, 2]
        for lo, hi in [(None, None), (-2, 2), (-4, 4), (Fraction(-3), 1), (-1, 3)]:
            same_max_root(p, lo, hi)
        assert max_real_root(p) == 1.0  # found on the second midpoint

    @pytest.mark.parametrize("lo,hi", [(1, 3), (0, 3), (1, 2), (3, 5), (-1, 1), (2, 3)])
    def test_roots_at_bracket_ends(self, lo, hi):
        p = Polynomial([3, -4, 1])  # (x - 1)(x - 3)
        same_max_root(p, lo, hi)
        assert count_real_roots(p, lo, hi) == reference_count_real_roots(p, lo, hi)

    @given(st.lists(st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                 max_denominator=10 ** 30), min_size=2, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_large_denominators(self, coeffs):
        p = Polynomial(coeffs)
        if p.degree < 1:
            return
        same_max_root(p)

    def test_large_denominator_examples(self):
        p = Polynomial([Fraction(-2, 10 ** 40), Fraction(0), Fraction(1, 3 ** 30)])
        q = Polynomial([Fraction(123456789123456789, 10 ** 25), Fraction(-1, 7 ** 20),
                        Fraction(0), Fraction(11, 13 ** 15)])
        for poly in (p, q, p * q):
            same_max_root(poly)

    @pytest.mark.parametrize("lo,hi", [
        (-2, 2), (0, 1), (-1, 0),
        (-2.0, 2.0), (0.5, 1.5), (0.1, 0.9), (-1.0, 1e-300),
        (Fraction(-1), Fraction(1)), (Fraction(-1, 3), Fraction(7, 3)), (Fraction(1, 10 ** 20), 1),
        (-1, 0.5), (Fraction(-3, 2), 2.0),
    ])
    def test_count_real_roots_bound_types(self, lo, hi):
        cubic = Polynomial([0, -1, 0, 1])
        for p in (cubic, Polynomial([Fraction(-1, 4), 0, 1]) * cubic, Polynomial([1, 0, 1]),
                  cubic * cubic * Polynomial([Fraction(-1, 2), 1])):
            assert count_real_roots(p, lo, hi) == reference_count_real_roots(p, lo, hi)
