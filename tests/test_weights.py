import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicyclic_spectra import (
    WeightFunction,
    WeightSpecError,
    check_pstar,
    evaluate,
    evaluate_exact,
    parse_weight,
    rational_pstar_functions,
)
from bicyclic_spectra import weights
from bicyclic_spectra.weights import _evaluate_generic
from conftest import (REFERENCE_KINDS, reference_evaluate_exact, reference_evaluate_generic,
                      reference_exp_pstar, reference_parse_weight)

ALL_BUILTINS = [
    WeightFunction("constant_one"),
    WeightFunction("zagreb1"),
    WeightFunction("hyper_zagreb"),
    WeightFunction("forgotten"),
    WeightFunction("sum_connectivity", alpha=1.5),
    WeightFunction("platt", alpha=2),
    WeightFunction("sombor", alpha=2, beta=1.5),
    WeightFunction("exp_zagreb1"),
    WeightFunction("exp_sum_connectivity", alpha=1),
    WeightFunction("exp_sombor", alpha=1, beta=1),
    WeightFunction("extended"),
]


class TestEvaluate:
    def test_zagreb1(self):
        assert evaluate(WeightFunction("zagreb1"), 2, 2) == 4

    def test_extended_pendant_to_hub(self):
        # 0.5*((n-1) + 1/(n-1)) at n=5
        assert evaluate(WeightFunction("extended"), 1, 4) == pytest.approx(2.125)
        assert evaluate_exact(WeightFunction("extended"), 1, 4) == Fraction(17, 8)

    def test_forgotten(self):
        assert evaluate(WeightFunction("forgotten"), 3, 1) == 10

    def test_hyper_and_sum_connectivity(self):
        assert evaluate(WeightFunction("hyper_zagreb"), 2, 3) == 25
        assert evaluate(WeightFunction("sum_connectivity", alpha=3), 2, 3) == 125

    def test_platt_zero_corner(self):
        # (x+y-2)^a vanishes at (1,1); adjacent degree-1 endpoints only occur
        # in the 2-vertex graph, never inside a bicyclic graph
        assert evaluate(WeightFunction("platt", alpha=2), 1, 1) == 0

    def test_exp_kinds(self):
        assert evaluate(WeightFunction("exp_zagreb1"), 1, 2) == pytest.approx(math.exp(3))
        assert evaluate(WeightFunction("exp_sombor", alpha=2, beta=1), 1, 2) == \
            pytest.approx(math.exp(5))

    def test_exp_kind_is_exp_of_its_exponent(self):
        # bit for bit the closed forms e**(x+y), e**((x+y)**a), e**((x**a+y**a)**b)
        for a, b in ((1, 1), (1.5, 1.5), (2, 0.5)):
            for x in range(1, 7):
                for y in range(1, 7):
                    assert evaluate(WeightFunction("exp_zagreb1"), x, y) == math.exp(x + y)
                    assert evaluate(WeightFunction("exp_sum_connectivity", alpha=a), x, y) == \
                        math.exp((x + y) ** a)
                    assert evaluate(WeightFunction("exp_sombor", alpha=a, beta=b), x, y) == \
                        math.exp((x ** a + y ** a) ** b)

    def test_overflow_names_weight_and_degrees(self):
        f = parse_weight("exp_sum_connectivity:a=3")
        assert evaluate(f, 5, 3) == math.exp(512)
        with pytest.raises(WeightSpecError, match=r"exp_sum_connectivity:a=3 .*\(11,2\)"):
            evaluate(f, 11, 2)
        with pytest.raises(WeightSpecError, match=r"\(1,4\)"):
            evaluate(parse_weight("sum_connectivity:a=500.5"), 1, 4)
        assert evaluate_exact(parse_weight("sum_connectivity:a=500.5"), 1, 4) is None

    def test_domain_validation(self):
        with pytest.raises(WeightSpecError):
            evaluate(WeightFunction("zagreb1"), 0.5, 2)

    @pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda f: f.label())
    def test_symmetry_on_grid(self, f):
        for x in range(1, 9):
            for y in range(1, 9):
                assert evaluate(f, x, y) == evaluate(f, y, x)

    @pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda f: f.label())
    def test_positive_on_grid(self, f):
        for x in range(1, 9):
            for y in range(1, 9):
                if f.kind == "platt" and x == y == 1:
                    continue  # documented zero corner
                assert evaluate(f, x, y) > 0

    @given(x=st.integers(1, 30), y=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_exact_matches_float(self, x, y):
        for f in rational_pstar_functions() + (WeightFunction("extended"),):
            exact = evaluate_exact(f, x, y)
            assert exact is not None
            assert float(exact) == pytest.approx(evaluate(f, x, y), rel=1e-12)

    def test_exact_is_none_for_irrational(self):
        assert evaluate_exact(WeightFunction("exp_zagreb1"), 2, 3) is None
        assert evaluate_exact(WeightFunction("sum_connectivity", alpha=1.5), 2, 3) is None
        assert evaluate_exact(parse_weight("sum_connectivity:a=0.5"), 2, 3) is None

    def test_exact_type_is_int_when_integral(self):
        five_quarters = evaluate_exact(WeightFunction("extended"), 1, 2)
        assert five_quarters == Fraction(5, 4) and type(five_quarters) is Fraction
        assert type(evaluate_exact(WeightFunction("extended"), 3, 3)) is int
        assert type(evaluate_exact(WeightFunction("constant_one"), 1, 2)) is int

    @pytest.mark.parametrize("f", rational_pstar_functions() + (parse_weight("custom:x/y+y/x"),),
                             ids=lambda f: f.label())
    def test_exact_equals_fraction_evaluation(self, f):
        for x in range(1, 21):
            for y in range(1, 21):
                v, ref = evaluate_exact(f, x, y), _evaluate_generic(f, Fraction(x), Fraction(y))
                assert v == ref
                assert type(v) is (int if ref.denominator == 1 else Fraction)


# every catalogue kind, negative integer powers among them, and every valid
# custom expression the tests use
EXACT_ROUTE_WEIGHTS = ALL_BUILTINS + list(rational_pstar_functions()) + [parse_weight(t) for t in (
    "sum_connectivity:a=-1", "sum_connectivity:a=-3", "platt:a=-1", "sombor:a=2,b=-1",
    "sombor:a=-1,b=2", "sum_connectivity:a=0.5", "custom:x/y+y/x", "custom:(x*y+1)/(x+y)",
    "custom:(x+y)^3", "custom:x**2+y**2+x+y", "custom:x*y", "custom:x*y+x+y",
    "custom:x^2+y^2+x*y", "custom:(x+y)^-2", "custom:x^-1+y^-1")]


def _outcome(fn, *args):
    """fn(*args) with its type, or the type of the error it raises."""
    try:
        value = fn(*args)
    except (ZeroDivisionError, OverflowError, WeightSpecError) as exc:
        return type(exc)
    return value, type(value)


class TestExactRouteMatchesReference:
    """evaluate_exact on int degrees against the Fraction-degree route."""

    @pytest.mark.parametrize("f", EXACT_ROUTE_WEIGHTS, ids=lambda f: f.label())
    def test_values_on_grid(self, f):
        for x in range(1, 21):
            for y in range(1, 21):
                assert _outcome(evaluate_exact, f, x, y) == \
                    _outcome(reference_evaluate_exact, f, x, y), (x, y)

    def test_negative_powers_stay_exact(self):
        assert evaluate_exact(parse_weight("sum_connectivity:a=-1"), 1, 2) == Fraction(1, 3)
        assert evaluate_exact(parse_weight("custom:x^-1+y^-1"), 2, 3) == Fraction(5, 6)
        assert evaluate_exact(WeightFunction("extended"), 2, 3) == Fraction(13, 12)

    @pytest.mark.parametrize("a", [3, -1, 300, 400, -400])
    def test_powers_within_twice_float_range_stay_exact(self, a):
        # 40**400 has 2,129 bits, past a float's 1,024: still exact, as before
        f = parse_weight(f"sum_connectivity:a={a}")
        for x, y in [(1, 1), (1, 12), (20, 20)]:
            assert evaluate_exact(f, x, y) == Fraction(x + y) ** a

    @pytest.mark.parametrize("spec", ["sum_connectivity:a=100000000",
                                      "sum_connectivity:a=-100000000", "platt:a=100000000",
                                      "sombor:a=2,b=100000000"])
    def test_huge_integral_powers_take_the_float_route(self, spec):
        # the exact power would hold about 10**8 * log2(13) bits per degree pair
        f = parse_weight(spec)
        assert evaluate_exact(f, 6, 7) is None
        if "-" in spec:
            assert evaluate(f, 6, 7) == 0.0  # underflows
        else:
            with pytest.raises(WeightSpecError, match=r"overflows a float at degrees \(6,7\)"):
                evaluate(f, 6, 7)

    def test_huge_custom_power_is_rejected_when_parsed(self):
        with pytest.raises(WeightSpecError, match=r"non-finite at \(1,1\)"):
            parse_weight("custom:(x+y)**100000000")

    def test_unit_bases_stay_exact_at_any_power(self):
        assert evaluate_exact(parse_weight("platt:a=100000000"), 1, 2) == 1
        assert evaluate_exact(parse_weight("platt:a=100000001"), 1, 1) == 0

    @pytest.mark.parametrize("f", EXACT_ROUTE_WEIGHTS, ids=lambda f: f.label())
    def test_pstar_reports(self, f, monkeypatch):
        report = _outcome(check_pstar.__wrapped__, f, 20)
        monkeypatch.setattr(weights, "evaluate_exact", reference_evaluate_exact)
        assert report == _outcome(check_pstar.__wrapped__, f, 20)


# every kind, every alias, negative and fractional alpha and beta, and weights
# undefined or beyond float range on part of the degree grid
CATALOGUE_SPECS = [
    "constant_one", "1", "one", "const", "zagreb1", "hyper_zagreb", "forgotten",
    "sum_connectivity:a=3", "sum_connectivity:a=-1", "sum_connectivity:alpha=0.5",
    "sum_connectivity:a=-1.5", "platt:a=2", "platt:a=-1", "platt:a=0.5", "platt:a=-0.5",
    "sombor:a=2,b=2", "sombor:a=-1,b=2", "sombor:a=0.5,b=-1.5", "sombor:alpha=-2,beta=0.5",
    "exp_zagreb1", "exp_sum_connectivity:a=-1", "exp_sum_connectivity:a=0.5",
    "exp_sum_connectivity:a=3", "exp_sombor:a=2,b=0.5", "exp_sombor:a=-1,b=-2", "extended",
    "custom:(x+y)^3", "custom:x^-1+y^-1", "custom:sqrt(x*y)",
    "custom:sqrt(13-x)+sqrt(13-y)+1", "custom:log(x*y)+1",
]
# missing, unused, repeated, unknown and malformed parameters, unknown kinds, rejected expressions
REJECTED_SPECS = [
    "sum_connectivity", "platt", "sombor:a=2", "sombor:b=2", "exp_sum_connectivity",
    "exp_sombor:a=1", "zagreb1:a=2", "zagreb1:b=3", "platt:a=1,a=-2", "sombor:a=1,alpha=2,b=1",
    "zagreb1:c=1", "sombor:a=1,q=2", "zagreb1:a=x", "sombor:q=x",
    "zorg", "exp_extended", "custom:", "custom:x-y", "custom:1/(x-y)+1",
    "sum_connectivity:a=nan", "platt:a=inf", "sombor:a=2,b=-inf",
]
CATALOGUE_DEGREES = (1, 2, 3, 7, 12)


def _reference_outcome(fn, f, x, y):
    """The oracle's outcome; a domain error of the earlier route is the
    package's one-line WeightSpecError naming the weight and the pair."""
    try:
        value = fn(f, x, y)
    except WeightSpecError as exc:
        return WeightSpecError, str(exc)
    except (ZeroDivisionError, ValueError):
        return WeightSpecError, f"{f.label()} is undefined at degrees ({x},{y})"
    except OverflowError as exc:
        return OverflowError, str(exc)
    return value, type(value)


def _package_outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return value, type(value)


def _reference_float(f, x, y):
    """The earlier evaluate on the oracle: a float, an overflow named."""
    try:
        val = float(reference_evaluate_generic(f, x, y))
    except OverflowError:
        val = math.inf
    if math.isinf(val):
        raise WeightSpecError(f"{f.label()} overflows a float at degrees ({x},{y})")
    return val


def _reference_exact(f, x, y):
    """The earlier evaluate_exact on the oracle."""
    try:
        val = reference_evaluate_generic(f, x, y)
        if isinstance(val, float):
            val = reference_evaluate_generic(f, Fraction(x), Fraction(y))
    except OverflowError:
        return None
    if not isinstance(val, (int, Fraction)):
        return None
    return val.numerator if val.denominator == 1 else val


class TestCatalogueMatchesReference:
    """The one catalogue table against the earlier if-chain, copied into conftest."""

    def test_builtin_kinds_in_order(self):
        assert weights.BUILTIN_KINDS == REFERENCE_KINDS

    @pytest.mark.parametrize("text", CATALOGUE_SPECS + REJECTED_SPECS)
    def test_parse_weight(self, text):
        assert _package_outcome(parse_weight, text) == _package_outcome(reference_parse_weight, text)

    @pytest.mark.parametrize("text", CATALOGUE_SPECS)
    def test_values_types_and_errors(self, text):
        f = reference_parse_weight(text)
        for cast in (int, float, Fraction):
            for x in map(cast, CATALOGUE_DEGREES):
                for y in map(cast, CATALOGUE_DEGREES):
                    where = (f.label(), x, y)
                    assert _package_outcome(_evaluate_generic, f, x, y) == \
                        _reference_outcome(reference_evaluate_generic, f, x, y), where
                    assert _package_outcome(evaluate, f, x, y) == \
                        _reference_outcome(_reference_float, f, x, y), where
                    assert _package_outcome(evaluate_exact, f, x, y) == \
                        _reference_outcome(_reference_exact, f, x, y), where

    def test_specs_cover_every_kind_and_every_rejection(self):
        assert {reference_parse_weight(t).kind for t in CATALOGUE_SPECS} == set(REFERENCE_KINDS)
        for text in REJECTED_SPECS:
            with pytest.raises(WeightSpecError):
                reference_parse_weight(text)

    def test_memo_keeps_int_and_fraction_degrees_apart(self):
        # int ** -1 is a float and Fraction ** -1 exact, so the two round differently
        f = parse_weight("sombor:a=-1,b=2")
        evaluate.cache_clear()
        at_ints = evaluate(f, 1, 12)
        at_fractions = evaluate(f, Fraction(1), Fraction(12))
        assert at_ints == float(reference_evaluate_generic(f, 1, 12)) == 1.173611111111111
        assert at_fractions == float(reference_evaluate_generic(f, Fraction(1), Fraction(12)))
        assert at_fractions == 1.1736111111111112 != at_ints

    def test_undefined_weight_names_weight_and_pair(self):
        with pytest.raises(WeightSpecError, match=r"^platt:a=-1 is undefined at degrees \(1,1\)$"):
            evaluate(parse_weight("platt:a=-1"), 1, 1)
        with pytest.raises(WeightSpecError, match=r"platt:a=-1 is undefined at degrees \(1,1\)"):
            check_pstar(parse_weight("platt:a=-1"), 8)
        for text, pair in (("custom:1/(x-y)**2+1", "(1,1)"), ("custom:(x-1)**-1+1", "(1,1)"),
                           ("custom:log(x-1)+5", "(1,1)"), ("custom:sqrt(3-x*y)+1", "(1,4)")):
            with pytest.raises(WeightSpecError) as err:
                parse_weight(text)
            assert str(err.value) == f"custom expression {text[7:]!r} is undefined at {pair}"

    def test_undefined_beyond_the_custom_grid(self):
        for text in ("custom:sqrt(13-x)+sqrt(13-y)+1", "custom:(13-x)^0.5+(13-y)^0.5+1"):
            with pytest.raises(WeightSpecError, match=r"is undefined at degrees \(14,2\)$"):
                evaluate(parse_weight(text), 14, 2)

    def test_negative_base_to_a_fractional_power_is_undefined(self):
        # a real weight has no value there; Python's float power returns a complex
        with pytest.raises(WeightSpecError) as err:
            parse_weight("custom:(x-2)^0.5+5")
        assert str(err.value) == "custom expression '(x-2)^0.5+5' is undefined at (1,1)"

    def test_spec_errors_are_not_rewrapped(self):
        with pytest.raises(WeightSpecError, match="defined for x,y >= 1"):
            evaluate(parse_weight("platt:a=-1"), 0, 1)
        with pytest.raises(WeightSpecError, match="unknown name 'z'"):
            parse_weight("custom:x+z")


class TestParse:
    def test_plain_kind(self):
        assert parse_weight("zagreb1") == WeightFunction("zagreb1")

    def test_constant_alias(self):
        assert parse_weight("1").kind == "constant_one"

    def test_parameters(self):
        f = parse_weight("sombor:a=2,b=1")
        assert f.kind == "sombor" and f.alpha == 2 and f.beta == 1

    def test_custom_expression(self):
        f = parse_weight("custom:(x+y)^3")
        assert evaluate(f, 2, 3) == 125
        assert evaluate_exact(f, 2, 3) == Fraction(125)

    def test_custom_with_division(self):
        f = parse_weight("custom:(x*y+1)/(x+y)")
        assert evaluate_exact(f, 2, 3) == Fraction(7, 5)

    def test_label_round_trip(self):
        for text in ["zagreb1", "sombor:a=2,b=1", "platt:a=3", "custom:(x+y)^3"]:
            f = parse_weight(text)
            assert parse_weight(f.label()) == f

    @pytest.mark.parametrize("bad", [
        "zagreb9", "sombor:a=2", "sum_connectivity", "sombor:a=x,b=1",
        "zagreb1:c=1", "custom:", "custom:x+unknown", "custom:x-y",
        "custom:x^2", "custom:import os",
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(WeightSpecError):
            parse_weight(bad)

    def test_rejects_nonpositive_custom(self):
        # x*y - 1 hits zero on the degree grid at (1,1)
        with pytest.raises(WeightSpecError):
            parse_weight("custom:x*y-1")


class TestPStar:
    def test_zagreb1_passes(self):
        rep = check_pstar(WeightFunction("zagreb1"), 20)
        assert rep.passes and rep.failed_condition is None and rep.witness is None

    def test_extended_fails_monotonicity(self):
        ext = WeightFunction("extended")
        rep = check_pstar(ext, 20)
        assert not rep.passes
        assert rep.failed_condition == "i_monotone"
        (x, y), (x2, y2), lo, hi = rep.witness
        # the witness must be a genuine violation of "increasing in x"
        assert (x2, y2) == (x + 1, y) and hi < lo
        assert evaluate_exact(ext, x, y) == lo and evaluate_exact(ext, x2, y2) == hi
        # the classic instance: f(1,3) = 5/3 already exceeds f(2,3) = 13/12
        assert evaluate_exact(ext, 1, 3) == Fraction(5, 3)
        assert evaluate_exact(ext, 2, 3) == Fraction(13, 12)

    @pytest.mark.parametrize("d_max", [3, 5, 10, 30])
    def test_extended_fails_for_every_dmax(self, d_max):
        assert check_pstar(WeightFunction("extended"), d_max).failed_condition == "i_monotone"

    def test_product_fails_spread(self):
        rep = check_pstar(parse_weight("custom:x*y"), 20)
        assert not rep.passes
        assert rep.failed_condition == "iii_spread"
        (x1, y1), (x2, y2), hi, lo = rep.witness
        assert (x1, y1) == (3, 1) and (x2, y2) == (2, 2)
        assert hi == 3 and lo == 4

    def test_constant_one_nonstrict_pass(self):
        rep = check_pstar(WeightFunction("constant_one"), 20)
        assert rep.passes and rep.only_nonstrict

    def test_strict_pass_not_flagged(self):
        rep = check_pstar(WeightFunction("forgotten"), 20)
        assert rep.passes and not rep.only_nonstrict

    @pytest.mark.parametrize("kind,needs_alpha,needs_beta", [
        ("zagreb1", False, False),
        ("hyper_zagreb", False, False),
        ("forgotten", False, False),
        ("sum_connectivity", True, False),
        ("platt", True, False),
        ("sombor", True, True),
        ("exp_zagreb1", False, False),
        ("exp_sum_connectivity", True, False),
        ("exp_sombor", True, True),
    ])
    def test_pstar_catalogue_at_dmax_50(self, kind, needs_alpha, needs_beta):
        # every catalogue entry passes up to degree 50 with parameters in {1, 1.5, 2}
        alphas = [1, 1.5, 2] if needs_alpha else [None]
        betas = [1, 1.5, 2] if needs_beta else [None]
        for a in alphas:
            for b in betas:
                f = WeightFunction(kind, alpha=a, beta=b)
                assert check_pstar(f, 50).passes, f.label()

    def test_exp_kinds_need_no_mpmath(self, monkeypatch):
        # e**((x+y)**2) leaves float range at x + y = 27; the exponent table does not
        monkeypatch.setitem(sys.modules, "mpmath", None)
        assert check_pstar.__wrapped__(parse_weight("exp_sum_connectivity:a=2"), 50).passes

    def test_exp_kinds_match_decimal_values(self):
        params = [0.25, 0.5, 1, 1.5, 2, 3]
        fs = [WeightFunction("exp_zagreb1")]
        fs += [WeightFunction("exp_sum_connectivity", alpha=a) for a in params]
        fs += [WeightFunction("exp_sombor", alpha=a, beta=b) for a in params for b in params]
        seen = set()
        for f in fs:
            for d_max in (2, 3, 8, 12, 20, 50):
                rep = check_pstar.__wrapped__(f, d_max)
                pairs = None if rep.passes else tuple(w for w in rep.witness if isinstance(w, tuple))
                got = (rep.passes, rep.failed_condition, pairs, rep.only_nonstrict)
                assert got == reference_exp_pstar(f, d_max), (f.label(), d_max)
                seen.add(got[:2])
        # the sweep reaches passes and failures of (ii) and (iii)
        assert {(True, None), (False, "ii_convex"), (False, "iii_spread")} <= seen

    def test_exp_sombor_beyond_float_range_gets_a_report(self):
        # e**g overflows already at (2, 3) for these parameters
        for a, b in ((2, 3), (3, 2), (3, 3)):
            f = WeightFunction("exp_sombor", alpha=a, beta=b)
            for d_max in (2, 3, 8, 12, 20, 50):
                assert check_pstar.__wrapped__(f, d_max).passes

    def test_dmax_validation(self):
        with pytest.raises(WeightSpecError):
            check_pstar(WeightFunction("zagreb1"), 1)

    def test_custom_expression_parsed_once(self, monkeypatch):
        import ast
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return parse(*args, **kwargs)

        parse = ast.parse
        monkeypatch.setattr(ast, "parse", counted)
        weights._parse_expr.cache_clear()
        check_pstar.__wrapped__(parse_weight("custom:x**2+y**2+x+y"), 20)
        assert calls == ["x**2+y**2+x+y"]
        for _ in range(2):  # a malformed expression raises every time
            with pytest.raises(WeightSpecError, match="cannot parse"):
                parse_weight("custom:(x+y")

    def test_memoised_per_weight_and_dmax(self):
        f = parse_weight("custom:x^2+y^2+x*y")
        assert check_pstar(f, 12) is check_pstar(parse_weight("custom:x^2+y^2+x*y"), 12)
        assert check_pstar(f, 12) == check_pstar.__wrapped__(f, 12)
        assert check_pstar(f, 13) is not check_pstar(f, 12)
