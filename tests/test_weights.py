import math
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

    def test_dmax_validation(self):
        with pytest.raises(WeightSpecError):
            check_pstar(WeightFunction("zagreb1"), 1)

    def test_memoised_per_weight_and_dmax(self):
        f = parse_weight("custom:x^2+y^2+x*y")
        assert check_pstar(f, 12) is check_pstar(parse_weight("custom:x^2+y^2+x*y"), 12)
        assert check_pstar(f, 12) == check_pstar.__wrapped__(f, 12)
        assert check_pstar(f, 13) is not check_pstar(f, 12)
