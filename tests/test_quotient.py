import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from bicyclic_spectra import (
    FAMILIES,
    Graph,
    Polynomial,
    WeightFunction,
    build_matrix,
    char_poly,
    count_real_roots,
    equitable_refine,
    evaluate_exact,
    evaluate_sign_ledger,
    family_quotient,
    graph_g2,
    graph_g3,
    graph_g4,
    make_theta,
    attach_pendants,
    max_real_root,
    named_polynomial,
    parse_weight,
    phi1_sign_holds,
    quotient_matrix,
    rational_pstar_functions,
    rho_f,
    sign_at_sqrt,
)
from bicyclic_spectra import quotient
from bicyclic_spectra.quotient import PartitionError, degree_partition, validate_partition

from conftest import (class_graphs, random_partition, reference_equitable_refine,
                      reference_evaluate_exact, reference_quotient, reference_weight_matrix)

Z1 = WeightFunction("zagreb1")
HZ = WeightFunction("hyper_zagreb")
FG = WeightFunction("forgotten")
SC3 = WeightFunction("sum_connectivity", alpha=3)
EXT = WeightFunction("extended")


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def exact_matrix(g, f):
    """A_f(G) in Fractions: the quotient of the singleton partition."""
    return quotient_matrix(g, f, [[v] for v in range(g.n)]).b


class TestEquitableRefine:
    @pytest.mark.parametrize("n", [6, 8, 11])
    def test_g2_three_blocks(self, n):
        blocks = equitable_refine(graph_g2(n), Z1)
        assert len(blocks) == 3
        sizes = sorted(len(b) for b in blocks)
        assert sizes == sorted([1, 4, n - 5])

    @pytest.mark.parametrize("n", [8, 10])
    def test_g4_five_blocks(self, n):
        # the lone pendant on the degree-4 hub splits away from the hub bundle
        blocks = equitable_refine(graph_g4(n), Z1)
        assert len(blocks) == 5
        assert sorted(len(b) for b in blocks) == sorted([1, 2, 1, 1, n - 5])

    def test_g4_at_order_six_collapses_to_three_blocks(self):
        # at n=6 both hubs have degree 4 and swap under an automorphism, so
        # the coarsest equitable partition merges them; the fixed 5-block
        # partition stays equitable regardless
        blocks = equitable_refine(graph_g4(6), Z1)
        assert len(blocks) == 3
        assert quotient_matrix(graph_g4(6), Z1, FAMILIES["G4"].partition(6)).equitable

    @pytest.mark.parametrize("tag,blocks", [
        ("G2", [[0], [1, 2, 3, 4], [5, 6, 7]]),
        ("G3", [[2], [0, 1], [3], [4, 5, 6, 7]]),
        ("G4", [[0], [1], [2, 3], [7], [4, 5, 6]]),
    ])
    def test_block_lists_at_order_eight(self, tag, blocks):
        # pinned: the degree seed plus sorted-signature splitting fixes the
        # block order, not only the blocks
        assert equitable_refine(FAMILIES[tag].build(8), Z1) == blocks

    def test_vertex_transitive_trivial_seed(self):
        g = cycle(7)
        blocks = equitable_refine(g, Z1, seed=[list(range(7))])
        assert blocks == [list(range(7))]
        q = quotient_matrix(g, Z1, blocks)
        assert q.equitable

    def test_refines_to_fixed_point(self):
        g = graph_g3(9)
        blocks = equitable_refine(g, FG)
        assert quotient_matrix(g, FG, blocks).equitable

    def test_validate_partition(self):
        with pytest.raises(PartitionError):
            validate_partition([[0, 1], [1, 2]], 3)
        with pytest.raises(PartitionError):
            validate_partition([[0]], 2)
        with pytest.raises(PartitionError):
            validate_partition([[0], []], 1)

    def test_degree_partition_orders_descending(self):
        blocks = degree_partition(graph_g2(7))
        deg = graph_g2(7).degrees()
        firsts = [deg[b[0]] for b in blocks]
        assert firsts == sorted(firsts, reverse=True)


class TestQuotientMatrix:
    @pytest.mark.parametrize("n", [6, 8, 12])
    @pytest.mark.parametrize("f", [Z1, HZ, FG, EXT], ids=lambda f: f.kind)
    def test_g2_quotient_entries(self, n, f):
        q = quotient_matrix(graph_g2(n), f, FAMILIES["G2"].partition(n))
        assert q.equitable
        F = lambda x, y: evaluate_exact(f, x, y)
        expected = [
            [0, 4 * F(n - 1, 2), (n - 5) * F(n - 1, 1)],
            [F(n - 1, 2), F(2, 2), 0],
            [F(n - 1, 1), 0, 0],
        ]
        assert q.b == expected

    def test_g3_quotient_diagonal_entry(self):
        n = 9
        q = quotient_matrix(graph_g3(n), FG, FAMILIES["G3"].partition(n))
        assert q.equitable
        # the two adjacent degree-3 vertices put f(3,3) on the diagonal
        assert q.b[1][1] == evaluate_exact(FG, 3, 3)

    def test_singleton_partition_reproduces_matrix(self):
        g = graph_g4(7)
        q = quotient_matrix(g, Z1, [[v] for v in range(7)])
        assert q.equitable
        assert q.b == reference_weight_matrix(g, Z1)

    def test_non_equitable_flagged(self):
        g = graph_g2(7)
        # lumping the center with a cycle vertex breaks constant row sums
        q = quotient_matrix(g, Z1, [[0, 1], [2, 3, 4], [5, 6]])
        assert not q.equitable

    @pytest.mark.parametrize("tag,n", [("G2", 7), ("G3", 8), ("G4", 9)])
    def test_quotient_rho_equals_full_rho(self, tag, n):
        g = FAMILIES[tag].build(n)
        q = family_quotient(tag, n, HZ)
        assert max_real_root(char_poly(q.b)) == pytest.approx(rho_f(g, HZ), abs=1e-8)

    @pytest.mark.parametrize("tag,n", [("G2", 8), ("G3", 7), ("G4", 10)])
    @pytest.mark.parametrize("f", [Z1, EXT], ids=lambda f: f.kind)
    def test_quotient_spectrum_embeds_in_full_spectrum(self, tag, n, f):
        from bicyclic_spectra import full_spectrum
        full = full_spectrum(build_matrix(FAMILIES[tag].build(n), f))
        q = family_quotient(tag, n, f)
        quotient_vals = np.linalg.eigvals(np.array(q.b, dtype=float))
        assert np.max(np.abs(quotient_vals.imag)) < 1e-9
        for lam in quotient_vals.real:
            assert np.min(np.abs(full - lam)) <= 1e-8


ORACLE_WEIGHTS = [Z1, HZ, FG, EXT, WeightFunction("constant_one")]


class TestReferenceQuotient:
    """The edge-list row sums against the dense Fraction route."""

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("f", ORACLE_WEIGHTS, ids=lambda f: f.kind)
    def test_every_class(self, n, f):
        rng = random.Random(1000 * n + ORACLE_WEIGHTS.index(f))
        for g in class_graphs(n):
            p = random_partition(rng, n)
            q = quotient_matrix(g, f, p)
            assert (q.b, q.equitable) == reference_quotient(g, f, p)
            assert equitable_refine(g, f) == reference_equitable_refine(g, f, degree_partition(g))
            assert equitable_refine(g, f, seed=p) == reference_equitable_refine(g, f, p)

    def test_family_quotients(self):
        checked = 0
        for f in rational_pstar_functions():
            for tag in ("G2", "G3", "G4"):
                family = FAMILIES[tag]
                for n in range(6, 15):
                    q = family_quotient(tag, n, f)
                    ref = reference_quotient(family.build(n), f, family.partition(n))
                    assert (q.b, q.equitable) == ref, (f.label(), tag, n)
                    checked += 1
        assert checked == 162


class TestIrrationalWeights:
    @pytest.mark.parametrize("spec", ["exp_zagreb1", "sum_connectivity:a=0.5"])
    def test_rejected_everywhere(self, spec):
        f, g = parse_weight(spec), graph_g2(8)
        message = re.escape(f"weight {f.label()} is irrational at degrees (")
        with pytest.raises(PartitionError, match=message):
            quotient_matrix(g, f, FAMILIES["G2"].partition(8))
        with pytest.raises(PartitionError, match=message):
            equitable_refine(g, f)
        with pytest.raises(PartitionError, match=message):
            named_polynomial("phi1", 8, f)
        with pytest.raises(PartitionError, match=message):
            phi1_sign_holds(f, 8)


class TestFamilyRegistry:
    @pytest.mark.parametrize("tag", sorted(FAMILIES))
    @pytest.mark.parametrize("f", [Z1, FG, EXT], ids=lambda f: f.kind)
    def test_partition_equitable_from_min_order(self, tag, f):
        family = FAMILIES[tag]
        for n in range(family.min_n, 13):
            q = quotient_matrix(family.build(n), f, family.partition(n))
            assert q.equitable, (tag, n)


class TestPaperPolynomials:
    def test_phi1_zagreb1_n10_coefficients(self):
        # recomputed through the displayed formula: f(2,2)=4, f(9,2)=11, f(9,1)=10
        p = named_polynomial("phi1", 10, Z1)
        assert p.coeffs == (2000, -984, -4, 1)

    @pytest.mark.parametrize("n", range(6, 13))
    @pytest.mark.parametrize("f", [Z1, HZ, FG, SC3, EXT], ids=lambda f: f.label())
    def test_phi_identities_exact(self, n, f):
        # char_poly's coefficients are Fractions, phi1's ints for an integral weight
        p = char_poly(quotient_matrix(graph_g2(n), f, FAMILIES["G2"].partition(n)).b)
        phi1 = named_polynomial("phi1", n, f)
        assert p == phi1 and hash(p) == hash(phi1)
        assert all(type(c) is Fraction for c in p.coeffs)
        assert all(type(c) is int for c in phi1.coeffs) == (f is not EXT)
        # the full G4 quotient polynomial carries one extra factor of lambda
        assert char_poly(quotient_matrix(graph_g4(n), f, FAMILIES["G4"].partition(n)).b) == \
            named_polynomial("phi2", n, f).shift_up(1)
        assert char_poly(quotient_matrix(graph_g3(n), f, FAMILIES["G3"].partition(n)).b) == \
            named_polynomial("phi3", n, f)

    def test_phi2_prime_is_lambda_times_phi2(self):
        p = named_polynomial("phi2", 9, Z1)
        pp = named_polynomial("phi2_prime", 9, Z1)
        assert pp == p.shift_up(1)
        assert pp.coeffs[0] == 0 and pp.degree == 5

    def test_phi2_full_quotient_has_no_lambda4_and_no_constant(self):
        q = char_poly(quotient_matrix(graph_g4(8), SC3, FAMILIES["G4"].partition(8)).b)
        assert q.degree == 5
        assert q.coeffs[0] == 0 and q.coeffs[4] == 0

    @pytest.mark.parametrize("n", [9, 12, 20])
    def test_phi2_and_phi2_prime_same_max_root(self, n):
        r1 = max_real_root(named_polynomial("phi2", n, Z1))
        r2 = max_real_root(named_polynomial("phi2_prime", n, Z1))
        assert r1 == pytest.approx(r2, abs=1e-9)

    def test_h_n_value_at_sqrt12(self):
        # h_12(sqrt(12)) = 16 - 4*sqrt(12) > 0
        p = named_polynomial("h_n", 12)
        val = p(math.sqrt(12))
        assert val == pytest.approx(16 - 4 * math.sqrt(12), abs=1e-9)
        assert val > 0

    @pytest.mark.parametrize("n", range(12, 18))
    def test_h_family_factorizations(self, n):
        # H(n, n-3, 2): P(2,1,2), n-6 pendants on hub 0 and two on hub 1
        h = attach_pendants(attach_pendants(make_theta(2, 1, 2), 0, n - 6), 1, 2)
        adj = exact_matrix(h, WeightFunction("constant_one"))
        assert char_poly(adj) == named_polynomial("h_n", n).shift_up(n - 4)
        cp = char_poly(exact_matrix(graph_g1_local(n), EXT))
        assert cp == named_polynomial("h_n1", n).shift_up(n - 4) * Fraction(1, 288 * (n - 1) ** 2)
        cp = char_poly(exact_matrix(graph_g2(n), EXT))
        lin = Polynomial([-1, 1]) * Polynomial([1, 1]) * Polynomial([1, 1])
        assert cp == (named_polynomial("h_n2", n) * lin).shift_up(n - 6) * Fraction(1, 4 * (n - 1) ** 2)
        d1 = attach_pendants(make_theta(2, 2, 2), 0, n - 5)
        cp = char_poly(exact_matrix(d1, EXT))
        assert cp == named_polynomial("h_n3", n).shift_up(n - 4) * Fraction(1, 2304 * (n - 2) ** 2)

    @pytest.mark.parametrize("n", [12, 16])
    def test_h_n2_sample_point_identity(self, n):
        # float route: numeric char poly of the extended matrix agrees with
        # x^(n-6) (x-1)(x+1)^2 h_n2(x) / (4(n-1)^2) at sample points
        a = build_matrix(graph_g2(n), EXT)
        numeric = np.poly(np.linalg.eigvalsh(a))[::-1]
        h = named_polynomial("h_n2", n)
        for k in range(20):
            x = 0.35 * (k + 1)
            lhs = sum(float(c) * x ** i for i, c in enumerate(numeric))
            rhs = (x ** (n - 6) * (x - 1) * (x + 1) ** 2 * float(h(x))
                   / (4 * (n - 1) ** 2))
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            named_polynomial("phi9", 8, Z1)
        with pytest.raises(ValueError):
            named_polynomial("phi1", 5, Z1)
        with pytest.raises(ValueError):
            named_polynomial("h_n", 11)
        with pytest.raises(ValueError):
            named_polynomial("phi2", 8)  # missing weight


def graph_g1_local(n):
    from bicyclic_spectra import graph_g1
    return graph_g1(n)


class TestRootsAgainstTables:
    def test_phi1_max_root_matches_table_and_eigensolve(self):
        root = max_real_root(named_polynomial("phi1", 6, Z1))
        assert root == pytest.approx(17.0855, abs=5e-4)
        assert root == pytest.approx(rho_f(graph_g2(6), Z1), abs=1e-8)

    @pytest.mark.parametrize("n", range(6, 31))
    def test_phi1_root_beats_perron_bound(self, n):
        root = max_real_root(named_polynomial("phi1", n, Z1))
        assert root > n * math.sqrt(n - 1)

    def test_phi1_descartes_signature(self):
        # the counts Descartes' rule bounds hold exactly: r1 > r2 > 0 > r3
        assert root_signature(named_polynomial("phi1", 10, Z1)) == (2, 1)

    def test_phi2_phi3_descartes_signature(self):
        assert root_signature(named_polynomial("phi2", 10, Z1)) == (2, 2)
        assert root_signature(named_polynomial("phi3", 10, Z1)) == (2, 2)


def root_signature(p: Polynomial) -> tuple[int, int]:
    """(positive, negative) real roots of p by exact Sturm counts; every root
    must be simple and nonzero."""
    bound = 1 + max(abs(Fraction(c)) for c in p.coeffs) / abs(p.coeffs[-1])
    pos, neg = count_real_roots(p, 0, bound), count_real_roots(p, -bound, 0)
    assert p(0) != 0 and pos + neg == p.degree
    return pos, neg


class TestSignLedger:
    def test_phi1_condition_all_rational_pstar(self):
        for f in rational_pstar_functions():
            for n in (6, 10, 25, 60):
                assert phi1_sign_holds(f, n), (f.label(), n)

    def test_full_ledger_to_200(self):
        records = evaluate_sign_ledger(rational_pstar_functions(), n_max=200)
        assert len(records) == 3444 and all(r["holds"] for r in records)

    def test_ledger_equals_fraction_degree_route(self, monkeypatch):
        records = evaluate_sign_ledger(rational_pstar_functions(), n_max=200)
        monkeypatch.setattr(quotient, "evaluate_exact", reference_evaluate_exact)
        assert records == evaluate_sign_ledger(rational_pstar_functions(), n_max=200)

    def test_phi1_sign_weighs_the_point_once(self, monkeypatch):
        calls = []

        def counting(f, x, y):
            calls.append((x, y))
            return evaluate_exact(f, x, y)

        monkeypatch.setattr(quotient, "evaluate_exact", counting)
        for f in rational_pstar_functions():
            for n in (6, 7, 30):
                calls.clear()
                phi1 = named_polynomial("phi1", n, f)
                assert calls.count((n - 1, 1)) == 1
                calls.clear()
                holds = phi1_sign_holds(f, n)
                assert calls.count((n - 1, 1)) == 1 and len(calls) == 3
                assert holds == (sign_at_sqrt(phi1, evaluate_exact(f, n - 1, 1), n - 1) == -1)
        with pytest.raises(ValueError, match="phi1 requires n >= 6"):
            phi1_sign_holds(Z1, 5)

    def test_sign_example(self):
        # h_n(sqrt(n)) > 0 and h_n(sqrt(n-3)) < 0 at n=12, exactly
        p = named_polynomial("h_n", 12)
        assert sign_at_sqrt(p, 1, 12) == 1
        assert sign_at_sqrt(p, 1, 9) == -1
