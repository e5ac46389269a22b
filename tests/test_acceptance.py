"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.

Criteria 1 and 2 carry a documented twist: three printed cells of the source
tables (G2/f=1 at n=6, G4/(x+y)^3 at n=6 and n=7) contradict the published
quotient polynomials phi1/phi2.  The recomputed values (three independent
routes: LAPACK eigensolve, exact characteristic polynomial with Sturm
isolation, and an external exact isolation) are asserted for those cells and
the mismatch with the printed value is verified to be real, so the erratum
set is pinned and cannot drift silently.
"""

import time

from bicyclic_spectra import (
    FAMILIES,
    WeightFunction,
    char_poly,
    evaluate_sign_ledger,
    family_quotient,
    max_real_root,
    named_polynomial,
    rational_pstar_functions,
    rho_f,
    run_table,
    verify_extremal,
    verify_kelmans,
    verify_theorem41,
)
from conftest import GOLDEN_COUNTS, class_graphs, edge_subset_classes, reference_canonical_form

Z1 = WeightFunction("zagreb1")
HZ = WeightFunction("hyper_zagreb")
FG = WeightFunction("forgotten")
ONE = WeightFunction("constant_one")
THEOREM_WEIGHTS = [Z1, HZ, FG]


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE criterion {number:2d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _check_appendix(number: int, table: str, expected_errata: set, budget: float):
    t0 = time.time()
    rep = run_table(table)
    elapsed = time.time() - t0
    cell_cases = [c for c in rep.cases if "/bold/" not in c.case_id]
    bold_cases = [c for c in rep.cases if "/bold/" in c.case_id]
    errata = {c.case_id for c in cell_cases if "erratum" in c.note}
    ok = (rep.ok and len(cell_cases) == 12 and len(bold_cases) == 4
          and errata == expected_errata and elapsed < budget)
    detail = (f"{table}: 12 cells at half-printed-place tolerance, bold pattern ok, "
              f"{len(errata)} documented errata, {elapsed:.2f}s")
    report(number, ok, detail)


def test_criterion_1_appendix_table_n6():
    _check_appendix(1, "appendix_n6",
                    {"appendix_n6/G2/1", "appendix_n6/G4/(x+y)^3"}, budget=5.0)


def test_criterion_2_appendix_table_n7():
    _check_appendix(2, "appendix_n7", {"appendix_n7/G4/(x+y)^3"}, budget=5.0)


def test_criterion_3_extended_table1():
    t0 = time.time()
    rep = run_table("extended_table1")
    elapsed = time.time() - t0
    ns = {c.inputs["n"] for c in rep.cases}
    ok = rep.ok and ns == set(range(12, 21)) and elapsed < 5.0
    report(3, ok, f"Table 1 rows within 5e-4 and bound < rho_ex(G2) for n=12..20, "
                  f"{elapsed:.2f}s")


def test_criterion_4_first_rank_exhaustive():
    t0 = time.time()
    rep = verify_extremal(range(4, 10), THEOREM_WEIGHTS, rank="first", mode="exhaustive")
    elapsed = time.time() - t0
    gaps = [c.computed["gap_to_second"] for c in rep.cases if c.inputs["n"] >= 5]
    ok = rep.ok and all(g > 1e-6 for g in gaps) and elapsed < 600
    report(4, ok, f"G1 uniquely maximal over all classes, n=4..9, three weights, "
                  f"min gap {min(gaps):.3e}, {elapsed:.1f}s")


def test_criterion_5_second_rank_exhaustive():
    # rank two requires at least two classes, so the sweep starts at n=5
    t0 = time.time()
    rep = verify_extremal(range(5, 10), THEOREM_WEIGHTS, rank="second", mode="exhaustive")
    elapsed = time.time() - t0
    classes = {c.computed["second_class"] for c in rep.cases}
    ok = rep.ok and classes <= {"G2", "G3", "G4"}
    report(5, ok, f"second-ranked class always in {{G2,G3,G4}} (saw {sorted(classes)}), "
                  f"n=5..9, {elapsed:.1f}s")


def test_criterion_6_second_rank_thresholds():
    t0 = time.time()
    candidate_ranges = {"zagreb1": range(10, 41), "hyper_zagreb": range(9, 41),
                        "forgotten": range(8, 41)}
    all_ok = True
    for f in THEOREM_WEIGHTS:
        rep = verify_extremal(candidate_ranges[f.kind], [f], rank="second", mode="candidate")
        all_ok = all_ok and rep.ok and all(
            c.computed["winner"] == "G2" for c in rep.cases)
    candidate_elapsed = time.time() - t0
    t0 = time.time()
    exhaustive = verify_extremal(range(8, 10), [FG], rank="second", mode="exhaustive")
    all_ok = all_ok and exhaustive.ok and all(
        c.computed["second_class"] == "G2" for c in exhaustive.cases)
    exhaustive_elapsed = time.time() - t0
    ok = all_ok and candidate_elapsed < 60 and exhaustive_elapsed < 600
    report(6, ok, f"G2 is second-ranked beyond thresholds (candidate "
                  f"{candidate_elapsed:.1f}s, exhaustive n=8,9 {exhaustive_elapsed:.1f}s)")


def test_criterion_7_kelmans_property_suite():
    t0 = time.time()
    rep = verify_kelmans(1000, range(4, 9), THEOREM_WEIGHTS + [ONE], rng_seed=20240817)
    elapsed = time.time() - t0
    worst = min(c.computed["worst_delta"] for c in rep.cases)
    violations = sum(c.computed["violations"] + c.computed["pendant_shift_violations"]
                     for c in rep.cases)
    ok = rep.ok and violations == 0 and elapsed < 300
    report(7, ok, f"1000 class-changing reroutes per weight (plus pendant shifts), "
                  f"0 violations, worst delta {worst:.3e}, {elapsed:.1f}s")


def test_criterion_8_equitable_quotient_consistency():
    worst = 0.0
    for f in rational_pstar_functions():
        for n in range(6, 15):
            for tag in ("G2", "G3", "G4"):
                q = family_quotient(tag, n, f)
                assert q.equitable, (tag, n, f.label())
                diff = abs(max_real_root(char_poly(q.b)) - rho_f(FAMILIES[tag].build(n), f))
                worst = max(worst, diff)
    ok = worst <= 1e-8
    report(8, ok, f"|rho(quotient) - rho(full)| <= 1e-8 for G2/G3/G4, n=6..14, "
                  f"six rational P* weights; worst {worst:.2e}")


def test_criterion_9_polynomial_identities():
    fs = [Z1, HZ, FG, WeightFunction("sum_connectivity", alpha=3)]
    checked = 0
    for f in fs:
        for n in range(6, 13):
            assert char_poly(family_quotient("G2", n, f).b) == named_polynomial("phi1", n, f)
            assert char_poly(family_quotient("G4", n, f).b) == \
                named_polynomial("phi2", n, f).shift_up(1)
            assert char_poly(family_quotient("G3", n, f).b) == named_polynomial("phi3", n, f)
            checked += 3
    report(9, True, f"phi1/phi2/phi3 equal the quotient characteristic polynomials "
                    f"coefficientwise ({checked} exact identities, phi2 up to one "
                    f"factor of lambda)")


def test_criterion_10_sign_ledger():
    t0 = time.time()
    records = evaluate_sign_ledger(rational_pstar_functions(), n_max=60)
    elapsed = time.time() - t0
    failures = [r for r in records if not r["holds"]]
    ok = not failures and elapsed < 10
    report(10, ok, f"exact sign certificates for every ledger condition at every "
                   f"integer order up to 60 ({len(records)} records, {elapsed:.2f}s)")


def test_criterion_11_extended_index_chain():
    t0 = time.time()
    rep = verify_theorem41(range(12, 61))
    elapsed = time.time() - t0
    family12 = next(c for c in rep.cases if c.case_id == "theorem41/max_degree_n2/n=12")
    ok = rep.ok and family12.inputs["classes"] == 9
    report(11, ok, f"rho_ex(G1) > (n-.9)/2*sqrt(n-3.8) > rho_ex(G2) > "
                   f"(n-.9)/2*sqrt(n-5) for n=12..60; all 9 degree-(n-2) classes "
                   f"below the lower bound, {elapsed:.1f}s")


def test_criterion_12_enumeration_oracle():
    t0 = time.time()
    all_ok = True
    for n in range(4, 10):
        graphs, oracle = class_graphs(n), edge_subset_classes(n)
        all_ok = all_ok and (len(graphs) == len(oracle) == GOLDEN_COUNTS[n])
        all_ok = all_ok and {reference_canonical_form(g) for g in graphs} == set(oracle)
    elapsed = time.time() - t0
    report(12, all_ok, f"orderly generator and edge-subset oracle agree on counts "
                       f"and certificate sets for n=4..9 "
                       f"(counts {list(GOLDEN_COUNTS.values())}), {elapsed:.1f}s")
