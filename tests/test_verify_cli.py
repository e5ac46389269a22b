import csv
import dataclasses
import io
import itertools
import json
import math
import random
import sys

import numpy as np
import pytest

from bicyclic_spectra import (
    FAMILIES,
    CaseRecord,
    Graph,
    VerificationReport,
    WeightFunction,
    base_graph,
    canonical_form,
    check_pstar,
    evaluate,
    graph6_decode,
    graph_g1,
    graph_g2,
    make_theta,
    parse_weight,
    rho_f,
    run_table,
    verify_extremal,
    verify_kelmans,
    verify_theorem41,
)
from bicyclic_spectra import cli, spectral, verify, weights
from bicyclic_spectra.cli import main, parse_graph_argument
from bicyclic_spectra.graphs import graph_rows, rows_graph
from bicyclic_spectra.spectral import radius_brackets, spectral_radii
from bicyclic_spectra.verify import printed_tolerance
import conftest
from conftest import (class_graphs, edge_masks, per_graph_radii, reference_exhaustive_case,
                      reference_random_connected_graph, reference_verify_kelmans,
                      reference_verify_theorem41, stepwise_random_connected_graph)

Z1 = WeightFunction("zagreb1")
WEIGHTS = [Z1, WeightFunction("hyper_zagreb"), WeightFunction("forgotten")]
ERRATA_CELLS = {
    ("appendix_n6", "G2", "1"),
    ("appendix_n6", "G4", "(x+y)^3"),
    ("appendix_n7", "G4", "(x+y)^3"),
}


class TestReportModel:
    def test_ok_logic(self):
        rep = VerificationReport("demo", cases=[
            CaseRecord("a", {}, {}, passed=True),
            CaseRecord("b", {}, {}, passed=None),
        ])
        assert rep.ok
        rep.cases.append(CaseRecord("c", {}, {}, passed=False))
        assert not rep.ok
        assert rep.summary()["failed"] == 1
        assert rep.summary()["informative"] == 1

    def test_json_schema(self):
        rep = run_table("extended_table1")
        payload = json.loads(rep.to_json())
        assert set(payload) == {"campaign", "cases", "summary"}
        case = payload["cases"][0]
        assert set(case) == {"case_id", "inputs", "computed", "expected",
                             "passed", "tolerance", "note"}
        assert payload["summary"]["ok"] is True

    def test_csv_round_trip(self):
        rep = run_table("appendix_n6")
        rows = list(csv.reader(io.StringIO(rep.to_csv())))
        assert rows[0][0] == "case_id"
        assert len(rows) == len(rep.cases) + 1

    def test_record_dict_matches_asdict(self):
        # to_dict equals dataclasses.asdict, key order included, on every record of
        # the theorem 4.1, exhaustive and table reports; its dicts are copies
        reports = [verify_theorem41(range(12, 61)),
                   verify_extremal(range(4, 11), WEIGHTS + [WeightFunction("constant_one")],
                                   rank="second", mode="exhaustive")]
        reports += [run_table(t) for t in ("appendix_n6", "appendix_n7", "extended_table1")]
        for rep in reports:
            for record in rep.cases:
                got, want = record.to_dict(), dataclasses.asdict(record)
                assert got == want
                assert json.dumps(got) == json.dumps(want)
                for key in ("inputs", "computed", "expected"):
                    assert got[key] is None or got[key] is not getattr(record, key)
            got = rep.to_dict()
            got["cases"][0]["computed"]["changed"] = True
            assert "changed" not in rep.cases[0].computed


class TestPrintedTolerance:
    @pytest.mark.parametrize("printed,expected", [
        ("17.0855", 5e-4), ("18.208", 5e-4), ("749.14", 5e-3),
        ("1159.8", 5e-2), ("1131", 0.5),
    ])
    def test_half_last_place_with_floor(self, printed, expected):
        assert printed_tolerance(printed) == pytest.approx(expected)


class TestTables:
    @pytest.mark.parametrize("table", ["appendix_n6", "appendix_n7", "extended_table1"])
    def test_all_tables_pass(self, table):
        rep = run_table(table)
        assert rep.ok, [c.case_id for c in rep.cases if not c.passed]

    def test_paper_values_carried_verbatim(self):
        rep = run_table("appendix_n6")
        cell = next(c for c in rep.cases if c.case_id == "appendix_n6/G2/x+y")
        assert cell.expected["printed"] == "17.0855"
        assert cell.expected["row"] == "G2"

    def test_errata_cells_flagged_and_pinned(self):
        seen = set()
        for table in ("appendix_n6", "appendix_n7"):
            for c in run_table(table).cases:
                if "erratum" in c.note:
                    parts = c.case_id.split("/")
                    seen.add((parts[0], parts[1], parts[2]))
                    assert c.expected["matches_printed"] is False
                    assert c.passed  # matches the recomputed reference
        assert seen == ERRATA_CELLS

    def test_bold_patterns(self):
        rep6 = run_table("appendix_n6")
        bolds = {c.case_id: c for c in rep6.cases if "/bold/" in c.case_id}
        assert all(c.computed["row_maximum"] == "G4" for c in bolds.values())
        rep7 = run_table("appendix_n7")
        bolds7 = {c.case_id.split("/")[-1]: c.computed["row_maximum"]
                  for c in rep7.cases if "/bold/" in c.case_id}
        assert bolds7 == {"1": "G4", "x+y": "G2", "(x+y)^2": "G2", "(x+y)^3": "G2"}

    @pytest.mark.parametrize("table", ["appendix_n6", "appendix_n7"])
    def test_cells_equal_rho_f(self, table):
        # one stacked eigensolve scores the 3 x 4 cells, each bit for bit
        # the rho_f of its own graph and weight
        cells = [c for c in run_table(table).cases if "rho" in c.computed]
        assert len(cells) == 12
        for c in cells:
            g = FAMILIES[c.inputs["graph"]].build(c.inputs["n"])
            assert c.computed["rho"] == rho_f(g, parse_weight(c.inputs["weight"]))

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            run_table("appendix_n99")

    def test_determinism(self):
        a = run_table("appendix_n7").to_dict()
        b = run_table("appendix_n7").to_dict()
        a["summary"].pop("runtime_seconds")
        b["summary"].pop("runtime_seconds")
        assert a == b


class TestExtremalCampaign:
    def test_exhaustive_first_small(self):
        rep = verify_extremal(range(4, 7), [Z1], rank="first", mode="exhaustive")
        assert rep.ok
        assert all(c.computed["winner_is_g1"] for c in rep.cases)

    def test_exhaustive_second_small(self):
        rep = verify_extremal(range(6, 8), [Z1], rank="second", mode="exhaustive")
        assert rep.ok
        assert all(c.computed["second_class"] in ("G2", "G3", "G4") for c in rep.cases)

    def test_candidate_mode_checks_the_second_rank_only(self):
        with pytest.raises(ValueError, match="second rank only"):
            verify_extremal([10], [Z1], rank="first", mode="candidate")

    def test_candidate_below_threshold_informative(self):
        rep = verify_extremal([6], [Z1], rank="second", mode="candidate")
        case = rep.cases[0]
        assert case.passed is None
        assert case.computed["winner"] == "G4"  # small-order regime

    def test_candidate_below_order_five_informative(self, capsys):
        # G2, G3 and G4 start at n = 5: at n = 4 the one case is informative
        code = main(["extremal", "--n", "4", "--f", "forgotten", "--rank", "2", "--mode", "candidate"])
        (case,) = json.loads(capsys.readouterr().out)["cases"]
        assert code == 0
        assert (case["passed"], case["computed"]) == (None, {})
        assert case["note"] == "no candidate family exists at this order"

    def test_candidate_rho_equal_rho_f(self):
        # one eigensolve per order and weight scores the candidates that exist
        # there, each bit for bit the rho_f of its own graph
        fs = [parse_weight(w) for w in ("forgotten", "zagreb1", "constant_one", "sombor:a=2,b=0.5")]
        rep = verify_extremal(range(4, 41), fs, rank="second", mode="candidate")
        scored = 0
        for case in rep.cases:
            n, f = case.inputs["n"], parse_weight(case.inputs["weight"])
            rhos = case.computed.get("rho", {})
            assert list(rhos) == [t for t in ("G2", "G3", "G4") if n >= FAMILIES[t].min_n]
            for tag, rho in rhos.items():
                assert rho == rho_f(FAMILIES[tag].build(n), f)
            scored += len(rhos)
        assert len(rep.cases) == len(fs) * 37
        assert scored == len(fs) * (2 + 3 * 35)  # G2 and G3 from n = 5, G4 from n = 6

    def test_candidate_above_threshold(self):
        rep = verify_extremal(range(10, 14), [Z1], rank="second", mode="candidate")
        assert rep.ok
        assert all(c.computed["winner"] == "G2" for c in rep.cases)

    def test_per_base_family_winners(self):
        # within the infinity-base classes the top graph is G2, within the
        # theta-base classes it is G1, order by order
        rep = verify_extremal(range(5, 9), [Z1], rank="first", mode="exhaustive")
        for case in rep.cases:
            assert case.computed["infinity_base_winner_is_g2"], case.case_id
            assert case.computed["theta_base_winner_is_g1"], case.case_id

    def test_exhaustive_confirmation_at_zagreb1_threshold(self):
        # all 2678 classes at the first order where G2 takes second place
        rep = verify_extremal([10], [Z1], rank="second", mode="exhaustive")
        assert rep.ok
        assert rep.cases[0].computed["second_class"] == "G2"

    def test_non_pstar_weight_marked_not_applicable(self):
        rep = verify_extremal(range(6, 8), [WeightFunction("extended")],
                              rank="first", mode="exhaustive")
        assert rep.cases[0].passed is None
        assert "not applicable" in rep.cases[0].note

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify_extremal([6], [Z1], rank="third")
        with pytest.raises(ValueError):
            verify_extremal([6], [Z1], mode="guess")


class TestNearTiePolicy:
    def test_artificial_gap_requirement_fails_loudly(self, monkeypatch):
        # demanding an absurd winning gap must fail with both certificates shown
        monkeypatch.setattr(verify, "RANK_GAP", 1e9)
        rep = verify_extremal([6], [Z1], rank="first", mode="exhaustive")
        case = rep.cases[0]
        assert case.passed is False
        assert "near-tie" in case.note and "certificates" in case.note

    def test_scaled_weight_ranks_as_unscaled(self):
        # the gap is read relative to the top rho: 1e-150 * (x + y) gives the
        # rank-1 winners of x + y, though its gaps lie near 1e-150
        reports = [verify_extremal(range(6, 9), [parse_weight(spec)], rank="first")
                   for spec in ("custom:x+y", "custom:1e-150*(x+y)")]
        assert all(rep.ok for rep in reports)
        plain, scaled = ([case.computed for case in rep.cases] for rep in reports)
        for a, b in zip(plain, scaled):
            assert b["gap_to_second"] < 1e-149
            assert math.isclose(b["rho_max"], 1e-150 * a["rho_max"], rel_tol=1e-9)
            for key in ("winner_is_g1", "infinity_base_winner_is_g2", "theta_base_winner_is_g1"):
                assert a[key] is b[key] is True

    def test_scaled_candidate_ranks_as_unscaled(self, monkeypatch):
        # a custom weight has no stated threshold: borrow forgotten's
        monkeypatch.setitem(verify.SECOND_RANK_THRESHOLDS, "custom", 8)
        for spec in ("custom:x^2+y^2", "custom:1e-150*(x^2+y^2)"):
            rep = verify_extremal(range(8, 13), [parse_weight(spec)], rank="second", mode="candidate")
            assert rep.ok and [case.computed["winner"] for case in rep.cases] == ["G2"] * 5

    def test_exact_tie_fails(self, monkeypatch):
        # a second class at the top rho fails rank 1, and so does a candidate tie
        classes, named, rankings = verify._rankings(6, (Z1,))
        (top, key), (_, second) = rankings[Z1][0]
        tied = {Z1: ([(top, key), (top, second)], rankings[Z1][1])}
        monkeypatch.setattr(verify, "_rankings", lambda n, fs: (classes, named, tied))
        case = verify_extremal([6], [Z1], rank="first").cases[0]
        assert case.passed is False and "near-tie at the top: gap 0.000e+00" in case.note
        monkeypatch.setattr(verify, "spectral_radii", lambda rows, f, n: np.ones(len(rows)))
        case = verify_extremal([10], [Z1], rank="second", mode="candidate").cases[0]
        assert case.computed["winner"] == "G2" and case.passed is False


def timeless(report) -> dict:
    d = report.to_dict()
    d["summary"].pop("runtime_seconds")
    return d


CAMPAIGNS = {
    "extremal_first": lambda: verify_extremal(range(4, 9), WEIGHTS, rank="first"),
    "extremal_second": lambda: verify_extremal(range(4, 9), WEIGHTS, rank="second"),
    "kelmans": lambda: verify_kelmans(60, range(4, 8), WEIGHTS, rng_seed=3),
    "kelmans_orders": lambda: verify_kelmans(
        60, range(3, 10), WEIGHTS + [WeightFunction("extended")], rng_seed=4),
    "theorem41": lambda: verify_theorem41(range(12, 16)),
}


class TestBatchedScoring:
    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_report_matches_per_graph_scoring(self, name, monkeypatch):
        batched = timeless(CAMPAIGNS[name]())
        # every rho of every report, the exhaustive ones included, is scored here
        monkeypatch.setattr(verify, "spectral_radii", per_graph_radii)
        monkeypatch.setattr(verify, "stacked_radii", lambda rows, fs, which, n: np.array(
            [per_graph_radii(r[None], fs[k], n)[0] for r, k in zip(rows, which.tolist())]))
        verify._rankings.cache_clear()
        assert batched == timeless(CAMPAIGNS[name]())

    def test_base_family_winners_match_full_scan(self):
        rep = verify_extremal(range(4, 9), WEIGHTS, rank="first")
        for case in rep.cases:
            n, f = case.inputs["n"], parse_weight(case.inputs["weight"])
            best = {}
            for g in sorted(class_graphs(n),
                            key=lambda g: (rho_f(g, f), canonical_form(g)), reverse=True):
                best.setdefault(base_graph(g).kind, canonical_form(g))
            g2 = canonical_form(graph_g2(n)) if n >= 5 else None
            assert case.computed["infinity_base_winner_is_g2"] == (best.get("infinity") == g2)
            assert case.computed["theta_base_winner_is_g1"] == (
                best.get("theta") == canonical_form(graph_g1(n)))

    def test_second_rank_with_a_single_class(self):
        rep = verify_extremal([4], [Z1], rank="second")
        (case,) = rep.cases
        assert case.passed is None
        assert case.inputs["classes"] == 1
        assert "no second class" in case.note
        assert rep.ok


ORACLE_WEIGHTS = tuple(parse_weight(w) for w in (
    "zagreb1", "hyper_zagreb", "forgotten", "constant_one", "sum_connectivity:a=3",
    "custom:x**2+y**2+x+y", "extended", "sombor:a=2,b=0.5"))
SIGNED = ORACLE_WEIGHTS[-1]  # negative on odd degree sums under signed_weights


@pytest.fixture
def signed_weights(monkeypatch):
    """SIGNED negated on the degree pairs of odd sum, in the package and in
    the conftest references alike (every catalogue weight is positive)."""
    evaluate = spectral.evaluate
    monkeypatch.setattr(spectral, "evaluate", lambda f, x, y: (
        -evaluate(f, x, y) if f == SIGNED and (x + y) % 2 else evaluate(f, x, y)))
    verify._rankings.cache_clear()
    yield
    verify._rankings.cache_clear()


class TestStreamingExhaustive:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_same_cases_as_certifying_every_class(self, n, signed_weights):
        # all eight weights, one of them signed, ranked in one stream through
        # both prune stages, against eigensolving and keying every class per
        # weight
        assert (spectral.build_matrix(graph_g1(n), SIGNED) < 0).any()
        for rank in ("first", "second"):
            for f in ORACLE_WEIGHTS:
                case = verify._exhaustive_case(n, f, rank, ORACLE_WEIGHTS)
                assert case.to_dict() == reference_exhaustive_case(n, f, rank).to_dict()

    @pytest.mark.parametrize("n", range(4, 11))
    def test_row_sum_bound_holds_for_every_class(self, n):
        # the prune's premise, max_v sum_u |f(d_v, d_u)| >= rho, from the
        # degrees alone
        graphs = class_graphs(n)
        for f in ORACLE_WEIGHTS:
            bounds = []
            for g in graphs:
                deg, sums = g.degrees(), [0.0] * n
                for u, v in g.edges:
                    w = abs(evaluate(f, deg[u], deg[v]))
                    sums[u] += w
                    sums[v] += w
                bounds.append(max(sums))
            assert np.all(np.array(bounds) >= verify.spectral_radii(graph_rows(graphs), f, n))

    @pytest.mark.parametrize("n", range(4, 11))
    def test_edge_bound_holds_for_every_class(self, n):
        # the prune's premise, rho <= max_uv sqrt(r_u r_v) <= max_v r_v with r
        # the row sums of |A_f|; K_{2,3} (n = 5) meets the edge bound with
        # equality, so rho may pass it by roundoff alone
        graphs = class_graphs(n)
        for f in ORACLE_WEIGHTS:
            rho = verify.spectral_radii(graph_rows(graphs), f, n)
            for g, rho_g in zip(graphs, rho):
                deg, sums = g.degrees(), [0.0] * n
                for u, v in g.edges:
                    w = abs(evaluate(f, deg[u], deg[v]))
                    sums[u] += w
                    sums[v] += w
                edge_bound = max(math.sqrt(sums[u] * sums[v]) for u, v in g.edges)
                assert rho_g <= edge_bound * (1 + 1e-12), (f.label(), g)
                assert edge_bound <= max(sums)

    def test_tight_edge_bound_is_scored_at_the_cut(self):
        # K_{2,3} meets the edge bound with equality (r_u r_v = 6 f(3,2)^2 on
        # every edge).  As a named class, its bracket's lo sets the cut of its
        # kind, and there it is still scored; a cut 1e-6 above its rho prunes it
        k23 = make_theta(2, 2, 2)
        rows = np.array([sorted(k23.edges)])
        for f in ORACLE_WEIGHTS:
            rho = rho_f(k23, f)
            (lo,), _ = spectral.pruned_brackets(rows, [f], 5, np.full((1, 1), -np.inf))
            for second, scored in ((lo[0], True), (rho * (1 + 1e-6), False)):
                floor = verify._cuts([2 * rho, second], [1, 0])[[1]]  # theta, infinity
                assert floor.tolist() == [second]
                _, (hi,) = spectral.pruned_brackets(rows, [f], 5, floor[:, None])
                assert (not hi[0] < floor[0]) == scored, (f.label(), second)

    @pytest.mark.parametrize("at_floor", [True, False])
    def test_a_class_at_its_floor_is_eigensolved(self, monkeypatch, at_floor):
        # each class the brackets prune gets hi at its kind's floor, or one
        # float below it: at the floor all 3 x 67 classes are eigensolved,
        # below it only the kept ones; the cases are the reference's in both
        pruned, solve, solved = verify.pruned_brackets, verify.stacked_radii, []

        def bracketing(rows, fs, n, floor):
            lo, hi = pruned(rows, fs, n, floor)
            floor = np.broadcast_to(floor, hi.shape)
            below = hi < floor
            hi[below] = floor[below] if at_floor else np.nextafter(floor[below], -np.inf)
            return lo, hi

        def counting(rows, fs, which, n):
            solved.append(len(rows))
            return solve(rows, fs, which, n)

        monkeypatch.setattr(verify, "pruned_brackets", bracketing)
        monkeypatch.setattr(verify, "stacked_radii", counting)
        verify._rankings.cache_clear()
        for rank in ("first", "second"):
            for f in WEIGHTS:
                case = verify._exhaustive_case(7, f, rank, tuple(WEIGHTS))
                assert case.to_dict() == reference_exhaustive_case(7, f, rank).to_dict()
        assert solved == [3 * 67 if at_floor else 6]
        verify._rankings.cache_clear()

    def test_tiny_weights_are_ranked(self):
        # entries near 1e-199 make r_u r_v underflow to 0, so an edge bound
        # taken as sqrt(r_u r_v) would drop every class, the named ones too
        f = parse_weight("custom:1e-200*(x+y)")
        verify._rankings.cache_clear()
        for n in (6, 8):
            for rank in ("first", "second"):
                case = verify._exhaustive_case(n, f, rank, (f,))
                assert case.to_dict() == reference_exhaustive_case(n, f, rank).to_dict()

    def test_certifies_only_what_a_verdict_reads(self, monkeypatch):
        calls = []

        def counting(g, *args):
            calls.append(g)
            return canonical_form(g, *args)

        monkeypatch.setattr(verify, "canonical_form", counting)
        for f in ORACLE_WEIGHTS:
            verify._rankings.cache_clear()
            calls.clear()
            for rank in ("first", "second"):
                assert verify_extremal([10], [f], rank=rank).ok
            assert len(calls) <= 10, f.label()

    def test_ranks_share_one_stream_per_order(self, monkeypatch):
        streams = []
        original = verify.orderly_rows

        def counting(n):
            streams.append(n)
            return original(n)

        monkeypatch.setattr(verify, "orderly_rows", counting)
        verify._rankings.cache_clear()
        for rank in ("first", "second"):
            verify_extremal(range(6, 9), ORACLE_WEIGHTS[:3], rank=rank)
        assert streams == [6, 7, 8]

    def test_builds_a_graph_only_for_scored_classes(self, monkeypatch):
        # every Graph made while ranking n = 10, named families and class keys
        # included; the earlier stream built one per class, 2,678
        built = []
        post_init = Graph.__post_init__

        def counting(g):
            built.append(g)
            post_init(g)

        monkeypatch.setattr(Graph, "__post_init__", counting)
        verify._rankings.cache_clear()
        classes, _, _ = verify._rankings(10, tuple(WEIGHTS))
        assert classes == 2678
        assert 0 < len(built) < 2678 // 5

    @pytest.mark.parametrize("n", range(4, 11))
    def test_each_degree_pair_weighed_once_per_order(self, n, monkeypatch):
        # each (f, x, y) is computed at most once per process: a second stream
        # of the same order is served by the memo alone
        calls, compute = [], weights._evaluate_generic

        def counting(f, x, y):
            calls.append((f, x, y))
            return compute(f, x, y)

        def stream():
            verify._rankings.cache_clear()
            for rank in ("first", "second"):
                verify_extremal([n], ORACLE_WEIGHTS, rank=rank)

        for f in ORACLE_WEIGHTS:  # P* runs on the exact route, which has no memo
            check_pstar(f, d_max=max(n, 8))
        evaluate.cache_clear()
        monkeypatch.setattr(weights, "_evaluate_generic", counting)
        stream()
        assert calls and len(calls) == len(set(calls))
        assert all(x <= y for _, x, y in calls)  # one value per unordered pair
        computed = len(calls)
        stream()
        assert len(calls) == computed

    def test_prune_skips_most_eigensolves(self, monkeypatch):
        # zagreb1 at n = 10 eigensolves G1 and G2 alone; the three indices at
        # n = 4..10, ranks 1 and 2, 43 matrices in 7 calls, one per order.
        # The named families' floors come from brackets, with no eigensolve
        solved, original = [], verify.stacked_radii

        def counting(rows, fs, which, n):
            solved.append(len(rows))
            return original(rows, fs, which, n)

        monkeypatch.setattr(verify, "stacked_radii", counting)
        monkeypatch.setattr(verify, "spectral_radii", None)
        verify._rankings.cache_clear()
        verify_extremal([10], [Z1], rank="first")
        assert solved == [2]
        solved.clear()
        verify._rankings.cache_clear()
        for rank in ("first", "second"):
            verify_extremal(range(4, 11), WEIGHTS, rank=rank)
        assert solved == [3, 8, 8, 6, 6, 6, 6]

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_scores_once_per_weight_after_the_stream(self, n, monkeypatch):
        # one stacked_radii call per order, after the stream ends, solves
        # the classes every weight keeps
        calls, stream, solve = [], verify.orderly_rows, verify.stacked_radii

        def streaming(n):
            yield from stream(n)
            calls.append("end of stream")

        def counting(rows, fs, which, n):
            calls.append(sorted(set(which.tolist())))
            return solve(rows, fs, which, n)

        monkeypatch.setattr(verify, "orderly_rows", streaming)
        monkeypatch.setattr(verify, "stacked_radii", counting)
        verify._rankings.cache_clear()
        verify._rankings(n, ORACLE_WEIGHTS)
        assert calls == ["end of stream", list(range(len(ORACLE_WEIGHTS)))]

    def test_graphs_built_for_three_weights(self):
        # the 2,678 classes come out as rows, and the kept classes stay rows;
        # the 66 bases, the named families, the classes a verdict reads and
        # their cores make 86 (a class key reads its standard base off the
        # core's ears and builds none); the named families' kinds come from
        # their keys
        assert graphs_built_in_fresh_process(
            "fs = tuple(map(parse_weight, ('zagreb1', 'hyper_zagreb', 'forgotten')))\n"
            "assert verify._rankings(10, fs)[0] == 2678\n") == 86

    def test_graphs_built_for_constant_one(self):
        # the weight the edge bound prunes least: the brackets keep 2 of its
        # classes, and a Graph is built only for those it keys
        assert graphs_built_in_fresh_process(
            "fs = (parse_weight('constant_one'),)\n"
            "assert verify._rankings(10, fs)[0] == 2678\n") == 82

    def test_enumerate_builds_no_class_graph(self):
        # the count comes from chunk lengths, and each base's kind from its
        # class-key head: only the 66 bases are built
        assert graphs_built_in_fresh_process(
            "from bicyclic_spectra.cli import main\n"
            "assert main(['enumerate', '--n', '10']) == 0\n") == 66


def graphs_built_in_fresh_process(code: str) -> int:
    """Every Graph a fresh process makes while it runs code."""
    import subprocess, sys
    script = (
        "from bicyclic_spectra import Graph, verify, parse_weight\n"
        "built, post_init = [], Graph.__post_init__\n"
        "def counting(g):\n"
        "    built.append(g)\n"
        "    post_init(g)\n"
        "Graph.__post_init__ = counting\n"
        + code + "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1])


def drawn_samples(rng, orders, count):
    """(n, edges, u, v) of the `count` samples of one kelmans round, in draw order: the
    values _draw_values draws, decoded order by order by _random_adjacency."""
    stores, pick, _ = verify._draw_values(rng, [verify._sample_draws(n) for n in orders], count)
    got = [None] * count
    for i, (n, store) in enumerate(zip(orders, stores)):
        adj, u, v = verify._random_adjacency(store, n)
        at = np.flatnonzero(pick == i)
        assert adj.shape == (len(at), n, n)
        for s, a, x, y in zip(at.tolist(), adj.tolist(), u.tolist(), v.tolist()):
            got[s] = (n, {(p, q) for p, q in itertools.combinations(range(n), 2) if a[p][q]}, x, y)
    return got


class TestKelmansCampaign:
    def test_deterministic_under_seed(self):
        a = verify_kelmans(40, range(4, 7), [Z1], rng_seed=11)
        b = verify_kelmans(40, range(4, 7), [Z1], rng_seed=11)
        assert [c.to_dict() for c in a.cases] == [c.to_dict() for c in b.cases]

    def test_zero_violations_for_pstar(self):
        rep = verify_kelmans(60, range(4, 8), [Z1], rng_seed=5)
        case = rep.cases[0]
        assert case.passed and case.computed["violations"] == 0
        assert case.computed["worst_delta"] > -1e-9

    def test_extended_runs_informative(self):
        rep = verify_kelmans(60, range(4, 8), [WeightFunction("extended")], rng_seed=5)
        case = rep.cases[0]
        assert case.passed is None
        assert "lacks P*" in case.note

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            verify_kelmans(0, range(4, 6), [Z1], rng_seed=1)

    def test_order_one_rejected_up_front(self):
        with pytest.raises(ValueError, match="n >= 2"):
            verify_kelmans(50, range(1, 4), [Z1], rng_seed=1)

    def test_orders_below_four_rejected_up_front(self):
        # no reroute changes the class of a graph with n <= 3
        with pytest.raises(ValueError, match="n >= 4"):
            verify_kelmans(5, range(2, 4), [Z1], rng_seed=1)

    def test_sampler_matches_reference(self):
        # a one-order round of one sample draws the order, both samplers'
        # graph, u and v, leaving the same generator state after every call,
        # so a seeded campaign draws the same samples; past n = 24 a shuffle
        # bound exceeds 255
        for seed in range(120):
            rng, ref, step = (random.Random(seed) for _ in range(3))
            for i in range(40):
                n = 2 + (seed + i) % 27
                ((_, edges, u, v),) = drawn_samples(rng, [n], 1)
                for r, sampler in ((ref, reference_random_connected_graph),
                                   (step, stepwise_random_connected_graph)):
                    r.choice([n])
                    g, x = sampler(r, n), r.randrange(n)
                    assert (edges, u, v) == (set(g.edges), x, (x + r.randrange(1, n)) % n)
                assert rng.getstate() == ref.getstate() == step.getstate()

    @pytest.mark.parametrize("lo,hi", [(2, 6), (4, 8), (3, 12), (17, 20), (24, 27)])
    def test_report_matches_graph_based_campaign(self, lo, hi):
        # P* and non-P* weights; the edge-set campaign gives the Graph-based
        # loop's report, every float bit included
        fs = [parse_weight(w) for w in ("constant_one", "extended", "sum_connectivity:a=-1")]
        for seed in (3, 8):
            got = verify_kelmans(400, range(lo, hi + 1), fs, rng_seed=seed).to_dict()
            want = reference_verify_kelmans(400, range(lo, hi + 1), fs, rng_seed=seed).to_dict()
            for report in (got, want):
                del report["summary"]["runtime_seconds"]
            assert got == want

    # order sets: the benchmark's, orders 2 and 3 (no reroute changes their
    # class) beside 4, one order alone (its pick reads words too), and wide
    # shuffle bounds
    ORDER_SETS = ([4, 5, 6, 7, 8], [2, 3, 4], [6], [9, 13, 22, 25])

    def test_batched_draw_matches_scalar_draws(self):
        # every sample's masks, u and v, and the generator state after them
        for seed in range(120):
            for orders in self.ORDER_SETS:
                rng, ref = random.Random(seed), random.Random(seed)
                count = 1 + seed % 37
                got = drawn_samples(rng, orders, count)
                want = [conftest.reference_reroute_draw(ref, orders) for _ in range(count)]
                assert got == [(n, set(g.edges), u, v) for n, g, u, v in want]
                assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("stack_bytes", [verify.STACK_BYTES, 8 * 64])
    def test_rounds_leave_the_scalar_loop_state(self, monkeypatch, stack_bytes):
        # the reroutes and their tallies, and the generator state after the
        # sample with the last change; rounds that rewind, and rounds whose
        # last sample changes no class, both occur
        rounds = []  # (count, drawn) of each round

        def recording(rng, orders, count, need):
            out = real(rng, orders, count, need)
            rounds.append((count, out[-1]))
            return out

        real = verify._reroute_round
        monkeypatch.setattr(verify, "_reroute_round", recording)
        monkeypatch.setattr(verify, "STACK_BYTES", stack_bytes)
        rewound = ended_unchanged = 0
        for seed in range(120):
            for orders in self.ORDER_SETS:
                samples = 1 + seed % 23
                rng, ref = random.Random(seed), random.Random(seed)
                rounds.clear()
                got = verify._reroute_pairs(rng, orders, samples)
                changes, pairs, disconnected = [], [], 0
                while len(pairs) < samples:
                    n, g, u, v = conftest.reference_reroute_draw(ref, orders)
                    out = conftest.reference_kelmans(g, u, v)
                    changes.append(out.changed)
                    if out.changed:
                        words = (conftest.reference_edge_word(edge_masks(n, h.edges))
                                 for h in (out.result, g))
                        pairs.append((n, *words))
                        disconnected += out.disconnects
                assert (sorted(conftest.block_words(got[0])), *got[1:]) == (
                    sorted(pairs), changes.count(False), disconnected)
                assert rng.getstate() == ref.getstate()
                end = 0
                for count, drawn in rounds:
                    end += drawn
                    rewound += drawn < count
                    ended_unchanged += not changes[end - 1]
        assert rewound and ended_unchanged

    def test_draw_limit(self, monkeypatch):
        # when no reroute changes a class, the rounds draw 1000 samples per
        # wanted change in all, and then the campaign gives up
        counts = []

        def unchanged(adj, u, v):
            private, changed, isolates = reroute(adj, u, v)
            return private, np.zeros_like(changed), isolates

        def counting(rng, plans, count):
            counts.append(count)
            return draw(rng, plans, count)

        reroute, draw = verify.reroute_stack, verify._draw_values
        monkeypatch.setattr(verify, "reroute_stack", unchanged)
        monkeypatch.setattr(verify, "_draw_values", counting)
        samples = 1
        with pytest.raises(RuntimeError, match="too few class-changing samples"):
            verify._reroute_pairs(random.Random(1), [4, 5], samples)
        assert sum(counts) == 1000 * samples

    def test_campaign_builds_graphs_only_for_pendant_shifts(self):
        # no draw becomes a Graph, and neither does a pendant shift: the 500
        # shifts come from 30 distinct drawn instances, each built as an
        # adjacency matrix and moved once by move_stack
        assert graphs_built_in_fresh_process(
            "verify.verify_kelmans(2000, range(4, 9), [parse_weight('zagreb1')], rng_seed=1)\n"
        ) == 0

    def test_scores_each_distinct_labeled_graph_once(self, monkeypatch):
        # the reference campaign scores 5,000 rows (2 per pair) of 3,692
        # distinct labeled graphs; the campaign brackets each one once and
        # eigensolves only the graphs of the pairs the brackets leave open
        distinct, bracketed, solved, calls = set(), [], [], []

        def graphs(rows, n):
            return [(n, frozenset(map(tuple, r))) for r in rows.tolist()]

        def collecting(rows, f, n):
            distinct.update(graphs(rows, n))
            return spectral_radii(rows, f, n)

        def bracketing(e, f, n, count):
            edges = [set() for _ in range(count)]
            for u, v in e.tolist():
                edges[u // n].add((u % n, v % n))
            bracketed.extend((n, frozenset(edges_i)) for edges_i in edges)
            calls.append(("bracket", n, count))
            return radius_brackets(e, f, n, count)

        def counting(rows, f, n):
            solved.extend(graphs(rows, n))
            calls.append(("solve", n, rows.shape[1]))
            return spectral_radii(rows, f, n)

        monkeypatch.setattr(conftest, "spectral_radii", collecting)
        monkeypatch.setattr(verify, "radius_brackets", bracketing)
        monkeypatch.setattr(verify, "spectral_radii", counting)
        want = reference_verify_kelmans(2000, range(4, 9), [Z1], rng_seed=1).to_dict()
        got = verify_kelmans(2000, range(4, 9), [Z1], rng_seed=1).to_dict()
        for report in (got, want):
            del report["summary"]["runtime_seconds"]
        assert got == want
        assert len(bracketed) == len(set(bracketed)) == len(distinct) == 3692
        assert set(bracketed) == distinct
        assert len(solved) == len(set(solved)) == 20
        # every order is bracketed, in batches of at most BRACKET_CHUNK graphs,
        # before the first eigensolve; then one eigensolve call per (order,
        # size) group with an open pair, ascending
        brackets = [call for call in calls if call[0] == "bracket"]
        assert calls[:len(brackets)] == brackets
        per_order = {}
        for _, n, count in brackets:
            assert count <= verify.BRACKET_CHUNK
            per_order[n] = per_order.get(n, 0) + count
        assert sum(per_order.values()) == 3692 and list(per_order) == sorted(per_order)
        assert len(brackets) == sum(-(-count // verify.BRACKET_CHUNK) for count in per_order.values())
        solves = [call[1:] for call in calls[len(brackets):]]
        assert solves == sorted(set(solves)) and len(solves) == 4

    def test_pairs_at_the_thresholds_stay_open(self, monkeypatch):
        # exact brackets (lo = hi = rho): a pair whose lower end is -slack, or
        # the least upper end, is solved; a pair above both is not
        rho = {(4, 0b000111): 1.0, (4, 0b001011): 1.5, (4, 0b001101): 3.0, (4, 0b010011): 2.0}
        self.bracket_by_word(monkeypatch, {key: (value, value) for key, value in rho.items()})
        blocks = [(4, conftest.packed_words(after, 4), conftest.packed_words(before, 4))
                  for after, before in [([0b000111, 0b000111], [0b001011, 0b001101]),
                                        ([0b001101], [0b010011])]]
        assert verify._certified_deltas(blocks, Z1, 0.5).tolist() == [-0.5, -2.0, math.inf]
        assert verify._certified_deltas(blocks, Z1, 3.0).tolist() == [math.inf, -2.0, math.inf]

    def test_the_cut_spans_every_order(self, monkeypatch):
        # pair P of order 4 has its lower end 0.5 at the least upper end, from
        # pair Q of order 5: P stays open.  Pair R of order 4 has its lower end
        # one float above 0.5: certified, by the later order's upper end
        # alone, as the least upper end of order 4 is 1.0
        above = np.nextafter(1.5, 2.0)
        brackets = {(4, 0b000111): (1.5, 2.0), (4, 0b001011): (1.0, 1.0),
                    (4, 0b001101): (above, 2.5), (4, 0b010011): (1.0, 1.0),
                    (5, 0b0000001111): (3.0, 3.0), (5, 0b0000010111): (2.5, 2.5)}
        self.bracket_by_word(monkeypatch, brackets)
        blocks = [(5, conftest.packed_words([0b0000001111], 5), conftest.packed_words([0b0000010111], 5)),
                  (4, conftest.packed_words([0b000111, 0b001101], 4),
                   conftest.packed_words([0b001011, 0b010011], 4))]
        assert verify._certified_deltas(blocks, Z1, 0.1).tolist() == [0.5, 0.5, math.inf]

    @staticmethod
    def bracket_by_word(monkeypatch, brackets):
        """Brackets (lo, hi) by (n, edge word), and rho = lo from the eigensolver."""
        def word(n, edges):
            return conftest.reference_edge_word(edge_masks(n, map(tuple, edges)))

        def bracket(e, f, n, count):
            edges = [[] for _ in range(count)]
            for u, v in e.tolist():
                edges[u // n].append((u % n, v % n))
            return tuple(np.array(ends) for ends in zip(*(brackets[n, word(n, g)] for g in edges)))

        monkeypatch.setattr(verify, "radius_brackets", bracket)
        monkeypatch.setattr(verify, "spectral_radii", lambda rows, f, n: np.array(
            [brackets[n, word(n, r)][0] for r in rows.tolist()]))

    def test_campaign_makes_no_certificate(self):
        # the class-change test is kelmans' closed form; canonical_form's
        # lru_cache counts every call, whichever module makes it
        info = canonical_form.cache_info()
        before = info.hits + info.misses
        assert verify_kelmans(500, range(4, 9), [Z1], rng_seed=0).ok
        info = canonical_form.cache_info()
        assert info.hits + info.misses == before


class TestIntegerDraw:
    """_draw_values reads the words that drawing each sample with rng.randrange
    reads, and gives the same values."""

    @staticmethod
    def scalar(rng, plans, count):
        """(plan index, values) of `count` samples drawn one by one."""
        draws = []
        for _ in range(count):
            i = rng.randrange(len(plans))
            draws.append((i, [rng.randrange(b) for b, _ in plans[i]]))
        return draws

    @staticmethod
    def batched(rng, plans, count):
        """_draw_values's samples as (plan index, values), in draw order, and its ends."""
        stores, pick, ends = verify._draw_values(rng, plans, count)
        values = [iter(store) for store in stores]
        draws = [(i, [next(values[i]) for _ in plans[i]]) for i in pick.tolist()]
        assert all(next(rest, None) is None for rest in values)  # no value left over
        return draws, ends

    @staticmethod
    def plans(*bound_lists):
        return [tuple((b, b.bit_length()) for b in bounds) for bounds in bound_lists]

    def test_matches_random_module(self):
        # bounds 1..300 over three plans; a bound of 1 rejects half its draws
        plans = self.plans(*(range(1 + k, 301, 3) for k in range(3)))
        for seed in range(100):
            rng, mine = random.Random(seed), random.Random(seed)
            assert self.batched(mine, plans, 4)[0] == self.scalar(rng, plans, 4)
            assert mine.getstate() == rng.getstate()

    def test_wide_bounds_read_several_words(self):
        # past 2**32 one draw takes more than one 32-bit word
        plans = self.plans((2**32 + 1, 3 * 2**33 - 7), (2**63 + 2**40, 2**64))
        for seed in range(20):
            rng, mine = random.Random(seed), random.Random(seed)
            assert self.batched(mine, plans, 10)[0] == self.scalar(rng, plans, 10)
            assert mine.getstate() == rng.getstate()

    def test_ends_count_the_words_read(self):
        # a fresh generator that skips ends[i] words stands where drawing
        # samples 0..i one by one leaves it, rejections included
        plans = self.plans((3, 1, 2**40 + 1, 300), (5,), (2**33 + 1, 7, 1))
        for seed in range(50):
            _, ends = self.batched(random.Random(seed), plans, 30)
            ref = random.Random(seed)
            for end in ends:
                self.scalar(ref, plans, 1)
                fresh = random.Random(seed)
                fresh.getrandbits(32 * end)
                assert fresh.getstate() == ref.getstate()


class TestEdgeWords:
    def test_words_and_rows_round_trip(self):
        # bit i of a graph's packed row is the i-th pair u < v, in lexicographic
        # order; up to n = 20 a row holds 190 bits, past one 64-bit word
        for seed in range(20):
            rng = random.Random(seed)
            for n in range(2, 21):
                g = reference_random_connected_graph(rng, n)
                masks = edge_masks(n, g.edges)
                word = conftest.reference_edge_word(masks)
                pairs = itertools.combinations(range(n), 2)
                assert word == sum(1 << i for i, pair in enumerate(pairs) if pair in g.edges)
                adj = np.array([[[masks[u] >> v & 1 for v in range(n)] for u in range(n)]] * 2, bool)
                rows = verify._packed_rows(adj)
                assert conftest.block_words([(n, rows, rows)]) == [(n, word, word)] * 2
                graph, edges = verify._row_edges(rows, n)
                assert graph.tolist() == [0] * g.m + [1] * g.m
                assert edges[:g.m].tolist() == edges[g.m:].tolist() == sorted(map(list, g.edges))

    def test_rows_of_a_group(self):
        # graphs of all sizes in one batch, each edge tagged with its graph
        rng = random.Random(5)
        for n in (5, 12, 20):
            graphs = [reference_random_connected_graph(rng, n) for _ in range(30)]
            assert len({g.m for g in graphs}) > 1
            rows = conftest.packed_words([conftest.reference_edge_word(edge_masks(n, g.edges))
                                          for g in graphs], n)
            graph, edges = verify._row_edges(rows, n)
            assert [frozenset(map(tuple, edges[graph == i].tolist())) for i in range(30)] == [
                g.edges for g in graphs]

    def test_distinct_rows(self):
        # duplicates collapse to one row each, past one 64-bit word at n = 12;
        # rows == distinct[inverse]
        rng = random.Random(2)
        for n in (4, 11, 12, 20):
            words = [conftest.reference_edge_word(edge_masks(n, reference_random_connected_graph(rng, n).edges))
                     for _ in range(40)]
            words += words[:15] + [words[0]] * 3
            rng.shuffle(words)
            rows = conftest.packed_words(words, n)
            distinct, inverse = verify._distinct_rows(rows)
            assert np.array_equal(distinct[inverse], rows)
            assert len(distinct) == len(set(words)) == len({r.tobytes() for r in distinct})


class TestTheorem41Campaign:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            verify_theorem41(range(10, 13))
        with pytest.raises(ValueError):
            verify_theorem41(range(55, 66))

    def test_small_run(self):
        rep = verify_theorem41(range(12, 15))
        assert rep.ok
        chain = next(c for c in rep.cases if c.case_id == "theorem41/chain/n=12")
        assert chain.computed["rho_ex_g2"] == pytest.approx(15.8028, abs=5e-4)

    @staticmethod
    def scored_sizes(monkeypatch) -> list:
        sizes = []

        def counting(rows, f, n):
            sizes.append(len(rows))
            return spectral_radii(rows, f, n)

        monkeypatch.setattr(verify, "spectral_radii", counting)
        return sizes

    def test_report_matches_all_nine_oracle(self, monkeypatch):
        # every float bit of the report is the one solving all nine classes
        # gives; 147 of the 441 family matrices at n = 12..60 are solved, one
        # call per order: G1, G2 and the class with the largest bracket lo,
        # as no other class's bracket reaches that lo
        want = reference_verify_theorem41(range(12, 61)).to_dict()
        sizes = self.scored_sizes(monkeypatch)
        got = verify_theorem41(range(12, 61)).to_dict()
        for report in (got, want):
            del report["summary"]["runtime_seconds"]
        assert got == want
        assert sizes == [3] * 49

    @pytest.mark.parametrize("orders", [range(12, 61), range(15, 28), [60]])
    def test_calls_of_seven_orders_match_one_order_calls(self, orders):
        # the brackets of up to seven orders share one call; the report is,
        # record for record, that of one call per order and the reference's
        got = timeless(verify_theorem41(orders))
        alone = [case for n in orders for case in timeless(verify_theorem41([n]))["cases"]]
        assert got["cases"] == alone
        assert got == timeless(reference_verify_theorem41(orders))

    def test_each_order_reads_its_own_brackets(self, monkeypatch):
        # each bracket call holds the nine classes of up to seven consecutive
        # orders, each with its own edges at the call's largest order, so its
        # vertices past n are isolated.  Class n % 9 of order n gets hi = inf:
        # order n solves G1, G2, its top class and that class, no other
        orders, seen, solved = list(range(15, 28)), [], []
        ext = WeightFunction("extended")
        tops = {n: np.argmax(spectral_radii(verify.max_degree_rows(n), ext, n)) for n in orders}

        def bracket(e, f, top, count):
            lo, hi = radius_brackets(e, f, top, count)
            graph = e[:, 0] // top
            call = []
            for i in range(count):
                edges = e[graph == i] - i * top
                n, k = len(edges) - 1, i % 9
                assert np.array_equal(edges, verify.max_degree_rows(n)[k])
                if k == 0:
                    call.append(n)
                if k == n % 9:
                    hi[i] = np.inf
            assert top == max(call) and len(call) == min(7, len(orders) - len(seen))
            seen.extend(call)
            return lo, hi

        def counting(rows, f, n):
            solved.append((n, rows))
            return spectral_radii(rows, f, n)

        monkeypatch.setattr(verify, "radius_brackets", bracket)
        monkeypatch.setattr(verify, "spectral_radii", counting)
        got = timeless(verify_theorem41(orders))
        assert seen == orders
        assert got == timeless(reference_verify_theorem41(orders))
        assert [n for n, _ in solved] == orders
        for n, rows in solved:
            chain = graph_rows([graph_g1(n), graph_g2(n)])
            family = verify.max_degree_rows(n)[sorted({tops[n], n % 9})]
            assert np.array_equal(rows, np.concatenate([chain, family]))

    @staticmethod
    def bracketed_run(monkeypatch, at_floor: bool, open_classes=()):
        """(eigensolve sizes, report, reference report, top) at n = 12 when the
        class `top` with the largest rho gets the bracket (rho_top, 2 rho_top),
        the open classes (-inf, inf), and the others (0, rho_top), at the
        floor, or (0, the float below rho_top)."""
        n, ext = 12, WeightFunction("extended")
        rho = spectral_radii(verify.max_degree_rows(n), ext, n)
        top = int(np.argmax(rho))
        lo = np.zeros(9)
        hi = np.full(9, rho[top] if at_floor else np.nextafter(rho[top], 0))
        lo[top], hi[top] = rho[top], 2 * rho[top]
        lo[list(open_classes)], hi[list(open_classes)] = -np.inf, np.inf
        monkeypatch.setattr(verify, "radius_brackets", lambda e, f, n, count: (lo, hi))
        sizes = TestTheorem41Campaign.scored_sizes(monkeypatch)
        got, want = verify_theorem41([n]).to_dict(), reference_verify_theorem41([n]).to_dict()
        for report in (got, want):
            del report["summary"]["runtime_seconds"]
        return sizes, got, want, top

    @pytest.mark.parametrize("at_floor", [True, False])
    def test_prune_keeps_a_bound_at_its_floor(self, monkeypatch, at_floor):
        # a class whose hi equals the top class's lo is solved; one float below, it is not
        sizes, got, want, _ = self.bracketed_run(monkeypatch, at_floor)
        assert sizes == [11 if at_floor else 3]
        assert got == want

    def test_prune_solves_open_classes(self, monkeypatch):
        # an open class is solved, and the top class is the one with the largest
        # lo, not the open class with its infinite hi
        sizes, got, want, top = self.bracketed_run(monkeypatch, False, open_classes=[0])
        assert top != 0
        assert sizes == [4]
        assert got == want
        # an all-open order solves all nine
        sizes, got, want, _ = self.bracketed_run(monkeypatch, False, open_classes=range(9))
        assert sizes == [11]
        assert got == want


class TestCli:
    def test_tables_exit_code_and_stdout(self, capsys):
        assert main(["tables", "appendix_n6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is True

    def test_json_and_csv_files(self, tmp_path, capsys):
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        code = main(["tables", "extended_table1", "--json", str(jpath), "--csv", str(cpath)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(jpath.read_text())["campaign"] == "tables/extended_table1"
        assert cpath.read_text().startswith("case_id")

    def test_extremal_subcommand(self, capsys):
        code = main(["extremal", "--n", "4..6", "--f", "zagreb1", "--rank", "1",
                     "--mode", "exhaustive"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["summary"]["failed"] == 0

    @pytest.mark.parametrize("spec,labels", [
        ("sombor:a=2,b=2", ["sombor:a=2,b=2"]),
        ("custom:min(x,y)+x+y", ["custom:min(x,y)+x+y"]),
        ("sombor:a=2, B=2,zagreb1,custom:max(x,y)*(x+y),platt:alpha=2",
         ["sombor:a=2,b=2", "zagreb1", "custom:max(x,y)*(x+y)", "platt:a=2"]),
    ], ids=["two_parameters", "parenthesised_comma", "mixed_list"])
    def test_weights_with_commas(self, spec, labels, capsys):
        code = main(["extremal", "--n", "6", "--f", spec, "--rank", "2", "--mode", "candidate"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [case["inputs"]["weight"] for case in payload["cases"]] == labels

    def test_kelmans_subcommand_requires_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["kelmans", "--samples", "10", "--f", "zagreb1"])
        capsys.readouterr()

    def test_kelmans_subcommand(self, capsys):
        code = main(["kelmans", "--samples", "25", "--seed", "9", "--f", "zagreb1",
                     "--n", "4..6"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["cases"][0]["inputs"]["seed"] == 9

    def test_enumerate_streams_graph6(self, capsys):
        code = main(["enumerate", "--n", "5", "--graph6"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        summary = json.loads(out[-1])
        assert summary["count"] == 5
        decoded = [graph6_decode(line) for line in out[:-1]]
        assert len(decoded) == 5
        assert all(g.is_bicyclic() for g in decoded)

    def test_enumerate_max_degree(self, capsys):
        code = main(["enumerate", "--n", "7", "--max-degree", "6"])
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0 and summary["count"] == 2

    def test_enumerate_targeted_family_via_cli(self, capsys):
        code = main(["enumerate", "--n", "12", "--max-degree", "10", "--graph6"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert json.loads(out[-1])["count"] == 9
        assert len(out) == 10

    @pytest.mark.parametrize("argv,digest", [
        (["--n", "4"], "de980e55f0e6e98b9190f21e40b7894fc2783c57a7e68d24eccd4c8fb4ab53ec"),
        (["--n", "5"], "e73355d21260beb607f79a1c37778dc18596210faa43d8379202de2ff41e7313"),
        (["--n", "6"], "28d75b007fb59dc8d687270776ea4b869adf38ed05db4b9c29fd76f9a6cecb7f"),
        (["--n", "7"], "da70f27ab3e01b61216726792309976e8ea050bcc0cc0f3fe9afa3bea22abb52"),
        (["--n", "8"], "a9bf680c8c684acb18519bc603888097934f5b0645770c15ae947f577085ec26"),
        (["--n", "9"], "625e38114fda7f586b90c4c1311d6e48c65269a56b67c4457279ece939049178"),
        (["--n", "12", "--max-degree", "10"],
         "15aad248a6d6f61e800f16e5594ae6014fd252b210b47df39baed029f54d748f"),
    ], ids=["n4", "n5", "n6", "n7", "n8", "n9", "n12_max_degree10"])
    def test_enumerate_output_bytes_pinned(self, argv, digest, capsys):
        # sha256 of the full stdout (graph6 lines in class-key order, the
        # targeted family in pattern order, then the summary), so any change
        # to the classes, their representatives or their order shows
        import hashlib
        assert main(["enumerate", *argv, "--graph6"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", [
        (["--n", "4"], "de980e55f0e6e98b9190f21e40b7894fc2783c57a7e68d24eccd4c8fb4ab53ec"),
        (["--n", "5"], "8a7e0748de27fa62b27f06dce5da4e48962e433220add6d7f63ff5a1eeecbcf5"),
        (["--n", "6"], "cd9768a29bda2161e4f4956d5d53bdc9a79192f65bcc5cfcf6000ba02d46a4b7"),
        (["--n", "7"], "f3c2b797c2720d95e0815b582df6fa7afab8b5841f561fa6a49894ebbcb5c8b2"),
        (["--n", "8"], "7331fbd2f4f5074bb5f6da9d6cdc9a6940b5b30cb478270f6c358aab640fcadf"),
        (["--n", "9"], "b39c86c9f099e2194e2520d57d21e83a2b814461a959b2f63b9e407e24743ea3"),
        (["--n", "12", "--max-degree", "10"],
         "14e4dbc60f65c2e70c70345d6817b0daa55a9652ddfa994d08cf760dbc556235"),
    ], ids=["n4", "n5", "n6", "n7", "n8", "n9", "n12_max_degree10"])
    def test_enumerate_sorted_lines_pinned(self, argv, digest, capsys):
        # sha256 of the sorted graph6 lines, then the summary: pins the
        # classes and their representatives apart from the output order
        import hashlib
        assert main(["enumerate", *argv, "--graph6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        text = "\n".join(sorted(lines[:-1]) + lines[-1:]) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_spectral_subcommand(self, capsys):
        code = main(["spectral", "--graph", "G2:6", "--f", "zagreb1", "--full-spectrum"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["rho"] == pytest.approx(17.0855, abs=5e-4)
        assert len(payload["spectrum"]) == 6
        assert payload["n"] == 6 and payload["m"] == 7

    def test_spectral_certificate_is_the_class_key(self, capsys):
        # any order (G1:20 hangs a 17-vertex tree); null when not bicyclic
        for text, g in (("G1:20", graph_g1(20)), ("G2:6", graph_g2(6))):
            assert main(["spectral", "--graph", text, "--f", "zagreb1"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["certificate"] == list(canonical_form(g))
        c5 = "Dhc"
        assert graph6_decode(c5).m == 5
        assert main(["spectral", "--graph", c5, "--f", "zagreb1"]) == 0
        assert json.loads(capsys.readouterr().out)["certificate"] is None

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int-to-string digit limit")
    def test_spectral_prints_a_key_past_the_digit_limit(self, capsys):
        # G1:1200's shape code has 721 digits, past a limit lowered to 640;
        # the command lifts the limit only while it prints, then restores it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(["spectral", "--graph", "G1:1200", "--f", "zagreb1"])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["certificate"] == list(canonical_form(graph_g1(1200)))

    def test_spectral_accepts_graph6(self, capsys):
        from bicyclic_spectra import graph6_encode
        s = graph6_encode(graph_g2(6))
        code = main(["spectral", "--graph", s, "--f", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["graph6"] == s

    def test_theorem41_subcommand(self, capsys):
        code = main(["theorem41", "--n", "12..13"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["summary"]["ok"]

    def test_failing_report_exits_nonzero(self, capsys):
        import argparse
        from bicyclic_spectra.cli import _emit
        rep = VerificationReport("demo", cases=[CaseRecord("x", {}, {}, passed=False)])
        ns = argparse.Namespace(json_out=None, csv_out=None)
        assert _emit(rep, ns) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "12"],
        ["enumerate", "--n", "10", "--max-degree", "-1"],
        ["extremal", "--n", "11", "--f", "zagreb1"],
        ["spectral", "--graph", "G1:8", "--f", "custom:x-y"],
        ["theorem41", "--n", "5..70"],
        ["kelmans", "--samples", "5", "--seed", "1", "--f", "zagreb1", "--n", "2"],
        ["tables", "appendix_n6", "--json", "/nonexistent/x.json"],
        ["tables", "appendix_n6", "--csv", "/nonexistent/x.csv"],
        # weights beyond float range: the eigensolver fails on entries from e**8 to
        # 2.3e222, or a weight overflows
        ["extremal", "--n", "4..6", "--f", "exp_sum_connectivity:a=3", "--mode", "exhaustive"],
        ["kelmans", "--samples", "20", "--seed", "1", "--f", "exp_sum_connectivity:a=3"],
        ["spectral", "--graph", "G1:12", "--f", "exp_sum_connectivity:a=3"],
        ["extremal", "--n", "4..5", "--f", "sum_connectivity:a=500.5"],
        # weights undefined on a degree pair: 0 to a negative power, a division by zero
        ["extremal", "--n", "6", "--f", "platt:a=-1", "--mode", "exhaustive"],
        ["kelmans", "--samples", "10", "--seed", "1", "--f", "platt:a=-1"],
        ["spectral", "--graph", "A_", "--f", "platt:a=-1"],
        ["spectral", "--graph", "G1:6", "--f", "custom:1/(x-y)**2+1"],
        ["spectral", "--graph", "G1:6", "--f", "custom:(x-1)**-1+1"],
        # candidate mode asserts the rank-2 claim only
        ["extremal", "--n", "10", "--f", "zagreb1", "--mode", "candidate"],
    ], ids=["enumeration_bound", "negative_max_degree", "extremal_order_bound", "weight_spec",
            "theorem41_range", "kelmans_order_floor", "unwritable_json", "unwritable_csv",
            "eigensolve_exhaustive", "eigensolve_kelmans", "overflow_spectral", "overflow_pstar",
            "undefined_extremal",
            "undefined_kelmans", "undefined_spectral", "undefined_custom_division",
            "undefined_custom_power", "candidate_rank_one"])
    def test_domain_errors_exit_two_without_traceback(self, argv):
        import subprocess, sys
        proc = subprocess.run([sys.executable, "-m", "bicyclic_spectra", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("bicyclic-spectra: error: ")

    @pytest.mark.parametrize("argv,message", [
        (["spectral", "--graph", "G2:3", "--f", "zagreb1"], "G2 requires n >= 5"),
        (["spectral", "--graph", "G1:x", "--f", "zagreb1"], "invalid literal for int()"),
        (["spectral", "--graph", "B:0,0,0", "--f", "zagreb1"], "needs cycle lengths >= 3"),
        (["spectral", "--graph", "zzz", "--f", "zagreb1"], "'zzz': truncated graph6 string"),
        (["extremal", "--n", "9..3", "--f", "zagreb1"], "empty range '9..3'"),
        (["extremal", "--n", "9..x", "--f", "zagreb1"], "argument --n: '9..x': invalid literal"),
        (["extremal", "--n", "4..6", "--f", "zorg"], "argument --f: unknown weight kind 'zorg'"),
        (["extremal", "--n", "4..6", "--f", "custom:exp(exp(x*y))"], "non-finite at (1,7)"),
        (["kelmans", "--samples", "5", "--f", "zagreb1"], "required: --seed"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["extremal", "--n", "6", "--f", "platt:a=-1", "--mode", "exhaustive"],
         "platt:a=-1 is undefined at degrees (1,1)"),
        (["kelmans", "--samples", "10", "--seed", "1", "--f", "platt:a=-1"],
         "platt:a=-1 is undefined at degrees (1,1)"),
        (["spectral", "--graph", "A_", "--f", "platt:a=-1"],
         "platt:a=-1 is undefined at degrees (1,1)"),
        (["spectral", "--graph", "G1:6", "--f", "custom:1/(x-y)**2+1"],
         "custom expression '1/(x-y)**2+1' is undefined at (1,1)"),
        (["spectral", "--graph", "G1:6", "--f", "custom:(x-1)**-1+1"],
         "custom expression '(x-1)**-1+1' is undefined at (1,1)"),
        (["spectral", "--graph", "G1:6", "--f", "custom:log(x-1)+5"],
         "custom expression 'log(x-1)+5' is undefined at (1,1)"),
        (["spectral", "--graph", "G1:6", "--f", "custom:(x-2)**0.5+5"],
         "custom expression '(x-2)**0.5+5' is undefined at (1,1)"),
        # every comparison with NaN is false, so P* would pass it
        (["extremal", "--n", "5", "--f", "sum_connectivity:a=nan"],
         "sum_connectivity parameter alpha must be finite"),
    ], ids=["named_order", "named_int", "named_params", "graph6", "empty_range",
            "range_int", "weight_kind", "weight_overflow", "missing_option", "unknown_command",
            "undefined_extremal", "undefined_kelmans", "undefined_spectral",
            "undefined_custom_division", "undefined_custom_power", "undefined_custom_log",
            "undefined_custom_root", "weight_nan"])
    def test_argument_errors_print_one_line(self, argv, message):
        import subprocess, sys
        proc = subprocess.run([sys.executable, "-m", "bicyclic_spectra", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("bicyclic-spectra: error: ") and message in line

    @pytest.mark.parametrize("argv,label", [
        (["kelmans", "--samples", "5", "--seed", "1", "--f", "zagreb1,zagreb1"], "zagreb1"),
        (["extremal", "--n", "4..6", "--f", "zagreb1,forgotten,zagreb1"], "zagreb1"),
        (["extremal", "--n", "6", "--f", "sombor:a=2,b=2,sombor:a=2, B=2", "--rank", "2",
          "--mode", "candidate"], "sombor:a=2,b=2"),
    ], ids=["kelmans", "extremal", "same_label"])
    def test_repeated_weight_exits_two(self, argv, label):
        # a repeated weight would run its campaign twice, two records with
        # one case_id
        import subprocess, sys
        proc = subprocess.run([sys.executable, "-m", "bicyclic_spectra", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"bicyclic-spectra: error: argument --f: weight {label!r} "
                               "given twice\n")

    @pytest.mark.parametrize("argv", [
        ["kelmans", "--samples", "5", "--seed", "1", "--f", ","],
        ["extremal", "--n", "4..5", "--f", " "],
    ], ids=["kelmans", "extremal"])
    def test_empty_weight_list_exits_two(self, argv):
        # a campaign over no weight would report no case and pass
        import subprocess, sys
        proc = subprocess.run([sys.executable, "-m", "bicyclic_spectra", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "bicyclic-spectra: error: argument --f: no weight given\n"

    @pytest.mark.parametrize("argv,order", [
        (["extremal", "--n", "6", "--f", "exp_sum_connectivity:a=3", "--mode", "exhaustive"], 6),
        (["kelmans", "--samples", "20", "--seed", "1", "--f", "exp_sum_connectivity:a=3"], None),
    ], ids=["extremal", "kelmans"])
    def test_eigensolver_failure_names_weight_and_order(self, argv, order, capsys):
        # LAPACK does not converge on entries from e**8 to 2.3e222
        assert main(argv) == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert out == "" and line.startswith(
            "bicyclic-spectra: error: exp_sum_connectivity:a=3 at n=")
        assert "symmetric eigensolver did not converge" in line
        if order is not None:
            assert f"at n={order}:" in line

    @pytest.mark.parametrize("message", [
        "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64",
        "",
    ], ids=["numpy", "bare"])
    def test_memory_error_exits_two(self, monkeypatch, capsys, message):
        # an order too large to hold its matrix; patched, since where the
        # kernel overcommits a real G1:100000 may try to allocate it
        def huge(g, f):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "build_matrix", huge)
        assert main(["spectral", "--graph", "G1:100000", "--f", "zagreb1"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"bicyclic-spectra: error: {message or 'out of memory'}\n")

    def test_module_entry_point(self):
        import subprocess, sys
        proc = subprocess.run(
            [sys.executable, "-m", "bicyclic_spectra", "enumerate", "--n", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout.strip().splitlines()[-1])["count"] == 1

    def test_closed_stdout_ends_quietly(self, tmp_path, monkeypatch, capsys):
        import os
        import sys

        class ClosedPipe(io.StringIO):
            """A stdout whose reader has left; fileno is a file the test owns."""

            def __init__(self, fd):
                super().__init__()
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            for argv in (["enumerate", "--n", "6", "--graph6"],
                         ["spectral", "--graph", "G1:8", "--f", "zagreb1"]):
                monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
                code = main(argv)
                monkeypatch.undo()
                assert code == 141  # not 2, which means bad input
                assert capsys.readouterr().err == ""
                # the descriptor now points at the null device, so the flush at
                # interpreter exit has a sink
                assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    def test_closed_pipe_exit_is_quiet(self):
        # the reader is gone before the first write, as after `| head -1`
        import subprocess, sys
        proc = subprocess.Popen(
            [sys.executable, "-m", "bicyclic_spectra", "enumerate", "--n", "8", "--graph6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestParseGraphArgument:
    def test_named(self):
        assert canonical_form(parse_graph_argument("G1:8")) == canonical_form(
            parse_graph_argument("G1:8"))
        assert parse_graph_argument("B:3,1,3").n == 5
        assert parse_graph_argument("P:2,1,2").n == 4

    def test_graph6_passthrough(self):
        from bicyclic_spectra import graph6_encode
        g = graph_g2(7)
        assert parse_graph_argument(graph6_encode(g)) == g

    def test_rejects_garbage(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_graph_argument("nonsense:::")
