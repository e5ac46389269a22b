import csv
import io
import json
import random

import numpy as np
import pytest

from bicyclic_spectra import (
    CaseRecord,
    VerificationReport,
    WeightFunction,
    base_graph,
    canonical_form,
    enumerate_bicyclic,
    evaluate,
    graph6_decode,
    graph_g1,
    graph_g2,
    parse_weight,
    rho_f,
    run_table,
    verify_extremal,
    verify_kelmans,
    verify_theorem41,
)
from bicyclic_spectra import verify
from bicyclic_spectra.cli import main, parse_graph_argument
from bicyclic_spectra.verify import printed_tolerance
from conftest import (per_graph_radii, per_matrix_eigenpairs, reference_exhaustive_case,
                      reference_random_connected_graph)

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

    def test_candidate_below_threshold_informative(self):
        rep = verify_extremal([6], [Z1], rank="second", mode="candidate")
        case = rep.cases[0]
        assert case.passed is None
        assert case.computed["winner"] == "G4"  # small-order regime

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
    def test_artificial_gap_requirement_fails_loudly(self):
        # demanding an absurd winning gap must fail with both certificates shown
        rep = verify_extremal([6], [Z1], rank="first", mode="exhaustive", min_gap=1e9)
        case = rep.cases[0]
        assert case.passed is False
        assert "near-tie" in case.note and "certificates" in case.note


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
        monkeypatch.setattr(verify, "spectral_radii", per_graph_radii)
        # the exhaustive stream eigensolves its stacked matrices directly
        monkeypatch.setattr(verify, "_dominant_eigenpairs", per_matrix_eigenpairs)
        verify._rankings.cache_clear()
        assert batched == timeless(CAMPAIGNS[name]())

    def test_base_family_winners_match_full_scan(self):
        rep = verify_extremal(range(4, 9), WEIGHTS, rank="first")
        for case in rep.cases:
            n, f = case.inputs["n"], parse_weight(case.inputs["weight"])
            best = {}
            for g in sorted(enumerate_bicyclic(n, "constructive").graphs,
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
    "custom:x**2+y**2+x+y"))


class TestStreamingExhaustive:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_same_cases_as_certifying_every_class(self, n):
        # all six weights ranked in one stream, against certify-and-sort per weight
        for rank in ("first", "second"):
            for f in ORACLE_WEIGHTS:
                case = verify._exhaustive_case(n, f, rank, 1e-9, ORACLE_WEIGHTS)
                assert case.to_dict() == reference_exhaustive_case(n, f, rank).to_dict()

    @pytest.mark.parametrize("n", range(4, 11))
    def test_row_sum_bound_holds_for_every_class(self, n):
        # the prune's premise, max_v sum_u |f(d_v, d_u)| >= rho, from the
        # degrees alone
        graphs = enumerate_bicyclic(n).graphs
        for f in ORACLE_WEIGHTS:
            bounds = []
            for g in graphs:
                deg, sums = g.degrees(), [0.0] * n
                for u, v in g.edges:
                    w = abs(evaluate(f, deg[u], deg[v]))
                    sums[u] += w
                    sums[v] += w
                bounds.append(max(sums))
            assert np.all(np.array(bounds) >= verify.spectral_radii(graphs, f))

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
        original = verify.orderly_classes

        def counting(n):
            streams.append(n)
            return original(n)

        monkeypatch.setattr(verify, "orderly_classes", counting)
        verify._rankings.cache_clear()
        for rank in ("first", "second"):
            verify_extremal(range(6, 9), ORACLE_WEIGHTS[:3], rank=rank)
        assert streams == [6, 7, 8]

    def test_prune_skips_most_eigensolves(self, monkeypatch):
        solved = []
        original = verify._dominant_eigenpairs

        def counting(a, tol):
            solved.append(len(a))
            return original(a, tol)

        monkeypatch.setattr(verify, "_dominant_eigenpairs", counting)
        verify._rankings.cache_clear()
        verify_extremal([10], [Z1], rank="first")
        assert sum(solved) < 2678 // 2


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
        rng, ref = random.Random(17), random.Random(17)
        for i in range(2000):
            n = 1 + i % 9
            assert verify.random_connected_graph(rng, n) == reference_random_connected_graph(ref, n)
            assert rng.getstate() == ref.getstate()


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

    def test_spectral_subcommand(self, capsys):
        code = main(["spectral", "--graph", "G2:6", "--f", "zagreb1", "--full-spectrum"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["rho"] == pytest.approx(17.0855, abs=5e-4)
        assert len(payload["spectrum"]) == 6
        assert payload["n"] == 6 and payload["m"] == 7

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
        ["extremal", "--n", "11", "--f", "zagreb1"],
        ["spectral", "--graph", "G1:8", "--f", "custom:x-y"],
        ["theorem41", "--n", "5..70"],
        ["kelmans", "--samples", "5", "--seed", "1", "--f", "zagreb1", "--n", "2"],
    ], ids=["enumeration_bound", "extremal_order_bound", "weight_spec", "theorem41_range",
            "kelmans_order_floor"])
    def test_domain_errors_exit_two_without_traceback(self, argv):
        import subprocess, sys
        proc = subprocess.run([sys.executable, "-m", "bicyclic_spectra", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("bicyclic-spectra: error: ")

    def test_module_entry_point(self):
        import subprocess, sys
        proc = subprocess.run(
            [sys.executable, "-m", "bicyclic_spectra", "enumerate", "--n", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout.strip().splitlines()[-1])["count"] == 1


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
