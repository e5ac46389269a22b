import random

import numpy as np
import pytest

from bicyclic_spectra import (
    Graph,
    SpectralError,
    WeightFunction,
    build_matrix,
    full_spectrum,
    graph_g2,
    graph_g3,
    graph_g4,
    enumerate_bicyclic,
    make_theta,
    parse_weight,
    quotient_matrix,
    rho_f,
    spectral_radii,
    spectral_radius,
)
from bicyclic_spectra import enumeration, spectral, verify, weights
from bicyclic_spectra.graphs import graph_rows, rows_graph, union_edges
from bicyclic_spectra.quotient import PartitionError
from bicyclic_spectra.verify import random_connected_graph
from conftest import loop_matrix, per_graph_radii


def same_size_graphs(rng, n, m, count):
    """count random connected graphs of order n with m edges."""
    out = []
    while len(out) < count:
        g = random_connected_graph(rng, n)
        if g.m == m:
            out.append(g)
    return out


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestBuildMatrix:
    def test_triangle_zagreb1(self, weight_zagreb1):
        a = build_matrix(cycle(3), weight_zagreb1)
        assert np.all(np.diag(a) == 0)
        off = a[np.triu_indices(3, 1)]
        assert np.all(off == 4)

    def test_constant_one_is_plain_adjacency(self, weight_one):
        g = graph_g2(6)
        a = build_matrix(g, weight_one)
        expected = np.zeros((6, 6))
        for u, v in g.edges:
            expected[u, v] = expected[v, u] = 1
        assert np.array_equal(a, expected)

    def test_extended_entries_on_theta(self, weight_extended):
        g = make_theta(2, 1, 2)  # hubs 0,1 have degree 3; vertices 2,3 degree 2
        a = build_matrix(g, weight_extended)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[0, 2] == pytest.approx(13 / 12)

    def test_symmetry_exact(self, weight_extended):
        a = build_matrix(graph_g4(9), weight_extended)
        assert np.array_equal(a, a.T)

    def test_exact_matrix_matches_float(self, weight_hyper):
        g = graph_g4(8)
        exact = quotient_matrix(g, weight_hyper, [[v] for v in range(8)]).b
        a = build_matrix(g, weight_hyper)
        for i in range(8):
            for j in range(8):
                assert float(exact[i][j]) == a[i, j]

    def test_read_only_array(self, weight_zagreb1):
        a = build_matrix(graph_g2(6), weight_zagreb1)
        assert type(a) is np.ndarray and a.shape == (6, 6)
        with pytest.raises(ValueError, match="read-only"):
            a[0, 1] = 0.0

    def test_exact_matrix_rejects_irrational(self):
        with pytest.raises(PartitionError, match="exp_zagreb1 is irrational at degrees"):
            quotient_matrix(graph_g2(6), WeightFunction("exp_zagreb1"), [[v] for v in range(6)])


class TestSpectralRadius:
    def test_single_edge_zagreb1_is_two(self, weight_zagreb1):
        g = Graph.from_edges(2, [(0, 1)])
        res = spectral_radius(build_matrix(g, weight_zagreb1))
        assert res.rho == pytest.approx(2.0, abs=1e-12)

    def test_g2_table_value(self, weight_zagreb1):
        assert rho_f(graph_g2(6), weight_zagreb1) == pytest.approx(17.0855, abs=5e-4)

    def test_g4_adjacency_table_value(self, weight_one):
        assert rho_f(graph_g4(6), weight_one) == pytest.approx(2.7913, abs=5e-4)

    def test_g2_extended_table1_value(self, weight_extended):
        assert rho_f(graph_g2(12), weight_extended) == pytest.approx(15.8028, abs=5e-4)

    def test_degenerate_single_vertex(self, weight_zagreb1):
        res = spectral_radius(build_matrix(Graph.from_edges(1, []), weight_zagreb1))
        assert res.rho == 0.0

    def test_perron_positive_and_simple(self, weight_forgotten):
        g = graph_g4(9)
        m = build_matrix(g, weight_forgotten)
        res, vals = spectral_radius(m), full_spectrum(m)
        assert np.all(res.perron > 0)
        assert vals[-1] - vals[-2] > 1e-6  # simple top eigenvalue
        assert res.residual <= 1e-10 * max(1.0, res.rho)

    def test_sign_convention(self, weight_zagreb1):
        res = spectral_radius(build_matrix(graph_g2(8), weight_zagreb1))
        nz = np.flatnonzero(np.abs(res.perron) > 1e-12)
        assert res.perron[nz[0]] > 0
        assert np.linalg.norm(res.perron) == pytest.approx(1.0)

    def test_scaling(self, weight_zagreb1):
        m = build_matrix(graph_g2(7), weight_zagreb1)
        r1 = spectral_radius(m).rho
        r3 = spectral_radius(3.0 * m).rho
        assert r3 == pytest.approx(3 * r1, rel=1e-12)

    def test_rejects_non_symmetric(self):
        with pytest.raises(SpectralError):
            spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rayleigh_lower_bound(self, weight_hyper, rng):
        m = build_matrix(graph_g4(8), weight_hyper)
        rho = spectral_radius(m).rho
        for _ in range(50):
            v = np.array([rng.gauss(0, 1) for _ in range(8)])
            v /= np.linalg.norm(v)
            assert v @ m @ v <= rho + 1e-9


class TestFullSpectrum:
    def test_c4_spectrum(self, weight_one):
        vals = full_spectrum(build_matrix(cycle(4), weight_one))
        assert vals == pytest.approx([-2, 0, 0, 2], abs=1e-9)

    def test_zero_trace(self, weight_hyper):
        vals = full_spectrum(build_matrix(graph_g3(9), weight_hyper))
        assert abs(vals.sum()) <= 1e-8 * max(1.0, abs(vals).max())
        assert len(vals) == 9

    def test_extended_g2_contains_plus_minus_one(self, weight_extended):
        vals = full_spectrum(build_matrix(graph_g2(6), weight_extended))
        assert sum(1 for v in vals if abs(v - 1) < 1e-8) == 1
        assert sum(1 for v in vals if abs(v + 1) < 1e-8) == 2

    def test_max_matches_spectral_radius(self, weight_forgotten):
        m = build_matrix(graph_g4(10), weight_forgotten)
        assert full_spectrum(m)[-1] == pytest.approx(spectral_radius(m).rho, abs=1e-8)


class TestExtendedSandwich:
    def test_regular_graphs_attain_equality(self, weight_one, weight_extended):
        for g in (cycle(5), cycle(8), complete(5)):
            assert rho_f(g, weight_extended) == pytest.approx(rho_f(g, weight_one), rel=1e-10)

    def test_sandwich_on_random_graphs(self, weight_one, weight_extended, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(4, 9))
            deg = g.degrees()
            lo, hi = min(deg), max(deg)
            plain = rho_f(g, weight_one)
            ex = rho_f(g, weight_extended)
            assert plain <= ex + 1e-9
            assert ex <= 0.5 * (hi / lo + lo / hi) * plain + 1e-9


class TestRelabelInvariance:
    def test_rho_is_isomorphism_invariant(self, weight_hyper, rng):
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(4, 9))
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            assert rho_f(g, weight_hyper) == pytest.approx(
                rho_f(h, weight_hyper), rel=1e-12)


class TestPerronFrobenius:
    def test_bipartite_tie_resolves_to_perron_vector(self, weight_zagreb1):
        # bipartite spectrum is symmetric: +-rho tie up to roundoff must not
        # hand back the eigenvector of the negative end
        k23 = make_theta(2, 2, 2)
        res = spectral_radius(build_matrix(k23, weight_zagreb1))
        assert np.all(res.perron > 0)
        path = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        res = spectral_radius(build_matrix(path, weight_zagreb1))
        assert np.all(res.perron > 0)

    def test_positive_vector_and_gap_on_random_connected(self, weight_zagreb1, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 9))
            m = build_matrix(g, weight_zagreb1)
            res = spectral_radius(m)
            assert np.all(res.perron > 0)
            if g.n > 1:
                vals = full_spectrum(m)
                assert vals[-1] > vals[-2]


class TestSpectralRadii:
    @pytest.mark.parametrize("label", ["zagreb1", "forgotten", "extended", "custom:x*y+x+y"])
    def test_equals_per_graph_path_on_every_class_n8(self, label):
        f = parse_weight(label)
        rows = np.concatenate(list(enumerate_bicyclic(8)[1]))
        assert len(rows) > spectral.EIGH_CHUNK
        assert spectral_radii(rows, f, 8).tolist() == per_graph_radii(rows, f, 8).tolist()
        for g in map(rows_graph, rows):
            assert np.array_equal(build_matrix(g, f), loop_matrix(g, f))

    def test_batch_of_several_chunks(self, weight_hyper, rng):
        rows = graph_rows(same_size_graphs(rng, 9, 9, 2 * spectral.EIGH_CHUNK + 5))
        expected = per_graph_radii(rows, weight_hyper, 9).tolist()
        assert spectral_radii(rows, weight_hyper, 9).tolist() == expected

    def test_one_weight_table_per_call(self, weight_hyper, rng, monkeypatch):
        # each (f, x, y) is computed at most once per process: the memo serves
        # every later chunk and every later call
        calls, compute = [], weights._evaluate_generic

        def counting(f, x, y):
            calls.append((f, x, y))
            return compute(f, x, y)

        rows = graph_rows(same_size_graphs(rng, 9, 10, 2 * spectral.EIGH_CHUNK + 5))
        expected = per_graph_radii(rows, weight_hyper, 9).tolist()
        weights.evaluate.cache_clear()
        monkeypatch.setattr(weights, "_evaluate_generic", counting)
        assert spectral_radii(rows, weight_hyper, 9).tolist() == expected
        assert calls and len(calls) == len(set(calls))
        computed = len(calls)
        assert spectral_radii(rows, weight_hyper, 9).tolist() == expected
        assert len(calls) == computed

    def test_eigensolver_failure_names_weight_and_order(self, weight_hyper, monkeypatch):
        def failing(a):
            raise SpectralError("symmetric eigensolver did not converge: test")

        monkeypatch.setattr(spectral, "_dominant_eigenpairs", failing)
        with pytest.raises(SpectralError, match=r"^hyper_zagreb at n=7: symmetric eigensolver did not"):
            spectral_radii(graph_rows([graph_g2(7)]), weight_hyper, 7)

    def test_stacked_weights_equal_one_weight_per_call(self, rng):
        # graphs of several weights in one stack, interleaved across chunks:
        # each rho is the float spectral_radii gives under its own weight
        fs = [parse_weight(w) for w in ("zagreb1", "forgotten", "extended")]
        rows = graph_rows(same_size_graphs(rng, 9, 10, 2 * spectral.EIGH_CHUNK + 5))
        which = np.array([rng.randrange(len(fs)) for _ in rows])
        rho = spectral.stacked_radii(rows, fs, which, 9)
        for k, f in enumerate(fs):
            assert rho[which == k].tolist() == spectral_radii(rows[which == k], f, 9).tolist()

    def test_stacked_failure_names_the_first_failing_weight(self, monkeypatch):
        # only matrices with an entry above 20 fail, so forgotten's G2 fails
        # and zagreb1's does not: the mixed stack names forgotten, and a stack
        # where both fail names the first in fs order
        fs = [parse_weight("zagreb1"), parse_weight("forgotten")]
        dominant = spectral._dominant_eigenpairs

        def failing(a):
            if a.max() > 20:
                raise SpectralError("symmetric eigensolver did not converge: test")
            return dominant(a)

        monkeypatch.setattr(spectral, "_dominant_eigenpairs", failing)
        rows = graph_rows([graph_g2(7), graph_g2(7)])
        with pytest.raises(SpectralError, match=r"^forgotten at n=7: symmetric eigensolver did not"):
            spectral.stacked_radii(rows, fs, np.array([0, 1]), 7)
        with pytest.raises(SpectralError, match=r"^forgotten at n=7: "):
            spectral.stacked_radii(rows, fs[::-1], np.array([0, 1]), 7)
        monkeypatch.setattr(spectral, "_dominant_eigenpairs", lambda a: failing(a + 20))
        with pytest.raises(SpectralError, match=r"^zagreb1 at n=7: "):
            spectral.stacked_radii(rows, fs, np.array([1, 0]), 7)

    def test_rho_f_is_the_one_graph_case(self, weight_forgotten):
        g = graph_g3(9)
        assert rho_f(g, weight_forgotten) == spectral_radius(build_matrix(g, weight_forgotten)).rho

    def test_edgeless_single_vertex(self, weight_zagreb1):
        rows = graph_rows([Graph.from_edges(1, [])])
        assert spectral_radii(rows, weight_zagreb1, 1).tolist() == [0.0]

    def test_empty_batch(self, weight_zagreb1):
        assert spectral_radii(graph_rows([]), weight_zagreb1, 7).shape == (0,)

    def test_mixed_orders_raise(self, weight_zagreb1):
        with pytest.raises(ValueError, match="one order"):
            graph_rows([graph_g2(6), graph_g2(7)])
        with pytest.raises(ValueError, match="one order and size"):
            graph_rows([graph_g2(6), cycle(6)])

    def test_residual_check_raises(self, weight_zagreb1, monkeypatch):
        eigh = np.linalg.eigh

        def skewed(a):
            vals, vecs = eigh(a)
            return vals + 1e-3, vecs

        monkeypatch.setattr(spectral.np.linalg, "eigh", skewed)
        with pytest.raises(SpectralError, match="residual"):
            spectral_radii(graph_rows([graph_g2(6), graph_g4(6)]), weight_zagreb1, 6)


class TestEdgeBounds:
    """pruned_brackets' first stage: the Berman-Zhang edge bound, widened by
    BRACKET_MARGIN, for the graphs below their floor; the radius bracket for
    the rest."""

    FLOORED = ("zagreb1", "constant_one", "sum_connectivity:a=-1")

    @pytest.mark.parametrize("n", [5, 8])
    def test_per_class_formula_and_bound(self, n):
        # under an infinite floor, hi = (1 + margin) max over edges uv of
        # sqrt(r_u r_v), r the row sums of |A_f|, for each weight of a chunk,
        # with half the margin to spare above rho: K_{2,3} (n = 5) meets the
        # bound with equality
        fs = [parse_weight(w) for w in self.FLOORED]
        for rows, _ in enumeration.orderly_rows(n):
            lo, hi = spectral.pruned_brackets(rows, fs, n, np.full((len(fs), len(rows)), np.inf))
            assert hi.shape == lo.shape == (len(fs), len(rows)) and np.all(lo == -np.inf)
            graphs = [rows_graph(r) for r in rows]
            for f, bound in zip(fs, hi):
                expected = []
                for g in graphs:
                    r = loop_matrix(g, f).sum(axis=1)
                    expected.append(max(np.sqrt(r[u] * r[v]) for u, v in g.edges))
                assert bound == pytest.approx(np.array(expected) * (1 + spectral.BRACKET_MARGIN),
                                              rel=1e-12)
                rho = spectral_radii(rows, f, n)
                assert np.all(bound >= rho + spectral.BRACKET_MARGIN / 2 * rho)

    @pytest.mark.parametrize("n", [7, 9])
    def test_graphs_reaching_their_floor_get_their_own_bracket(self, n):
        # a floor between the least and the largest edge bound of each
        # weight: a graph below it keeps (-inf, edge bound), and every other
        # graph gets, bit for bit, the bracket radius_brackets gives it alone
        # under its own weight, whatever the other weights' graphs
        fs = [parse_weight(w) for w in self.FLOORED + ("forgotten",)]
        for rows, _ in enumeration.orderly_rows(n):
            _, bound = spectral.pruned_brackets(rows, fs, n, np.full((len(fs), len(rows)), np.inf))
            floor = np.median(bound, axis=1)[:, None] + np.arange(len(rows)) % 3 - 1.0
            lo, hi = spectral.pruned_brackets(rows, fs, n, floor)
            below = bound < floor
            assert below.any() and (~below).any()
            assert np.all(lo[below] == -np.inf) and np.array_equal(hi[below], bound[below])
            for k, f in enumerate(fs):
                alone = spectral.radius_brackets(union_edges(rows, n), f, n, len(rows))
                for got, want in zip((lo, hi), alone):
                    assert np.array_equal(got[k, ~below[k]], want[~below[k]]), f.label()

    def test_a_bound_at_its_floor_is_bracketed(self):
        # the edge stage drops a graph only strictly below its floor
        fs = [parse_weight(w) for w in self.FLOORED]
        rows, _ = next(enumeration.orderly_rows(8))
        _, bound = spectral.pruned_brackets(rows, fs, 8, np.full((len(fs), len(rows)), np.inf))
        lo, _ = spectral.pruned_brackets(rows, fs, 8, bound)
        assert np.isfinite(lo).all()
        lo, hi = spectral.pruned_brackets(rows, fs, 8, np.nextafter(bound, np.inf))
        assert np.all(lo == -np.inf) and np.array_equal(hi, bound)

    def test_row_sums_of_absolute_values(self, monkeypatch):
        # every weight of the catalogue is positive; flipping the sign of
        # some degree pairs gives the same |A_f|, and so the same edge bounds
        # and the same bracket hi; lo reads |x'Ax| and stays below rho
        fs = [parse_weight(w) for w in ("zagreb1", "constant_one")]
        rows, _ = next(enumeration.orderly_rows(8))
        floors = [np.full((len(fs), len(rows)), end) for end in (np.inf, -np.inf)]
        positive = [spectral.pruned_brackets(rows, fs, 8, floor) for floor in floors]
        evaluate = spectral.evaluate
        monkeypatch.setattr(spectral, "evaluate", lambda f, x, y: (-1) ** (x + y) * evaluate(f, x, y))
        for floor, (_, hi) in zip(floors, positive):
            signed_lo, signed_hi = spectral.pruned_brackets(rows, fs, 8, floor)
            assert np.array_equal(signed_hi, hi)
        for f, lo_f in zip(fs, signed_lo):
            assert np.all(lo_f <= spectral_radii(rows, f, 8))


class TestRadiusBrackets:
    """radius_brackets holds the eigensolved rho of every graph, with at
    least half its margin to spare at each end."""

    WEIGHTS = ("zagreb1", "hyper_zagreb", "forgotten", "constant_one", "extended",
               "sum_connectivity:a=-1")

    @staticmethod
    def check(rows, f, n):
        lo, hi = spectral.radius_brackets(union_edges(rows, n), f, n, len(rows))
        rho = spectral_radii(rows, f, n)
        spare = spectral.BRACKET_MARGIN / 2 * rho
        assert np.all(lo <= rho - spare) and np.all(rho + spare <= hi)
        return lo, hi

    @staticmethod
    def check_mixed(graphs, f, n, rng):
        """check on one batch of graphs of order n and any sizes, their
        edges shuffled across the batch; each rho from its own eigensolve."""
        e = np.array([(i * n + u, i * n + v) for i, g in enumerate(graphs) for u, v in g.edges],
                     np.intp).reshape(-1, 2)
        rng.shuffle(e)
        lo, hi = spectral.radius_brackets(e, f, n, len(graphs))
        rho = np.array([spectral_radii(graph_rows([g]), f, n)[0] for g in graphs])
        spare = spectral.BRACKET_MARGIN / 2 * rho
        assert np.all(lo <= rho - spare) and np.all(rho + spare <= hi)
        return lo, hi

    @pytest.mark.parametrize("n", range(4, 9))
    def test_every_class(self, n):
        fs = [parse_weight(w) for w in self.WEIGHTS]
        for rows, _ in enumeration.orderly_rows(n):
            for f in fs:
                lo, hi = self.check(rows, f, n)
                assert np.isfinite(lo).all() and np.isfinite(hi).all()

    def test_regular_graphs(self):
        # x = 1 is the Perron vector, so the steps and both quotients are
        # exact; only the margin keeps the eigensolved rho inside
        fs = [parse_weight(w) for w in self.WEIGHTS]
        for g in [cycle(n) for n in range(3, 10)] + [complete(n) for n in range(2, 8)]:
            for f in fs:
                self.check(graph_rows([g]), f, g.n)

    def test_drawn_graphs_with_an_isolated_vertex(self):
        # a reroute that moves all of v's neighbours to u leaves v isolated:
        # |A| is reducible, and the bracket still holds and is certified; the
        # campaign's packed rows, of all sizes, in one batch per order
        fs = [parse_weight(w) for w in self.WEIGHTS]
        isolated = 0
        for seed in range(4):
            blocks, _, _ = verify._reroute_pairs(random.Random(seed), [4, 5, 6, 7, 8, 12], 300)
            for n, after, _ in blocks:
                graph, edges = verify._row_edges(after, n)
                degrees = np.bincount((edges + n * graph[:, None]).ravel(), minlength=len(after) * n)
                lonely = (degrees.reshape(-1, n) == 0).any(axis=1)
                graph, edges = verify._row_edges(after[lonely], n)
                isolated += int(lonely.sum())
                graphs = [Graph(n, frozenset(map(tuple, edges[graph == i].tolist())))
                          for i in range(int(lonely.sum()))]
                for f in fs:
                    lo, hi = self.check_mixed(graphs, f, n, np.random.default_rng(seed))
                    assert np.isfinite(lo).all() and np.isfinite(hi).all()
        assert isolated > 100

    def test_mixed_sizes_in_one_batch(self):
        # every class at n = 7 and 8 shuffled with drawn graphs of other
        # sizes, and drawn graphs at n = 17..20, one batch per order: the
        # per-edge sums must reach their own graph's bracket
        fs = [parse_weight(w) for w in self.WEIGHTS]
        rng = random.Random(9)
        for n in (7, 8, 17, 18, 19, 20):
            graphs = [random_connected_graph(rng, n) for _ in range(60)]
            if n <= 8:
                graphs += [rows_graph(r) for rows, _ in enumeration.orderly_rows(n) for r in rows]
            rng.shuffle(graphs)
            assert len({g.m for g in graphs}) > 2
            for f in fs:
                lo, hi = self.check_mixed(graphs, f, n, np.random.default_rng(n))
                assert np.isfinite(lo).all() and np.isfinite(hi).all()

    def test_signed_weights(self, monkeypatch):
        # with some degree pairs negated, hi bounds rho(|A|) >= rho(A) and lo
        # reads |x'Ax|
        evaluate = spectral.evaluate
        monkeypatch.setattr(spectral, "evaluate",
                            lambda f, x, y: (-1) ** (x + y) * evaluate(f, x, y))
        fs = [parse_weight(w) for w in self.WEIGHTS]
        for rows, _ in enumeration.orderly_rows(8):
            for f in fs:
                self.check(rows, f, 8)

    def test_subnormal_entries_stay_open(self):
        # entries near 1e-320 carry a few bits each, so rounding is not
        # relative there; entries near 1e-200 are still certified
        rows, _ = next(enumeration.orderly_rows(8))
        lo, hi = self.check(rows, parse_weight("custom:1e-320*(x+y)"), 8)
        assert np.all(lo == -np.inf) and np.all(hi == np.inf)
        lo, hi = self.check(rows, parse_weight("custom:1e-200*(x+y)"), 8)
        assert np.isfinite(lo).all() and np.isfinite(hi).all()

    def test_unevaluable_weights_stay_open(self):
        # a weight beyond float range on an edge of the batch leaves the batch
        # open; the eigensolve of an open graph raises it
        f = parse_weight("exp_sum_connectivity:a=3")
        star = Graph.from_edges(8, [(0, v) for v in range(1, 8)] + [(1, 2)])  # degrees (7, 2)
        rows = graph_rows([cycle(8), star])
        lo, hi = spectral.radius_brackets(union_edges(rows, 8), f, 8, 2)
        assert (lo.tolist(), hi.tolist()) == ([-np.inf] * 2, [np.inf] * 2)
        with pytest.raises(weights.WeightSpecError, match="overflows a float"):
            spectral_radii(rows, f, 8)

    def test_edgeless_and_empty(self, weight_zagreb1):
        # A = 0 leaves x = 0 after a step: open
        lo, hi = self.check(graph_rows([Graph.from_edges(3, [])]), weight_zagreb1, 3)
        assert (lo.tolist(), hi.tolist()) == ([-np.inf], [np.inf])
        lo, hi = spectral.radius_brackets(union_edges(graph_rows([]), 7), weight_zagreb1, 7, 0)
        assert lo.shape == hi.shape == (0,)
        # a graph with no edge after one with edges: its row of the batch is all zero
        lo, hi = spectral.radius_brackets(union_edges(graph_rows([cycle(3)]), 3), weight_zagreb1, 3, 2)
        assert np.isfinite(lo[0]) and (lo[1], hi[1]) == (-np.inf, np.inf)
