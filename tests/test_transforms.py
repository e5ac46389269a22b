import itertools
import random

import numpy as np
import pytest

from bicyclic_spectra import (
    Graph,
    TransformError,
    attach_pendants,
    base_graph,
    graph_g1,
    graph_g2,
    graph_g4,
    kelmans,
    make_infinity,
    make_theta,
    pendant_shift,
    rho_f,
)
from bicyclic_spectra.graphs import edge_stack, stack_graph
from bicyclic_spectra.transforms import move_stack, reroute_stack
from conftest import (class_graphs, degree_sequence, reference_canonical_form,
                      reference_kelmans, reference_pendant_shift,
                      reference_pendant_shift_instance, reference_random_connected_graph,
                      relabel)


def star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def double_star(a, b):
    """Centers 0-1 with a pendants on 0 and b pendants on 1."""
    g = Graph.from_edges(2, [(0, 1)])
    g = attach_pendants(g, 0, a)
    return attach_pendants(g, 1, b)


class TestKelmans:
    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_g2_reduces_to_g1(self, n):
        # two degree-2 vertices in different triangles of G2
        out = kelmans(graph_g2(n), 1, 3)
        assert out.changed
        assert reference_canonical_form(out.result) == reference_canonical_form(graph_g1(n))

    def test_star_leaves_identity(self):
        g = star(6)
        out = kelmans(g, 2, 4)
        assert not out.changed
        assert out.moved_edges == ()
        assert out.result.edges == g.edges

    def test_b413_example(self):
        g = make_infinity(4, 1, 3)
        # vertex 0 is the shared degree-4 vertex; vertex 1 its cycle neighbor
        out = kelmans(g, 0, 1)
        assert out.result.m == g.m and out.result.n == g.n
        info = base_graph(out.result)
        assert info.kind == "infinity" and info.params == (3, 1, 3)

    def test_moved_edges_bookkeeping(self):
        g = make_infinity(4, 1, 3)
        out = kelmans(g, 0, 1)
        edges = set(g.edges)
        for old, new in out.moved_edges:
            assert old in edges and old not in out.result.edges
            assert new in out.result.edges
        assert len(out.result.edges) == len(g.edges)

    def test_direction_symmetry(self, rng):
        for _ in range(60):
            n = rng.randint(4, 8)
            g = reference_random_connected_graph(rng, n)
            u = rng.randrange(n)
            v = (u + rng.randrange(1, n)) % n
            a = kelmans(g, u, v).result
            b = kelmans(g, v, u).result
            assert reference_canonical_form(a) == reference_canonical_form(b)

    def test_preserves_counts(self, rng):
        for _ in range(60):
            n = rng.randint(4, 9)
            g = reference_random_connected_graph(rng, n)
            u, v = rng.sample(range(n), 2)
            out = kelmans(g, u, v)
            assert out.result.n == n and out.result.m == g.m

    def test_disconnect_flagged(self):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        out = kelmans(path, 0, 3)
        assert out.disconnects
        assert not out.result.is_connected()

    def test_monotone_for_pstar_weights(self, rng, weight_zagreb1, weight_hyper):
        checked = 0
        while checked < 80:
            n = rng.randint(4, 8)
            g = reference_random_connected_graph(rng, n)
            u, v = rng.sample(range(n), 2)
            out = kelmans(g, u, v)
            if not out.changed:
                continue
            checked += 1
            for f in (weight_zagreb1, weight_hyper):
                assert rho_f(out.result, f) > rho_f(g, f) - 1e-9

    def test_vertex_validation(self):
        g = star(5)
        with pytest.raises(TransformError):
            kelmans(g, 2, 2)
        with pytest.raises(TransformError):
            kelmans(g, 0, 9)

    def test_swap_image_beyond_iso_bound(self):
        # one edge plus 15 isolated vertices: N(2) is empty, so rerouting
        # through the isolated vertex 2 gives g relabelled by the swap (0 2),
        # decided exactly above the reference certificate's bound (n <= 16)
        g = Graph.from_edges(17, [(0, 1)])
        out = kelmans(g, 0, 2)
        assert out.moved_edges == (((0, 1), (1, 2)),)
        assert not out.changed
        swap = list(range(17))
        swap[0], swap[2] = 2, 0
        assert out.result == relabel(g, swap)

    def test_no_move_returns_the_input_graph(self):
        # N(u) - N[v] empty: nothing moves, so the stack core gives back a
        # graph equal to g, with no change and no split
        rng = random.Random(17)
        misses = 0
        for i in range(2000):
            n = 4 + i % 5
            g = reference_random_connected_graph(rng, n)
            u, v = rng.sample(range(n), 2)
            out = kelmans(g, u, v)
            if not out.moved_edges:
                misses += 1
                assert out.result == g
                assert (out.changed, out.moved_edges, out.disconnects) == (False, (), False)
        assert misses > 0

    def test_certain_changed_beyond_iso_bound(self):
        g = attach_pendants(graph_g2(16), 1, 1)  # 17 vertices
        out = kelmans(g, 1, 3)
        assert out.changed  # degree sequences differ


    def test_changed_matches_certificates_exhaustively(self):
        # every labeled connected graph with n <= 5, every ordered pair
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for k in range(n - 1, len(pairs) + 1):
                for subset in itertools.combinations(pairs, k):
                    g = Graph.from_edges(n, subset)
                    if not g.is_connected():
                        continue
                    for u, v in itertools.permutations(range(n), 2):
                        out = kelmans(g, u, v)
                        assert out.changed == (reference_canonical_form(g)
                                               != reference_canonical_form(out.result))

    def test_disconnects_matches_bfs_definition(self):
        # every labeled graph with n <= 5, connected or not, every ordered pair
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for k in range(len(pairs) + 1):
                for subset in itertools.combinations(pairs, k):
                    g = Graph.from_edges(n, subset)
                    for u, v in itertools.permutations(range(n), 2):
                        out = kelmans(g, u, v)
                        expected = (bool(out.moved_edges) and g.is_connected()
                                    and not out.result.is_connected())
                        assert out.disconnects == expected

    def test_changed_matches_certificates_on_random_graphs(self):
        rng = random.Random(91)
        for i in range(2000):
            n = 6 + i % 4
            g = reference_random_connected_graph(rng, n)
            u, v = rng.sample(range(n), 2)
            out = kelmans(g, u, v)
            assert out.changed == (reference_canonical_form(g)
                                   != reference_canonical_form(out.result))

    def test_unchanged_result_is_the_swap_image(self):
        # the closed form's two witnesses, at orders past the reference
        # certificate's bound too: an unchanged result is g relabelled by (u v), a changed
        # one has another degree sequence
        rng = random.Random(93)
        seen = {False: 0, True: 0}
        for i in range(3000):
            n = 4 + i % 21
            if i % 2:
                g = reference_random_connected_graph(rng, n)
            else:
                pairs = list(itertools.combinations(range(n), 2))
                g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, min(2 * n, len(pairs)))))
            u, v = rng.sample(range(n), 2)
            out = kelmans(g, u, v)
            if not out.moved_edges:
                assert not out.changed and out.result == g
                continue
            seen[out.changed] += 1
            if out.changed:
                assert degree_sequence(out.result) != degree_sequence(g)
            else:
                swap = list(range(n))
                swap[u], swap[v] = v, u
                assert out.result == relabel(g, swap)
        assert min(seen.values()) > 100


class TestRerouteCore:
    """kelmans, the one-graph view of the stack core, against the set-based
    reference on connected graphs, where u ending isolated is a split."""

    @staticmethod
    def assert_agree(g, u, v):
        ref = reference_kelmans(g, u, v)
        want = (ref.changed, ref.disconnects, ref.moved_edges, ref.result.edges)
        out = kelmans(g, u, v)
        assert (out.changed, out.disconnects, out.moved_edges, out.result.edges) == want

    @pytest.mark.parametrize("n", range(4, 9))
    def test_every_pair_of_every_class(self, n):
        for g in class_graphs(n):
            for u, v in itertools.permutations(range(n), 2):
                self.assert_agree(g, u, v)

    def test_random_graphs(self):
        rng = random.Random(94)
        for _ in range(2000):
            n = rng.randint(2, 12)
            g = reference_random_connected_graph(rng, n)
            self.assert_agree(g, *rng.sample(range(n), 2))


class TestRerouteStack:
    """reroute_stack and move_stack, one (u, v) per matrix of a stack,
    against the set-based reference on connected graphs: private holds the
    far ends of the moved edges, isolates is the split, and the moved
    matrices are symmetric."""

    @staticmethod
    def assert_agree(graphs, uv):
        n = graphs[0].n
        adj = np.concatenate([edge_stack(n, g.edges) for g in graphs])
        u, v = (np.array(side) for side in zip(*uv))
        before = adj.copy()
        private, changed, isolates = reroute_stack(adj, u, v)
        moved = move_stack(adj, private, u, v)
        assert (adj == before).all()  # the input stays
        assert (moved == moved.transpose(0, 2, 1)).all()
        for s, (g, (a, b)) in enumerate(zip(graphs, uv)):
            ref = reference_kelmans(g, a, b)
            far = [x + y - a for (x, y), _ in ref.moved_edges]
            assert (np.flatnonzero(private[s]).tolist(), bool(changed[s]), bool(isolates[s])) == (
                far, ref.changed, ref.disconnects)
            assert stack_graph(moved[s:s + 1]).edges == ref.result.edges

    @pytest.mark.parametrize("n", range(4, 9))
    def test_every_ordered_pair_of_every_class(self, n):
        uv = list(itertools.permutations(range(n), 2))
        graphs = class_graphs(n)
        self.assert_agree([g for g in graphs for _ in uv], uv * len(graphs))

    def test_random_graphs(self):
        rng = random.Random(95)
        for n in range(2, 13):
            graphs = [reference_random_connected_graph(rng, n) for _ in range(60)]
            self.assert_agree(graphs, [tuple(rng.sample(range(n), 2)) for _ in graphs])


class TestReductionReplay:
    """Step-by-step reroute chains from arbitrary shapes down to the extremal
    graphs, with the spectral radius strictly increasing at every step (labels
    are preserved by kelmans, so the chains can use fixed indices)."""

    def _steps_increase(self, chain, f):
        for before, after in zip(chain, chain[1:]):
            assert rho_f(after, f) > rho_f(before, f)

    def test_infinity_side_chain_to_g1(self, weight_zagreb1, weight_forgotten):
        g = make_infinity(4, 2, 3)          # junctions 0 and 4, joined by an edge
        s1 = kelmans(g, 0, 1).result        # shrink the 4-cycle: base (3,2,3)
        assert base_graph(s1).params == (3, 2, 3)
        s2 = kelmans(s1, 1, 4).result       # collapse the bridge: G2(7)
        assert reference_canonical_form(s2) == reference_canonical_form(graph_g2(7))
        s3 = kelmans(s2, 2, 5).result       # nonadjacent degree-2 pair: G1(7)
        assert reference_canonical_form(s3) == reference_canonical_form(graph_g1(7))
        for f in (weight_zagreb1, weight_forgotten):
            self._steps_increase([g, s1, s2, s3], f)

    def test_theta_side_chain_to_g1(self, weight_zagreb1):
        g = make_theta(3, 2, 2)             # hubs 0, 1; middle path through 4
        s1 = kelmans(g, 0, 4).result        # shorten the middle path
        assert base_graph(s1).params == (2, 1, 3)
        s2 = kelmans(s1, 4, 2).result       # shorten the long path: G1(6)
        assert reference_canonical_form(s2) == reference_canonical_form(graph_g1(6))
        self._steps_increase([g, s1, s2], weight_zagreb1)

    def test_caterpillar_collapse(self, weight_zagreb1):
        # hanging path 0-5-6 on the B(3,1,3) junction folds into a star
        g = attach_pendants(attach_pendants(make_infinity(3, 1, 3), 0, 1), 5, 1)
        collapsed = kelmans(g, 5, 0).result
        assert reference_canonical_form(collapsed) == reference_canonical_form(graph_g2(7))
        self._steps_increase([g, collapsed], weight_zagreb1)


class TestPendantShift:
    def test_double_star_moves_one_leaf(self):
        g = double_star(2, 3)  # N1 at vertex 0 has size 2, N2 at vertex 1 size 3
        w = 2  # first pendant attached to 0
        shifted = pendant_shift(g, 0, 1, w)
        assert reference_canonical_form(shifted) == reference_canonical_form(double_star(1, 4))

    def test_one_three_becomes_zero_four(self):
        g = double_star(1, 3)
        shifted = pendant_shift(g, 0, 1, 2)
        assert reference_canonical_form(shifted) == reference_canonical_form(double_star(0, 4))
        assert shifted.degrees()[1] == 5

    def test_g4_shift_gives_g1_and_increases_rho(self, weight_zagreb1):
        g = graph_g4(7)  # hub 0 has degree 5; hub 1 carries pendant 6
        shifted = pendant_shift(g, 1, 0, 6)
        assert reference_canonical_form(shifted) == reference_canonical_form(graph_g1(7))
        assert rho_f(shifted, weight_zagreb1) > rho_f(g, weight_zagreb1)

    def test_simple_graph_preserved(self):
        g = double_star(2, 2)
        shifted = pendant_shift(g, 0, 1, 2)
        assert shifted.m == g.m and shifted.n == g.n

    def test_rejects_w_outside_private_neighborhood(self):
        g = double_star(1, 2)
        with pytest.raises(TransformError, match="N\\(v\\)-N\\[u\\]"):
            pendant_shift(g, 0, 1, 3)  # w = 3 is a pendant of u, not of v

    def test_rejects_non_pendant_bundles(self):
        g = graph_g2(7)  # cycle vertices are degree 2, not pendant
        with pytest.raises(TransformError, match="non-pendant"):
            pendant_shift(g, 0, 1, 3)

    def test_rejects_size_violation(self):
        g = double_star(3, 1)
        with pytest.raises(TransformError, match="bundle sizes"):
            pendant_shift(g, 0, 1, 2)

    def test_rejects_bad_vertices(self):
        g = double_star(1, 1)
        with pytest.raises(TransformError):
            pendant_shift(g, 0, 0, 2)
        with pytest.raises(TransformError):
            pendant_shift(g, 0, 1, 99)

    def test_every_campaign_shift_changes_the_class(self):
        # d_v <= d_u become d_v - 1 and d_u + 1, so the degree sequence moves
        rng = random.Random(92)
        for _ in range(2000):
            g, v, u, w = reference_pendant_shift_instance(rng)
            shifted = pendant_shift(g, v, u, w)
            assert degree_sequence(shifted) != degree_sequence(g)
            assert reference_canonical_form(shifted) != reference_canonical_form(g)

    def test_monotone_for_pstar_weights(self, rng, weight_forgotten):
        for a in (1, 2):
            for b in (2, 3):
                g = double_star(a, b)
                w = 2  # first pendant at vertex 0
                shifted = pendant_shift(g, 0, 1, w)
                if reference_canonical_form(shifted) == reference_canonical_form(g):
                    continue
                assert rho_f(shifted, weight_forgotten) > rho_f(g, weight_forgotten) - 1e-9


class TestShiftMasks:
    """pendant_shift, the one-graph view of the stack core, against the
    set-based reference: the same graph, or a TransformError with the same
    message."""

    @staticmethod
    def outcome(shift, g, v, u, w):
        try:
            return shift(g, v, u, w).edges
        except TransformError as exc:
            return str(exc)

    def assert_agree(self, g, v, u, w) -> bool:
        """Whether the shift is valid, after checking both agree on it."""
        got = self.outcome(pendant_shift, g, v, u, w)
        assert got == self.outcome(reference_pendant_shift, g, v, u, w), (g, v, u, w)
        return not isinstance(got, str)

    @pytest.mark.parametrize("n,shifts", [(4, 0), (5, 0), (6, 4), (7, 12), (8, 53)])
    def test_every_triple_of_every_class(self, n, shifts):
        # below n = 6 no class has two pendant-only private neighbourhoods
        valid = sum(self.assert_agree(g, v, u, w) for g in class_graphs(n)
                    for v, u, w in itertools.product(range(n), repeat=3))
        assert valid == shifts

    def test_random_graphs(self):
        # every pendant w with its neighbour v against every u, where the
        # shift is often valid, and a few triples with vertices out of range
        rng = random.Random(95)
        valid = 0
        for _ in range(2000):
            n = rng.randint(3, 12)
            g = reference_random_connected_graph(rng, n)
            nbr = g.neighbors()
            for w in range(n):
                if len(nbr[w]) == 1:
                    (v,) = nbr[w]
                    valid += sum(self.assert_agree(g, v, u, w) for u in range(n))
            for _ in range(5):
                self.assert_agree(g, *(rng.randrange(-1, n + 1) for _ in range(3)))
        assert valid > 500  # 582 valid shifts
