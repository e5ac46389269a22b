import random

import networkx as nx
import pytest

from bicyclic_spectra import (
    FAMILIES,
    Graph,
    GraphError,
    attach_pendants,
    base_graph,
    graph6_decode,
    graph6_encode,
    graph_g1,
    graph_g2,
    graph_g3,
    graph_g4,
    make_infinity,
    make_theta,
)
from bicyclic_spectra.enumeration import bicyclic_bases
from bicyclic_spectra.graphs import G6_MAX_ORDER
from conftest import degree_sequence, has_edge, relabel, to_networkx


class TestGraphBasics:
    def test_normalization_and_invariants(self):
        g = Graph.from_edges(4, [(2, 0), (0, 1), (3, 1), (1, 2)])
        assert g.m == 4
        assert (0, 2) in g.edges and (2, 0) not in g.edges
        assert g.degrees() == [2, 3, 2, 1]

    def test_rejects_self_loop_and_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 3)])

    def test_cyclomatic_number(self):
        assert make_infinity(4, 1, 3).cyclomatic_number() == 2
        assert make_theta(3, 1, 2).cyclomatic_number() == 2

    def test_relabel_permutation(self):
        g = make_theta(2, 1, 2)
        h = relabel(g, [3, 2, 1, 0])
        assert degree_sequence(h) == degree_sequence(g)
        with pytest.raises(GraphError):
            relabel(g, [0, 0, 1, 2])


class TestInfinityGraph:
    def test_two_triangles_sharing_a_vertex(self):
        g = make_infinity(3, 1, 3)
        assert (g.n, g.m) == (5, 6)
        assert sorted(g.degrees(), reverse=True) == [4, 2, 2, 2, 2]

    def test_l2_joins_cycles_by_an_edge(self):
        g = make_infinity(3, 2, 3)
        assert (g.n, g.m) == (6, 7)
        deg3 = [v for v, d in enumerate(g.degrees()) if d == 3]
        assert len(deg3) == 2 and has_edge(g, *deg3)

    def test_b413_is_bicyclic(self):
        g = make_infinity(4, 1, 3)
        assert (g.n, g.m) == (6, 7)
        assert g.is_bicyclic()

    @pytest.mark.parametrize("p,l,q", [(2, 1, 3), (3, 1, 2), (3, 0, 3)])
    def test_rejects_bad_parameters(self, p, l, q):
        with pytest.raises(GraphError):
            make_infinity(p, l, q)

    @pytest.mark.parametrize("p,l,q", [(3, 1, 3), (3, 2, 3), (4, 3, 5), (3, 1, 6)])
    def test_orders_and_connectivity(self, p, l, q):
        g = make_infinity(p, l, q)
        assert g.n == p + q + l - 2
        assert g.is_bicyclic()


class TestThetaGraph:
    def test_p212(self):
        g = make_theta(2, 1, 2)
        assert (g.n, g.m) == (4, 5)
        assert sorted(g.degrees(), reverse=True) == [3, 3, 2, 2]

    def test_p222_is_k23(self):
        g = make_theta(2, 2, 2)
        assert (g.n, g.m) == (5, 6)
        assert nx.is_isomorphic(to_networkx(g), nx.complete_bipartite_graph(2, 3))

    def test_p312(self):
        g = make_theta(3, 1, 2)
        assert (g.n, g.m) == (5, 6)
        assert g.is_bicyclic()

    @pytest.mark.parametrize("p,l,q", [(1, 1, 2), (2, 1, 1), (2, 3, 2)])
    def test_rejects_bad_parameters(self, p, l, q):
        with pytest.raises(GraphError):
            make_theta(p, l, q)


class TestNamedFamilies:
    def test_degree_sequences_at_n6(self):
        assert degree_sequence(graph_g1(6)) == (5, 3, 2, 2, 1, 1)
        assert degree_sequence(graph_g2(6)) == (5, 2, 2, 2, 2, 1)
        assert degree_sequence(graph_g3(6)) == (4, 3, 3, 2, 1, 1)
        assert degree_sequence(graph_g4(6)) == (4, 4, 2, 2, 1, 1)

    def test_g2_edge_count(self):
        assert graph_g2(6).m == 7

    @pytest.mark.parametrize("builder,n_min",
                             [(fam.build, fam.min_n) for fam in FAMILIES.values()])
    def test_order_validation(self, builder, n_min):
        builder(n_min)  # smallest valid order works
        with pytest.raises(GraphError):
            builder(n_min - 1)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_all_families_bicyclic(self, n):
        for builder in (graph_g1, graph_g2, graph_g3, graph_g4):
            g = builder(n)
            assert g.n == n and g.m == n + 1 and g.is_bicyclic()


class TestBaseGraph:
    def test_g1_base_is_theta(self):
        b = base_graph(graph_g1(8))
        assert b.kind == "theta" and b.params == (2, 1, 2)
        assert b.graph.n == 4

    def test_g2_base_is_infinity(self):
        b = base_graph(graph_g2(9))
        assert b.kind == "infinity" and b.params == (3, 1, 3)
        assert b.graph.n == 5

    def test_pendant_free_graph_is_fixed_point(self):
        g = make_infinity(4, 2, 3)
        b = base_graph(g)
        assert b.graph.edges == g.edges
        assert b.kind == "infinity" and b.params == (3, 2, 4)

    def test_idempotent(self):
        for g in (graph_g1(9), graph_g3(8), graph_g4(10)):
            once = base_graph(g)
            twice = base_graph(once.graph)
            assert once.graph.edges == twice.graph.edges
            assert once.params == twice.params

    @pytest.mark.parametrize("n", range(6, 12))
    def test_base_orders(self, n):
        assert base_graph(graph_g1(n)).graph.n == 4
        assert base_graph(graph_g2(n)).graph.n == 5

    def test_rejects_non_bicyclic(self):
        with pytest.raises(GraphError):
            base_graph(Graph.from_edges(3, [(0, 1), (1, 2)]))

    @pytest.mark.parametrize("p,l,q", [(3, 1, 3), (3, 4, 5), (4, 2, 4), (5, 1, 3)])
    def test_infinity_classification_with_attachments(self, p, l, q):
        g = attach_pendants(make_infinity(p, l, q), 0, 3)
        b = base_graph(g)
        assert b.kind == "infinity"
        assert b.params == (min(p, q), l, max(p, q))

    @pytest.mark.parametrize("p,l,q", [(2, 1, 2), (2, 2, 2), (3, 2, 4), (5, 1, 2)])
    def test_theta_classification_with_attachments(self, p, l, q):
        g = attach_pendants(make_theta(p, l, q), 1, 2)
        b = base_graph(g)
        assert b.kind == "theta"
        assert b.params == (min(p, q), l, max(p, q))

    def test_every_base_up_to_order_12_relabelled_and_grown(self):
        """Each base, randomly relabelled with pendants and short paths hung
        at random vertices, reads back as its construction: kind, normalised
        params and core edges."""
        built = {}  # labelled construction -> (kind, normalised params)
        for a in range(2, 13):
            for l in range(1, 13):
                for c in range(a, 13):
                    if a >= 3:
                        built[make_infinity(a, l, c)] = ("infinity", (a, l, c))
                        built[make_infinity(c, l, a)] = ("infinity", (a, l, c))
                    if l <= a:
                        built[make_theta(a, l, c)] = ("theta", (a, l, c))
                        built[make_theta(c, l, a)] = ("theta", (a, l, c))
        rng = random.Random(12)
        for _, base in bicyclic_bases(12):
            kind, params = built[base]
            g = base
            for _ in range(rng.randrange(4)):
                root = rng.randrange(g.n)
                for _ in range(rng.randint(1, 3)):  # a pendant or a short path
                    g = attach_pendants(g, root, 1)
                    root = g.n - 1
            perm = list(range(g.n))
            rng.shuffle(perm)
            b = base_graph(relabel(g, perm))
            assert (b.kind, b.params) == (kind, params)
            assert b.kept_vertices == tuple(sorted(perm[:base.n]))
            kept = b.kept_vertices
            assert ({frozenset((kept[u], kept[v])) for u, v in b.graph.edges}
                    == {frozenset((perm[u], perm[v])) for u, v in base.edges})


class TestAttachPendants:
    def test_identity_case(self):
        g = make_theta(2, 1, 2)
        assert attach_pendants(g, 1, 0).edges == g.edges

    def test_builds_g1(self):
        g = attach_pendants(make_theta(2, 1, 2), 0, 4)
        assert degree_sequence(g) == degree_sequence(graph_g1(8))

    def test_builds_g2(self):
        g = attach_pendants(make_infinity(3, 1, 3), 0, 2)
        assert degree_sequence(g) == degree_sequence(graph_g2(7))

    def test_counts(self):
        g = make_infinity(3, 1, 3)
        h = attach_pendants(g, 2, 3)
        assert h.n == g.n + 3 and h.m == g.m + 3
        assert h.degrees()[2] == g.degrees()[2] + 3

    def test_invalid_vertex(self):
        with pytest.raises(GraphError):
            attach_pendants(make_theta(2, 1, 2), 7, 1)


class TestGraph6:
    @pytest.mark.parametrize("g", [
        make_theta(2, 1, 2),
        make_infinity(3, 1, 3),
        graph_g2(9),
        graph_g4(12),
        Graph.from_edges(1, []),
        Graph.from_edges(2, []),
    ])
    def test_round_trip_is_vertex_order_identical(self, g):
        assert graph6_decode(graph6_encode(g)) == g

    def test_matches_networkx_encoding(self, rng):
        for _ in range(40):
            n = rng.randint(1, 14)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g = Graph.from_edges(n, edges)
            ours = graph6_encode(g)
            theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
            assert ours == theirs

    def test_decodes_networkx_output(self):
        h = nx.petersen_graph()
        s = nx.to_graph6_bytes(h, header=False).decode().strip()
        g = graph6_decode(s)
        assert g.n == 10 and g.m == 15
        assert nx.is_isomorphic(to_networkx(g), h)

    def test_header_prefix_accepted(self):
        g = graph_g2(6)
        assert graph6_decode(">>graph6<<" + graph6_encode(g)) == g

    def test_boundary_order_62(self, rng):
        edges = [(u, v) for u in range(62) for v in range(u + 1, 62)
                 if rng.random() < 0.1]
        g = Graph.from_edges(62, edges)
        assert graph6_decode(graph6_encode(g)) == g

    def test_rejects_oversized_and_malformed(self):
        with pytest.raises(GraphError):
            graph6_encode(Graph.from_edges(G6_MAX_ORDER + 1, []))
        with pytest.raises(GraphError):
            graph6_decode("")
        with pytest.raises(GraphError):
            graph6_decode("E")  # truncated 6-vertex graph
        with pytest.raises(GraphError, match="truncated"):
            graph6_decode("~?A")  # long size header cut short
        with pytest.raises(GraphError, match="limited to n <= 258047"):
            graph6_decode("~~??????")  # the 8-byte header of n > 258047
        with pytest.raises(GraphError, match="invalid graph6 character"):
            graph6_decode("~?A\x7f")

    @pytest.mark.parametrize("n", [1, 62, 63, 100, 300])
    def test_long_size_header_matches_networkx(self, rng, n):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.05]
        g = Graph.from_edges(n, edges)
        ours = graph6_encode(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert ours == theirs
        assert graph6_decode(ours) == g
        back = nx.from_graph6_bytes(ours.encode())
        assert sorted(back.nodes) == list(range(n))
        assert {tuple(sorted(e)) for e in back.edges} == g.edges

