import itertools

import networkx as nx
import pytest

from bicyclic_spectra import (
    EnumerationError,
    Graph,
    are_isomorphic,
    attach_pendants,
    base_graph,
    canonical_form,
    enumerate_bicyclic,
    enumerate_with_max_degree,
    graph_from_certificate,
    graph_g1,
    graph_g2,
    graph_g3,
    graph_g4,
    make_infinity,
    make_theta,
    targeted_max_degree_family,
)
from bicyclic_spectra import enumeration
from bicyclic_spectra.enumeration import automorphisms, bicyclic_bases, rooted_trees
from conftest import brute_force_bicyclic_classes, reference_enumerate_constructive, to_networkx

# dual-method agreement recorded as golden class counts
GOLDEN_COUNTS = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797}


class TestCanonicalForm:
    def test_invariant_under_all_relabelings(self):
        g = make_theta(2, 1, 2)
        certs = {canonical_form(g.relabel(list(p)))
                 for p in itertools.permutations(range(4))}
        assert len(certs) == 1

    def test_distinguishes_g1_g2(self):
        assert canonical_form(graph_g1(6)) != canonical_form(graph_g2(6))

    def test_cycle_vs_disjoint_triangles(self):
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        two = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_form(c6) != canonical_form(two)

    def test_against_networkx_oracle(self, rng):
        for _ in range(60):
            n = rng.randint(4, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.35]
            g = Graph.from_edges(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            assert canonical_form(g) == canonical_form(h)
            # mutate one edge pair; certificates must agree with nx verdict
            all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            e = all_pairs[rng.randrange(len(all_pairs))]
            mutated = g.remove_edge(*e) if g.has_edge(*e) else g.add_edge(*e)
            same = canonical_form(mutated) == canonical_form(g)
            assert same == nx.is_isomorphic(to_networkx(mutated), to_networkx(g))

    def test_twin_heavy_graphs(self):
        # pendant bundles and complete bipartite sides exercise the twin-cell
        # collapse inside the backtracking search
        s1 = attach_pendants(attach_pendants(Graph.from_edges(2, [(0, 1)]), 0, 5), 1, 5)
        s2 = s1.relabel([11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        assert canonical_form(s1) == canonical_form(s2)
        k34 = Graph.from_edges(7, [(i, j) for i in range(3) for j in range(3, 7)])
        k34b = k34.relabel([6, 5, 4, 3, 2, 1, 0])
        assert canonical_form(k34) == canonical_form(k34b)
        k25 = Graph.from_edges(7, [(i, j) for i in range(2) for j in range(2, 7)])
        assert canonical_form(k34) != canonical_form(k25)

    def test_same_degree_sequence_pairs(self, rng):
        # hard instances: same degree sequence, possibly non-isomorphic
        import itertools as it
        for _ in range(30):
            n = rng.randint(5, 8)
            m = rng.randint(n - 1, n + 3)
            pairs = list(it.combinations(range(n), 2))
            a = Graph.from_edges(n, rng.sample(pairs, m))
            b = Graph.from_edges(n, rng.sample(pairs, m))
            if a.degree_sequence() != b.degree_sequence():
                continue
            ours = canonical_form(a) == canonical_form(b)
            theirs = nx.is_isomorphic(to_networkx(a), to_networkx(b))
            assert ours == theirs

    def test_vertex_transitive_symmetric_branching(self):
        # no refinement progress until individualization: cycles and the cube
        c9 = Graph.from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
        rotated = c9.relabel([(i + 4) % 9 for i in range(9)])
        assert canonical_form(c9) == canonical_form(rotated)
        cube = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                    (4, 5), (5, 6), (6, 7), (7, 4),
                                    (0, 4), (1, 5), (2, 6), (3, 7)])
        shuffled = cube.relabel([5, 1, 0, 4, 6, 2, 3, 7])
        assert canonical_form(cube) == canonical_form(shuffled)

    def test_certificate_round_trip(self):
        for g in (graph_g4(9), make_infinity(4, 2, 5), graph_g2(6)):
            rebuilt = graph_from_certificate(canonical_form(g))
            assert rebuilt.n == g.n and rebuilt.m == g.m
            assert canonical_form(rebuilt) == canonical_form(g)

    def test_size_bound(self):
        with pytest.raises(EnumerationError):
            canonical_form(Graph.from_edges(17, []))

    def test_are_isomorphic(self):
        assert are_isomorphic(graph_g3(7), graph_g3(7).relabel([6, 5, 4, 3, 2, 1, 0]))
        assert not are_isomorphic(graph_g3(7), graph_g4(7))


class TestRootedTrees:
    def test_counts(self):
        # classical rooted-tree counts
        assert [len(rooted_trees(k)) for k in range(1, 8)] == [1, 1, 2, 4, 9, 20, 48]


class TestBases:
    def test_all_bases_are_pendant_free_bicyclic(self):
        for b in bicyclic_bases(9):
            assert b.is_bicyclic()
            assert min(b.degrees()) >= 2

    def test_every_base_classifies(self):
        kinds = set()
        for b in bicyclic_bases(8):
            info = base_graph(b)
            assert info.graph.edges == b.edges
            kinds.add(info.kind)
        assert kinds == {"infinity", "theta"}

    def test_automorphisms_match_brute_force(self):
        for b in bicyclic_bases(7):
            brute = [p for p in itertools.permutations(range(b.n))
                     if b.relabel(list(p)).edges == b.edges]
            assert automorphisms(b) == brute
        # K_{2,3} = theta(2,2,2) has the largest group among the bases
        assert len(automorphisms(make_theta(2, 2, 2))) == 12


class TestEnumerate:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_same_classes_and_representatives_as_reference(self, n):
        ref = reference_enumerate_constructive(n)
        rep = enumerate_bicyclic(n)
        assert [canonical_form(g) for g in rep.graphs] == sorted(ref)
        assert [g.edges for g in rep.graphs] == [ref[k].edges for k in sorted(ref)]

    @pytest.mark.parametrize("n", range(4, 10))
    def test_stream_tags_each_class_with_its_base_kind(self, n):
        stream = list(enumeration.orderly_classes(n))
        assert len(stream) == GOLDEN_COUNTS[n]
        assert all(kind == base_graph(g).kind for g, kind in stream)

    def test_one_certificate_per_class(self, monkeypatch):
        calls = []

        def counting(g, *args):
            calls.append(g.n)
            return canonical_form(g, *args)

        monkeypatch.setattr(enumeration, "canonical_form", counting)
        enumeration._enumerate_constructive.cache_clear()
        for n in range(4, 11):
            calls.clear()
            count = enumerate_bicyclic(n).count
            assert len(calls) == count

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_against_brute_force_oracle(self, n):
        oracle = brute_force_bicyclic_classes(n)
        rep = enumerate_bicyclic(n, "constructive")
        assert rep.count == len(oracle) == GOLDEN_COUNTS[n]
        # class sets agree, not just the counts
        oracle_certs = {canonical_form(g) for g in oracle}
        assert rep.certificates() == oracle_certs

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_methods_agree(self, n):
        a = enumerate_bicyclic(n, "constructive")
        b = enumerate_bicyclic(n, "edge_subset")
        assert a.count == b.count == GOLDEN_COUNTS[n]
        assert a.certificates() == b.certificates()

    def test_n6_contains_the_named_four(self):
        certs = enumerate_bicyclic(6).certificates()
        for g in (graph_g1(6), graph_g2(6), graph_g3(6), graph_g4(6)):
            assert canonical_form(g) in certs

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_every_class_is_connected_bicyclic(self, n):
        for g in enumerate_bicyclic(n).graphs:
            assert g.n == n and g.m == n + 1 and g.is_connected()

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_base_partition(self, n):
        # every class has a base classifying as exactly one of the two kinds
        for g in enumerate_bicyclic(n).graphs:
            assert base_graph(g).kind in ("infinity", "theta")

    def test_bounds_enforced(self):
        with pytest.raises(EnumerationError):
            enumerate_bicyclic(3)
        with pytest.raises(EnumerationError):
            enumerate_bicyclic(11, "constructive")
        with pytest.raises(EnumerationError):
            enumerate_bicyclic(10, "edge_subset")
        with pytest.raises(EnumerationError):
            enumerate_bicyclic(6, "magic")

    def test_order_bound_override(self):
        rep = enumerate_bicyclic(10, "edge_subset", order_bound=10)
        other = enumerate_bicyclic(10, "constructive")
        assert rep.count == other.count == 2678
        assert rep.certificates() == other.certificates()

    def test_deterministic_output_order(self):
        from bicyclic_spectra import graph6_encode
        a = [graph6_encode(g) for g in enumerate_bicyclic(7).graphs]
        b = [graph6_encode(g) for g in enumerate_bicyclic(7).graphs]
        assert a == b

    def test_classes_pairwise_noniso_by_external_oracle(self):
        # certificate injectivity against networkx on the full n=6 catalogue
        graphs = enumerate_bicyclic(6).graphs
        for i, g in enumerate(graphs):
            for h in graphs[i + 1:]:
                assert not nx.is_isomorphic(to_networkx(g), to_networkx(h))


class TestMaxDegree:
    @pytest.mark.parametrize("n", range(6, 11))
    def test_top_degree_gives_g1_g2(self, n):
        rep = enumerate_with_max_degree(n, n - 1)
        assert rep.count == 2
        assert rep.certificates() == {canonical_form(graph_g1(n)), canonical_form(graph_g2(n))}

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_degree_two_impossible(self, n):
        assert enumerate_with_max_degree(n, 2).count == 0

    def test_delta_bound(self):
        with pytest.raises(EnumerationError):
            enumerate_with_max_degree(6, 6)

    @pytest.mark.parametrize("n,delta", [(12, 10), (8, 6)])
    def test_unknown_method_rejected(self, n, delta):
        # also past the order bound, where the targeted family would answer
        with pytest.raises(EnumerationError, match="unknown method 'magic'"):
            enumerate_with_max_degree(n, delta, "magic")

    @pytest.mark.parametrize("n", [8, 9])
    def test_targeted_generator_matches_full_enumeration(self, n):
        fam = targeted_max_degree_family(n)
        full = enumerate_with_max_degree(n, n - 2)
        assert {canonical_form(g) for g in fam} == set(full.certificates())

    def test_targeted_fallback_beyond_enumeration_bound(self):
        rep = enumerate_with_max_degree(12, 10)
        assert rep.count == 9
        assert rep.method.startswith("targeted")
        with pytest.raises(EnumerationError):
            enumerate_with_max_degree(12, 9)  # only delta = n-2 has a generator

    def test_targeted_generator_gives_nine_at_12(self):
        fam = targeted_max_degree_family(12)
        assert len(fam) == 9
        certs = {canonical_form(g) for g in fam}
        assert len(certs) == 9
        for g in fam:
            assert g.is_bicyclic() and max(g.degrees()) == 10

    def test_targeted_contains_pinned_first_graph(self):
        # the theta-graph P(2,2,2) with all pendants on one degree-3 hub
        n = 12
        pinned = attach_pendants(make_theta(2, 2, 2), 0, n - 5)
        fam_certs = {canonical_form(g) for g in targeted_max_degree_family(n)}
        assert canonical_form(pinned) in fam_certs


def high_degree_extremal_candidate(n, delta):
    """P(2,1,2) with delta-3 pendants on one hub and n-delta-1 on the other."""
    return attach_pendants(attach_pendants(make_theta(2, 1, 2), 0, delta - 3),
                           1, n - delta - 1)


class TestFixedMaxDegreeExtremal:
    @pytest.mark.parametrize("n,delta", [(8, 6), (8, 7), (9, 6), (9, 7), (9, 8)])
    def test_adjacency_argmax_over_fixed_max_degree(self, n, delta):
        # for delta >= (n+3)/2, the double-pendant-loaded theta graph tops the
        # adjacency spectral radius among all classes with that max degree
        from bicyclic_spectra import WeightFunction, rho_f
        one = WeightFunction("constant_one")
        rep = enumerate_with_max_degree(n, delta)
        best = max(rep.graphs, key=lambda g: rho_f(g, one))
        h = high_degree_extremal_candidate(n, delta)
        assert max(h.degrees()) == delta
        assert canonical_form(best) == canonical_form(h)

    def test_candidate_radius_bounds(self):
        import math
        from bicyclic_spectra import WeightFunction, rho_f
        one = WeightFunction("constant_one")
        for n in range(12, 41):
            rho = rho_f(high_degree_extremal_candidate(n, n - 3), one)
            assert rho < math.sqrt(n)
            if n >= 20:
                assert rho < math.sqrt(n - 1.2)
