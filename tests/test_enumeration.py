import itertools
import random
import sys

import networkx as nx
import numpy as np
import pytest

from bicyclic_spectra import (
    EnumerationError,
    Graph,
    attach_pendants,
    base_graph,
    canonical_form,
    enumerate_bicyclic,
    graph_g1,
    graph_g2,
    graph_g3,
    graph_g4,
    make_infinity,
    make_theta,
    targeted_max_degree_family,
)
from bicyclic_spectra import enumeration
from bicyclic_spectra.enumeration import bicyclic_bases, rooted_trees
from bicyclic_spectra.graphs import rows_graph
from conftest import (GOLDEN_COUNTS, brute_force_bicyclic_classes, burnside_class_count,
                      class_graphs, degree_sequence, edge_subset_classes,
                      graph_from_certificate, reference_canonical_form, reference_class_key,
                      reference_enumerate_constructive,
                      reference_forest_graph, reference_isomorphisms, reference_orderly_classes,
                      reference_orderly_rows, reference_rooted_trees, reference_weak_compositions,
                      relabel, to_networkx)

KINDS = ("infinity", "theta")  # base_graph's name of each class-key head kind


class TestCanonicalForm:
    """The reference certificate of conftest, the isomorphism oracle for any
    graph, against networkx and itself."""

    def test_invariant_under_all_relabelings(self):
        g = make_theta(2, 1, 2)
        certs = {reference_canonical_form(relabel(g, list(p)))
                 for p in itertools.permutations(range(4))}
        assert len(certs) == 1

    def test_distinguishes_g1_g2(self):
        assert reference_canonical_form(graph_g1(6)) != reference_canonical_form(graph_g2(6))

    def test_cycle_vs_disjoint_triangles(self):
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        two = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert reference_canonical_form(c6) != reference_canonical_form(two)

    def test_against_networkx_oracle(self, rng):
        for _ in range(60):
            n = rng.randint(4, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.35]
            g = Graph.from_edges(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert reference_canonical_form(g) == reference_canonical_form(h)
            # mutate one edge pair; certificates must agree with nx verdict
            all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            e = all_pairs[rng.randrange(len(all_pairs))]
            mutated = Graph(n, g.edges ^ {e})
            same = reference_canonical_form(mutated) == reference_canonical_form(g)
            assert same == nx.is_isomorphic(to_networkx(mutated), to_networkx(g))

    def test_twin_heavy_graphs(self):
        # pendant bundles and complete bipartite sides exercise the twin-cell
        # collapse inside the backtracking search
        s1 = attach_pendants(attach_pendants(Graph.from_edges(2, [(0, 1)]), 0, 5), 1, 5)
        s2 = relabel(s1, [11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        assert reference_canonical_form(s1) == reference_canonical_form(s2)
        k34 = Graph.from_edges(7, [(i, j) for i in range(3) for j in range(3, 7)])
        k34b = relabel(k34, [6, 5, 4, 3, 2, 1, 0])
        assert reference_canonical_form(k34) == reference_canonical_form(k34b)
        k25 = Graph.from_edges(7, [(i, j) for i in range(2) for j in range(2, 7)])
        assert reference_canonical_form(k34) != reference_canonical_form(k25)

    def test_same_degree_sequence_pairs(self, rng):
        # hard instances: same degree sequence, possibly non-isomorphic
        import itertools as it
        for _ in range(30):
            n = rng.randint(5, 8)
            m = rng.randint(n - 1, n + 3)
            pairs = list(it.combinations(range(n), 2))
            a = Graph.from_edges(n, rng.sample(pairs, m))
            b = Graph.from_edges(n, rng.sample(pairs, m))
            if degree_sequence(a) != degree_sequence(b):
                continue
            ours = reference_canonical_form(a) == reference_canonical_form(b)
            theirs = nx.is_isomorphic(to_networkx(a), to_networkx(b))
            assert ours == theirs

    def test_vertex_transitive_symmetric_branching(self):
        # no refinement progress until individualization: cycles and the cube
        c9 = Graph.from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
        rotated = relabel(c9, [(i + 4) % 9 for i in range(9)])
        assert reference_canonical_form(c9) == reference_canonical_form(rotated)
        cube = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                    (4, 5), (5, 6), (6, 7), (7, 4),
                                    (0, 4), (1, 5), (2, 6), (3, 7)])
        shuffled = relabel(cube, [5, 1, 0, 4, 6, 2, 3, 7])
        assert reference_canonical_form(cube) == reference_canonical_form(shuffled)

    def test_certificate_round_trip(self):
        for g in (graph_g4(9), make_infinity(4, 2, 5), graph_g2(6)):
            rebuilt = graph_from_certificate(reference_canonical_form(g))
            assert rebuilt.n == g.n and rebuilt.m == g.m
            assert reference_canonical_form(rebuilt) == reference_canonical_form(g)

    def test_size_bound(self):
        with pytest.raises(EnumerationError):
            reference_canonical_form(Graph.from_edges(17, []))

    def test_are_isomorphic(self):
        g3 = reference_canonical_form(graph_g3(7))
        assert g3 == reference_canonical_form(relabel(graph_g3(7), [6, 5, 4, 3, 2, 1, 0]))
        assert g3 != reference_canonical_form(graph_g4(7))


def random_bicyclic(rng: random.Random, bases: list[Graph], n: int) -> Graph:
    """One of the bases grown to order n by hanging each new vertex on a
    random earlier one, randomly relabelled."""
    g = rng.choice(bases)
    while g.n < n:
        g = attach_pendants(g, rng.randrange(g.n), 1)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(g, perm)


class TestClassKey:
    @pytest.fixture(scope="class")
    def classes(self):
        return {n: class_graphs(n) for n in range(4, 11)}

    def test_distinct_and_invariant_under_relabelling(self, classes):
        rng = random.Random(7)
        keys = set()
        for n, graphs in classes.items():
            for g in graphs:
                perm = list(range(n))
                rng.shuffle(perm)
                key = canonical_form(g)
                assert canonical_form(relabel(g, perm)) == key
                keys.add(key)
        assert len(keys) == sum(map(len, classes.values())) == 3803

    def test_yield_order_is_key_order(self, classes):
        for graphs in classes.values():
            keys = [canonical_form(g) for g in graphs]
            assert keys == sorted(keys)

    def test_shape_codes_order_like_rooted_trees(self):
        # one tree at the junction of B(3,1,4), the only vertex every
        # automorphism fixes: its code is the key entry after the composition
        base = make_infinity(3, 1, 4)
        for size in range(1, 11):
            codes = [canonical_form(reference_forest_graph(
                base, (shape,) + ((),) * (base.n - 1)))[4 + base.n]
                for shape in rooted_trees(size)]
            assert codes == sorted(set(codes))

    def test_same_key_iff_isomorphic_past_sixteen(self):
        rng = random.Random(20261018)
        same = differ = 0
        for n in range(17, 31):
            # two cores of order n - 1 with one hung vertex: few classes, so
            # random pairs are often isomorphic under different labels; and
            # small cores with large trees, each beside a relabelled copy
            bases = rng.sample([b for _, b in bicyclic_bases(n - 1) if b.n == n - 1], 2)
            graphs = [random_bicyclic(rng, bases, n) for _ in range(8)]
            for g in [random_bicyclic(rng, [b for _, b in bicyclic_bases(8)], n) for _ in range(3)]:
                graphs += [g, random_bicyclic(rng, [g], n)]
            for g, h in itertools.combinations(graphs, 2):
                iso = (degree_sequence(g) == degree_sequence(h)
                       and nx.is_isomorphic(to_networkx(g), to_networkx(h)))
                assert (canonical_form(g) == canonical_form(h)) == iso
                same, differ = same + iso, differ + (not iso)
        assert same >= 40 and differ >= 800

    def test_rejects_graphs_that_are_not_bicyclic(self):
        with pytest.raises(ValueError):
            canonical_form(Graph.from_edges(5, [(i, i + 1) for i in range(4)]))


class TestRootedTrees:
    def test_counts(self):
        # classical rooted-tree counts
        assert [len(rooted_trees(k)) for k in range(1, 8)] == [1, 1, 2, 4, 9, 20, 48]

    def test_same_shapes_as_the_bounded_recursion(self):
        # the same tuple, in the same order
        for size in range(14):
            assert rooted_trees(size) == reference_rooted_trees(size)


class TestBurnsideCounts:
    """Class counts by Polya's theorem over each base's networkx automorphisms
    and the A000081 rooted-tree series, independent of the generator."""

    @pytest.mark.parametrize("n", range(4, 13))
    def test_orderly_count_matches_burnside(self, n):
        assert sum(len(kinds) for _, kinds in enumeration.orderly_rows(n)) == burnside_class_count(n)


class TestOrderlyRows:
    """The edge rows built from the orderly key against the earlier
    generator, which built each class as a Graph by a stack walk."""

    @pytest.mark.parametrize("n", range(4, 12))
    def test_rows_are_the_reference_graphs(self, n):
        chunks = list(enumeration.orderly_rows(n))
        rows = [r for chunk, _ in chunks for r in chunk.tolist()]
        kinds = [kind for _, chunk_kinds in chunks for kind in chunk_kinds]
        ref = list(reference_orderly_classes(n))
        assert len(rows) == len(ref)
        assert [frozenset(map(tuple, r)) for r in rows] == [g.edges for g, _ in ref]
        assert [KINDS[kind] for kind in kinds] == [kind for _, kind in ref]

    @pytest.mark.parametrize("n", range(4, 12))
    def test_chunks(self, n):
        # 1 to BLOCK_BUDGET classes a chunk; in each class the base's edges,
        # then row x + 1 joins new vertex x to an earlier parent
        chunks = list(enumeration.orderly_rows(n))
        assert all(0 < len(kinds) <= enumeration.BLOCK_BUDGET for _, kinds in chunks)
        for rows, kinds in chunks:
            assert rows.dtype.kind == "i" and rows.shape == (len(kinds), n + 1, 2)
            assert kinds.dtype == np.intp
            assert (rows[:, :, 0] < rows[:, :, 1]).all() and (rows < n).all()
            for r, kind in zip(rows, kinds):
                base = base_graph(rows_graph(r))
                assert base.kind == KINDS[kind]
                b = len(base.kept_vertices)
                assert r[b + 1:, 1].tolist() == list(range(b, n))
                assert (r[b + 1:, 0] < r[b + 1:, 1]).all()

    @pytest.mark.parametrize("budget", [None, 3])
    @pytest.mark.parametrize("n", range(4, 14))
    def test_same_chunks_as_the_per_class_loop(self, n, budget, monkeypatch):
        # the same rows, kinds and dtypes, concatenated, in chunks of 1 to
        # BLOCK_BUDGET classes; a budget of 3 cuts a block every 3
        # compositions and a window every 3 assignments, so every large base
        # and every grid of more than 3 shapes is split
        if budget is not None:
            monkeypatch.setattr(enumeration, "BLOCK_BUDGET", budget)
        chunks, (ref_rows, ref_kinds) = list(enumeration.orderly_rows(n)), reference_orderly_rows(n)
        assert all(0 < len(kinds) <= enumeration.BLOCK_BUDGET for _, kinds in chunks)
        rows, kinds = map(np.concatenate, zip(*chunks))
        assert rows.dtype == ref_rows.dtype == np.int16 and np.array_equal(rows, ref_rows)
        assert kinds.dtype == ref_kinds.dtype == np.intp and np.array_equal(kinds, ref_kinds)

    def test_a_grid_larger_than_the_budget_spans_chunks(self):
        # at n = 13 the first theta class hangs all 9 new vertices on vertex 3
        # of P(2,2,1), the composition (0, 0, 0, 9): 719 shapes, the rooted
        # trees on 10 vertices, more than BLOCK_BUDGET, so over several chunks
        assert len(rooted_trees(10)) == 719 > enumeration.BLOCK_BUDGET
        chunks = list(enumeration.orderly_rows(13))
        rows, kinds = map(np.concatenate, zip(*chunks))
        first = int(np.argmax(kinds == 1))
        grid = rows[first:first + 720]
        assert (grid[:, :5] < 4).all()  # the base's edges
        # every new vertex hangs below vertex 3 in the first 719 classes only
        assert (grid[:719, 5:, 0] >= 3).all() and not (grid[719, 5:, 0] >= 3).all()
        ends = np.cumsum([len(kinds) for _, kinds in chunks])
        assert np.searchsorted(ends, first, "right") < np.searchsorted(ends, first + 718, "right")

    @pytest.mark.parametrize("n", range(1, 4))
    def test_no_chunk_below_order_4(self, n):
        assert list(enumeration.orderly_rows(n)) == []

    def test_classes_are_graphs_of_the_rows(self):
        for n in range(4, 9):
            stream = [(g, kind) for rows, kinds in enumeration.orderly_rows(n)
                      for g, kind in zip(map(rows_graph, rows), kinds)]
            assert class_graphs(n) == [g for g, _ in stream]


class TestWeakCompositions:
    def test_same_sequence_as_the_recursion(self):
        # the orderly key reads compositions in this (lexicographic) order
        for total in range(9):
            for parts in range(7):
                comps = enumeration._weak_compositions(total, parts)
                assert comps.shape[1:] == (parts,)
                assert (list(map(tuple, comps.tolist()))
                        == list(reference_weak_compositions(total, parts)))


class TestBases:
    def test_all_bases_are_pendant_free_bicyclic(self):
        for _, b in bicyclic_bases(9):
            assert b.is_bicyclic()
            assert min(b.degrees()) >= 2

    def test_every_base_classifies(self):
        kinds = set()
        for _, b in bicyclic_bases(8):
            info = base_graph(b)
            assert info.graph.edges == b.edges
            kinds.add(info.kind)
        assert kinds == {"infinity", "theta"}

    def test_automorphisms_match_brute_force(self):
        for head, b in bicyclic_bases(7):
            brute = [p for p in itertools.permutations(range(b.n))
                     if relabel(b, list(p)).edges == b.edges]
            assert enumeration._base_symmetry(head) == tuple(brute)
        # K_{2,3} = theta(2,2,2) has the largest group among the bases
        assert len(enumeration._base_symmetry((1, 2, 2, 2))) == 12

    def test_base_symmetry_matches_reference_on_every_base(self):
        # the maps the earlier backtracking search found, in the same order
        for head, b in bicyclic_bases(12):
            assert enumeration._base_symmetry(head) == tuple(reference_isomorphisms(b, b))

    def test_class_keys_match_reference(self, rng):
        # every class at n <= 10 and a relabelled copy of each: the earlier
        # search's key, and one key per class of the reference certificate
        keys = {}
        for n in range(4, 11):
            for g in class_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                h = relabel(g, perm)
                key = canonical_form.__wrapped__(g)
                assert key == canonical_form.__wrapped__(h) == reference_class_key(g)
                assert reference_class_key(h) == key
                keys.setdefault(key, set()).add(reference_canonical_form(g))
                keys[key].add(reference_canonical_form(h))
        assert len(keys) == 3803 and all(len(certs) == 1 for certs in keys.values())

    def test_class_key_of_a_deep_hung_tree(self):
        # a 1,200-vertex path hung on a hub of P(2,1,2): the shape codes are
        # read without one stack frame per level
        g = attach_pendants(make_theta(2, 1, 2), 0, 1)
        g = Graph.from_edges(1204, list(g.edges) + [(v, v + 1) for v in range(4, 1203)])
        key = canonical_form.__wrapped__(g)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            assert reference_class_key(g) == key
        finally:
            sys.setrecursionlimit(limit)
        assert key[:8] == (1, 2, 2, 1, 0, 1200, 0, 0)  # the hub swap puts the path second

    def test_ear_labelling_maps_the_base_onto_a_relabelled_copy(self, rng):
        for head, b in bicyclic_bases(8):
            perm = list(range(b.n))
            rng.shuffle(perm)
            h = relabel(b, perm)
            phi = enumeration._ear_labelling(head[0], base_graph(h).ears)
            maps = {tuple(phi[i] for i in sigma) for sigma in enumeration._base_symmetry(head)}
            assert maps == set(reference_isomorphisms(b, h))
            assert tuple(perm) in maps


class TestEnumerate:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_same_classes_and_representatives_as_reference(self, n):
        ref = reference_enumerate_constructive(n)
        graphs = class_graphs(n)
        certs = [reference_canonical_form(g) for g in graphs]
        assert sorted(certs) == sorted(ref)
        assert [g.edges for g in graphs] == [ref[k].edges for k in certs]

    def test_base_symmetry_computed_once_per_base(self):
        enumeration._base_symmetry.cache_clear()
        try:
            counts = [sum(len(kinds) for _, kinds in enumeration.orderly_rows(n))
                      for n in range(4, 11)]
            info = enumeration._base_symmetry.cache_info()
        finally:
            enumeration._base_symmetry.cache_clear()
        assert counts[:6] == [GOLDEN_COUNTS[n] for n in range(4, 10)] and counts[6] == 2678
        # one group per base: each head is missed once, then read from the cache
        assert info.misses == info.currsize == len(bicyclic_bases(10)) == 66

    @pytest.mark.parametrize("n", range(4, 10))
    def test_stream_tags_each_class_with_its_base_kind(self, n):
        stream = [(rows_graph(r), kind) for rows, kinds in enumeration.orderly_rows(n)
                  for r, kind in zip(rows, kinds)]
        assert len(stream) == GOLDEN_COUNTS[n]
        assert all(KINDS[kind] == base_graph(g).kind for g, kind in stream)

    def test_makes_no_class_key(self):
        # the classes come out in key order; canonical_form's lru_cache
        # counts every call, whichever module makes it
        info = canonical_form.cache_info()
        before = info.hits + info.misses
        for n in range(4, 11):
            for _ in enumerate_bicyclic(n)[1]:
                pass
        info = canonical_form.cache_info()
        assert info.hits + info.misses == before

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_against_brute_force_oracle(self, n):
        oracle = brute_force_bicyclic_classes(n)
        graphs = class_graphs(n)
        assert len(graphs) == len(oracle) == GOLDEN_COUNTS[n]
        # class sets agree, not just the counts
        oracle_certs = {reference_canonical_form(g) for g in oracle}
        assert {reference_canonical_form(g) for g in graphs} == oracle_certs

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_methods_agree(self, n):
        graphs, oracle = class_graphs(n), edge_subset_classes(n)
        assert len(graphs) == len(oracle) == GOLDEN_COUNTS[n]
        assert {reference_canonical_form(g) for g in graphs} == set(oracle)

    def test_n6_contains_the_named_four(self):
        certs = {canonical_form(g) for g in class_graphs(6)}
        for g in (graph_g1(6), graph_g2(6), graph_g3(6), graph_g4(6)):
            assert canonical_form(g) in certs

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_every_class_is_connected_bicyclic(self, n):
        for g in class_graphs(n):
            assert g.n == n and g.m == n + 1 and g.is_connected()

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_base_partition(self, n):
        # every class has a base classifying as exactly one of the two kinds
        for g in class_graphs(n):
            assert base_graph(g).kind in ("infinity", "theta")

    def test_bounds_enforced(self):
        with pytest.raises(EnumerationError):
            enumerate_bicyclic(3)
        with pytest.raises(EnumerationError):
            enumerate_bicyclic(11)

    def test_order_bound_override(self):
        # the oracle at the order bound itself
        graphs, oracle = class_graphs(10), edge_subset_classes(10)
        assert len(graphs) == len(oracle) == 2678
        assert {reference_canonical_form(g) for g in graphs} == set(oracle)

    def test_deterministic_output_order(self):
        from bicyclic_spectra import graph6_encode
        a = [graph6_encode(g) for g in class_graphs(7)]
        b = [graph6_encode(g) for g in class_graphs(7)]
        assert a == b

    def test_classes_pairwise_noniso_by_external_oracle(self):
        # certificate injectivity against networkx on the full n=6 catalogue
        graphs = class_graphs(6)
        for i, g in enumerate(graphs):
            for h in graphs[i + 1:]:
                assert not nx.is_isomorphic(to_networkx(g), to_networkx(h))


class TestMaxDegree:
    @pytest.mark.parametrize("n", range(6, 11))
    def test_top_degree_gives_g1_g2(self, n):
        graphs = class_graphs(n, n - 1)
        assert len(graphs) == 2
        assert ({canonical_form(g) for g in graphs}
                == {canonical_form(graph_g1(n)), canonical_form(graph_g2(n))})

    @pytest.mark.parametrize("n", range(4, 11))
    def test_filters_the_classes_by_top_degree(self, n):
        graphs = class_graphs(n)
        for delta in range(2, n):
            assert class_graphs(n, delta) == [g for g in graphs if max(g.degrees()) == delta]

    def test_builds_only_the_classes_it_returns(self, monkeypatch):
        # the degrees are read from the rows and the classes come out as
        # rows; the bases are built once per process, so a warm stream
        # builds no Graph at all
        for _ in enumerate_bicyclic(10, 9)[1]:
            pass
        built, post_init = [], Graph.__post_init__

        def counting(g):
            built.append(g)
            post_init(g)

        monkeypatch.setattr(Graph, "__post_init__", counting)
        assert sum(map(len, enumerate_bicyclic(10, 9)[1])) == 2
        assert built == []

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_degree_two_impossible(self, n):
        assert sum(map(len, enumerate_bicyclic(n, 2)[1])) == 0

    def test_delta_bound(self):
        with pytest.raises(EnumerationError):
            enumerate_bicyclic(6, 6)
        with pytest.raises(EnumerationError):
            enumerate_bicyclic(6, -1)

    @pytest.mark.parametrize("n", range(7, 11))
    def test_targeted_generator_matches_full_enumeration(self, n):
        fam = targeted_max_degree_family(n)
        full = class_graphs(n, n - 2)
        assert {canonical_form(g) for g in fam} == {canonical_form(g) for g in full}

    def test_targeted_fallback_beyond_enumeration_bound(self):
        method, chunks = enumerate_bicyclic(12, 10)
        assert [len(rows) for rows in chunks] == [9]
        assert method.startswith("targeted")
        with pytest.raises(EnumerationError):
            enumerate_bicyclic(12, 9)  # only delta = n-2 has a generator

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
        assert canonical_form(targeted_max_degree_family(n)[0]) == canonical_form(pinned)

    @pytest.mark.parametrize("n", range(7, 21))
    def test_targeted_patterns_pairwise_noniso(self, n):
        # no dedup: the nine patterns are nine classes at every order
        fam = targeted_max_degree_family(n)
        assert len(fam) == 9
        assert all(g.is_bicyclic() and max(g.degrees()) == n - 2 for g in fam)
        for g, h in itertools.combinations(fam, 2):
            assert not nx.is_isomorphic(to_networkx(g), to_networkx(h))


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
        best = max(class_graphs(n, delta), key=lambda g: rho_f(g, one))
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
