"""Isomorphism-free generation of connected bicyclic graphs at small order,
and the class key that names a bicyclic class at any order.

One generator: build every pendant-free base (infinity- and theta-graphs) up
to order n and attach the rooted forests that are orderly (McKay 1998): first
in their orbit under the base's automorphisms, one per class.  The tests
check it against an independent oracle, canonical augmentation over all
connected graphs with m = n + 1 edges.

The class key `canonical_form` reads that orderly key back from a graph's
structure: its base (the 2-core) names a standard base, every isomorphism
from the standard base onto the core reads the hung trees as (composition,
shape codes), and the least reading is the key.  The generator yields its
classes in key order, so enumeration needs no certificate and no sort.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import getitem, itemgetter
from typing import Iterable, Iterator

import numpy as np

from .graphs import Graph, base_graph, edge_masks, graph_rows, make_infinity, make_theta, union_edges
# largest order enumerate_bicyclic runs at
ORDER_BOUND = 10
# classes per orderly_rows chunk; the streams' chunk boundaries and the reports depend on it
CLASS_CHUNK = 64


class EnumerationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Constructive generator: bases + rooted forests
# ---------------------------------------------------------------------------

_TreeShape = tuple  # nested sorted tuples; () is the single-vertex tree


@lru_cache(maxsize=None)
def rooted_trees(size: int) -> tuple[_TreeShape, ...]:
    """All rooted tree shapes on `size` vertices as nested sorted tuples: a
    shape of size s >= 2 is one of size s - k with one more subtree, of size
    k, at its root."""
    if size < 2:
        return ((),) * (size == 1)
    return tuple(sorted({tuple(sorted(rest + (sub,))) for k in range(1, size)
                         for rest in rooted_trees(size - k) for sub in rooted_trees(k)}))


@lru_cache(maxsize=None)
def _hung_trees(v: int, size: int, offset: int) -> tuple[tuple[int, ...], ...]:
    """Each shape of rooted_trees(size) hung at v, its other vertices numbered
    from offset in preorder: the edges (parent, child) to them, flattened."""
    def walk(shape: _TreeShape, parent: int, out: list[int]) -> list[int]:
        for child in shape:
            out += (parent, offset + len(out) // 2)
            walk(child, out[-1], out)
        return out

    return tuple(tuple(walk(shape, v, [])) for shape in rooted_trees(size))


def isomorphisms(g: Graph, h: Graph) -> list[tuple[int, ...]]:
    """Every isomorphism p from g onto h, a graph of the same order (v goes to
    p[v]), extending partial maps one vertex of g at a time: w takes v if it
    is unused (a map carries its targets' mask), of v's degree, and its
    neighbours among the used targets are the images of v's lower ones.  Few
    partial maps survive when each vertex of g except a path's first has a
    smaller-labelled neighbour, as in the standard bases."""
    g_masks, g_deg = edge_masks(g.n, g.edges), g.degrees()
    h_masks, h_deg = edge_masks(h.n, h.edges), h.degrees()
    maps = [((), 0)]
    for v in range(g.n):
        lower = [u for u in range(v) if g_masks[v] >> u & 1]
        targets = [w for w in range(h.n) if h_deg[w] == g_deg[v]]
        maps = [(p + (w,), used | 1 << w) for p, used in maps
                for image in [sum(1 << p[u] for u in lower)] for w in targets
                if not used >> w & 1 and h_masks[w] & used == image]
    return [p for p, _ in maps]


@lru_cache(maxsize=None)
def _base_symmetry(base: Graph) -> tuple[tuple[int, ...], ...]:
    """Automorphism group of a base, computed once across orders."""
    return tuple(isomorphisms(base, base))


@lru_cache(maxsize=None)
def _bases(order: int) -> tuple[tuple[tuple[int, ...], Graph], ...]:
    """(class-key head, base) of every pendant-free bicyclic graph of this order."""
    infinity = [((0, p, q, l), make_infinity(p, l, q)) for p in range(3, order)
                for q in range(p, order) for l in [order + 2 - p - q] if l >= 1]
    theta = [((1, hi, mid, lo), make_theta(hi, lo, mid)) for hi in range(2, order)
             for mid in range(2, hi + 1) for lo in [order + 1 - hi - mid] if 1 <= lo <= mid]
    return tuple(infinity + theta)


def bicyclic_bases(max_order: int) -> list[tuple[tuple[int, ...], Graph]]:
    """(class-key head, base) of every pendant-free bicyclic graph with at most
    max_order vertices, by head: infinity by (p, q, l), then theta by (hi, mid, lo)."""
    return sorted(itertools.chain(*map(_bases, range(4, max_order + 1))))


def orderly_rows(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One labelled graph per bicyclic class on n vertices, lazily, in
    class-key order, in chunks (rows, kinds) of CLASS_CHUNK classes: rows[i],
    of an int16 array (C, n + 1, 2), holds the edges (u, v), u < v, of class
    i and kinds[i], of an intp array, its base kind (0 infinity, 1 theta, its
    class key's head).  A class's rows are its base's edges, then row x + 1
    joins new vertex x to its parent, the trees numbered in preorder one base
    vertex after another.

    A forest assignment, keyed (composition, shape indices) in loop order, is
    kept only when no base automorphism maps it to a smaller key (the group
    is closed under inverses, so the keys read at p[v] are all the images).
    The base (the 2-core) is an isomorphism invariant, the bases are pairwise
    non-isomorphic and rooted-tree shapes are canonical, so no two classes
    are isomorphic.
    """
    flat, kinds = [], []
    for head, base in bicyclic_bases(n):
        group, kind = _base_symmetry(base), head[0]
        moves = [itemgetter(*p) for p in group[1:]]  # group[0] is the identity
        edges = tuple(itertools.chain.from_iterable(sorted(base.edges)))
        for comp in _weak_compositions(n - base.n, base.n):
            stabiliser = []
            for move in moves:
                image = move(comp)
                if image < comp:
                    break
                if image == comp:
                    stabiliser.append(move)
            else:
                trees = [_hung_trees(v, c + 1, offset) for v, (c, offset)
                         in enumerate(zip(comp, itertools.accumulate(comp, initial=base.n)))]
                for idx in itertools.product(*(range(len(shapes)) for shapes in trees)):
                    if all(move(idx) >= idx for move in stabiliser):
                        flat += edges
                        flat += itertools.chain.from_iterable(map(getitem, trees, idx))
                        kinds.append(kind)
                        if len(kinds) == CLASS_CHUNK:
                            yield (np.array(flat, np.int16).reshape(-1, n + 1, 2),
                                   np.array(kinds, np.intp))
                            flat, kinds = [], []
    if kinds:
        yield np.array(flat, np.int16).reshape(-1, n + 1, 2), np.array(kinds, np.intp)


def _weak_compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """Tuples of `parts` non-negative ints summing to total, in lexicographic
    order: stars and bars, as the ascending parts - 1 bar slots run in order."""
    if parts == 0:
        return iter([()] if total == 0 else [])
    slots = total + parts - 1
    return (tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
            for bars in itertools.combinations(range(slots), parts - 1))


# ---------------------------------------------------------------------------
# Class key
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 16)
def canonical_form(g: Graph) -> tuple[int, ...]:
    """Class key of a connected bicyclic graph, at any order: the key
    `orderly_rows` keeps for its class, as a flat tuple of ints.

    The base (kind 0 for infinity, 1 for theta, then its parameters in
    `bicyclic_bases` loop order), then the least (composition, shape codes)
    over every isomorphism iso from the standard base onto g's core: entry i
    reads the tree hung at core vertex iso[i].  A shape's code is its nested
    sorted tuple written in bits (each child: 1 and the child's bits; then
    0), so codes of one size order as the shapes do in `rooted_trees`,
    without listing them.
    """
    info = base_graph(g)
    p, l, q = info.params
    if info.kind == "infinity":
        head, std = (0, p, q, l), make_infinity(p, l, q)
    else:
        head, std = (1, q, p, l), make_theta(q, l, p)
    nbr, core = g.neighbors(), set(info.kept_vertices)

    def bits(v: int, parent: int) -> str:
        return "".join(sorted("1" + bits(w, v) for w in nbr[v]
                              if w != parent and w not in core)) + "0"

    trees = [bits(v, -1) for v in info.kept_vertices]
    comp, codes = [len(t) // 2 for t in trees], [int(t, 2) for t in trees]
    return head + min(tuple(comp[i] for i in iso) + tuple(codes[i] for i in iso)
                      for iso in isomorphisms(std, info.graph))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def check_order(n: int) -> None:
    """Raise EnumerationError unless 4 <= n <= ORDER_BOUND."""
    if not 4 <= n <= ORDER_BOUND:
        raise EnumerationError(f"bicyclic classes are enumerated for 4 <= n <= {ORDER_BOUND}")


def enumerate_bicyclic(n: int, max_degree: int | None = None) -> tuple[str, Iterable[np.ndarray]]:
    """(method, chunks): the connected bicyclic graphs on n vertices up to
    isomorphism, lazily in class-key order, as the edge rows of
    orderly_rows(n); with max_degree, only those of that maximum degree.

    Beyond ORDER_BOUND, max_degree = n - 2 is still answered, as one chunk,
    by the targeted generator (cross-checked against full enumeration at the
    orders where both run).
    """
    if max_degree is None:
        check_order(n)
        return "constructive", (rows for rows, _ in orderly_rows(n))
    if max_degree < 0:
        raise EnumerationError("delta must be >= 0")
    if max_degree > n - 1:
        raise EnumerationError("delta exceeds n - 1")
    if n > ORDER_BOUND and max_degree == n - 2:
        return f"targeted/max_degree={max_degree}", [graph_rows(targeted_max_degree_family(n))]
    check_order(n)

    def filtered():
        for rows, _ in orderly_rows(n):
            deg = np.bincount(union_edges(rows, n).ravel(), minlength=len(rows) * n)
            yield rows[deg.reshape(-1, n).max(axis=1) == max_degree]

    return f"constructive/max_degree={max_degree}", filtered()


def targeted_max_degree_family(n: int) -> list[Graph]:
    """Bicyclic graphs with a vertex of degree exactly n-2, built directly.

    Hub 0 is adjacent to vertices 1..n-2; vertex n-1 is its unique
    non-neighbor; the three remaining edges are placed in each of the nine
    inequivalent patterns, returned in that order: the hub is the only vertex
    of degree above 4, so the patterns around it and its non-neighbor are
    nine distinct classes at every n >= 7.  The first pattern is the
    theta-graph P(2,2,2) with all pendants on one degree-3 hub, whose
    extended-matrix polynomial is pinned in tests.
    """
    if n < 7:
        raise EnumerationError("targeted generator needs n >= 7")
    w = n - 1
    shapes = [
        [(w, 1), (w, 2), (w, 3)],
        [(w, 1), (w, 2), (1, 2)],
        [(w, 1), (w, 2), (1, 3)],
        [(w, 1), (w, 2), (3, 4)],
        [(w, 1), (1, 2), (1, 3)],
        [(w, 1), (1, 2), (2, 3)],
        [(w, 1), (1, 2), (3, 4)],
        [(w, 1), (2, 3), (2, 4)],
        [(w, 1), (2, 3), (4, 5)],
    ]
    hub_edges = [(0, v) for v in range(1, n - 1)]
    return [Graph.from_edges(n, hub_edges + extra) for extra in shapes]
