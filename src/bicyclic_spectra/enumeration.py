"""Isomorphism-free generation of connected bicyclic graphs at small order,
and the class key that names a bicyclic class at any order.

One generator: build every pendant-free base (infinity- and theta-graphs) up
to order n and attach the rooted forests that are orderly (McKay 1998): first
in their orbit under the base's automorphisms, one per class.  It works in
numpy blocks of about BLOCK_BUDGET classes and compositions, and reads each
kept composition's shape-index grid in C order, which is lexicographic order,
so no sort is needed.  The tests check it against an independent oracle, canonical
augmentation over all connected graphs with m = n + 1 edges.

The class key `canonical_form` reads that orderly key back from a graph's
structure: its base (the 2-core) names a standard base, every isomorphism
from the standard base onto the core reads the hung trees as (composition,
shape codes), and the least reading is the key.  The generator yields its
classes in key order, so enumeration needs no certificate and no sort.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .graphs import (Graph, base_graph, edge_masks, make_infinity, make_theta, rows_graph,
                     union_edges)
# largest order enumerate_bicyclic runs at
ORDER_BOUND = 10
# classes per orderly_rows chunk, the exhaustive prune's batch; 512 took 0.33 MB more RSS at n <= 10
CLASS_CHUNK = 256
# cost of an orderly_rows numpy block, 1 per composition plus its estimated classes; at
# n = 14 on one CPU, 512 took 0.14 s at 34-35 MB peak, 1,024 0.12 s at 37 MB, 256 0.18 s
BLOCK_BUDGET = 512


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
def _parent_table(size: int) -> np.ndarray:
    """Each shape of rooted_trees(size) numbered in preorder from its root 0:
    the parents of its vertices 1..size-1."""
    def walk(shape: _TreeShape, parent: int, out: list[int]) -> list[int]:
        for child in shape:
            out.append(parent)
            walk(child, len(out), out)
        return out

    return np.array([walk(shape, 0, []) for shape in rooted_trees(size)], np.intp)


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

    A forest assignment, keyed (composition, shape indices), is kept only
    when no base automorphism maps it to a smaller key (the group is closed
    under inverses, so the keys read at p[v] are all the images).  The base
    (the 2-core) is an isomorphism invariant, the bases are pairwise
    non-isomorphic and rooted-tree shapes are canonical, so no two classes
    are isomorphic.

    A block is a run of (base, composition) in key order, cut at each
    BLOCK_BUDGET of cost.  It drops each composition that one of its images
    undercuts, and expands the others' shape-index grids in C order, last
    index fastest, which is lexicographic order, so the keys ascend.  Only
    the shapes of a composition that some automorphism fixes are compared
    again, under those automorphisms.
    """
    bases = bicyclic_bases(n)
    order, kinds = (np.array(col, np.intp) for col in zip(*[(b.n, h[0]) for h, b in bases]))
    moves = np.array([len(_base_symmetry(b)) - 1 for _, b in bases])  # [0] is the identity
    start = np.cumsum(moves) - moves
    perms = np.array([p + tuple(range(len(p), n)) for _, b in bases  # identity past the base
                      for p in _base_symmetry(b)[1:]], np.intp).reshape(-1, n)
    # each base's edges, then row x + 1 ends at new vertex x
    templates = np.array([sorted(b.edges) + [(0, x) for x in range(b.n, n)] for _, b in bases],
                         np.int16)
    radices = np.array([len(rooted_trees(size)) for size in range(n - 2)])
    tables = [_parent_table(c + 1).ravel() for c in range(n - 3)]
    parents, table_at = np.concatenate(tables), np.cumsum([0] + list(map(len, tables)))
    comps = {b: np.zeros((math.comb(n - 1, b - 1), n), np.int8) for b in set(order.tolist())}
    for b, comp in comps.items():
        comp[:, :b] = _weak_compositions(n - b, b)
    cum = {b: np.cumsum(np.r_[0, radices[comp + 1].prod(1)]) for b, comp in comps.items()}

    def pieces() -> Iterator[tuple[float, int, int, int]]:
        """(block, base, first, end): composition ranges and their blocks."""
        done = 0.0
        for i, b in enumerate(order.tolist()):
            g, k = moves[i] + 1, len(comps[b])
            if (done + cum[b][-2] / g + k - 1) // BLOCK_BUDGET == done // BLOCK_BUDGET:
                yield done // BLOCK_BUDGET, i, 0, k  # the base fits in the current block
            else:
                ids = (done + cum[b][:-1] / g + np.arange(k)) // BLOCK_BUDGET
                cuts = [0, *(np.flatnonzero(np.diff(ids)) + 1).tolist(), k]
                yield from ((ids[lo], i, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
            done += cum[b][-1] / g + k

    rows, kind = templates[:0], kinds[:0]
    for _, block in itertools.groupby(pieces(), itemgetter(0)):
        block = list(block)
        width = max(order[i] for _, i, _, _ in block)  # the block's largest base
        comp = np.concatenate([comps[order[i]][lo:hi, :width] for _, i, lo, hi in block])
        base = np.repeat(*zip(*[(i, hi - lo) for _, i, lo, hi in block]))
        keep, fixed = _undercut(comp, start[base], moves[base], perms[:, :width])
        # span[:, v]: a kept composition's assignments to vertices v..; by rank in C order
        span = np.cumprod(np.column_stack([keep, radices[comp[:, ::-1] + 1]]), 1)[:, ::-1]
        cls, rank = _ranges(0, span[:, 0])
        shape = rank[:, None] % span[cls, :-1] // span[cls, 1:]
        # again on the shape indices, under the automorphisms that fix the composition
        fixes = np.bincount(fixed[0], minlength=len(comp))
        good, _ = _undercut(shape, (np.cumsum(fixes) - fixes)[cls], fixes[cls],
                            perms[fixed[1], :width])
        comp, base, shape = comp[cls[good]], base[cls[good]], shape[good]
        # a hung tree's table row: its root is v, its other vertices count from vertex[:, v]
        vertex = order[base][:, None] + np.cumsum(comp, 1) - comp
        cell, at = _ranges((table_at[comp] + shape * comp).ravel(), comp.ravel())
        local, new = parents[at], templates[base]
        new[:, :, 0][np.arange(n + 1) > order[base][:, None]] = np.where(
            local == 0, cell % width, vertex.ravel()[cell] + local - 1)
        cuts = range(CLASS_CHUNK, len(kind) + len(base), CLASS_CHUNK)
        *chunks, (rows, kind) = zip(np.split(np.concatenate([rows, new]), cuts),
                                    np.split(np.concatenate([kind, kinds[base]]), cuts))
        yield from chunks
    if len(kind):
        yield rows, kind


def _ranges(first, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, i) for each i of the ranges [first[k], first[k] + count[k]), by k."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) + np.repeat(first - np.cumsum(count) + count, count)


def _undercut(keys: np.ndarray, first: np.ndarray, count: np.ndarray, perms: np.ndarray):
    """(keep, (row, move)): keep[k] unless some keys[k] permuted by a move of
    perms[first[k]:first[k] + count[k]] is lexicographically smaller; and the
    (row, move) pairs that leave keys[row] unchanged."""
    row, move = _ranges(first, count)
    diff = keys[row[:, None], perms[move]] - keys[row]
    sign = diff[np.arange(len(diff)), (diff != 0).argmax(1)]
    same = sign == 0
    return np.bincount(row[sign < 0], minlength=len(keys)) == 0, (row[same], move[same])


def _weak_compositions(total: int, parts: int) -> np.ndarray:
    """Rows of `parts` non-negative ints summing to total, in lexicographic
    order: stars and bars, as the ascending parts - 1 bar slots run in order."""
    if parts == 0:
        return np.zeros((int(total == 0), 0), np.intp)
    slots = total + parts - 1
    bars = itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1))
    bars = np.fromiter(bars, np.intp).reshape(math.comb(slots, parts - 1), parts - 1)
    return np.diff(bars, axis=1, prepend=-1, append=slots) - 1


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
        return f"targeted/max_degree={max_degree}", [max_degree_rows(n)]
    check_order(n)

    def filtered():
        for rows, _ in orderly_rows(n):
            deg = np.bincount(union_edges(rows, n).ravel(), minlength=len(rows) * n)
            yield rows[deg.reshape(-1, n).max(axis=1) == max_degree]

    return f"constructive/max_degree={max_degree}", filtered()


def max_degree_rows(n: int) -> np.ndarray:
    """Edge rows (9, n + 1, 2) of the bicyclic graphs with a vertex of degree
    exactly n-2, built directly, each edge (u, v) with u < v.

    Hub 0 is adjacent to vertices 1..n-2; vertex n-1 is its unique
    non-neighbor; the three remaining edges are placed in each of the nine
    inequivalent patterns, in that order: the hub is the only vertex of
    degree above 4, so the patterns around it and its non-neighbor are nine
    distinct classes at every n >= 7.  The first pattern is the theta-graph
    P(2,2,2) with all pendants on one degree-3 hub, whose extended-matrix
    polynomial is pinned in tests.
    """
    if n < 7:
        raise EnumerationError("targeted generator needs n >= 7")
    w = n - 1
    shapes = np.array([
        [(1, w), (2, w), (3, w)],
        [(1, w), (2, w), (1, 2)],
        [(1, w), (2, w), (1, 3)],
        [(1, w), (2, w), (3, 4)],
        [(1, w), (1, 2), (1, 3)],
        [(1, w), (1, 2), (2, 3)],
        [(1, w), (1, 2), (3, 4)],
        [(1, w), (2, 3), (2, 4)],
        [(1, w), (2, 3), (4, 5)],
    ], np.intp)
    hub = np.stack([np.zeros(n - 2, np.intp), np.arange(1, w)], axis=1)
    return np.concatenate([np.broadcast_to(hub, (len(shapes), *hub.shape)), shapes], axis=1)


def targeted_max_degree_family(n: int) -> list[Graph]:
    """The nine classes of max_degree_rows(n), as Graphs."""
    return [rows_graph(rows) for rows in max_degree_rows(n)]
