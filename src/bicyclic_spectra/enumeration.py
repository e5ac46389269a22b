"""Isomorphism-free generation of connected bicyclic graphs at small order.

Two independent generators back each other up:

* constructive -- build every pendant-free base (infinity- and theta-graphs)
  up to order n and attach the rooted forests that are orderly (McKay 1998):
  first in their orbit under the base's automorphisms, one per class;
* edge_subset  -- canonical augmentation over all connected graphs with
  m = n + 1 edges, working up through trees and unicyclic graphs by adding a
  vertex of degree 1, 2 or 3 (every connected graph with cyclomatic number c
  has a non-cutvertex of degree at most c + 1, so the sweep is exhaustive).

The constructive generator is duplicate-free without certificates, so
`orderly_classes` streams its classes uncertified (exhaustive ranking in
`verify` certifies only the few classes a verdict reads).  The certificate
keys and orders the classes `enumerate_bicyclic` returns, and edge_subset
dedups with it: ordered-partition degree refinement plus backtracking
minimization of the relabeled adjacency bit-string, branch collapsing on
cells of pairwise twins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .graphs import (Graph, attach_pendants, base_graph, make_infinity, make_theta,
                     refine_partition)

SIZE_BOUND = 16
# largest order each generator runs at unless a caller passes order_bound
ORDER_BOUNDS = {"constructive": 10, "edge_subset": 9}


class EnumerationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def _neighbor_counts(masks: list[int]):
    """refine_partition signatures: neighbor counts into each current cell."""
    def signatures(parts: list[list[int]]):
        cell_masks = []
        for cell in parts:
            m = 0
            for v in cell:
                m |= 1 << v
            cell_masks.append(m)
        return lambda v: tuple((masks[v] & cm).bit_count() for cm in cell_masks)
    return signatures


def _all_twins(masks: list[int], cell: list[int]) -> bool:
    for u, w in itertools.combinations(cell, 2):
        if masks[u] & ~(1 << w) != masks[w] & ~(1 << u):
            return False
    return True


def _cert_int(masks: list[int], order: list[int]) -> int:
    val = 0
    for i in range(1, len(order)):
        mi = masks[order[i]]
        for j in range(i):
            val = (val << 1) | ((mi >> order[j]) & 1)
    return val


@lru_cache(maxsize=1 << 16)
def canonical_form(g: Graph, size_bound: int = SIZE_BOUND) -> bytes:
    """Certificate identifying g up to isomorphism (n <= size_bound)."""
    if g.n > size_bound:
        raise EnumerationError(f"canonical_form bound exceeded: n={g.n} > {size_bound}")
    n = g.n
    if n == 0:
        return bytes([0])
    masks = g.neighbor_masks()
    deg = g.degrees()
    # seed cells by degree, ascending (label-invariant)
    seed: dict[int, list[int]] = {}
    for v in range(n):
        seed.setdefault(deg[v], []).append(v)
    signatures = _neighbor_counts(masks)
    start = refine_partition([seed[d] for d in sorted(seed)], signatures)
    best: Optional[int] = None

    def descend(parts: list[list[int]]) -> None:
        nonlocal best
        target = next((i for i, c in enumerate(parts) if len(c) > 1), None)
        if target is None:
            val = _cert_int(masks, [c[0] for c in parts])
            if best is None or val < best:
                best = val
            return
        cell = parts[target]
        branch = cell[:1] if _all_twins(masks, cell) else cell
        for v in branch:
            rest = [u for u in cell if u != v]
            child = parts[:target] + [[v], rest] + parts[target + 1 :]
            descend(refine_partition(child, signatures))

    descend(start)
    nbits = n * (n - 1) // 2
    return bytes([n]) + best.to_bytes((nbits + 7) // 8 or 1, "big")


def graph_from_certificate(cert: bytes) -> Graph:
    """Rebuild the canonical representative encoded by a certificate."""
    n = cert[0]
    nbits = n * (n - 1) // 2
    val = int.from_bytes(cert[1:], "big")
    edges = []
    k = nbits
    for i in range(1, n):
        for j in range(i):
            k -= 1
            if (val >> k) & 1:
                edges.append((j, i))
    return Graph.from_edges(n, edges)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and a.m == b.m and canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# Constructive generator: bases + rooted forests
# ---------------------------------------------------------------------------

_TreeShape = tuple  # nested sorted tuples; () is the single-vertex tree


@lru_cache(maxsize=None)
def rooted_trees(size: int) -> tuple[_TreeShape, ...]:
    """All rooted tree shapes on `size` vertices as nested sorted tuples."""
    if size < 1:
        return ()
    if size == 1:
        return ((),)
    out: set[_TreeShape] = set()

    def rec(remaining: int, chosen: tuple, bound):
        if remaining == 0:
            out.add(tuple(sorted(chosen)))
            return
        for sz in range(remaining, 0, -1):
            for shape in rooted_trees(sz):
                item = (sz, shape)
                if bound is not None and item > bound:
                    continue
                rec(remaining - sz, chosen + (shape,), item)

    rec(size - 1, (), None)
    return tuple(sorted(out))


def _forest_graph(base: Graph, shapes: tuple[_TreeShape, ...]) -> Graph:
    """base with shapes[v] hung at each base vertex v, new vertices numbered
    depth first in preorder, one base vertex after another."""
    edges, count = list(base.edges), base.n
    stack = [(v, child) for v in reversed(range(base.n)) for child in reversed(shapes[v])]
    while stack:
        root, shape = stack.pop()
        edges.append((root, count))
        stack.extend((count, child) for child in reversed(shape))
        count += 1
    return Graph(count, frozenset(edges))


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism p of g (v goes to p[v]), extending partial maps one
    vertex at a time and checking degree and adjacency to those mapped."""
    masks, deg = g.neighbor_masks(), g.degrees()
    maps = [()]
    for v in range(g.n):
        maps = [p + (w,) for p in maps for w in range(g.n) if w not in p and deg[w] == deg[v]
                and all((masks[v] >> u & 1) == (masks[w] >> p[u] & 1) for u in range(v))]
    return maps


def bicyclic_bases(max_order: int) -> list[Graph]:
    """Every pendant-free bicyclic graph with at most max_order vertices."""
    out = []
    for p in range(3, max_order + 1):
        for q in range(p, max_order + 1):
            for l in range(1, max_order + 1):
                if p + q + l - 2 <= max_order:
                    out.append(make_infinity(p, l, q))
    for hi in range(2, max_order + 1):
        for mid in range(2, hi + 1):
            for lo in range(1, mid + 1):
                if hi + mid + lo - 1 <= max_order:
                    out.append(make_theta(hi, lo, mid))
    return out


def orderly_classes(n: int) -> Iterator[tuple[Graph, str]]:
    """One labelled graph per bicyclic class on n vertices, lazily, with its
    base kind ("infinity" or "theta") and without a certificate.

    A forest assignment, keyed (composition, shape indices) in loop order, is
    kept only when no base automorphism maps it to a smaller key (the group
    is closed under inverses, so the keys read at p[v] are all the images).
    The base (the 2-core) is an isomorphism invariant, the bases are pairwise
    non-isomorphic and rooted-tree shapes are canonical, so no two yields are
    isomorphic.
    """
    for base in bicyclic_bases(n):
        group, kind = automorphisms(base), base_graph(base).kind
        for comp in _weak_compositions(n - base.n, base.n):
            images = [tuple(comp[i] for i in p) for p in group]
            if min(images) < comp:
                continue
            stabiliser = [p for p, image in zip(group, images) if image == comp]
            shape_lists = [rooted_trees(c + 1) for c in comp]
            for idx in itertools.product(*(range(len(shapes)) for shapes in shape_lists)):
                if all(tuple(idx[i] for i in p) >= idx for p in stabiliser):
                    forest = tuple(shapes[i] for shapes, i in zip(shape_lists, idx))
                    yield _forest_graph(base, forest), kind


@lru_cache(maxsize=8)
def _enumerate_constructive(n: int) -> dict[bytes, Graph]:
    return {canonical_form(g): g for g, _ in orderly_classes(n)}


def _weak_compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _weak_compositions(total - head, parts - 1):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# Edge-subset generator: canonical augmentation over connected graphs
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _connected_classes(n: int, c: int) -> tuple[Graph, ...]:
    """Connected graphs with n vertices and cyclomatic number c, up to iso."""
    if n < 1 or c < 0:
        return ()
    if n == 1:
        return (Graph.from_edges(1, []),) if c == 0 else ()
    found: dict[bytes, Graph] = {}

    def offer(g: Graph):
        found.setdefault(canonical_form(g), g)

    for parent in _connected_classes(n - 1, c):
        for v in range(parent.n):
            offer(attach_pendants(parent, v, 1))
    if c >= 1:
        for parent in _connected_classes(n - 1, c - 1):
            for pair in itertools.combinations(range(parent.n), 2):
                g = Graph.from_edges(n, set(parent.edges) | {(pair[0], n - 1), (pair[1], n - 1)})
                offer(g)
    if c >= 2:
        for parent in _connected_classes(n - 1, c - 2):
            for triple in itertools.combinations(range(parent.n), 3):
                g = Graph.from_edges(n, set(parent.edges) | {(t, n - 1) for t in triple})
                offer(g)
    return tuple(found[k] for k in sorted(found))


def _enumerate_edge_subset(n: int) -> dict[bytes, Graph]:
    return {canonical_form(g): g for g in _connected_classes(n, 2)}


# ---------------------------------------------------------------------------
# Reports and public entry points
# ---------------------------------------------------------------------------


@dataclass
class EnumerationReport:
    n: int
    count: int
    method: str
    graphs: list[Graph] = field(repr=False)

    def certificates(self) -> frozenset[bytes]:
        return frozenset(canonical_form(g) for g in self.graphs)


def check_order(n: int, method: str = "constructive", order_bound: Optional[int] = None) -> None:
    """Raise EnumerationError unless method is known and 4 <= n <= its order bound."""
    bound = _order_bound(method, order_bound)
    if not 4 <= n <= bound:
        raise EnumerationError(f"enumerate_bicyclic({method}) supports 4 <= n <= {bound}")


def _order_bound(method: str, order_bound: Optional[int]) -> int:
    if method not in ORDER_BOUNDS:
        raise EnumerationError(f"unknown method {method!r}")
    return ORDER_BOUNDS[method] if order_bound is None else order_bound


def enumerate_bicyclic(n: int, method: str = "constructive",
                       order_bound: Optional[int] = None) -> EnumerationReport:
    """All connected bicyclic graphs on n vertices up to isomorphism."""
    check_order(n, method, order_bound)
    found = _enumerate_constructive(n) if method == "constructive" else _enumerate_edge_subset(n)
    graphs = [found[k] for k in sorted(found)]
    return EnumerationReport(n, len(graphs), method, graphs)


def enumerate_with_max_degree(n: int, delta: int, method: str = "constructive",
                              order_bound: Optional[int] = None) -> EnumerationReport:
    """Bicyclic classes on n vertices whose maximum degree is exactly delta.

    Beyond the full-enumeration bound, the delta = n-2 family is still
    available through the targeted generator (cross-checked against full
    enumeration at the orders where both run).
    """
    if delta > n - 1:
        raise EnumerationError("delta exceeds n - 1")
    order_bound = _order_bound(method, order_bound)
    if n > order_bound and delta == n - 2:
        graphs = targeted_max_degree_family(n)
        return EnumerationReport(n, len(graphs), f"targeted/max_degree={delta}", graphs)
    rep = enumerate_bicyclic(n, method, order_bound)
    graphs = [g for g in rep.graphs if max(g.degrees()) == delta]
    return EnumerationReport(n, len(graphs), f"{method}/max_degree={delta}", graphs)


def targeted_max_degree_family(n: int) -> list[Graph]:
    """Bicyclic graphs with a vertex of degree exactly n-2, built directly.

    Hub 0 is adjacent to vertices 1..n-2; vertex n-1 is its unique
    non-neighbor; the three remaining edges are placed in each of the nine
    inequivalent patterns.  Duplicate classes (possible at small n) are
    removed.  The first pattern is the theta-graph P(2,2,2) with all pendants
    on one degree-3 hub, whose extended-matrix polynomial is pinned in tests.
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
    built = [Graph.from_edges(n, hub_edges + extra) for extra in shapes]
    built = [g for g in built if max(g.degrees()) == n - 2]
    if n > SIZE_BOUND:
        # the marked 3-edge patterns around the non-neighbor are pairwise
        # non-isomorphic once n >= 8, so no dedup is needed
        return built
    out: dict[bytes, Graph] = {}
    for g in built:
        out.setdefault(canonical_form(g), g)
    return [out[k] for k in sorted(out)]
