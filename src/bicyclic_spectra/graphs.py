"""Simple undirected graphs, the named-family registry, equitable refinement,
graph6 I/O, edge rows and one-graph adjacency stacks.

Vertices are 0-indexed contiguous integers.  Constructors put base vertices
first and attachment vertices last, so tests can address e.g. "the hub" by a
fixed index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterable

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or operation."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph: vertex count + set of sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(n, frozenset(_norm_edge(u, v) for u, v in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self) -> list[set[int]]:
        nbr: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return nbr

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        nbr, seen, stack = self.neighbors(), {0}, [0]
        while stack:
            u = stack.pop()
            for w in nbr[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def cyclomatic_number(self) -> int:
        """m - n + 1; meaningful for connected graphs."""
        return self.m - self.n + 1

    def is_bicyclic(self) -> bool:
        return self.is_connected() and self.cyclomatic_number() == 2


def edge_stack(n: int, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """The adjacency stack (1, n, n), a bool array, of one graph on n vertices."""
    adj = np.zeros((1, n, n), bool)
    u, v = np.array(list(edges), np.intp).reshape(-1, 2).T
    adj[0, u, v] = adj[0, v, u] = True
    return adj


def stack_graph(adj: np.ndarray) -> Graph:
    """The Graph of an adjacency stack (1, n, n), as edge_stack gives it."""
    u, v = np.nonzero(np.triu(adj[0], 1))
    return Graph(len(adj[0]), frozenset(zip(u.tolist(), v.tolist())))


def graph_rows(graphs: list[Graph]) -> np.ndarray:
    """Edge rows of graphs of one order and size m: rows[i], of an int array
    (C, m, 2), holds the edges (u, v), u < v, of graphs[i]."""
    if len({(g.n, len(g.edges)) for g in graphs}) > 1:
        raise ValueError("edge rows need graphs of one order and size")
    m = graphs[0].m if graphs else 0
    flat = chain.from_iterable(chain.from_iterable(g.edges for g in graphs))
    return np.fromiter(flat, np.intp, 2 * m * len(graphs)).reshape(len(graphs), m, 2)


def rows_graph(rows: np.ndarray) -> Graph:
    """The bicyclic graph whose n + 1 edges (u, v), u < v, are rows."""
    return Graph(len(rows) - 1, frozenset(map(tuple, rows.tolist())))


def union_edges(rows: np.ndarray, n: int) -> np.ndarray:
    """The edges of the disjoint union of the graphs of order n whose edges
    are rows[i], vertex v of graph i numbered i * n + v: an int array (C * m, 2)."""
    return (rows + n * np.arange(len(rows))[:, None, None]).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def infinity_ears(p: int, l: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The ears of make_infinity(p, l, q): C_p and C_q as closed walks from
    their junctions, and the path from C_p's junction to C_q's."""
    path = (0, *range(p, p + l - 1))  # w_1 = 0, ..., w_l; l = 1 shares vertex 0
    return (*range(p), 0), path, (path[-1], *range(p + l - 1, p + q + l - 2), path[-1])


def theta_ears(p: int, l: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The p-, l- and q-paths of make_theta(p, l, q), each from x to y."""
    inner = iter(range(2, p + l + q - 1))
    return tuple((0, *islice(inner, length - 1), 1) for length in (p, l, q))


def _ear_edges(ears) -> Iterable[tuple[int, int]]:
    return chain.from_iterable(zip(ear, ear[1:]) for ear in ears)


def make_infinity(p: int, l: int, q: int) -> Graph:
    """The infinity-graph B(p,l,q): cycles C_p and C_q joined by a path.

    The connecting path has length l-1; l=1 means the cycles share a single
    vertex, l=2 means they are joined by one edge.  Labeling: C_p is
    0..p-1 (vertex 0 is the junction), then the l-1 path vertices past it
    (the last is C_q's junction), then the rest of C_q.
    """
    if p < 3 or q < 3:
        raise GraphError(f"B(p,l,q) needs cycle lengths >= 3, got p={p}, q={q}")
    if l < 1:
        raise GraphError(f"B(p,l,q) needs l >= 1, got l={l}")
    return Graph.from_edges(p + q + l - 2, _ear_edges(infinity_ears(p, l, q)))


def make_theta(p: int, l: int, q: int) -> Graph:
    """The theta-graph P(p,l,q): three internally disjoint x-y paths.

    Path lengths are p, l and q with l = min and at most one of them 1.
    Labeling: x=0, y=1, then interior vertices of the p-path, the l-path,
    the q-path in that order.
    """
    if p < 2 or q < 2:
        raise GraphError(f"P(p,l,q) needs p,q >= 2, got p={p}, q={q}")
    if l < 1:
        raise GraphError(f"P(p,l,q) needs l >= 1, got l={l}")
    if l > min(p, q):
        raise GraphError(f"P(p,l,q) expects l = min, got ({p},{l},{q})")
    return Graph.from_edges(p + q + l - 1, _ear_edges(theta_ears(p, l, q)))


def attach_pendants(g: Graph, v: int, k: int) -> Graph:
    """Attach k new pendant vertices to v (new indices n..n+k-1)."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    if k < 0:
        raise GraphError("pendant count must be >= 0")
    return Graph(g.n + k, g.edges | {(v, g.n + i) for i in range(k)})


def _check_order(tag: str, n: int) -> None:
    if n < FAMILIES[tag].min_n:
        raise GraphError(f"{tag} requires n >= {FAMILIES[tag].min_n}")


def graph_g1(n: int) -> Graph:
    """P(2,1,2) with n-4 pendants on hub 0 (degree n-1)."""
    _check_order("G1", n)
    return attach_pendants(make_theta(2, 1, 2), 0, n - 4)


def graph_g2(n: int) -> Graph:
    """B(3,1,3) with n-5 pendants on the degree-4 center (vertex 0)."""
    _check_order("G2", n)
    return attach_pendants(make_infinity(3, 1, 3), 0, n - 5)


def graph_g3(n: int) -> Graph:
    """P(2,1,2) with n-4 pendants on a degree-2 vertex (vertex 2)."""
    _check_order("G3", n)
    return attach_pendants(make_theta(2, 1, 2), 2, n - 4)


def graph_g4(n: int) -> Graph:
    """P(2,1,2) with n-5 pendants on hub 0 and one pendant on hub 1."""
    _check_order("G4", n)
    return attach_pendants(attach_pendants(make_theta(2, 1, 2), 0, n - 5), 1, 1)


@dataclass(frozen=True)
class Family:
    """A named family: smallest order, builder, and an equitable partition
    of the built graph (block order fixed; the pendant block is dropped
    while empty)."""

    min_n: int
    build: Callable[[int], Graph]
    partition: Callable[[int], list[list[int]]]


def _blocks(*blocks: list[int]) -> list[list[int]]:
    return [b for b in blocks if b]


FAMILIES = {
    # hub (deg n-1), other hub (deg 3), two deg-2 vertices, pendants
    "G1": Family(4, graph_g1, lambda n: _blocks([0], [1], [2, 3], list(range(4, n)))),
    # center (deg n-1), four cycle vertices (deg 2), pendants
    "G2": Family(5, graph_g2, lambda n: _blocks([0], [1, 2, 3, 4], list(range(5, n)))),
    # pendant-loaded deg-2 vertex, the two adjacent deg-3 hubs, the other
    # deg-2 vertex, pendants
    "G3": Family(5, graph_g3, lambda n: _blocks([2], [0, 1], [3], list(range(4, n)))),
    # big hub, two deg-2 vertices, deg-4 hub, its single pendant, hub pendants
    "G4": Family(6, graph_g4, lambda n: _blocks([0], [2, 3], [1], [n - 1],
                                                list(range(4, n - 1)))),
}


# ---------------------------------------------------------------------------
# Equitable refinement
# ---------------------------------------------------------------------------


def refine_partition(parts: list[list[int]],
                     signatures: Callable[[list[list[int]]], Callable[[int], tuple]]
                     ) -> list[list[int]]:
    """Coarsest equitable refinement of an ordered partition (McKay 1981).

    `signatures(parts)` returns v -> the tuple of v's row sums into the cells
    of `parts`.  Each cell splits by signature, sub-cells in sorted-signature
    order, until no cell splits; the result is label-invariant whenever the
    signatures are.
    """
    while True:
        sig = signatures(parts)
        refined: list[list[int]] = []
        for cell in parts:
            if len(cell) == 1:
                refined.append(cell)
                continue
            split: dict[tuple, list[int]] = {}
            for v in cell:
                split.setdefault(sig(v), []).append(v)
            refined.extend(split[key] for key in sorted(split))
        if len(refined) == len(parts):
            return refined
        parts = refined


# ---------------------------------------------------------------------------
# Base graph extraction and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseGraph:
    """Pendant-free core of a bicyclic graph plus its classification.

    kind is "infinity" for B(p,l,q) and "theta" for P(p,l,q); params holds
    (p,l,q) normalized so that in the infinity case p <= q and in the theta
    case l is the minimum path length and p <= q.  ears holds the core's ears
    as walks in g's labels, laid out as infinity_ears(p, l, q) or
    theta_ears(q, l, p) lay out the standard base's.
    """

    graph: Graph
    kind: str
    params: tuple[int, int, int]
    kept_vertices: tuple[int, ...] = field(compare=False, default=())
    ears: tuple[tuple[int, ...], ...] = field(compare=False, default=())


def base_graph(g: Graph) -> BaseGraph:
    """Strip pendant vertices repeatedly and classify the remaining core by
    its ears.

    An ear is the path of degree-2 core vertices that leaves a branch vertex
    (degree 3 or 4) and ends at the next one.  An ear that comes back to its
    start is a cycle C_p or C_q; otherwise it joins the two branch vertices:
    B(p,l,q) has one such ear, the connecting path, and P(p,l,q) has three.
    The core keeps the surviving vertices in ascending order.
    """
    if not g.is_bicyclic():
        raise GraphError("base_graph requires a connected bicyclic graph")
    nbr = g.neighbors()
    pend = [v for v in range(g.n) if len(nbr[v]) == 1]
    while pend:  # popping v's one neighbour empties nbr[v], so the core keeps the rest
        v = pend.pop()
        w = nbr[v].pop()
        nbr[w].discard(v)
        if len(nbr[w]) == 1:
            pend.append(w)
    kept = tuple(v for v in range(g.n) if nbr[v])
    idx = {v: i for i, v in enumerate(kept)}
    core = Graph(len(kept), frozenset((idx[u], idx[v]) for u in kept for v in nbr[u] if u < v))
    walks = [[b, w] for b in kept if len(nbr[b]) > 2 for w in nbr[b]]
    for ear in walks:
        while len(nbr[ear[-1]]) == 2:
            ear.append(next(x for x in nbr[ear[-1]] if x != ear[-2]))
    # every ear is walked once from each end: keep the lesser walk, ears by length
    ears = sorted((tuple(e) for e in walks if e < e[::-1]), key=len)
    cycles, paths = ([e for e in ears if (e[0] == e[-1]) == closed] for closed in (True, False))
    if len(cycles) == 2 and len(paths) <= 1:
        cp, cq = cycles
        path = paths[0] if paths else cp[:1]  # l = 1: the cycles share a degree-4 vertex
        path = path if path[0] == cp[0] else path[::-1]
        return BaseGraph(core, "infinity", (len(cp) - 1, len(path), len(cq) - 1), kept,
                         (cp, path, cq))
    if len(paths) == 3:
        lo, mid, hi = (e if e[0] == paths[0][0] else e[::-1] for e in paths)
        return BaseGraph(core, "theta", (len(mid) - 1, len(lo) - 1, len(hi) - 1), kept,
                         (hi, lo, mid))
    raise GraphError("unrecognized bicyclic base")


# ---------------------------------------------------------------------------
# graph6 interchange
# ---------------------------------------------------------------------------


# orders up to 62 take one size byte; up to G6_MAX_ORDER, '~' and three 6-bit bytes
G6_MAX_ORDER = 258047


def graph6_encode(g: Graph) -> str:
    """Header-free graph6 string; supports n <= G6_MAX_ORDER."""
    if g.n > G6_MAX_ORDER:
        raise GraphError(f"graph6 encoder limited to n <= {G6_MAX_ORDER}")
    bits = "".join("01"[(i, j) in g.edges] for j in range(1, g.n) for i in range(j))
    bits += "0" * (-len(bits) % 6)  # pad the last group of six
    if g.n <= 62:
        chars = [chr(63 + g.n)]
    else:
        chars = ["~"] + [chr(63 + ((g.n >> shift) & 63)) for shift in (12, 6, 0)]
    chars += [chr(63 + int(bits[k:k + 6], 2)) for k in range(0, len(bits), 6)]
    return "".join(chars)


def _graph6_values(chars: str) -> list[int]:
    """The 6-bit value of each graph6 character ('?' is 0, '~' is 63)."""
    bad = [ch for ch in chars if not "?" <= ch <= "~"]
    if bad:
        raise GraphError(f"invalid graph6 character {bad[0]!r}")
    return [ord(ch) - 63 for ch in chars]


def graph6_decode(s: str) -> Graph:
    """Inverse of graph6_encode (vertex order preserved)."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphError("empty graph6 string")
    if s[0] != "~":
        size, data = s[0], s[1:]
    elif s[1:2] == "~":
        raise GraphError(f"graph6 decoder limited to n <= {G6_MAX_ORDER}")
    else:
        size, data = s[1:4], s[4:]
        if len(size) < 3:
            raise GraphError("truncated graph6 string")
    n = 0
    for val in _graph6_values(size):
        n = (n << 6) | val
    need = (n * (n - 1) // 2 + 5) // 6
    data = data[:need]
    if len(data) != need:
        raise GraphError("truncated graph6 string")
    bits = [(val >> (5 - t)) & 1 for val in _graph6_values(data) for t in range(6)]
    pairs = ((i, j) for j in range(1, n) for i in range(j))  # the order the bits take
    return Graph.from_edges(n, (pair for pair, bit in zip(pairs, bits) if bit))
