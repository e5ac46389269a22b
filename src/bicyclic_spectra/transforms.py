"""Edge-rerouting transforms with spectral-monotonicity contracts.

The rerouting operation on (u, v) moves every edge uw with w in N(u)-N[v]
to vw; for weights with property P* it strictly increases the spectral
radius whenever it changes the isomorphism class.  It changes the class
exactly when some edge moves and N(v)-N[u] is non-empty:
- if N(v) lies in N[u], the result is the image of g under the swap (u v);
- else u loses p >= 1 degrees, v gains p and no other degree moves;
- the degree multisets agree only if d(u) - p = d(v), i.e. N(v)-N[u] = {}.

The pendant-shift move relocates one pendant from the smaller of two
pendant bundles to the larger and carries the same contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


class TransformError(ValueError):
    pass


@dataclass(frozen=True)
class TransformOutcome:
    """changed means the result is not isomorphic to the input; it is exact
    for every order (see the module docstring)."""

    result: Graph
    changed: bool
    moved_edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    disconnects: bool = False


def kelmans(g: Graph, u: int, v: int) -> TransformOutcome:
    """Move the edges from u's private neighborhood over to v.

    Exactly the edges {uw : w in N(u)-N[v]} become {vw}; vertex and edge
    counts are preserved.  The class changes iff some edge moves and
    N(v)-N[u] is non-empty; otherwise the result is g itself or g relabelled
    by the swap (u v).  The operation may disconnect the graph (flagged, not
    forbidden).  The u->v and v->u variants give isomorphic results.
    """
    if u == v:
        raise TransformError("kelmans requires distinct vertices")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise TransformError(f"vertex out of range: ({u},{v})")
    nbr = g.neighbors()
    private = nbr[u] - nbr[v] - {v}
    if not private:
        return TransformOutcome(g, False, ())
    edges = set(g.edges)
    moved = []
    for w in sorted(private):
        old = (u, w) if u < w else (w, u)
        new = (v, w) if v < w else (w, v)
        edges.discard(old)
        edges.add(new)
        moved.append((old, new))
    result = Graph(g.n, frozenset(edges))
    changed = bool(nbr[v] - nbr[u] - {u})
    # u's old neighbours all end up adjacent to v, so only an isolated u splits g
    disconnects = not (nbr[u] - private) and g.is_connected()
    return TransformOutcome(result, changed, tuple(moved), disconnects)


def pendant_shift(g: Graph, v: int, u: int, w: int) -> Graph:
    """Move pendant w from v's bundle to u's: delete vw, add uw.

    Preconditions (each reported on its own): w lies in N(v)-N[u]; every
    vertex of N(v)-N[u] and of N(u)-N[v] is pendant; the bundle at v is no
    larger than the bundle at u.
    """
    if len({u, v, w}) != 3:
        raise TransformError("pendant_shift requires three distinct vertices")
    for x in (u, v, w):
        if not 0 <= x < g.n:
            raise TransformError(f"vertex {x} out of range")
    nbr = g.neighbors()
    deg = g.degrees()
    n1 = nbr[v] - nbr[u] - {u}
    n2 = nbr[u] - nbr[v] - {v}
    if w not in n1:
        raise TransformError(f"vertex {w} is not in N(v)-N[u]")
    bad = [x for x in sorted(n1 | n2) if deg[x] != 1]
    if bad:
        raise TransformError(f"non-pendant vertices in the private neighborhoods: {bad}")
    if not 1 <= len(n1) <= len(n2):
        raise TransformError(
            f"bundle sizes violate |N1| <= |N2|: |N1|={len(n1)}, |N2|={len(n2)}"
        )
    return g.remove_edge(v, w).add_edge(u, w)
