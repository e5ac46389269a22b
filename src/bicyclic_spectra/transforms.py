"""Edge-rerouting transforms with spectral-monotonicity contracts.

The rerouting operation on (u, v) moves every edge uw with w in N(u)-N[v]
to vw; for weights with property P* it strictly increases the spectral
radius whenever it changes the isomorphism class.  It changes the class
exactly when some edge moves and N(v)-N[u] is non-empty:
- if N(v) lies in N[u], the result is the image of g under the swap (u v);
- else u loses p >= 1 degrees, v gains p and no other degree moves;
- the degree multisets agree only if d(u) - p = d(v), i.e. N(v)-N[u] = {}.

`kelmans` and the randomized campaign share one core on int neighbour
masks (`reroute`) and one move of them (`move_masks`, seen by `move_edges`).

The pendant-shift move relocates one pendant from the smaller of two
pendant bundles to the larger and carries the same contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, edge_masks, mask_edges


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


def reroute(masks: list[int], u: int, v: int) -> tuple[int, bool, bool]:
    """(private, changed, isolates) of rerouting (u, v) by neighbour masks: the
    mask private = N(u)-N[v] of the far ends of the moving edges; changed iff
    private and N(v)-N[u] are non-empty; isolates iff some edge moves and
    N(u) = private, which is the one way a connected graph splits."""
    private = masks[u] & ~masks[v] & ~(1 << v)
    changed = bool(private and masks[v] & ~masks[u] & ~(1 << u))
    return private, changed, bool(private) and private == masks[u]


def move_masks(masks: list[int], private: int, u: int, v: int) -> list[int]:
    """Neighbour masks after rerouting (u, v), private as reroute gives it:
    u drops private, v gains it, and each w in private swaps u for v."""
    out = [mask ^ (1 << u | 1 << v) if private >> w & 1 else mask for w, mask in enumerate(masks)]
    out[u], out[v] = masks[u] & ~private, masks[v] | private
    return out


def move_edges(edges, private: int, u: int, v: int):
    """(moves, edges after them) of rerouting (u, v) in an edge set, by move_masks:
    the moves ((u, w), (v, w)), each edge normalised, for w in private, ascending."""
    moves = tuple(((u, w) if u < w else (w, u), (v, w) if v < w else (w, v))
                  for w in range(private.bit_length()) if private >> w & 1)
    n = max(u, v, *map(max, edges)) + 1
    return moves, mask_edges(move_masks(edge_masks(n, edges), private, u, v))


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
    private, changed, isolates = reroute(edge_masks(g.n, g.edges), u, v)
    if not private:
        return TransformOutcome(g, False, ())
    moves, edges = move_edges(g.edges, private, u, v)
    return TransformOutcome(Graph(g.n, edges), changed, moves, isolates and g.is_connected())


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
