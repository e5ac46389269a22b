"""Edge-rerouting transforms with spectral-monotonicity contracts.

The rerouting operation on (u, v) moves every edge uw with w in N(u)-N[v]
to vw; for weights with property P* it strictly increases the spectral
radius whenever it changes the isomorphism class.  It changes the class
exactly when some edge moves and N(v)-N[u] is non-empty:
- if N(v) lies in N[u], the result is the image of g under the swap (u v);
- else u loses p >= 1 degrees, v gains p and no other degree moves;
- the degree multisets agree only if d(u) - p = d(v), i.e. N(v)-N[u] = {}.

The pendant-shift move relocates one pendant from the smaller of two
pendant bundles to the larger and carries the same contract.  It is a
one-edge reroute: its bundles are the private masks of `reroute` both ways.

Both transforms, and the randomized campaign, share one core on int
neighbour masks (`reroute`) and one move of them (`move_masks`); `kelmans`
and `pendant_shift` are its views on a `Graph`.
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
    masks = edge_masks(g.n, g.edges)
    private, changed, isolates = reroute(masks, u, v)
    if not private:
        return TransformOutcome(g, False, ())
    moves = tuple(((u, w) if u < w else (w, u), (v, w) if v < w else (w, v))
                  for w in range(private.bit_length()) if private >> w & 1)
    edges = mask_edges(move_masks(masks, private, u, v))
    return TransformOutcome(Graph(g.n, edges), changed, moves, isolates and g.is_connected())


def shift_masks(masks: list[int], v: int, u: int, w: int) -> list[int]:
    """Neighbour masks after moving pendant w from v's bundle to u's: the
    reroute of (v, u) restricted to private = {w}.

    Preconditions (each reported on its own): w lies in N1 = N(v)-N[u];
    every vertex of N1 and of N2 = N(u)-N[v], the private masks of
    reroute(v, u) and reroute(u, v), is pendant; 1 <= |N1| <= |N2|.
    """
    if len({u, v, w}) != 3:
        raise TransformError("pendant_shift requires three distinct vertices")
    for x in (u, v, w):
        if not 0 <= x < len(masks):
            raise TransformError(f"vertex {x} out of range")
    n1, n2 = reroute(masks, v, u)[0], reroute(masks, u, v)[0]
    if not n1 >> w & 1:
        raise TransformError(f"vertex {w} is not in N(v)-N[u]")
    bad = [x for x, mask in enumerate(masks) if (n1 | n2) >> x & 1 and mask.bit_count() != 1]
    if bad:
        raise TransformError(f"non-pendant vertices in the private neighborhoods: {bad}")
    size1, size2 = n1.bit_count(), n2.bit_count()
    if not 1 <= size1 <= size2:
        raise TransformError(f"bundle sizes violate |N1| <= |N2|: |N1|={size1}, |N2|={size2}")
    return move_masks(masks, 1 << w, v, u)


def pendant_shift(g: Graph, v: int, u: int, w: int) -> Graph:
    """Move pendant w from v's bundle to u's: delete vw, add uw (shift_masks on g)."""
    return Graph(g.n, mask_edges(shift_masks(edge_masks(g.n, g.edges), v, u, w)))
