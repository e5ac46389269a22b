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
one-edge reroute: its bundles are the private rows of the reroute both ways.

One core decides and moves every reroute, on a stack of bool adjacency
matrices with one (u, v) per matrix: `reroute_stack` and `move_stack`.
The kelmans campaign runs it on each order's drawn samples at once;
`kelmans` and `pendant_shift` are its views on one `Graph`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, edge_stack, stack_graph


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


def reroute_stack(adj: np.ndarray, u: np.ndarray, v: np.ndarray):
    """The reroute of (u[s], v[s]) on matrix s of adj, a bool array (S, n, n):
    gives private, a bool array (S, n) whose row s is N(u)-N[v], the far ends
    of the moving edges, and the bool arrays changed, iff private and N(v)-N[u]
    are non-empty, and isolates, iff some edge moves and N(u) = private, which
    is the one way a connected graph splits."""
    rows = np.arange(len(adj))
    nu, nv = adj[rows, u], adj[rows, v]
    private, other = nu & ~nv, nv & ~nu
    private[rows, v] = other[rows, u] = False
    moves = private.any(axis=1)
    return private, moves & other.any(axis=1), moves & ~(nu & ~private).any(axis=1)


def move_stack(adj: np.ndarray, private: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The stack after rerouting, private as reroute_stack gives it: row u drops
    private, row v gains it, and columns u and v mirror the two rows."""
    rows, out = np.arange(len(adj)), adj.copy()
    out[rows, u] = adj[rows, u] & ~private
    out[rows, v] = adj[rows, v] | private
    out[rows, :, u] = out[rows, u]
    out[rows, :, v] = out[rows, v]
    return out


def kelmans(g: Graph, u: int, v: int) -> TransformOutcome:
    """Move the edges from u's private neighborhood over to v.

    Exactly the edges {uw : w in N(u)-N[v]} become {vw}; vertex and edge
    counts are preserved.  The class changes iff some edge moves and
    N(v)-N[u] is non-empty; otherwise the result equals g or g relabelled
    by the swap (u v).  The operation may disconnect the graph (flagged, not
    forbidden).  The u->v and v->u variants give isomorphic results.
    """
    if u == v:
        raise TransformError("kelmans requires distinct vertices")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise TransformError(f"vertex out of range: ({u},{v})")
    adj, uv = edge_stack(g.n, g.edges), (np.array([u]), np.array([v]))
    private, changed, isolates = reroute_stack(adj, *uv)
    moves = tuple(((u, w) if u < w else (w, u), (v, w) if v < w else (w, v))
                  for w in np.flatnonzero(private[0]).tolist())
    result = stack_graph(move_stack(adj, private, *uv))
    return TransformOutcome(result, bool(changed[0]), moves, bool(isolates[0]) and g.is_connected())


def pendant_shift(g: Graph, v: int, u: int, w: int) -> Graph:
    """Move pendant w from v's bundle to u's: delete vw, add uw, the reroute
    of (v, u) restricted to private = {w}.

    Preconditions (each reported on its own): w lies in N1 = N(v)-N[u];
    every vertex of N1 and of N2 = N(u)-N[v], the private rows of the
    reroutes of (v, u) and (u, v), is pendant; 1 <= |N1| <= |N2|.
    """
    if len({u, v, w}) != 3:
        raise TransformError("pendant_shift requires three distinct vertices")
    for x in (u, v, w):
        if not 0 <= x < g.n:
            raise TransformError(f"vertex {x} out of range")
    adj, ends = edge_stack(g.n, g.edges), np.array([v, u])
    n1, n2 = reroute_stack(np.broadcast_to(adj, (2, g.n, g.n)), ends, ends[::-1])[0]
    if not n1[w]:
        raise TransformError(f"vertex {w} is not in N(v)-N[u]")
    bad = np.flatnonzero((n1 | n2) & (adj[0].sum(axis=1) != 1)).tolist()
    if bad:
        raise TransformError(f"non-pendant vertices in the private neighborhoods: {bad}")
    size1, size2 = int(n1.sum()), int(n2.sum())
    if not 1 <= size1 <= size2:
        raise TransformError(f"bundle sizes violate |N1| <= |N2|: |N1|={size1}, |N2|={size2}")
    return stack_graph(move_stack(adj, (np.arange(g.n) == w)[None], ends[:1], ends[1:]))
