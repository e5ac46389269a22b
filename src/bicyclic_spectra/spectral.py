"""Weighted adjacency matrices A_f(G) and dense symmetric eigensolves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, graph_rows, union_edges
from .weights import WeightFunction, WeightSpecError, evaluate


class SpectralError(RuntimeError):
    """Eigensolve failed to converge or produced inconsistent output."""


RESIDUAL_TOL = 1e-10  # relative eigenpair residual above which an eigensolve raises


def build_matrix(g: Graph, f: WeightFunction) -> np.ndarray:
    """A_f(G), read-only: entry (i,j) is f(d_i,d_j) on edges, 0 elsewhere."""
    a = _dense(graph_rows([g]), [f], [0], g.n)[0]
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpectralResult:
    rho: float
    perron: np.ndarray
    residual: float


def spectral_radius(m) -> SpectralResult:
    """Spectral radius and Perron vector of a symmetric matrix.

    The Perron vector is unit 2-norm with its first nonzero component
    positive.  A residual larger than RESIDUAL_TOL * max(1, rho) raises
    SpectralError rather than returning a silently wrong answer.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise SpectralError(f"matrix is not square: {a.shape}")
    if n == 0 or not a.any():
        # edgeless (includes the degenerate n=1 graph): rho = 0 by convention
        perron = np.zeros(n)
        if n:
            perron[0] = 1.0
        return SpectralResult(0.0, perron, 0.0)
    if not np.array_equal(a, a.T):
        raise SpectralError("matrix is not symmetric")
    rho, (v,), residual = _dominant_eigenpairs(a[None])
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if nz.size and v[nz[0]] < 0:
        v = -v
    return SpectralResult(float(rho[0]), v, float(residual[0]))


def _dominant_eigenpairs(a: np.ndarray):
    """(rho, dominant eigenvectors, residuals) of stacked symmetric matrices."""
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigensolver did not converge: {exc}") from exc
    top, bottom = vals[:, -1], -vals[:, 0]
    rho = np.where(bottom > top, bottom, top)
    scale = np.maximum(1.0, rho)
    # bipartite spectra tie at +-rho up to roundoff; the Perron vector always
    # belongs to the top eigenvalue, so prefer it unless the bottom one
    # genuinely dominates (possible only with negative entries)
    b, k = np.arange(len(a)), np.where(top >= bottom - 1e-9 * scale, a.shape[-1] - 1, 0)
    v = vecs[b, :, k]
    residual = np.abs(np.matmul(a, v[..., None])[..., 0] - vals[b, k, None] * v).max(axis=1)
    i = int(np.argmax(residual / scale))
    if residual[i] > RESIDUAL_TOL * scale[i]:
        raise SpectralError(
            f"residual {residual[i]:.3e} exceeds tolerance {RESIDUAL_TOL:.1e} at rho={rho[i]:.6g}"
        )
    return rho, v, residual


def full_spectrum(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    a = np.asarray(m, dtype=float)
    if a.shape[0] == 0:
        return np.zeros(0)
    if not np.array_equal(a, a.T):
        raise SpectralError("matrix is not symmetric")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigensolver did not converge: {exc}") from exc


EIGH_CHUNK = 64  # matrices per batched eigensolve; bounds the stacked arrays' memory


def spectral_radii(rows: np.ndarray, f: WeightFunction, n: int) -> np.ndarray:
    """spectral_radius(build_matrix(G_i, f)).rho for the graphs G_i of order n whose edges
    (u, v) are rows[i], an int array (C, m, 2) as orderly_rows and graph_rows give it."""
    return stacked_radii(rows, [f], np.zeros(len(rows), np.intp), n)


def stacked_radii(rows: np.ndarray, fs: Sequence[WeightFunction], which: np.ndarray,
                  n: int) -> np.ndarray:
    """spectral_radii(rows[i:i + 1], fs[which[i]], n)[0] for every i, one eigensolve call per
    EIGH_CHUNK graphs; a failing call names its first weight, in fs order, that fails alone."""
    rho = np.zeros(len(rows))
    for start in range(0, len(rows), EIGH_CHUNK):
        chunk = slice(start, start + EIGH_CHUNK)
        a, part = _dense(rows[chunk], fs, which[chunk], n), which[chunk]
        try:
            rho[chunk] = _dominant_eigenpairs(a)[0]
        except SpectralError:
            for k in sorted(set(part.tolist())):
                try:
                    _dominant_eigenpairs(a[part == k])
                except SpectralError as exc:
                    raise SpectralError(f"{fs[k].label()} at n={n}: {exc}") from exc
            raise
    return rho


BRACKET_STEPS = 6  # shifted power steps before a bracket reads its vector
BRACKET_SHIFT = 0.25  # the steps' shift c, as a fraction of the largest row sum of |A|
BRACKET_MARGIN = 1e-9  # relative widening of both bracket ends
BRACKET_FLOOR = 2.0 ** -900  # least |a_uv| * min(x)**2 a bracket is certified at


def radius_brackets(e: np.ndarray, f: WeightFunction, n: int,
                    count: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo[i] <= rho(A_f(G_i)), as spectral_radii gives it, <= hi[i] for `count`
    graphs G_i of order n and any sizes, no eigensolve; e holds their edges as union_edges
    numbers them (G_i's vertex v is i * n + v).  A batch evaluate cannot weigh is left open."""
    try:
        w = _edge_weights(e, [f], n)[0]
    except WeightSpecError:  # the eigensolve of an open graph raises it
        return np.full(count, -np.inf), np.full(count, np.inf)
    return _brackets(e, w, n, count)


def _brackets(e: np.ndarray, w: np.ndarray, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """radius_brackets of graphs whose edges e weigh w[j] = a_uv each, under one weight or many.
    A is applied edge by edge, one bincount per step for all the graphs; vertex values sit in
    an (n, count) array, a graph's column, and edge sums reduce by the graph index e[:, 0] // n.

    x > 0 comes from BRACKET_STEPS steps x <- (|A| + cI) x from x = 1, with
    c = BRACKET_SHIFT times the largest row sum R of |A| (the shift damps
    the -rho eigenvalue of a bipartite graph).  Each step keeps
    x >= c x / (R + c) max(x), so min(x) >= 0.2**BRACKET_STEPS max(x).
      hi = max_u (|A|x)_u / x_u (Collatz-Wielandt).  With D = diag(x), D^-1
        |A| D is nonnegative with row sums (|A|x)_u / x_u, so rho(A) <=
        rho(|A|) = rho(D^-1 |A| D) <= its largest row sum.  This holds for
        every nonnegative |A|, a disconnected graph's included.
      lo = |x'Ax| / x'x (Rayleigh).  A is real symmetric, so x'Ax / x'x lies
        between its least and largest eigenvalue, both at most rho in size.
    Rounding: with every nonzero |a_uv| x_v and |a_uv| x_u x_v at least
    BRACKET_FLOOR (a normal float), a sum of k terms errs by at most about
    k u times the sum of its terms' sizes, u = 2**-53: hi by n u hi, and
    |x'Ax| / x'x (m < n**2 / 2 edge terms) by n**2 u x'|A|x / x'x <= n**2 u
    hi.  Widening hi by BRACKET_MARGIN * hi and lo by BRACKET_MARGIN times
    the widened hi covers that while n**2 u <= BRACKET_MARGIN / 2, with the
    eigensolver's own error, a small multiple of n u ||A||_2 = n u rho.
    Left open as (-inf, inf): a graph with a non-finite end or with least nonzero |a_uv| times
    min(x)**2 below the floor (a zero in x included), or past that n.
    """
    graph, at = e[:, 0] // n, e % n * count + e // n  # at: vertex v of G_i is v * count + i
    ends, starts, pos = at[:, ::-1].ravel(), at.ravel(), np.repeat(np.abs(w), 2)
    least = np.full(count, np.inf)  # least nonzero |a_uv|
    np.minimum.at(least, graph[w != 0], np.abs(w[w != 0]))

    def times_abs(x: np.ndarray) -> np.ndarray:  # |A|x, x of shape (n, count)
        return np.bincount(ends, pos * x.ravel()[starts], n * count).reshape(n, count)

    x = np.ones((n, count))
    c = BRACKET_SHIFT * times_abs(x).max(axis=0)
    with np.errstate(all="ignore"):  # an all-zero or overflowing A leaves nan: open
        for _ in range(BRACKET_STEPS):
            x = times_abs(x) + c * x
            x /= x.max(axis=0)
        hi = (times_abs(x) / x).max(axis=0) * (1 + BRACKET_MARGIN)
        lo = (np.abs(2 * np.bincount(graph, w * x.ravel()[at[:, 0]] * x.ravel()[at[:, 1]], count))
              / (x * x).sum(axis=0) - BRACKET_MARGIN * hi)
        ok = (np.isfinite(hi) & np.isfinite(lo) & (n * n <= BRACKET_MARGIN * 2.0 ** 52)
              & (least * x.min(axis=0) ** 2 >= BRACKET_FLOOR))
    return np.where(ok, lo, -np.inf), np.where(ok, hi, np.inf)


def pruned_brackets(rows: np.ndarray, fs: Sequence[WeightFunction], n: int,
                    floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each (len(fs), C), with lo[k, i] <= rho(A_fs[k](G_i)), as
    spectral_radii gives it, <= hi[k, i] for the graphs G_i of order n with
    edges rows[i]: (-inf, b) where the edge bound b < floor[k, i], else the
    radius bracket, from one _brackets call for every weight's other graphs.
    b is the largest sqrt(r_u) sqrt(r_v) over the edges uv of G_i, r the row
    sums of |A| (the bracket's first step), widened as hi is.  rho(A) <=
    rho(|A|) <= b (Berman and Zhang, 2001): row u of D^-1 |A| D, D =
    diag(sqrt(r)), sums to a mean of sqrt(r_u r_v) over u's neighbours,
    weighted by |a_uv| / r_u.  A non-finite b is never below a floor."""
    count, m = rows.shape[:2]
    e = union_edges(rows, n)
    w = _edge_weights(e, fs, n)
    roots = (np.sqrt(np.bincount(e.ravel(), np.repeat(w_k, 2), count * n)) for w_k in np.abs(w))
    hi = (1 + BRACKET_MARGIN) * np.array(  # weight by weight: one (C * m,) array at a time
        [(r[e[:, 0]] * r[e[:, 1]]).reshape(count, m).max(axis=1, initial=0) for r in roots])
    lo, (k, i) = np.full_like(hi, -np.inf), np.nonzero(~(hi < floor))
    lo[k, i], hi[k, i] = _brackets(union_edges(rows[i], n), w.reshape(len(fs), count, m)[k, i].ravel(),
                                   n, len(i))
    return lo, hi


def _edge_weights(e: np.ndarray, fs: Sequence[WeightFunction], n: int) -> np.ndarray:
    """w[k] the weights under fs[k] of the edges e, as union_edges gives them
    for graphs of order n: one evaluate per distinct unordered degree pair
    x <= y, spread to the edges in numpy."""
    deg = np.bincount(e.ravel())
    du, dv = deg[e[:, 0]], deg[e[:, 1]]
    keys = np.minimum(du, dv) * n + np.maximum(du, dv)
    pairs = np.flatnonzero(np.bincount(keys)).tolist()
    table = np.zeros((len(fs), n * n))
    table[:, pairs] = [[evaluate(f, *divmod(key, n)) for key in pairs] for f in fs]
    return table[:, keys]


def _dense(rows: np.ndarray, fs: Sequence[WeightFunction], which, n: int) -> np.ndarray:
    """A_fs[which[i]](G_i), stacked (C, n, n), of the graphs G_i of order n with edges rows[i]."""
    e = union_edges(rows, n)
    a = np.zeros((len(rows) * n, n))
    w = _edge_weights(e, fs, n)  # one weight, as spectral_radii has, needs no fancy index
    w = w[0] if len(fs) == 1 else w[np.repeat(which, rows.shape[1]), np.arange(len(e))]
    a[e, e[:, ::-1] % n] = w[:, None]  # (u, v) and (v, u)
    return a.reshape(len(rows), n, n)


def rho_f(g: Graph, f: WeightFunction) -> float:
    """Convenience: spectral radius of A_f(G)."""
    return float(spectral_radii(graph_rows([g]), f, g.n)[0])
