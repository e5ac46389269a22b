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
    a = _dense(graph_rows([g]), f, g.n)[0]
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
    """spectral_radius(build_matrix(G_i, f)).rho for the graphs G_i of order n
    whose edges (u, v) are rows[i], an int array (C, m, 2) as edge_bounds and
    graph_rows take and give it; one eigensolve call per EIGH_CHUNK graphs."""
    rho = np.zeros(len(rows))
    for start in range(0, len(rows), EIGH_CHUNK):
        a = _dense(rows[start:start + EIGH_CHUNK], f, n)
        try:
            rho[start:start + EIGH_CHUNK] = _dominant_eigenpairs(a)[0]
        except SpectralError as exc:
            raise SpectralError(f"{f.label()} at n={n}: {exc}") from exc
    return rho


BRACKET_STEPS = 6  # shifted power steps before a bracket reads its vector
BRACKET_SHIFT = 0.25  # the steps' shift c, as a fraction of the largest row sum of |A|
BRACKET_MARGIN = 1e-9  # relative widening of both bracket ends
BRACKET_FLOOR = 2.0 ** -900  # least |a_uv| * min(x)**2 a bracket is certified at


def radius_brackets(e: np.ndarray, f: WeightFunction, n: int,
                    count: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo[i] <= rho(A_f(G_i)), as spectral_radii gives it, <= hi[i]
    for `count` graphs G_i of order n and any sizes, without an eigensolve;
    e holds their edges as union_edges numbers them (vertex v of G_i is
    i * n + v).  A is applied edge by edge, one bincount per step for all
    the graphs; vertex values sit in an (n, count) array, a graph's column,
    and edge sums reduce by the graph index e[:, 0] // n.

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
    Left open as (-inf, inf): a graph with a non-finite end or with least
    nonzero |a_uv| times min(x)**2 below the floor (a zero in x included),
    past that n, or in a batch with a weight that evaluate cannot give.
    """
    try:
        w = _edge_weights(e, [f], n)[0]
    except WeightSpecError:  # the eigensolve of an open graph raises it
        return np.full(count, -np.inf), np.full(count, np.inf)
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


def edge_bounds(rows: np.ndarray, fs: Sequence[WeightFunction], n: int) -> np.ndarray:
    """b[k, i] >= rho(A_fs[k](G_i)) for the graphs G_i of order n whose edges
    (u, v) are rows[i], as orderly_rows(n) gives a chunk: the largest
    sqrt(r_u r_v) over the edges uv of G_i, with r the row sums of |A|.

    This holds for every real symmetric A (Berman and Zhang, 2001).  Proof:
    rho(A) <= rho(|A|); D = diag(sqrt(r)) leaves rho(|A|) unchanged, and row
    u of D^-1 |A| D sums to sum_v |a_uv| / r_u * sqrt(r_u r_v), a weighted
    mean over u's neighbours; rho is at most the largest row sum.
    """
    count = len(rows)
    e = union_edges(rows, n)
    out = []
    for w in np.abs(_edge_weights(e, fs, n)):
        r = np.bincount(e.ravel(), np.repeat(w, 2), count * n)
        out.append(np.sqrt(r[e[:, 0]] * r[e[:, 1]]).reshape(count, -1).max(axis=1))
    return np.array(out)


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


def _dense(rows: np.ndarray, f: WeightFunction, n: int) -> np.ndarray:
    """A_f(G_i), stacked (C, n, n), of the graphs G_i of order n with edges rows[i]."""
    e = union_edges(rows, n)
    a = np.zeros((len(rows) * n, n))
    a[e, e[:, ::-1] % n] = _edge_weights(e, [f], n)[0][:, None]  # (u, v) and (v, u)
    return a.reshape(len(rows), n, n)


def rho_f(g: Graph, f: WeightFunction) -> float:
    """Convenience: spectral radius of A_f(G)."""
    return float(spectral_radii(graph_rows([g]), f, g.n)[0])
