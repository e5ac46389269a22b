"""Weighted adjacency matrices A_f(G) and dense symmetric eigensolves."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph
from .weights import WeightFunction, evaluate, evaluate_exact


class SpectralError(RuntimeError):
    """Eigensolve failed to converge or produced inconsistent output."""


@dataclass(frozen=True)
class WeightedMatrix:
    """Dense symmetric A_f(G) with its provenance."""

    entries: np.ndarray
    graph: Graph
    weight: WeightFunction

    @property
    def n(self) -> int:
        return self.graph.n


def build_matrix(g: Graph, f: WeightFunction) -> WeightedMatrix:
    """A_f(G): entry (i,j) is f(d_i,d_j) on edges, 0 elsewhere."""
    a = _stacked_matrices([g], [f], g.n)[0, 0]
    a.setflags(write=False)
    return WeightedMatrix(a, g, f)


def build_matrix_exact(g: Graph, f: WeightFunction) -> Optional[list[list[Fraction]]]:
    """A_f(G) with Fraction entries, or None when f is irrational on degrees."""
    deg = g.degrees()
    a = [[Fraction(0)] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        w = evaluate_exact(f, deg[u], deg[v])
        if w is None:
            return None
        a[u][v] = w
        a[v][u] = w
    return a


@dataclass(frozen=True)
class SpectralResult:
    rho: float
    perron: np.ndarray
    residual: float
    spectrum: Optional[np.ndarray] = None
    method: str = "dense_symmetric"


def _as_array(m) -> np.ndarray:
    if isinstance(m, WeightedMatrix):
        return m.entries
    return np.asarray(m, dtype=float)


def spectral_radius(m, tol: float = 1e-10, with_spectrum: bool = False) -> SpectralResult:
    """Spectral radius and Perron vector of a symmetric matrix.

    The Perron vector is unit 2-norm with its first nonzero component
    positive.  A residual larger than tol * max(1, rho) raises SpectralError
    rather than returning a silently wrong answer.
    """
    a = _as_array(m)
    n = a.shape[0]
    if a.shape != (n, n):
        raise SpectralError(f"matrix is not square: {a.shape}")
    if n == 0 or not a.any():
        # edgeless (includes the degenerate n=1 graph): rho = 0 by convention
        perron = np.zeros(n)
        if n:
            perron[0] = 1.0
        return SpectralResult(0.0, perron, 0.0, np.zeros(n) if with_spectrum else None)
    if not np.array_equal(a, a.T):
        raise SpectralError("matrix is not symmetric")
    rho, vals, (v,), residual = _dominant_eigenpairs(a[None], tol)
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if nz.size and v[nz[0]] < 0:
        v = -v
    return SpectralResult(float(rho[0]), v, float(residual[0]), vals[0] if with_spectrum else None)


def _dominant_eigenpairs(a: np.ndarray, tol: float):
    """(rho, eigenvalues, dominant eigenvectors, residuals) of stacked symmetric matrices."""
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
    if residual[i] > tol * scale[i]:
        raise SpectralError(
            f"residual {residual[i]:.3e} exceeds tolerance {tol:.1e} at rho={rho[i]:.6g}"
        )
    return rho, vals, v, residual


def full_spectrum(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    a = _as_array(m)
    if a.shape[0] == 0:
        return np.zeros(0)
    if not np.array_equal(a, a.T):
        raise SpectralError("matrix is not symmetric")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigensolver did not converge: {exc}") from exc


EIGH_CHUNK = 64  # matrices per batched eigensolve; bounds the stacked arrays' memory


def spectral_radii(graphs: Sequence[Graph], f: WeightFunction) -> np.ndarray:
    """Spectral radii of A_f(G) for graphs of one order, in input order.

    Each equals spectral_radius(build_matrix(g, f)).rho; one eigensolve call per EIGH_CHUNK graphs.
    """
    graphs = list(graphs)
    n = graphs[0].n if graphs else 0
    if any(g.n != n for g in graphs):
        raise ValueError("spectral_radii needs graphs of one order")
    rho = np.zeros(len(graphs))
    for start in range(0, len(graphs) if n else 0, EIGH_CHUNK):
        a = _stacked_matrices(graphs[start:start + EIGH_CHUNK], [f], n)[0]
        rho[start:start + EIGH_CHUNK] = _dominant_eigenpairs(a, 1e-10)[0]
    return rho


def _stacked_matrices(graphs: Sequence[Graph], fs: Sequence[WeightFunction],
                      n: int) -> np.ndarray:
    """A_f(G) for each weight f and graph G, shape (len(fs), len(graphs), n, n),
    with one evaluation of each weight per distinct degree pair."""
    # edge endpoints as rows of the stacked (len(graphs) * n, n) array
    e = np.array([i * n + x for i, g in enumerate(graphs) for edge in g.edges for x in edge],
                 dtype=np.intp).reshape(-1, 2)
    deg = np.bincount(e.ravel(), minlength=len(graphs) * n)
    keys = (deg[e[:, 0]] * n + deg[e[:, 1]]).tolist()
    a = np.zeros((len(fs), len(graphs) * n, n))
    for a_f, f in zip(a, fs):
        weight = {key: evaluate(f, key // n, key % n) for key in set(keys)}
        # (u, v) and (v, u)
        a_f[e, e[:, ::-1] % n] = np.array([weight[key] for key in keys])[:, None]
    return a.reshape(len(fs), len(graphs), n, n)


def rho_f(g: Graph, f: WeightFunction) -> float:
    """Convenience: spectral radius of A_f(G)."""
    return float(spectral_radii([g], f)[0])


def matrix_rho(m) -> float:
    """Largest eigenvalue of a general real square matrix with real spectrum.

    Used for (possibly non-symmetric) quotient matrices; complains if the
    dominant eigenvalue has a non-negligible imaginary part.
    """
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0.0
    vals = np.linalg.eigvals(a)
    k = int(np.argmax(vals.real))
    lam = vals[k]
    if abs(lam.imag) > 1e-9 * max(1.0, abs(lam.real)):
        raise SpectralError(f"dominant eigenvalue is not real: {lam}")
    return float(lam.real)
