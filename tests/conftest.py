import decimal
import heapq
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import networkx as nx
import numpy as np
import pytest

from bicyclic_spectra import (FAMILIES, CaseRecord, EnumerationError, Graph, Polynomial,
                              PolynomialError, TransformError, TransformOutcome,
                              VerificationReport, WeightFunction, attach_pendants, base_graph,
                              canonical_form, check_pstar, enumerate_bicyclic, evaluate,
                              evaluate_exact, spectral_radii)
from bicyclic_spectra.enumeration import bicyclic_bases, _weak_compositions
from bicyclic_spectra.graphs import edge_masks, graph_rows, refine_partition, rows_graph
from bicyclic_spectra.verify import PENDANT_SHIFT_FRACTION
from bicyclic_spectra.weights import WeightSpecError, _eval_custom, _evaluate_generic, _pow

# bicyclic class counts at n=4..9, on which enumerate_bicyclic and the
# edge-subset oracle agree (n=10 has 2,678)
GOLDEN_COUNTS = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797}


def class_graphs(n: int, max_degree=None) -> list[Graph]:
    """The classes enumerate_bicyclic(n, max_degree) streams, each as a Graph."""
    return [rows_graph(r) for rows in enumerate_bicyclic(n, max_degree)[1] for r in rows]


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


# Reference isomorphism oracle for any graph: the package's earlier
# canonical labelling, ordered-partition degree refinement plus backtracking
# minimization of the relabeled adjacency bit-string, branch collapsing on
# cells of pairwise twins.  The package keys bicyclic classes by structure
# (canonical_form); this one knows nothing of bases or trees.

SIZE_BOUND = 16


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
def reference_canonical_form(g: Graph) -> bytes:
    """Certificate identifying g up to isomorphism (n <= SIZE_BOUND)."""
    if g.n > SIZE_BOUND:
        raise EnumerationError(f"canonical_form bound exceeded: n={g.n} > {SIZE_BOUND}")
    n = g.n
    if n == 0:
        return bytes([0])
    masks = edge_masks(g.n, g.edges)
    deg = g.degrees()
    # seed cells by degree, ascending (label-invariant)
    seed: dict[int, list[int]] = {}
    for v in range(n):
        seed.setdefault(deg[v], []).append(v)
    signatures = _neighbor_counts(masks)
    start = refine_partition([seed[d] for d in sorted(seed)], signatures)
    best = None

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


def brute_force_bicyclic_classes(n: int) -> list[Graph]:
    """Independent oracle: scan every labeled (n, n+1)-edge graph, keep the
    connected ones, dedup with networkx isomorphism.  Only sane for n <= 6."""
    assert n <= 6
    pairs = list(itertools.combinations(range(n), 2))
    reps: list[Graph] = []
    for subset in itertools.combinations(pairs, n + 1):
        g = Graph.from_edges(n, subset)
        if not g.is_connected():
            continue
        gn = to_networkx(g)
        if not any(nx.is_isomorphic(gn, to_networkx(r)) for r in reps):
            reps.append(g)
    return reps


@lru_cache(maxsize=None)
def _connected_classes(n: int, c: int) -> tuple[Graph, ...]:
    """Connected graphs with n vertices and cyclomatic number c, up to iso."""
    if n < 1 or c < 0:
        return ()
    if n == 1:
        return (Graph.from_edges(1, []),) if c == 0 else ()
    found: dict[bytes, Graph] = {}

    def offer(g: Graph):
        found.setdefault(reference_canonical_form(g), g)

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


def edge_subset_classes(n: int) -> dict[bytes, Graph]:
    """Independent oracle: canonical augmentation over all connected graphs
    with m = n + 1 edges, working up through trees and unicyclic graphs by
    adding a vertex of degree 1, 2 or 3 (every connected graph with
    cyclomatic number c has a non-cutvertex of degree at most c + 1, so the
    sweep is exhaustive).  Keyed by reference certificate."""
    return {reference_canonical_form(g): g for g in _connected_classes(n, 2)}


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


def reference_enumerate_constructive(n: int) -> dict[bytes, Graph]:
    """Reference generator: every rooted forest on every labeled base vertex,
    one attach_pendants copy per added vertex, dedup through the reference
    certificate keeping the first graph of each class in loop order."""
    def attach(g: Graph, root: int, shape) -> Graph:
        for child in shape:
            g = attach_pendants(g, root, 1)
            g = attach(g, g.n - 1, child)
        return g

    found: dict[bytes, Graph] = {}
    for _, base in bicyclic_bases(n):
        for comp in _weak_compositions(n - base.n, base.n):
            for combo in itertools.product(*(reference_rooted_trees(c + 1) for c in comp)):
                g = base
                for v, shape in enumerate(combo):
                    g = attach(g, v, shape)
                found.setdefault(reference_canonical_form(g), g)
    return found


def reference_forest_graph(base: Graph, shapes) -> Graph:
    """base with shapes[v] hung at each base vertex v, new vertices numbered
    depth first in preorder, one base vertex after another: the generator's
    earlier stack walk."""
    edges, count = list(base.edges), base.n
    stack = [(v, child) for v in reversed(range(base.n)) for child in reversed(shapes[v])]
    while stack:
        root, shape = stack.pop()
        edges.append((root, count))
        stack.extend((count, child) for child in reversed(shape))
        count += 1
    return Graph(count, frozenset(edges))


def reference_orderly_classes(n: int):
    """The generator's earlier stream: (Graph, base kind) per class, each
    built by reference_forest_graph from its orderly key, in key order."""
    for _, base in bicyclic_bases(n):
        group, kind = reference_isomorphisms(base, base), base_graph(base).kind
        for comp in _weak_compositions(n - base.n, base.n):
            stabiliser = []
            for p in group:
                image = tuple(comp[i] for i in p)
                if image < comp:
                    break
                if image == comp:
                    stabiliser.append(p)
            else:
                shape_lists = [reference_rooted_trees(c + 1) for c in comp]
                for idx in itertools.product(*(range(len(shapes)) for shapes in shape_lists)):
                    if all(tuple(idx[i] for i in p) >= idx for p in stabiliser):
                        forest = tuple(shapes[i] for shapes, i in zip(shape_lists, idx))
                        yield reference_forest_graph(base, forest), kind


def reference_isomorphisms(g: Graph, h: Graph) -> list[tuple[int, ...]]:
    """Every isomorphism from g onto h, partial maps extended one vertex of g
    at a time with adjacency tested bit by bit: the package's earlier
    routine."""
    g_masks, g_deg = edge_masks(g.n, g.edges), g.degrees()
    h_masks, h_deg = edge_masks(h.n, h.edges), h.degrees()
    maps = [()]
    for v in range(g.n):
        maps = [p + (w,) for p in maps for w in range(h.n) if w not in p and h_deg[w] == g_deg[v]
                and all((g_masks[v] >> u & 1) == (h_masks[w] >> p[u] & 1) for u in range(v))]
    return maps


def reference_exhaustive_case(n: int, f, rank: str, min_gap: float = 1e-9) -> CaseRecord:
    """Reference exhaustive extremal case: score every class, key every class
    and sort them all by (rho, class key)."""
    graphs = class_graphs(n)
    rhos = spectral_radii(graph_rows(graphs), f, n).tolist()
    scored = sorted(zip(rhos, map(canonical_form, graphs), graphs), reverse=True)
    named = {tag: canonical_form(family.build(n)) if n >= family.min_n else None
             for tag, family in FAMILIES.items()}
    case_id = f"extremal/{rank}/{f.label()}/n={n}"
    inputs = {"n": n, "weight": f.label(), "classes": len(graphs)}
    top_rho, top_cert, _ = scored[0]
    gap = top_rho - scored[1][0] if len(scored) > 1 else float("inf")
    if rank == "first":
        ok = top_cert == named["G1"] and gap > min_gap
        note = "" if gap > min_gap else (
            f"near-tie at the top: gap {gap:.3e}; certificates "
            f"{top_cert} vs {scored[1][1]}")
        family_best = {}
        for rho, cert, g in scored:
            family_best.setdefault(base_graph(g).kind, cert)
            if len(family_best) == 2:
                break
        return CaseRecord(
            case_id=case_id,
            inputs=inputs,
            computed={"winner_is_g1": top_cert == named["G1"], "rho_max": top_rho,
                      "gap_to_second": gap,
                      "infinity_base_winner_is_g2":
                          family_best.get("infinity") == named["G2"],
                      "theta_base_winner_is_g1":
                          family_best.get("theta") == named["G1"]},
            expected={"winner": "G1", "unique": True},
            passed=ok,
            note=note,
        )
    if len(scored) < 2:
        return CaseRecord(case_id, inputs, {}, passed=None,
                          note="only one bicyclic class at this order; no second class exists")
    second_tag = next((t for t in ("G2", "G3", "G4") if named[t] == scored[1][1]), None)
    return CaseRecord(
        case_id=case_id,
        inputs=inputs,
        computed={"second_class": second_tag or "other", "rho_second": scored[1][0]},
        expected={"second_in": ["G2", "G3", "G4"]},
        passed=second_tag is not None,
    )


# Reference exact arithmetic: Faddeev-LeVerrier and Sturm bisection entirely in
# Fraction, with every sign read off a Fraction Horner value.  The package's
# fraction-free versions must return the same polynomials and the same floats.


def reference_char_poly(rows) -> Polynomial:
    """det(xI - M) by Faddeev-LeVerrier over Fraction (square, exact rows)."""
    n = len(rows)
    if n == 0:
        return Polynomial([1])
    a = [[Fraction(x) for x in r] for r in rows]
    m = [[Fraction(0)] * n for _ in range(n)]
    c = [Fraction(1)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c[-1]
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c.append(-sum(m[i][i] for i in range(n)) / k)
    return Polynomial(list(reversed(c)))


def poly_derivative(p: Polynomial) -> Polynomial:
    return Polynomial([i * c for i, c in enumerate(p.coeffs)][1:])


def poly_monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    lead = p.coeffs[-1]
    return Polynomial([Fraction(c) / lead for c in p.coeffs])


def poly_divmod(p: Polynomial, other: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(quotient, remainder) of p by other, long division over Fraction."""
    if other.is_zero():
        raise PolynomialError("division by zero polynomial")
    rem = [Fraction(c) for c in p.coeffs]
    den = [Fraction(c) for c in other.coeffs]
    dq = len(rem) - len(den)
    if dq < 0:
        return Polynomial([]), Polynomial(rem)
    quot = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        factor = rem[k + len(den) - 1] / den[-1]
        quot[k] = factor
        if factor:
            for i, d in enumerate(den):
                rem[k + i] -= factor * d
    return Polynomial(quot), Polynomial(rem)


def poly_gcd(p: Polynomial, other: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm over Fraction (zero if both are)."""
    a, b = p, other
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
        if not b.is_zero():
            b = poly_monic(b)
    return poly_monic(a)


def _reference_sign_variations(values) -> int:
    signs = [1 if c > 0 else -1 for c in values if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _reference_sturm(p: Polynomial) -> list[Polynomial]:
    seq = [p, poly_derivative(p)]
    while not seq[-1].is_zero() and seq[-1].degree > 0:
        rem = poly_divmod(seq[-2], seq[-1])[1]
        if rem.is_zero():
            break
        seq.append(-1 * rem)
    return [q for q in seq if not q.is_zero()]


def _reference_variations(seq, x: Fraction) -> int:
    return _reference_sign_variations([q(x) for q in seq])


def _reference_squarefree(p: Polynomial) -> Polynomial:
    g = poly_gcd(p, poly_derivative(p))
    return p if g.degree <= 0 else poly_divmod(p, g)[0]


def _reference_multiplicity_chain(p: Polynomial) -> list:
    chain = [p]
    while chain[-1].degree > 0:
        g = poly_gcd(chain[-1], poly_derivative(chain[-1]))
        if g.degree <= 0:
            break
        chain.append(g)
    us = []
    for k in range(len(chain)):
        nxt = chain[k + 1] if k + 1 < len(chain) else Polynomial([1])
        us.append(poly_divmod(chain[k], nxt)[0])
    out = []
    for k in range(len(us)):
        nxt = us[k + 1] if k + 1 < len(us) else Polynomial([1])
        qk = poly_divmod(us[k], nxt)[0]
        if qk.degree > 0:
            out.append((qk, k + 1))
    return out


_REFERENCE_TOL = Fraction(1, 10 ** 14)


def _reference_refine(q: Polynomial, a: Fraction, b: Fraction) -> Fraction:
    going_up = q(a) < 0
    while b - a >= _REFERENCE_TOL:
        mid = (a + b) / 2
        v = q(mid)
        if v == 0:
            return mid
        if (v < 0) == going_up:
            a = mid
        else:
            b = mid
    return (a + b) / 2


def _reference_nudge(q: Polynomial, x: Fraction, step: Fraction, direction: int) -> Fraction:
    while q(x) == 0:
        x += direction * step
        step /= 2
    return x


def _reference_isolate(q: Polynomial, lo: Fraction, hi: Fraction) -> list[Fraction]:
    roots = []
    seq = _reference_sturm(q)
    width = hi - lo
    if q(lo) == 0:
        roots.append(lo)
        lo = _reference_nudge(q, lo, width / 4096, +1)
    if q(hi) == 0:
        roots.append(hi)
        hi = _reference_nudge(q, hi, width / 4096, -1)
    if lo >= hi:
        return sorted(roots)

    def count(a, b):
        return _reference_variations(seq, a) - _reference_variations(seq, b)

    stack = [(lo, hi, count(lo, hi))]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            roots.append(_reference_refine(q, a, b))
            continue
        mid = (a + b) / 2
        if q(mid) == 0:
            roots.append(mid)
            delta = (b - a) / 2 ** 16
            while True:
                left, right = mid - delta, mid + delta
                if q(left) != 0 and q(right) != 0 and count(left, right) == 1:
                    stack.append((a, left, count(a, left)))
                    stack.append((right, b, count(right, b)))
                    break
                delta /= 2
            continue
        stack.append((a, mid, count(a, mid)))
        stack.append((mid, b, count(mid, b)))
    return sorted(roots)


def reference_real_roots(p: Polynomial, lo, hi) -> list[float]:
    """Real roots of an exact p in [lo, hi], repeated per multiplicity."""
    if p.degree == 0:
        return []
    out = []
    for q, mult in _reference_multiplicity_chain(p):
        for root in _reference_isolate(q, Fraction(lo), Fraction(hi)):
            out.extend([float(root)] * mult)
    return sorted(out)


def reference_count_real_roots(p: Polynomial, lo, hi) -> int:
    """Distinct real roots of an exact p in (lo, hi]."""
    seq = _reference_sturm(_reference_squarefree(p))
    return _reference_variations(seq, Fraction(lo)) - _reference_variations(seq, Fraction(hi))


def reference_max_real_root(p: Polynomial, lo=None, hi=None) -> float:
    """Largest real root of an exact p; default bracket the Cauchy bound."""
    if p.is_zero() or p.degree == 0:
        raise PolynomialError("polynomial has no roots")
    bound = 1 + max(abs(Fraction(c)) for c in p.coeffs) / abs(p.coeffs[-1])
    lo = -bound if lo is None else lo
    hi = bound if hi is None else hi
    q = _reference_squarefree(p)
    seq = _reference_sturm(q)
    a, b = Fraction(lo), Fraction(hi)
    if q(b) == 0:
        return float(b)
    v_b = _reference_variations(seq, b)
    k = _reference_variations(seq, a) - v_b
    if k == 0:
        if q(a) == 0:
            return float(a)
        raise PolynomialError("no real roots in bracket")
    while k > 1 or q(a) == 0:
        mid = (a + b) / 2
        v_mid = _reference_variations(seq, mid)
        if v_mid > v_b:
            a, k = mid, v_mid - v_b
        elif q(mid) == 0:
            return float(mid)
        else:
            b, v_b = mid, v_mid
    return float(_reference_refine(q, a, b))


# Reference surd evaluation: the package's earlier Fraction route.  U and V of
# p(r*sqrt(s)) = U + V*sqrt(s) accumulate term by term in Fraction, and the
# sign compares U**2 with V**2 * s in Fraction.  The package clears every
# denominator with one positive factor and works in integers.


def reference_eval_at_sqrt(p: Polynomial, r, s) -> tuple[Fraction, Fraction]:
    """(U, V) with p(r*sqrt(s)) = U + V*sqrt(s), summed in Fraction."""
    if not p.is_exact():
        raise PolynomialError("eval_at_sqrt requires exact coefficients")
    r, s = Fraction(r), Fraction(s)
    if s < 0:
        raise PolynomialError("sqrt argument must be nonnegative")
    u = Fraction(0)
    v = Fraction(0)
    rk = Fraction(1)
    for k, c in enumerate(p.coeffs):
        if c:
            half = s ** (k // 2)
            if k % 2 == 0:
                u += c * rk * half
            else:
                v += c * rk * half
        rk *= r
    return u, v


def reference_sign_at_sqrt(p: Polynomial, r, s) -> int:
    """Sign of p(r*sqrt(s)) from the Fraction (U, V)."""
    u, v = reference_eval_at_sqrt(p, Fraction(r), Fraction(s))
    s = Fraction(s)
    if v == 0 or s == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return 1 if v > 0 else -1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    lhs, rhs = u * u, v * v * s
    if lhs == rhs:
        return 0
    return (1 if u > 0 else -1) if lhs > rhs else (1 if v > 0 else -1)


def loop_matrix(g: Graph, f) -> np.ndarray:
    """Reference A_f(G), one weight evaluation per edge."""
    deg = g.degrees()
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = evaluate(f, deg[u], deg[v])
    return a


def per_graph_radii(rows, f, n: int) -> np.ndarray:
    """Reference scorer, called as spectral_radii is: one matrix and one
    eigensolve per graph of order n, the edges of graph i in rows[i]."""
    out = []
    for r in rows:
        g = Graph.from_edges(n, map(tuple, np.asarray(r).tolist()))
        vals = np.linalg.eigh(loop_matrix(g, f))[0]
        out.append(max(vals[-1], -vals[0]) if n else 0.0)
    return np.array(out, dtype=float)


# Reference exact weight: the package's earlier route, which evaluates every
# weight at Fraction degrees.  The package runs on the int degrees and goes to
# Fraction degrees only when the int route gives a float.


def reference_evaluate_exact(f, x: int, y: int):
    """f(x, y) at Fraction degrees: an int when integral, else a Fraction, or
    None when irrational."""
    val = _evaluate_generic(f, Fraction(x), Fraction(y))
    if not isinstance(val, (int, Fraction)):
        return None
    return val.numerator if val.denominator == 1 else val


# Reference weight catalogue: the package's earlier per-kind if-chain and text
# parser, copied verbatim but for names, with their own kind list and parameter
# sets.  The package declares each kind once, in one table; these catch an entry
# of that table that drifts.  _pow and _eval_custom are shared: neither declares
# a kind.  The parameter check that WeightFunction made is made here, first.

REFERENCE_KINDS = (
    "constant_one",
    "zagreb1",
    "hyper_zagreb",
    "forgotten",
    "sum_connectivity",
    "platt",
    "sombor",
    "exp_zagreb1",
    "exp_sum_connectivity",
    "exp_sombor",
    "extended",
    "custom",
)

_REFERENCE_NEEDS_ALPHA = {"sum_connectivity", "platt", "sombor", "exp_sum_connectivity",
                          "exp_sombor"}
_REFERENCE_NEEDS_BETA = {"sombor", "exp_sombor"}
_REFERENCE_ALIASES = {"1": "constant_one", "one": "constant_one", "const": "constant_one"}


def reference_evaluate_generic(f, x, y):
    """f(x, y) by the earlier if-chain; domain errors (0 to a negative power,
    log(0)) propagate as Python raises them."""
    if x < 1 or y < 1:
        raise WeightSpecError(f"weight functions are defined for x,y >= 1, got ({x},{y})")
    k = f.kind
    if k == "constant_one":
        return 1
    if k == "zagreb1":
        return x + y
    if k == "hyper_zagreb":
        return (x + y) ** 2
    if k == "forgotten":
        return x * x + y * y
    if k == "sum_connectivity":
        return _pow(x + y, f.alpha)
    if k == "platt":
        return _pow(x + y - 2, f.alpha)
    if k == "sombor":
        return _pow(_pow(x, f.alpha) + _pow(y, f.alpha), f.beta)
    if k.startswith("exp_"):
        return math.exp(reference_evaluate_generic(WeightFunction(k[4:], f.alpha, f.beta), x, y))
    if k == "extended":
        if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
            return Fraction(x, 2 * y) + Fraction(y, 2 * x)
        return 0.5 * (x / y + y / x)
    if k == "custom":
        return _eval_custom(f.expression, x, y)
    raise WeightSpecError(f"unknown weight kind {k!r}")


def reference_parse_weight(text: str):
    """The earlier text parser, with the earlier parameter check."""
    text = text.strip()
    head, _, rest = text.partition(":")
    head = _REFERENCE_ALIASES.get(head, head)
    if head == "custom":
        return WeightFunction("custom", expression=rest)
    if head not in REFERENCE_KINDS:
        raise WeightSpecError(f"unknown weight kind {head!r}")
    alpha = beta = None
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip().lower()
            try:
                num = float(val)
            except ValueError as exc:
                raise WeightSpecError(f"bad parameter value {val!r}") from exc
            if key in ("a", "alpha"):
                alpha = num
            elif key in ("b", "beta"):
                beta = num
            else:
                raise WeightSpecError(f"unknown parameter {key!r}")
    if head in _REFERENCE_NEEDS_ALPHA and alpha is None:
        raise WeightSpecError(f"{head} requires parameter alpha")
    if head in _REFERENCE_NEEDS_BETA and beta is None:
        raise WeightSpecError(f"{head} requires parameter beta")
    return WeightFunction(head, alpha=alpha, beta=beta)


# Reference P* for the exponential weights: the values e**g themselves, in
# decimal with the exponent range raised so that none overflows, checked as a
# float table is checked (relative slack 1e-12).  The package checks the
# exponent table g and never leaves float range.

_WIDE = decimal.Context(prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def reference_exp_pstar(f, d_max: int) -> tuple:
    """(passes, failed_condition, the witness's degree pairs, only_nonstrict)
    of an exp_ weight f = e**g on {1..d_max}^2, from the decimal values e**g."""
    inner = WeightFunction(f.kind[4:], f.alpha, f.beta)
    with decimal.localcontext(_WIDE):
        val = {}
        for x in range(1, d_max + 1):
            for y in range(x, d_max + 1):
                val[(x, y)] = val[(y, x)] = Decimal(evaluate(inner, x, y)).exp()

        def lt(a, b):
            return a < b - Decimal("1e-12") * max(1, abs(a), abs(b))

        tie = False
        for y in range(1, d_max + 1):
            for x in range(1, d_max):
                if lt(val[(x + 1, y)], val[(x, y)]):
                    return False, "i_monotone", ((x, y), (x + 1, y)), False
                tie = tie or val[(x + 1, y)] == val[(x, y)]
        for y in range(1, d_max + 1):
            for x in range(1, d_max - 1):
                second = val[(x + 2, y)] - 2 * val[(x + 1, y)] + val[(x, y)]
                if lt(second, 0):
                    return False, "ii_convex", ((x, y), (x + 1, y), (x + 2, y)), False
                tie = tie or second == 0
        for s in range(2, 2 * d_max + 1):
            pairs = sorted(((x, s - x) for x in range((s + 1) // 2, d_max + 1) if 1 <= s - x <= x),
                           key=lambda p: p[0] - p[1])
            for low, high in zip(pairs, pairs[1:]):
                if lt(val[high], val[low]):
                    return False, "iii_spread", (high, low), False
                tie = tie or val[high] == val[low]
    return True, None, None, tie


# Reference quotient: the package's earlier dense route.  A_f(G) is built as a
# full n x n Fraction matrix and every block sum runs over every vertex of the
# block, zeros included.


def reference_weight_matrix(g: Graph, f) -> list[list[Fraction]]:
    """A_f(G) with Fraction entries; f must be rational on the degrees."""
    deg = g.degrees()
    a = [[Fraction(0)] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = evaluate_exact(f, deg[u], deg[v])
    return a


def reference_quotient(g: Graph, f, p) -> tuple[list[list[Fraction]], bool]:
    """(block-average row sums, equitable) of the dense Fraction A_f(G)."""
    rows = reference_weight_matrix(g, f)
    b, equitable = [], True
    for bi in p:
        row = []
        for bj in p:
            sums = [sum(rows[v][u] for u in bj) for v in bi]
            equitable = equitable and all(s == sums[0] for s in sums)
            row.append(Fraction(sum(sums), len(sums)))
        b.append(row)
    return b, equitable


def reference_equitable_refine(g: Graph, f, seed) -> list[list[int]]:
    """Coarsest equitable refinement of seed, signatures from the dense rows."""
    rows = reference_weight_matrix(g, f)

    def signatures(parts):
        return lambda v: tuple(sum(rows[v][u] for u in b) for b in parts)
    return refine_partition([list(b) for b in seed], signatures)


def random_partition(rng: random.Random, n: int) -> list[list[int]]:
    """A seeded random ordered partition of range(n) into non-empty blocks."""
    k = rng.randint(1, n)
    blocks = [[] for _ in range(k)]
    for v in range(n):
        blocks[rng.randrange(k)].append(v)
    blocks = [b for b in blocks if b]
    rng.shuffle(blocks)
    return blocks


# Burnside oracle for the class counts, independent of the orderly generator:
# a bicyclic graph is its base B (the 2-core) with a rooted tree hung at each
# base vertex, so the classes on B are the Aut(B)-orbits of tree assignments.
# By Polya, their number at order n is [x^n] (1/|Aut B|) sum_sigma
# prod_{cycles c of sigma} T(x^|c|), with T the rooted-tree series (A000081).
# Aut(B) comes from networkx's matcher, T from the A000081 recurrence.


def rooted_tree_counts(n_max: int) -> list[int]:
    """t[k] = rooted trees on k vertices, k = 0..n_max (OEIS A000081)."""
    t = [0, 1] + [0] * max(0, n_max - 1)
    for m in range(1, n_max):
        # t[m+1] = (1/m) sum_{k=1..m} (sum_{d | k} d t[d]) t[m-k+1]
        s = sum(sum(d * t[d] for d in range(1, k + 1) if k % d == 0) * t[m - k + 1]
                for k in range(1, m + 1))
        t[m + 1] = s // m
    return t[:n_max + 1]


def _series_mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[:n + 1 - i]):
                out[i + j] += x * y
    return out


def burnside_class_count(n: int) -> int:
    """Bicyclic classes on n vertices, by Burnside over each base's automorphisms."""
    t = rooted_tree_counts(n)
    total = Fraction(0)
    for _, base in bicyclic_bases(n):
        h = to_networkx(base)
        autos = list(nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
        fixed = 0
        for sigma in autos:
            series = [1] + [0] * n
            seen: set[int] = set()
            for v in range(base.n):
                if v in seen:
                    continue
                length, w = 0, v
                while w not in seen:
                    seen.add(w)
                    w, length = sigma[w], length + 1
                # T(x^length): t[k] at x^(k * length)
                cycle = [0] * (n + 1)
                for k in range(1, n // length + 1):
                    cycle[k * length] = t[k]
                series = _series_mul(series, cycle, n)
            fixed += series[n]
        total += Fraction(fixed, len(autos))
    assert total.denominator == 1
    return int(total)


def reference_random_connected_graph(rng: random.Random, n: int, extra_max: int = 3) -> Graph:
    """Reference sampler, the package's earlier random_connected_graph: a
    Pruefer tree, its edges normalised afterwards, then the missing pairs
    listed afresh, shuffled and a prefix added."""
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    tree = {(min(e), max(e)) for e in edges}
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    rng.shuffle(candidates)
    extra = candidates[: rng.randint(0, min(extra_max, len(candidates)))]
    return Graph(n, frozenset(tree.union(extra)))


def stepwise_random_connected_graph(rng: random.Random, n: int, extra_max: int = 3) -> Graph:
    """Second reference sampler: Pruefer tree, then extra edges checked with
    has_edge and added one at a time, drawing from rng in the same order."""
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    g = Graph.from_edges(n, edges)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    rng.shuffle(candidates)
    for u, v in candidates[: rng.randint(0, min(extra_max, len(candidates)))]:
        g = Graph(n, g.edges | {(u, v)})
    return g


def reference_pendant_shift_instance(rng: random.Random):
    """Reference draw, the package's earlier pendant-shift instance through
    randint and random: a Graph where (v, u) satisfies the pendant-shift
    preconditions, with v, u and the pendant w to move."""
    common = rng.randint(0, 2)
    edge_uv = rng.random() < 0.7 or common == 0
    a = rng.randint(1, 2)          # pendants at v (the smaller bundle)
    b = rng.randint(a, a + 2)      # pendants at u
    u, v = 0, 1
    n = 2 + common + a + b
    edges = []
    if edge_uv:
        edges.append((u, v))
    idx = 2
    for _ in range(common):
        edges += [(u, idx), (v, idx)]
        idx += 1
    v_pendants = []
    for _ in range(a):
        edges.append((v, idx))
        v_pendants.append(idx)
        idx += 1
    for _ in range(b):
        edges.append((u, idx))
        idx += 1
    return Graph.from_edges(n, edges), v, u, v_pendants[0]


def reference_pendant_shift(g: Graph, v: int, u: int, w: int) -> Graph:
    """Reference pendant shift, the package's earlier set-based one: N1 =
    N(v)-N[u] and N2 = N(u)-N[v] read from neighbour sets, each precondition
    raised with the package's message and in its order, then vw deleted and
    uw added in the edge set."""
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
    return Graph(g.n, g.edges - {(min(v, w), max(v, w))} | {(min(u, w), max(u, w))})


def reference_kelmans(g: Graph, u: int, v: int) -> TransformOutcome:
    """Reference reroute, the package's earlier set-based kelmans: private =
    N(u) - N(v) - {v} on neighbour sets, the edges moved one by one in
    ascending w, and the class change and the split read from the sets."""
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
    changed = bool(nbr[v] - nbr[u] - {u})
    disconnects = not (nbr[u] - private) and g.is_connected()
    return TransformOutcome(Graph(g.n, frozenset(edges)), changed, tuple(moved), disconnects)


def reference_verify_kelmans(samples: int, n_range, fs, rng_seed: int) -> VerificationReport:
    """Reference campaign, the package's earlier Graph-based verify_kelmans
    loop: every draw a Graph (reference_random_connected_graph), every
    reroute reference_kelmans, and each (order, size) group scored through
    graph_rows of the Graphs.  Valid input only."""
    report = VerificationReport("kelmans")
    slack = 1e-9
    orders = list(n_range)
    for f in fs:
        applicable = check_pstar(f, d_max=max(max(n_range) + 2, 8)).passes
        rng = random.Random(f"{rng_seed}/{f.label()}")
        pairs = []  # (after, before)
        skipped = disconnected = 0
        while len(pairs) < samples:
            n = rng.choice(orders)
            g = reference_random_connected_graph(rng, n)
            u = rng.randrange(n)
            v = (u + rng.randrange(1, n)) % n
            out = reference_kelmans(g, u, v)
            if not out.changed:
                skipped += 1
                continue
            pairs.append((out.result, g))
            disconnected += out.disconnects
        shifts = int(samples * PENDANT_SHIFT_FRACTION)
        for _ in range(shifts):
            g, v, u, w = reference_pendant_shift_instance(rng)
            pairs.append((reference_pendant_shift(g, v, u, w), g))
        deltas = np.empty(len(pairs))
        groups = {}
        for i, (after, _) in enumerate(pairs):
            groups.setdefault((after.n, after.m), []).append(i)
        for (n, _), idx in sorted(groups.items()):
            rho = spectral_radii(graph_rows([g for i in idx for g in pairs[i]]), f, n)
            deltas[idx] = rho[0::2] - rho[1::2]
        failing = deltas <= -slack
        report.cases.append(CaseRecord(
            case_id=f"kelmans/{f.label()}",
            inputs={"weight": f.label(), "samples": samples, "pendant_shifts": shifts,
                    "n_range": [min(n_range), max(n_range)], "seed": rng_seed},
            computed={"violations": int(failing[:samples].sum()),
                      "pendant_shift_violations": int(failing[samples:].sum()),
                      "worst_delta": float(deltas.min()), "skipped_isomorphic": skipped,
                      "disconnecting_applications": disconnected},
            expected={"violations": 0} if applicable else None,
            passed=not failing.any() if applicable else None,
            tolerance=slack,
            note="" if applicable else "weight lacks P*; monotonicity informative only",
        ))
    return report


@lru_cache(maxsize=None)
def reference_rooted_trees(size: int) -> tuple:
    """Reference shapes, the package's earlier bounded recursion: the root's
    subtrees chosen as (size, shape) items in non-increasing order, each
    multiset sorted once into a shape."""
    if size < 1:
        return ()
    if size == 1:
        return ((),)
    out = set()

    def rec(remaining: int, chosen: tuple, bound):
        if remaining == 0:
            out.add(tuple(sorted(chosen)))
            return
        for sz in range(remaining, 0, -1):
            for shape in reference_rooted_trees(sz):
                item = (sz, shape)
                if bound is not None and item > bound:
                    continue
                rec(remaining - sz, chosen + (shape,), item)

    rec(size - 1, (), None)
    return tuple(sorted(out))


def reference_weak_compositions(total: int, parts: int):
    """Reference: weak compositions by recursion on the first part, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in reference_weak_compositions(total - head, parts - 1):
            yield (head,) + tail


@pytest.fixture(scope="session")
def weight_one():
    return WeightFunction("constant_one")


@pytest.fixture(scope="session")
def weight_zagreb1():
    return WeightFunction("zagreb1")


@pytest.fixture(scope="session")
def weight_hyper():
    return WeightFunction("hyper_zagreb")


@pytest.fixture(scope="session")
def weight_forgotten():
    return WeightFunction("forgotten")


@pytest.fixture(scope="session")
def weight_extended():
    return WeightFunction("extended")


@pytest.fixture
def rng():
    return random.Random(20240817)
