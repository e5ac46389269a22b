import heapq
import itertools
import random

import networkx as nx
import numpy as np
import pytest

from bicyclic_spectra import (FAMILIES, CaseRecord, Graph, WeightFunction, attach_pendants,
                              base_graph, enumerate_bicyclic, evaluate, spectral_radii)
from bicyclic_spectra.enumeration import (bicyclic_bases, canonical_form, rooted_trees,
                                          _weak_compositions)


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


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


def reference_enumerate_constructive(n: int) -> dict[bytes, Graph]:
    """Reference generator: every rooted forest on every labeled base vertex,
    one attach_pendants copy per added vertex, dedup through canonical_form
    keeping the first graph of each class in loop order."""
    def attach(g: Graph, root: int, shape) -> Graph:
        for child in shape:
            g = attach_pendants(g, root, 1)
            g = attach(g, g.n - 1, child)
        return g

    found: dict[bytes, Graph] = {}
    for base in bicyclic_bases(n):
        for comp in _weak_compositions(n - base.n, base.n):
            for combo in itertools.product(*(rooted_trees(c + 1) for c in comp)):
                g = base
                for v, shape in enumerate(combo):
                    g = attach(g, v, shape)
                found.setdefault(canonical_form(g), g)
    return found


def reference_exhaustive_case(n: int, f, rank: str, min_gap: float = 1e-9) -> CaseRecord:
    """Reference exhaustive extremal case: score every class, certify every
    class and sort them all by (rho, certificate)."""
    rep = enumerate_bicyclic(n, "constructive")
    rhos = spectral_radii(rep.graphs, f).tolist()
    scored = sorted(zip(rhos, map(canonical_form, rep.graphs), rep.graphs), reverse=True)
    named = {tag: canonical_form(family.build(n)) if n >= family.min_n else None
             for tag, family in FAMILIES.items()}
    case_id = f"extremal/{rank}/{f.label()}/n={n}"
    inputs = {"n": n, "weight": f.label(), "classes": rep.count}
    top_rho, top_cert, _ = scored[0]
    gap = top_rho - scored[1][0] if len(scored) > 1 else float("inf")
    if rank == "first":
        ok = top_cert == named["G1"] and gap > min_gap
        note = "" if gap > min_gap else (
            f"near-tie at the top: gap {gap:.3e}; certificates "
            f"{top_cert.hex()} vs {scored[1][1].hex()}")
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


def loop_matrix(g: Graph, f) -> np.ndarray:
    """Reference A_f(G), one weight evaluation per edge."""
    deg = g.degrees()
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = evaluate(f, deg[u], deg[v])
    return a


def per_graph_radii(graphs, f) -> np.ndarray:
    """Reference scorer: one matrix and one eigensolve per graph."""
    out = []
    for g in graphs:
        vals = np.linalg.eigh(loop_matrix(g, f))[0]
        out.append(max(vals[-1], -vals[0]) if g.n else 0.0)
    return np.array(out, dtype=float)


def per_matrix_eigenpairs(a, tol):
    """Reference for the radii of spectral._dominant_eigenpairs: one
    eigensolve per stacked matrix (the other outputs are not compared)."""
    rho = [max(vals[-1], -vals[0]) for vals in (np.linalg.eigh(m)[0] for m in a)]
    return np.array(rho, dtype=float), None, None, None


def reference_random_connected_graph(rng: random.Random, n: int, extra_max: int = 3) -> Graph:
    """Reference sampler: Pruefer tree, then extra edges checked and added one
    at a time with has_edge/add_edge, drawing from rng in the same order."""
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
        g = g.add_edge(u, v)
    return g


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
