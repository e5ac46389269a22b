"""Verification campaigns with machine-readable reports.

Each campaign produces a VerificationReport holding one record per checked
case.  Cases are either asserted (pass/fail feeds the campaign verdict) or
informative (recorded, never failing).  Printed table values are carried
verbatim with their coordinates; three cells of the published tables are
internally inconsistent with the published quotient polynomials and are
tracked as errata (the recomputed value, confirmed through three independent
routes, is attached and asserted instead; the mismatch with the printed value
is reported, never hidden).
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import math
import random
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

# enumerate_bicyclic stays importable here: perfbench/layers.py wraps it
from .enumeration import (canonical_form, check_order, enumerate_bicyclic,  # noqa: F401
                          orderly_rows, targeted_max_degree_family)
# base_graph, kelmans and pendant_shift stay importable here: perfbench/layers.py wraps them
from .graphs import (FAMILIES, Graph, base_graph, edge_masks, graph_g1, graph_g2,  # noqa: F401
                     graph_rows, mask_edges, rows_graph)
from .spectral import edge_bounds, rho_f, spectral_radii
from .transforms import kelmans, move_masks, pendant_shift, reroute, shift_masks  # noqa: F401
from .weights import WeightFunction, check_pstar, parse_weight


# ---------------------------------------------------------------------------
# Report model
# ---------------------------------------------------------------------------


@dataclass
class CaseRecord:
    case_id: str
    inputs: dict
    computed: dict
    expected: Optional[dict] = None
    passed: Optional[bool] = True  # None marks informative cases
    tolerance: Optional[float] = None
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    campaign: str
    cases: list[CaseRecord] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.cases if c.passed is not None)

    def summary(self) -> dict:
        asserted = [c for c in self.cases if c.passed is not None]
        return {
            "total": len(self.cases),
            "asserted": len(asserted),
            "passed": sum(1 for c in asserted if c.passed),
            "failed": sum(1 for c in asserted if not c.passed),
            "informative": len(self.cases) - len(asserted),
            "ok": self.ok,
            "runtime_seconds": round(self.runtime_seconds, 3),
        }

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "cases": [c.to_dict() for c in self.cases],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["case_id", "passed", "tolerance", "note", "inputs", "computed", "expected"])
        for c in self.cases:
            writer.writerow([
                c.case_id,
                "" if c.passed is None else str(c.passed).lower(),
                "" if c.tolerance is None else repr(c.tolerance),
                c.note,
                json.dumps(c.inputs, sort_keys=True),
                json.dumps(c.computed, sort_keys=True),
                "" if c.expected is None else json.dumps(c.expected, sort_keys=True),
            ])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Published tables
# ---------------------------------------------------------------------------

COLUMN_DISPLAY = {"constant_one": "1", "zagreb1": "x+y",
                  "hyper_zagreb": "(x+y)^2", "sum_connectivity:a=3": "(x+y)^3"}
TABLE_COLUMNS = list(COLUMN_DISPLAY)

# Printed entries, row-major over (G2, G3, G4); bold marks the row maximum of
# each column.  Errata map coordinates to the recomputed reference value
# (exact quotient polynomial + Sturm isolation, LAPACK eigensolve, and an
# independent exact isolation all agree; the printed cells contradict the
# published quotient polynomials phi1/phi2 themselves).
APPENDIX_TABLES = {
    "appendix_n6": {
        "n": 6,
        "printed": {
            "G2": ["2.7039", "17.0855", "111.8198", "749.14"],
            "G3": ["2.7321", "16.3940", "101.8670", "652.82"],
            "G4": ["2.7913", "17.6015", "114.6620", "788.49"],
        },
        "bold": {col: "G4" for col in TABLE_COLUMNS},
        "errata": {
            ("G2", "constant_one"): 2.709275359,
            ("G4", "sum_connectivity:a=3"): 773.479468192,
        },
    },
    "appendix_n7": {
        "n": 7,
        "printed": {
            "G2": ["2.8558", "20.4063", "152.0299", "1159.8"],
            "G3": ["2.8332", "18.6430", "128.7889", "926.19"],
            "G4": ["2.9032", "20.0004", "143.5387", "1131"],
        },
        "bold": {"constant_one": "G4", "zagreb1": "G2",
                 "hyper_zagreb": "G2", "sum_connectivity:a=3": "G2"},
        "errata": {
            ("G4", "sum_connectivity:a=3"): 1076.016339,
        },
    },
}

# Extended-index comparison: bound 0.5*(n-3+1/(n-3))*sqrt(n) against
# rho_ex(G2(n)) for n = 12..20.
EXTENDED_TABLE1 = {
    "n": list(range(12, 21)),
    "bound": ["15.7809", "18.208", "20.7492", "23.3993", "26.1538",
              "29.009", "31.9612", "35.0074", "38.1447"],
    "rho_ex_g2": ["15.8028", "18.2277", "20.7672", "23.4160", "26.1695",
                  "29.0238", "31.9753", "35.0209", "38.1576"],
}


TOLERANCE_FLOOR = 5e-4  # smallest tolerance a printed table value gets


def printed_tolerance(printed: str) -> float:
    """Half a unit in the last printed place, floored at TOLERANCE_FLOOR."""
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return max(TOLERANCE_FLOOR, 0.5 * 10.0 ** (-decimals))


def run_table(table: str) -> VerificationReport:
    """Recompute one published table cell by cell."""
    t0 = time.perf_counter()
    if table in APPENDIX_TABLES:
        report = _run_appendix_table(table)
    elif table == "extended_table1":
        report = _run_extended_table1()
    else:
        raise ValueError(f"unknown table {table!r}; choose appendix_n6, appendix_n7, extended_table1")
    report.runtime_seconds = time.perf_counter() - t0
    return report


def _run_appendix_table(table: str) -> VerificationReport:
    spec = APPENDIX_TABLES[table]
    n = spec["n"]
    report = VerificationReport(f"tables/{table}")
    computed: dict[tuple[str, str], float] = {}
    for row in ("G2", "G3", "G4"):
        g = FAMILIES[row].build(n)
        for col, printed in zip(TABLE_COLUMNS, spec["printed"][row]):
            f = parse_weight(col)
            value = rho_f(g, f)
            computed[(row, col)] = value
            tol = printed_tolerance(printed)
            erratum = spec["errata"].get((row, col))
            ok, note = abs(value - float(printed)) <= tol, ""
            expected = {"table": table, "row": row, "column": COLUMN_DISPLAY[col], "printed": printed}
            if erratum is not None:
                expected.update(recomputed=erratum, matches_printed=ok)
                ok = abs(value - erratum) <= tol
                note = (f"printed value {printed} is an erratum (inconsistent with the "
                        f"published quotient polynomial); recomputed reference {erratum}")
            report.cases.append(CaseRecord(
                case_id=f"{table}/{row}/{COLUMN_DISPLAY[col]}",
                inputs={"n": n, "graph": row, "weight": col},
                computed={"rho": value},
                expected=expected,
                passed=ok,
                tolerance=tol,
                note=note,
            ))
    for col in TABLE_COLUMNS:
        winner = max(("G2", "G3", "G4"), key=lambda r: computed[(r, col)])
        report.cases.append(CaseRecord(
            case_id=f"{table}/bold/{COLUMN_DISPLAY[col]}",
            inputs={"n": n, "column": col},
            computed={"row_maximum": winner},
            expected={"bold_row": spec["bold"][col]},
            passed=winner == spec["bold"][col],
        ))
    return report


def _run_extended_table1() -> VerificationReport:
    report = VerificationReport("tables/extended_table1")
    ext = WeightFunction("extended")
    for n, bound_printed, rho_printed in zip(
            EXTENDED_TABLE1["n"], EXTENDED_TABLE1["bound"], EXTENDED_TABLE1["rho_ex_g2"]):
        bound = 0.5 * (n - 3 + 1 / (n - 3)) * math.sqrt(n)
        rho = rho_f(graph_g2(n), ext)
        for kind, value, printed in [("bound", bound, bound_printed), ("rho_ex_g2", rho, rho_printed)]:
            tol = printed_tolerance(printed)
            report.cases.append(CaseRecord(
                case_id=f"extended_table1/{kind}/n={n}",
                inputs={"n": n, "quantity": kind},
                computed={"value": value},
                expected={"table": "extended_table1", "row": kind, "column": str(n),
                          "printed": printed},
                passed=abs(value - float(printed)) <= tol,
                tolerance=tol,
            ))
        report.cases.append(CaseRecord(
            case_id=f"extended_table1/bound_below_rho/n={n}",
            inputs={"n": n},
            computed={"bound": bound, "rho_ex_g2": rho},
            expected={"relation": "bound < rho_ex(G2)"},
            passed=bound < rho,
        ))
    return report


# ---------------------------------------------------------------------------
# Extremal campaigns
# ---------------------------------------------------------------------------

SECOND_RANK_THRESHOLDS = {"zagreb1": 10, "hyper_zagreb": 9, "forgotten": 8}
RANK_GAP = 1e-9  # a rank verdict needs its winner's rho above the next one's by more


def verify_extremal(n_range: Sequence[int], fs: Sequence[WeightFunction],
                    rank: str = "first", mode: str = "exhaustive") -> VerificationReport:
    """Extremality of G1 (rank 1) / the second-rank candidates over all classes.

    exhaustive mode streams every bicyclic class once per order for all
    applicable weights and ranks spectral radii (see _Leaders); candidate
    mode, rank 2 only, compares G2, G3, G4 directly (the proven candidate
    set) and asserts the known per-weight winner beyond its threshold order.
    Weights failing the P* check are reported as not-applicable.
    """
    if rank not in ("first", "second"):
        raise ValueError("rank must be 'first' or 'second'")
    if mode not in ("exhaustive", "candidate"):
        raise ValueError("mode must be 'exhaustive' or 'candidate'")
    if mode == "candidate" and rank == "first":
        raise ValueError("candidate mode checks the second rank only (G2 against G3 and G4)")
    t0 = time.perf_counter()
    report = VerificationReport(f"extremal/{mode}/rank={rank}")
    d_max = max(max(n_range), 8)
    # every applicable weight is ranked in the same stream per order
    applicable = tuple(dict.fromkeys(f for f in fs if check_pstar(f, d_max=d_max).passes))
    cases: list[CaseRecord] = []  # follow every not-applicable record
    for f in fs:
        pstar = check_pstar(f, d_max=d_max)
        if not pstar.passes:
            report.cases.append(CaseRecord(
                case_id=f"extremal/{f.label()}/not_applicable",
                inputs={"weight": f.label()},
                computed={"pstar": False, "failed_condition": pstar.failed_condition},
                passed=None,
                note="weight lacks property P*; campaign not applicable",
            ))
            continue
        cases += [_exhaustive_case(n, f, rank, applicable) if mode == "exhaustive"
                  else _candidate_case(n, f, rank) for n in n_range]
    report.cases.extend(cases)
    report.runtime_seconds = time.perf_counter() - t0
    return report


PRUNE_MARGIN = 1e-9  # relative; a class is skipped only when its bound is clearly below


def _cuts(rho: Sequence[float], kinds: Sequence[int]) -> np.ndarray:
    """cut[kind] = min(second rho, top rho of the kind) of distinct classes' rho and
    base kinds (0 infinity, 1 theta, as a class key's head); -inf for a kind with none."""
    rho = np.asarray(rho)
    second = np.sort(rho)[-2] if len(rho) > 1 else -math.inf
    top = np.full(2, -math.inf)
    np.maximum.at(top, np.asarray(kinds, np.intp), rho)
    return np.minimum(second, top)


class _Leaders:
    """One weight's classes that a verdict can read: those at or above the
    second rho of all classes or the top rho of their base kind.

    The named families bound both values from below, so each kind's cut is
    fixed once per order: min(named second rho, named top rho of the kind).
    A class whose edge_bounds value is clearly below its kind's cut is
    neither in the top two nor its kind's best, so its A_f is never built.
    Kept classes stay edge rows; only those a verdict reads become Graphs.
    """

    def __init__(self, f: WeightFunction, rho: Sequence[float], kinds: Sequence[int]):
        """rho and base kinds of the distinct named classes under f."""
        self.f, self.kept = f, []
        cut = _cuts(rho, kinds)
        self.floor = cut - PRUNE_MARGIN * np.abs(cut)

    def offer(self, rows: np.ndarray, bound: np.ndarray, kinds: np.ndarray):
        """Keep (rows, kinds) of the classes of base kinds `kinds`, edges
        rows[i], whose edge_bounds value bound[i] reaches their kind's floor."""
        keep = ~(bound < self.floor[kinds])
        if keep.any():
            self.kept.append((rows[keep], kinds[keep]))

    def ranking(self) -> tuple[list[tuple[float, tuple]], dict[int, tuple]]:
        """The first two (rho, class key) of all classes in descending order,
        ties by key, and {kind: its first key}, keying only the classes at or
        above the second rho or their kind's top rho."""
        rows, kinds = (np.concatenate(part) for part in zip(*self.kept))
        rho = spectral_radii(rows, self.f, rows.shape[1] - 1)  # n + 1 edges
        idx = np.flatnonzero(rho >= _cuts(rho, kinds)[kinds])
        ranked = sorted(zip(rho[idx].tolist(), map(canonical_form, map(rows_graph, rows[idx]))),
                        reverse=True)
        kind_best = {cert[0]: cert for _, cert in reversed(ranked)}  # each kind's first
        return ranked[:2], kind_best


@lru_cache(maxsize=32)
def _rankings(n: int, fs: tuple[WeightFunction, ...]):
    """(classes, named class keys, {f: _Leaders.ranking()}) at order n from
    one stream of orderly_rows(n), bounded for every weight in fs."""
    check_order(n)
    named = {tag: family.build(n) if n >= family.min_n else None
             for tag, family in FAMILIES.items()}
    certs = {tag: None if g is None else canonical_form(g) for tag, g in named.items()}
    distinct = {cert: named[tag] for tag, cert in certs.items() if cert is not None}
    named_rows, named_kinds = graph_rows(list(distinct.values())), [cert[0] for cert in distinct]
    leaders = [_Leaders(f, spectral_radii(named_rows, f, n), named_kinds) for f in fs]
    classes = 0
    for rows, kinds in orderly_rows(n):
        classes += len(kinds)
        for leaders_f, bound in zip(leaders, edge_bounds(rows, fs, n)):
            leaders_f.offer(rows, bound, kinds)
    return classes, certs, {f: leaders_f.ranking() for f, leaders_f in zip(fs, leaders)}


def _exhaustive_case(n: int, f: WeightFunction, rank: str,
                     fs: tuple[WeightFunction, ...]) -> CaseRecord:
    classes, named, rankings = _rankings(n, fs)
    scored, family_best = rankings[f]
    case_id = f"extremal/{rank}/{f.label()}/n={n}"
    inputs = {"n": n, "weight": f.label(), "classes": classes}
    top_rho, top_cert = scored[0]
    gap = top_rho - scored[1][0] if len(scored) > 1 else float("inf")
    if rank == "first":
        ok = top_cert == named["G1"] and gap > RANK_GAP
        note = "" if gap > RANK_GAP else (
            f"near-tie at the top: gap {gap:.3e}; certificates "
            f"{top_cert} vs {scored[1][1]}")
        # per-base-family maxima (informative): G2 should top the
        # infinity-base classes, G1 the theta-base classes
        return CaseRecord(
            case_id=case_id,
            inputs=inputs,
            computed={"winner_is_g1": top_cert == named["G1"], "rho_max": top_rho,
                      "gap_to_second": gap,
                      "infinity_base_winner_is_g2": family_best.get(0) == named["G2"],
                      "theta_base_winner_is_g1": family_best.get(1) == named["G1"]},
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


def _candidate_case(n: int, f: WeightFunction, rank: str) -> CaseRecord:
    rhos = {tag: rho_f(FAMILIES[tag].build(n), f)
            for tag in ("G2", "G3", "G4") if n >= FAMILIES[tag].min_n}
    case_id = f"extremal/candidate/{f.label()}/n={n}"
    inputs = {"n": n, "weight": f.label(), "rank": rank}
    if not rhos:
        return CaseRecord(case_id, inputs, {}, passed=None,
                          note="no candidate family exists at this order")
    winner = max(rhos, key=rhos.get)
    threshold = SECOND_RANK_THRESHOLDS.get(f.kind)
    computed = {"rho": rhos, "winner": winner}
    if threshold is None or n < threshold:
        return CaseRecord(case_id, inputs, computed, passed=None,
                          note="below threshold or no stated winner; informative only")
    others = max(v for k, v in rhos.items() if k != "G2")
    ok = winner == "G2" and rhos["G2"] > others + RANK_GAP
    return CaseRecord(case_id, inputs, computed, passed=ok,
                      expected={"winner": "G2", "n_threshold": threshold})


# ---------------------------------------------------------------------------
# Randomized transform campaigns
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every (u, v) with u < v < n, in lexicographic order."""
    return tuple(itertools.combinations(range(n), 2))


def _below(bits, n: int) -> int:
    """A uniform int in [0, n) from bits = rng.getrandbits, drawn as rng.randrange(n),
    choice, randint and shuffle draw it (Random._randbelow of CPython 3.10-3.13)."""
    r = n
    while r >= n:  # the top n.bit_length() bits of its words, until below n
        r = bits(n.bit_length())
    return r


EXTRA_EDGES_MAX = 3  # random_masks adds 0..EXTRA_EDGES_MAX edges to its tree


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """The Graph of random_masks(rng, n)."""
    return Graph(n, mask_edges(random_masks(rng, n)))


def random_masks(rng: random.Random, n: int) -> list[int]:
    """Neighbour masks of a uniform random labeled tree on n vertices (a Pruefer
    decode) plus a shuffled prefix, 0..EXTRA_EDGES_MAX long, of its non-edges."""
    if n <= 2:  # no draw
        return edge_masks(n, [(0, 1)] * (n == 2))
    bits = rng.getrandbits
    prufer = [_below(bits, n) for _ in range(n - 2)]
    degree = [1 + prufer.count(v) for v in range(n)]
    leaves = [v for v in range(n) if degree[v] == 1]  # ascending, so a heap
    edges = []
    for x in prufer:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    masks = edge_masks(n, edges + [leaves])  # the last edge joins the two leaves left
    candidates = [(u, v) for u, v in _vertex_pairs(n) if not masks[u] >> v & 1]
    for i in range(len(candidates) - 1, 0, -1):  # rng.shuffle(candidates)
        j = _below(bits, i + 1)
        candidates[i], candidates[j] = candidates[j], candidates[i]
    for u, v in candidates[:_below(bits, min(EXTRA_EDGES_MAX, len(candidates)) + 1)]:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _edge_word(masks: list[int]) -> int:
    """The edge word of masks: bit i is set iff pair i of _vertex_pairs(len(masks)) is an edge."""
    word, n = 0, len(masks)
    for u in range(n - 1, -1, -1):  # the pairs (u, v > u) follow those of u - 1
        word = word << n - 1 - u | masks[u] >> u + 1
    return word


def _word_rows(words: Sequence[int], n: int, m: int) -> np.ndarray:
    """Edge rows (C, m, 2), as spectral_radii takes them, of the graphs of
    order n and size m with edge words `words`, each row's edges ascending."""
    size = (len(_vertex_pairs(n)) + 7) // 8
    raw = np.frombuffer(b"".join(w.to_bytes(size, "little") for w in words), np.uint8)
    bits = np.unpackbits(raw.reshape(len(words), size), axis=1, bitorder="little")
    return np.array(_vertex_pairs(n), np.intp)[np.nonzero(bits)[1]].reshape(-1, m, 2)


@lru_cache(maxsize=None)  # at most 30 shapes; common == 0 forces edge_uv
def _pendant_shift_words(common: int, edge_uv: bool, a: int, b: int) -> tuple[int, int, int]:
    """(n, edge words after and before) of shift_masks(masks, 1, 0, 2 + common), where u = 0
    and v = 1 share `common` neighbours, hold b and a <= b pendants and are adjacent iff edge_uv."""
    n = 2 + common + a + b
    edges = [(0, 1)] * edge_uv + [(x, c) for c in range(2, 2 + common) for x in (0, 1)]
    masks = edge_masks(n, edges + [(0 if c >= n - b else 1, c) for c in range(2 + common, n)])
    return n, _edge_word(shift_masks(masks, 1, 0, 2 + common)), _edge_word(masks)


PENDANT_SHIFT_FRACTION = 0.25  # pendant shifts per class-changing reroute in verify_kelmans


def verify_kelmans(samples: int, n_range: Sequence[int], fs: Sequence[WeightFunction],
                   rng_seed: int) -> VerificationReport:
    """Randomized monotonicity campaign for the two transforms.

    Per weight, `samples` class-changing reroutes of drawn neighbour masks,
    decided exactly and moved by the mask core (no certificate, no Graph),
    then PENDANT_SHIFT_FRACTION * samples pendant shifts on the same core.
    Each distinct labeled graph, keyed by its edge word, is eigensolved
    once, for rho' > rho - 1e-9.  n_range needs some n >= 4.  Weights
    without P* run informatively: violations are recorded, not failed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if min(n_range) < 2:
        raise ValueError(f"verify_kelmans needs orders n >= 2, got n = {min(n_range)}")
    if max(n_range) < 4:
        raise ValueError("verify_kelmans needs some order n >= 4 (no reroute changes the "
                         f"class of a graph with n <= 3), got max n = {max(n_range)}")
    t0 = time.perf_counter()
    report = VerificationReport("kelmans")
    slack = 1e-9
    orders = list(n_range)
    for f in fs:
        applicable = check_pstar(f, d_max=max(max(n_range) + 2, 8)).passes
        rng = random.Random(f"{rng_seed}/{f.label()}")
        bits = rng.getrandbits
        pairs: list[tuple[int, int, int]] = []  # (n, edge words after and before)
        skipped = disconnected = 0
        attempts_left = 1000 * samples  # identity applications don't count
        while len(pairs) < samples:
            attempts_left -= 1
            if attempts_left < 0:
                raise RuntimeError("kelmans campaign: too few class-changing samples")
            n = orders[_below(bits, len(orders))]
            masks = random_masks(rng, n)
            u = _below(bits, n)
            v = (u + 1 + _below(bits, n - 1)) % n
            private, changed, isolates = reroute(masks, u, v)
            if not changed:
                skipped += 1
                continue
            pairs.append((n, _edge_word(move_masks(masks, private, u, v)), _edge_word(masks)))
            disconnected += isolates  # the drawn graph is connected
        shifts = int(samples * PENDANT_SHIFT_FRACTION)
        # a shift always changes the class: d_v <= d_u become d_v - 1 and
        # d_u + 1, so the largest degree of the pair rises
        for _ in range(shifts):
            common = _below(bits, 3)
            edge_uv = rng.random() < 0.7 or common == 0
            a = 1 + _below(bits, 2)  # pendants at v, the smaller bundle
            pairs.append(_pendant_shift_words(common, edge_uv, a, a + _below(bits, 3)))
        # each distinct labeled graph is eigensolved once, one spectral_radii call per (n, m)
        graphs = sorted({(n, word.bit_count(), word) for n, *words in pairs for word in words})
        index = {(n, word): i for i, (n, _, word) in enumerate(graphs)}
        rho = np.concatenate([spectral_radii(_word_rows([g[2] for g in group], n, m), f, n)
                              for (n, m), group in itertools.groupby(graphs, lambda g: g[:2])])
        deltas = rho[[index[n, a] for n, a, _ in pairs]] - rho[[index[n, b] for n, _, b in pairs]]
        failing = deltas <= -slack
        violations = int(failing[:samples].sum())
        shift_violations = int(failing[samples:].sum())
        report.cases.append(CaseRecord(
            case_id=f"kelmans/{f.label()}",
            inputs={"weight": f.label(), "samples": samples, "pendant_shifts": shifts,
                    "n_range": [min(n_range), max(n_range)], "seed": rng_seed},
            computed={"violations": violations, "pendant_shift_violations": shift_violations,
                      "worst_delta": float(deltas.min()), "skipped_isomorphic": skipped,
                      "disconnecting_applications": disconnected},
            expected={"violations": 0} if applicable else None,
            passed=not failing.any() if applicable else None,
            tolerance=slack,
            note="" if applicable else "weight lacks P*; monotonicity informative only",
        ))
    report.runtime_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# Extended-index theorem campaign
# ---------------------------------------------------------------------------


def verify_theorem41(n_range: Sequence[int]) -> VerificationReport:
    """Inequality chain for the extended index on G1/G2 plus the
    degree-(n-2) family bound, over n in [12, 60]."""
    lo, hi = min(n_range), max(n_range)
    if lo < 12 or hi > 60:
        raise ValueError("verify_theorem41 supports 12 <= n <= 60")
    t0 = time.perf_counter()
    ext = WeightFunction("extended")
    report = VerificationReport("theorem41")

    def bound(n: int, shift: float) -> float:
        return 0.5 * (n - 0.9) * math.sqrt(n - shift)

    def cases_for(n: int) -> list[CaseRecord]:
        out = []
        rho1, rho2 = spectral_radii(graph_rows([graph_g1(n), graph_g2(n)]), ext, n).tolist()
        b1, b2 = bound(n, 3.8), bound(n, 5.0)
        out.append(CaseRecord(
            case_id=f"theorem41/chain/n={n}",
            inputs={"n": n},
            computed={"rho_ex_g1": rho1, "upper_bound": b1, "rho_ex_g2": rho2,
                      "lower_bound": b2},
            expected={"relation": "rho_ex(G1) > b(3.8) > rho_ex(G2) > b(5)"},
            passed=rho1 > b1 > rho2 > b2,
        ))
        family = targeted_max_degree_family(n)
        worst = max(spectral_radii(graph_rows(family), ext, n).tolist())
        out.append(CaseRecord(
            case_id=f"theorem41/max_degree_n2/n={n}",
            inputs={"n": n, "classes": len(family)},
            computed={"max_rho_ex": worst, "bound": b2},
            expected={"relation": "every degree-(n-2) class below b(5)",
                      "classes_expected": 9},
            passed=worst < b2 and len(family) == 9,
        ))
        if 12 <= n <= 20:
            t1bound = 0.5 * (n - 3 + 1 / (n - 3)) * math.sqrt(n)
            out.append(CaseRecord(
                case_id=f"theorem41/table1_comparison/n={n}",
                inputs={"n": n},
                computed={"bound": t1bound, "rho_ex_g2": rho2},
                expected={"relation": "bound < rho_ex(G2)"},
                passed=t1bound < rho2,
            ))
        return out

    for n in n_range:
        report.cases.extend(cases_for(n))
    report.runtime_seconds = time.perf_counter() - t0
    return report
