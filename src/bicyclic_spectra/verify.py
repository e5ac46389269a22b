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
import io
import json
import math
import random
import time
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

# enumerate_bicyclic, targeted_max_degree_family, base_graph, kelmans and pendant_shift stay
# importable here (noqa: F401): perfbench/layers.py wraps them
from .enumeration import (canonical_form, check_order, enumerate_bicyclic,  # noqa: F401
                          max_degree_rows, orderly_rows, targeted_max_degree_family)
from .graphs import (FAMILIES, base_graph, edge_stack, graph_g1, graph_g2,  # noqa: F401
                     graph_rows, rows_graph, union_edges)
from .spectral import (EIGH_CHUNK, pruned_brackets, radius_brackets, rho_f, spectral_radii,
                       stacked_radii)
from .transforms import kelmans, move_stack, pendant_shift, reroute_stack  # noqa: F401
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
        """asdict(self), but copying the dict fields one level deep, not every value."""
        return {key: dict(v) if isinstance(v, dict) else v for key, v in vars(self).items()}


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

# Extended-index comparison: _table1_bound(n) against rho_ex(G2(n)) for n = 12..20.
EXTENDED_TABLE1 = {
    "n": list(range(12, 21)),
    "bound": ["15.7809", "18.208", "20.7492", "23.3993", "26.1538",
              "29.009", "31.9612", "35.0074", "38.1447"],
    "rho_ex_g2": ["15.8028", "18.2277", "20.7672", "23.4160", "26.1695",
                  "29.0238", "31.9753", "35.0209", "38.1576"],
}


def _table1_bound(n: int) -> float:
    """The extended index's Table 1 bound at order n."""
    return 0.5 * (n - 3 + 1 / (n - 3)) * math.sqrt(n)


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
    rows, fs = ("G2", "G3", "G4"), [parse_weight(col) for col in TABLE_COLUMNS]
    graphs = np.repeat(graph_rows([FAMILIES[row].build(n) for row in rows]), len(fs), axis=0)
    rho = stacked_radii(graphs, fs, np.tile(np.arange(len(fs)), len(rows)), n)
    computed = dict(zip([(row, col) for row in rows for col in TABLE_COLUMNS], rho.tolist()))
    for row in rows:
        for col, printed in zip(TABLE_COLUMNS, spec["printed"][row]):
            value = computed[(row, col)]
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
        winner = max(rows, key=lambda r: computed[(r, col)])
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
        bound = _table1_bound(n)
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
RANK_GAP = 1e-9  # a rank verdict needs its winner's lead over the next rho above this share of it


def verify_extremal(n_range: Sequence[int], fs: Sequence[WeightFunction],
                    rank: str = "first", mode: str = "exhaustive") -> VerificationReport:
    """Extremality of G1 (rank 1) / the second-rank candidates over all classes.

    exhaustive mode streams every bicyclic class once per order for all
    applicable weights and ranks spectral radii (see _rankings); candidate
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


def _cuts(rho: Sequence[float], kinds: Sequence[int]) -> np.ndarray:
    """cut[kind] = min(second rho, top rho of the kind) of distinct classes' rho and
    base kinds (0 infinity, 1 theta, as a class key's head); -inf for a kind with none."""
    rho = np.asarray(rho)
    second = np.sort(rho)[-2] if len(rho) > 1 else -math.inf
    top = np.full(2, -math.inf)
    np.maximum.at(top, np.asarray(kinds, np.intp), rho)
    return np.minimum(second, top)


@lru_cache(maxsize=32)
def _rankings(n: int, fs: tuple[WeightFunction, ...]):
    """(classes, named class keys, {f: (first two (rho, class key) of all classes,
    descending, ties by key; {kind: its first key})}) at any order n, from one stream of
    orderly_rows(n) for every weight in fs.  A verdict reads only the classes at or above
    their kind's cut, min(second rho of all classes, top rho of the kind).  Each floor, that
    cut of the named families' bracket lo values, is at most the cut: lo <= rho, and more
    classes give no lower cut.  pruned_brackets drops a class only when its edge bound or its
    hi lies below its floor, so rho <= bound or hi < floor <= cut; an open bracket is kept.
    The kept classes of all weights hold every class at or above its cut, so they give the
    same cuts; one stacked_radii call solves them, and only those a verdict reads become Graphs.
    """
    named = {tag: family.build(n) if n >= family.min_n else None
             for tag, family in FAMILIES.items()}
    certs = {tag: None if g is None else canonical_form(g) for tag, g in named.items()}
    distinct = {cert: named[tag] for tag, cert in certs.items() if cert is not None}
    lo, _ = pruned_brackets(graph_rows(list(distinct.values())), fs, n, -np.inf)
    floor = np.array([_cuts(lo_f, [cert[0] for cert in distinct]) for lo_f in lo])
    classes, kept = 0, []
    for rows, kinds in orderly_rows(n):
        classes += len(kinds)
        _, hi = pruned_brackets(rows, fs, n, floor[:, kinds])
        k, i = np.nonzero(~(hi < floor[:, kinds]))
        if len(k):  # most chunks keep nothing: hold no empty arrays for them
            kept.append((k, rows[i], kinds[i]))
    which, rows, kinds = map(np.concatenate, zip(*kept))
    rho = stacked_radii(rows, fs, which, n)
    rankings = {}
    for k, f in enumerate(fs):
        mine = np.flatnonzero(which == k)
        top = mine[rho[mine] >= _cuts(rho[mine], kinds[mine])[kinds[mine]]]
        ranked = sorted(zip(rho[top].tolist(), map(canonical_form, map(rows_graph, rows[top]))),
                        reverse=True)
        rankings[f] = ranked[:2], {cert[0]: cert for _, cert in reversed(ranked)}  # each kind's first
    return classes, certs, rankings


def _exhaustive_case(n: int, f: WeightFunction, rank: str,
                     fs: tuple[WeightFunction, ...]) -> CaseRecord:
    check_order(n)  # _rankings itself runs at any order
    classes, named, rankings = _rankings(n, fs)
    scored, family_best = rankings[f]
    case_id = f"extremal/{rank}/{f.label()}/n={n}"
    inputs = {"n": n, "weight": f.label(), "classes": classes}
    top_rho, top_cert = scored[0]
    gap = top_rho - scored[1][0] if len(scored) > 1 else float("inf")
    if rank == "first":
        clear = gap > RANK_GAP * top_rho
        ok = top_cert == named["G1"] and clear
        note = "" if clear else (
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
    tags = [tag for tag in ("G2", "G3", "G4") if n >= FAMILIES[tag].min_n]
    rho = spectral_radii(graph_rows([FAMILIES[tag].build(n) for tag in tags]), f, n)
    rhos = dict(zip(tags, rho.tolist()))
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
    ok = winner == "G2" and rhos["G2"] - others > RANK_GAP * rhos["G2"]
    return CaseRecord(case_id, inputs, computed, passed=ok,
                      expected={"winner": "G2", "n_threshold": threshold})


# ---------------------------------------------------------------------------
# Randomized transform campaigns
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)  # a kelmans pass reads it hundreds of times
def _pair_ends(n: int) -> np.ndarray:
    """Every pair u < v < n, in lexicographic order, as a read-only intp array (2, C):
    its u row and its v row."""
    ends = np.stack(np.triu_indices(n, 1))
    ends.flags.writeable = False
    return ends


EXTRA_EDGES_MAX = 3  # a kelmans sample adds 0..EXTRA_EDGES_MAX of its tree's non-edges
STACK_BYTES = 1 << 20  # adjacency bytes (samples x n^2) per draw round of verify_kelmans
SKIP_WORDS = 1 << 12  # generator words per getrandbits call when a round rewinds


@lru_cache(maxsize=None)
def _sample_draws(n: int) -> tuple[tuple[int, int], ...]:
    """The draws (bound, bit length) of one kelmans sample of order n after its order, in
    turn: for n > 2 only, n - 2 Pruefer values below n, the Fisher-Yates bounds C..2 of
    the tree's C non-edges and the number of them it adds; then u and v."""
    c = (n - 1) * (n - 2) // 2
    graph = [*[n] * (n - 2), *range(c, 1, -1), min(EXTRA_EDGES_MAX, c) + 1] if n > 2 else []
    return tuple((b, b.bit_length()) for b in graph + [n, n - 1])


def _store(bound: int) -> array:
    """An empty array whose items hold every value below bound."""
    return array(next(t for t in "BHIQ" if bound <= 256 ** array(t).itemsize))


def _draw_values(rng: random.Random, plans: Sequence[tuple[tuple[int, int], ...]],
                 count: int) -> tuple[list[array], np.ndarray, array]:
    """Phase one of a batched draw: `count` samples, each a plan index i below
    len(plans), then a value below each bound of plans[i], in turn, all as
    rng.randrange(bound) draws them, rejections included: getrandbits of the
    bound's bit length, again until below bound.

    Gives per plan the flat store of its samples' values; pick, each sample's plan
    index; and ends, the generator words read up to the end of each sample."""
    bits, picks = rng.getrandbits, len(plans)
    width = picks.bit_length()
    stores = [_store(max(b for b, _ in plan)) for plan in plans]
    pick, ends = _store(picks), array("q")
    # words per sample without rejections
    cost = [sum((k + 31) >> 5 for _, k in ((picks, width), *plan)) for plan in plans]
    read = 0
    for _ in range(count):
        i = bits(width)
        while i >= picks:
            read += (width + 31) >> 5
            i = bits(width)
        values = []
        for b, k in plans[i]:
            r = bits(k)
            while r >= b:
                read += (k + 31) >> 5
                r = bits(k)
            values.append(r)
        stores[i].fromlist(values)
        pick.append(i)
        read += cost[i]
        ends.append(read)
    return stores, np.frombuffer(pick, pick.typecode), ends


def _random_adjacency(store: array, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(adj, u, v) of the kelmans samples of order n >= 2 whose _sample_draws(n) values
    store holds, sample after sample: adj the bool adjacency stack (S, n, n) of their
    graphs, each a uniform random labeled tree (a Pruefer decode) plus a shuffled
    prefix, 0..EXTRA_EDGES_MAX long, of its non-edges; u and v the ends of each reroute.

    The Pruefer decode joins, value x after value x, the smallest leaf to x;
    the shuffle keeps only what its first EXTRA_EDGES_MAX places read."""
    values = np.frombuffer(store, store.typecode).reshape(-1, len(_sample_draws(n)))
    count = len(values)
    adj = np.zeros((count, n, n), bool)
    rows = np.arange(count)
    prufer = values[:, :n - 2].astype(np.intp)
    # a removed vertex's degree is n, so the smallest leaf is the first minimum
    degree = 1 + np.bincount((prufer + n * rows[:, None]).ravel(), minlength=count * n).reshape(count, n)
    for x in prufer.T:
        leaf = degree.argmin(axis=1)
        adj[rows, leaf, x] = adj[rows, x, leaf] = True
        degree[rows, leaf] = n
        degree[rows, x] -= 1
    leaf = degree.argmin(axis=1)  # the last edge joins the two leaves left
    degree[rows, leaf] = n
    last = degree.argmin(axis=1)
    adj[rows, leaf, last] = adj[rows, last, leaf] = True
    c = (n - 1) * (n - 2) // 2
    iu, ju = _pair_ends(n)
    candidates = np.flatnonzero(~adj[:, iu, ju]).reshape(count, c)
    candidates -= len(iu) * rows[:, None]
    for i, j in zip(range(c - 1, 0, -1), values[:, n - 2:].T):  # rng.shuffle(candidates)
        if i < EXTRA_EDGES_MAX:
            candidates[rows, i], candidates[rows, j] = candidates[rows, j], candidates[rows, i]
        else:  # later swaps, and the prefix taken, read places below i only
            candidates[rows, j] = candidates[:, i]
    extra = values[:, n - 3 + c]
    for place in range(min(EXTRA_EDGES_MAX, c)):
        take = extra > place
        pair = candidates[take, place]
        adj[take, iu[pair], ju[pair]] = adj[take, ju[pair], iu[pair]] = True
    u = values[:, -2].astype(np.intp)
    return adj, u, (u + 1 + values[:, -1]) % n


def _skip_words(rng: random.Random, words: int) -> None:
    """Read `words` 32-bit generator words, as getrandbits(32 * w) reads w of them."""
    for start in range(0, words, SKIP_WORDS):
        rng.getrandbits(32 * min(SKIP_WORDS, words - start))


def _packed_rows(adj: np.ndarray) -> np.ndarray:
    """Packed edge rows (S, B) of a bool adjacency stack (S, n, n): bit i, little-endian,
    of row s is set iff pair i of _pair_ends(n) is an edge of graph s."""
    iu, ju = _pair_ends(adj.shape[1])
    return np.packbits(adj[:, iu, ju], axis=1, bitorder="little")


def _reroute_round(rng: random.Random, orders: Sequence[int], count: int, need: int):
    """One round of _reroute_pairs: the class-changing reroutes among `count` samples, up to
    the need-th, as (blocks, disconnected, drawn).  _draw_values draws the samples with the
    words that drawing them one by one reads; then each order's samples are decoded at once
    (_random_adjacency) and decided (reroute_stack).

    rng ends just after the last sample the round keeps: one that draws past the need-th
    change rewinds to the generator state it started from and skips the words read up to it."""
    state = rng.getstate()
    stores, pick, ends = _draw_values(rng, [_sample_draws(n) for n in orders], count)
    hits, kept = np.zeros(count, bool), []
    for i, (n, store) in enumerate(zip(orders, stores)):  # keep only the class-changing samples
        adj, u, v = _random_adjacency(store, n)
        private, changed, isolates = reroute_stack(adj, u, v)
        hits[pick == i] = changed
        take = np.flatnonzero(changed)
        kept.append((changed, adj[take], private[take], u[take], v[take], isolates[take]))
    hits = np.flatnonzero(hits)
    drawn = count if len(hits) < need else int(hits[need - 1]) + 1
    if drawn < count:
        rng.setstate(state)
        _skip_words(rng, ends[drawn - 1])
    blocks, disconnected = [], 0
    counts = np.bincount(pick[:drawn], minlength=len(orders))
    for n, (changed, adj, private, u, v, isolates), k in zip(orders, kept, counts):
        j = np.count_nonzero(changed[:k])  # the changes drawn before the round ends
        before = adj[:j]
        after = move_stack(before, private[:j], u[:j], v[:j])
        blocks.append((n, _packed_rows(after), _packed_rows(before)))
        disconnected += int(isolates[:j].sum())  # the drawn graph is connected
    return blocks, disconnected, drawn


def _reroute_pairs(rng: random.Random, orders: Sequence[int], samples: int):
    """The reroutes of verify_kelmans: (blocks, skipped, disconnected), blocks
    holding (n, packed rows after, packed rows before) of `samples` in all,
    drawn in rounds of _reroute_round.  rng ends as the scalar loop leaves
    it, just after the sample that brings the `samples`-th change.

    The first round draws as many samples as changes are missing, and so
    never past that sample; later ones draw a tenth more, plus 8, than the
    change rate seen so far expects.  Each round holds at most
    STACK_BYTES // max(orders)**2 samples."""
    blocks, found, disconnected, drawn = [], 0, 0, 0
    limit = 1000 * samples  # identity applications don't count
    cap = max(1, STACK_BYTES // max(orders) ** 2)
    while found < samples:
        if drawn >= limit:
            raise RuntimeError("kelmans campaign: too few class-changing samples")
        need = samples - found
        count = need if not found else need * drawn // found * 11 // 10 + 8
        more, isolating, used = _reroute_round(rng, orders, min(count, cap, limit - drawn), need)
        blocks += more
        found += sum(len(after) for _, after, _ in more)
        disconnected += isolating
        drawn += used
    return blocks, drawn - found, disconnected


@lru_cache(maxsize=None)  # at most 30 shapes; common == 0 forces edge_uv
def _pendant_shift_rows(common: int, edge_uv: bool, a: int, b: int):
    """(n, packed rows after and before) of pendant_shift(g, 1, 0, 2 + common), where u = 0
    and v = 1 of g share `common` neighbours, hold b and a <= b pendants and are adjacent
    iff edge_uv: pendant 2 + common moves from v to u."""
    n = 2 + common + a + b
    edges = [(0, 1)] * edge_uv + [(x, c) for c in range(2, 2 + common) for x in (0, 1)]
    before = edge_stack(n, edges + [(0 if c >= n - b else 1, c) for c in range(2 + common, n)])
    after = move_stack(before, (np.arange(n) == 2 + common)[None], np.array([1]), np.array([0]))
    return n, _packed_rows(after), _packed_rows(before)


PENDANT_SHIFT_FRACTION = 0.25  # pendant shifts per class-changing reroute in verify_kelmans
BRACKET_CHUNK = 256  # graphs per bracket call of _certified_deltas; 512 costs 0.3 MB RSS, no time


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, inverse) of packed rows, rows == distinct[inverse]: the rows sorted as
    64-bit words, then compared with their neighbours.  np.unique(rows, axis=0,
    return_inverse=True) takes 2.8 ms where this takes 0.43 ms on 5,000 rows of order 8."""
    words = np.zeros((len(rows), -(-rows.shape[1] // 8)), np.uint64)
    words.view(np.uint8)[:, :rows.shape[1]] = rows
    order = np.lexsort(words.T)
    new = np.concatenate([[True], (words[order[1:]] != words[order[:-1]]).any(axis=1)])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return rows[order[new]], inverse


def _row_edges(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(graph, edges) of packed rows of order n, by graph: edge k, u < v, is of graph graph[k]."""
    graph, pair = np.nonzero(np.unpackbits(rows, axis=1, count=n * (n - 1) // 2, bitorder="little"))
    return graph, _pair_ends(n).T[pair]


def _certified_deltas(blocks: Sequence[tuple[int, np.ndarray, np.ndarray]], f: WeightFunction,
                      slack: float) -> np.ndarray:
    """rho(after) - rho(before) under f of the pairs of blocks (n, packed rows
    after, packed rows before), in block order, where the brackets leave the
    pair open, +inf elsewhere: radius_brackets on each order's distinct
    graphs, BRACKET_CHUNK a call, then spectral_radii on the open pairs'
    graphs, one call per (n, m), ascending.

    A pair's delta lies in [lower, upper] = [lo_a - hi_b, hi_a - lo_b], also
    after rounding, which is monotone.  It is certified when lower > -slack
    and lower > least_hi, the least upper end over all pairs: so it is no
    violation, and the pair with the least delta d is open, as its lower <=
    d <= every pair's delta <= that pair's upper end.  A batched eigh gives
    each matrix the same rho in any batch, so the open deltas are the floats
    that eigensolving every pair gives, bit for bit.
    """
    orders = np.repeat([n for n, _, _ in blocks], [len(after) for _, after, _ in blocks])
    deltas, bracketed, least_hi = np.full(len(orders), np.inf), [], math.inf
    for n in sorted(set(orders.tolist())):
        mine = [block for block in blocks if block[0] == n]
        rows, inverse = _distinct_rows(np.concatenate([b[1] for b in mine] + [b[2] for b in mine]))
        lo, hi = np.empty((2, len(rows)))
        for start in range(0, len(rows), BRACKET_CHUNK):  # one chunk's edges at a time
            chunk = slice(start, start + BRACKET_CHUNK)
            graph, edges = _row_edges(rows[chunk], n)
            lo[chunk], hi[chunk] = radius_brackets(edges + n * graph[:, None], f, n, len(rows[chunk]))
        after, before = inverse.reshape(2, -1)
        least_hi = min(least_hi, (hi[after] - lo[before]).min())
        bracketed.append((np.flatnonzero(orders == n), n, rows, after, before, lo[after] - hi[before]))
    for members, n, rows, after, before, lower in bracketed:
        keep = (lower <= -slack) | (lower <= least_hi)
        solve = np.flatnonzero(np.bincount(np.r_[after[keep], before[keep]], minlength=len(rows)))
        graph, edges = _row_edges(rows[solve], n)
        sizes, rho = np.bincount(graph, minlength=len(solve)), np.zeros(len(rows))
        for m in sorted(set(sizes.tolist())):
            group = sizes == m
            rho[solve[group]] = spectral_radii(edges[group[graph]].reshape(-1, m, 2), f, n)
        deltas[members[keep]] = rho[after[keep]] - rho[before[keep]]
    return deltas


def verify_kelmans(samples: int, n_range: Sequence[int], fs: Sequence[WeightFunction],
                   rng_seed: int) -> VerificationReport:
    """Randomized monotonicity campaign for the two transforms.

    Per weight, `samples` class-changing reroutes of drawn graphs, drawn,
    decided and moved as numpy stacks in rounds of _reroute_round, each
    reading the generator words that drawing its samples one by one reads
    (no certificate, no Graph), then PENDANT_SHIFT_FRACTION * samples
    pendant shifts.  Each pair is checked for rho' > rho - 1e-9
    (_certified_deltas), its graphs packed edge rows (bit i set when the
    i-th vertex pair is an edge) up to the eigensolver: certified brackets
    and one cut over all pairs leave open only the pairs that could fail or
    hold worst_delta, and only their graphs are eigensolved, so the report
    is the one that eigensolving every graph gives, and an eigensolver
    failure names the first order with an open pair.  n_range needs some
    n >= 4.  Weights without P* run informatively: violations are
    recorded, not failed.
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
        blocks, skipped, disconnected = _reroute_pairs(rng, orders, samples)
        shifts = int(samples * PENDANT_SHIFT_FRACTION)
        # a shift always changes the class: d_v <= d_u become d_v - 1 and
        # d_u + 1, so the largest degree of the pair rises
        for _ in range(shifts):
            common = rng.randint(0, 2)
            edge_uv = rng.random() < 0.7 or common == 0
            a = rng.randint(1, 2)  # pendants at v, the smaller bundle
            blocks.append(_pendant_shift_rows(common, edge_uv, a, rng.randint(a, a + 2)))
        deltas = _certified_deltas(blocks, f, slack)
        failing = deltas <= -slack  # a certified pair's +inf never fails
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
    report.runtime_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# Extended-index theorem campaign
# ---------------------------------------------------------------------------


def verify_theorem41(n_range: Sequence[int]) -> VerificationReport:
    """Inequality chain for the extended index on G1/G2 plus the
    degree-(n-2) family bound, over n in [12, 60].

    The nine classes come as edge rows (max_degree_rows), with no Graph,
    and the family record reads only the largest rho of the nine.  One
    radius_brackets call per EIGH_CHUNK // 9 consecutive orders (63 graphs,
    each at the call's largest order with its vertices past n isolated)
    gives class i a certified (lo_i, hi_i); top has the largest lo of its
    order.  One spectral_radii call per order, at n, solves G1,
    G2 and the classes with hi_i >= lo_top, top among them; a class left
    out cannot hold the largest rho: rho_i <= hi_i < lo_top <= rho_top.
    An open class has (-inf, inf), so it is always solved.  A batched eigh
    gives each matrix the same rho in any batch, so max_rho_ex is the float
    that solving all nine gives, bit for bit.
    """
    if min(n_range) < 12 or max(n_range) > 60:
        raise ValueError("verify_theorem41 supports 12 <= n <= 60")
    t0 = time.perf_counter()
    ext = WeightFunction("extended")
    report = VerificationReport("theorem41")
    orders, per_call = list(n_range), EIGH_CHUNK // 9
    for start in range(0, len(orders), per_call):
        call = orders[start:start + per_call]
        top, classes = max(call), [max_degree_rows(n) for n in call]
        e = np.concatenate([union_edges(rows, top) + 9 * j * top for j, rows in enumerate(classes)])
        lo, hi = (b.reshape(len(call), 9) for b in radius_brackets(e, ext, top, 9 * len(call)))
        for n, rows, lo_n, hi_n in zip(call, classes, lo, hi):
            chain = graph_rows([graph_g1(n), graph_g2(n)])
            rho1, rho2, *family = spectral_radii(
                np.concatenate([chain, rows[hi_n >= lo_n.max()]]), ext, n).tolist()
            b1, b2 = (0.5 * (n - 0.9) * math.sqrt(n - shift) for shift in (3.8, 5.0))
            worst = max(family)
            report.cases.append(CaseRecord(
                case_id=f"theorem41/chain/n={n}",
                inputs={"n": n},
                computed={"rho_ex_g1": rho1, "upper_bound": b1, "rho_ex_g2": rho2, "lower_bound": b2},
                expected={"relation": "rho_ex(G1) > b(3.8) > rho_ex(G2) > b(5)"},
                passed=rho1 > b1 > rho2 > b2,
            ))
            report.cases.append(CaseRecord(
                case_id=f"theorem41/max_degree_n2/n={n}",
                inputs={"n": n, "classes": len(rows)},
                computed={"max_rho_ex": worst, "bound": b2},
                expected={"relation": "every degree-(n-2) class below b(5)", "classes_expected": 9},
                passed=worst < b2 and len(rows) == 9,
            ))
            if 12 <= n <= 20:
                t1bound = _table1_bound(n)
                report.cases.append(CaseRecord(
                    case_id=f"theorem41/table1_comparison/n={n}",
                    inputs={"n": n},
                    computed={"bound": t1bound, "rho_ex_g2": rho2},
                    expected={"relation": "bound < rho_ex(G2)"},
                    passed=t1bound < rho2,
                ))
    report.runtime_seconds = time.perf_counter() - t0
    return report
