"""The benchmark's three workloads, split into operations.

Every operation is one campaign call (or, on `exact`, one family check) as a
user of the package would make it.  An operation returns (ok, text, units):
the verdict as the JSON text a user would read, and the number of verified
units it produced, which `work_per_s` counts.  Calls go through module
attributes so that the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import math

from bicyclic_spectra import graphs, polynomials, quotient, spectral, verify, weights

WEIGHTS = ("zagreb1", "hyper_zagreb", "forgotten")

SIZES = {
    "exhaustive": {
        "full": {"orders": [4, 10], "ranks": ["first", "second"], "weights": WEIGHTS},
        "smoke": {"orders": [4, 7], "ranks": ["first", "second"], "weights": WEIGHTS},
    },
    "kelmans": {
        "full": {"samples": 2000, "orders": [4, 8], "weights": WEIGHTS},
        "smoke": {"samples": 100, "orders": [4, 8], "weights": WEIGHTS},
    },
    "exact": {
        "full": {"orders": [6, 14], "ledger_n_max": 60, "theorem41": [12, 60]},
        "smoke": {"orders": [6, 7], "ledger_n_max": 20, "theorem41": [12, 14]},
    },
}

TABLES = ("appendix_n6", "appendix_n7", "extended_table1")

# family tag -> (builder, polynomial equal to the char. poly of its quotient)
FAMILY_POLY = {
    "G2": (graphs.graph_g2, "phi1"),
    "G3": (graphs.graph_g3, "phi3"),
    "G4": (graphs.graph_g4, "phi2_prime"),
}

ROOT_TOL = 1e-9


def _orders(spec: dict) -> range:
    lo, hi = spec["orders"]
    return range(lo, hi + 1)


def _campaign(call, units=lambda report: 0):
    """Operation running a campaign that returns a VerificationReport."""
    def op():
        report = call()
        return report.ok, report.to_json(), units(report)
    return op


def _scorings(report) -> int:
    # one unit per (class, weight, rank) scoring
    return sum(c.inputs.get("classes", 0) for c in report.cases)


def _transform_checks(report) -> int:
    # one unit per checked reroute or pendant shift
    return sum(c.inputs["samples"] + c.inputs["pendant_shifts"] for c in report.cases)


def exhaustive(spec: dict, seed: int) -> list:
    fs = [weights.parse_weight(w) for w in spec["weights"]]
    return [(f"extremal/{rank}/n={n}",
             _campaign(lambda n=n, rank=rank: verify.verify_extremal(
                 [n], fs, rank=rank, mode="exhaustive"), _scorings))
            for rank in spec["ranks"] for n in _orders(spec)]


def kelmans(spec: dict, seed: int) -> list:
    lo, hi = spec["orders"]
    ops = []
    for label in spec["weights"]:
        f = weights.parse_weight(label)
        ops.append((f"kelmans/seed={seed}/{label}/samples={spec['samples']}/n={lo}..{hi}",
                    _campaign(lambda f=f: verify.verify_kelmans(
                        spec["samples"], _orders(spec), [f], rng_seed=seed), _transform_checks)))
    return ops


def _family_op(tag: str, n: int, f):
    builder, poly_name = FAMILY_POLY[tag]

    def op():
        p = polynomials.char_poly(quotient.family_quotient(tag, n, f).b)
        identity = p == quotient.named_polynomial(poly_name, n, f)
        root = polynomials.max_real_root(p)
        rho = spectral.rho_f(builder(n), f)
        ok = identity and math.isclose(root, rho, rel_tol=ROOT_TOL, abs_tol=ROOT_TOL)
        text = json.dumps({"identity": identity, "degree": p.degree, "root": root, "rho": rho})
        # one identity plus one isolated root
        return ok, text, 2

    return op


def exact(spec: dict, seed: int) -> list:
    ops = []
    for f in weights.rational_pstar_functions():
        for tag in FAMILY_POLY:
            for n in _orders(spec):
                ops.append((f"quotient/{f.label()}/{tag}/n={n}", _family_op(tag, n, f)))

    n_max = spec["ledger_n_max"]

    def ledger():
        records = quotient.evaluate_sign_ledger(weights.rational_pstar_functions(), n_max=n_max)
        return all(r["holds"] for r in records), json.dumps(records), len(records)

    ops.append((f"ledger/n_max={n_max}", ledger))
    lo, hi = spec["theorem41"]
    ops.append((f"theorem41/n={lo}..{hi}",
                _campaign(lambda: verify.verify_theorem41(range(lo, hi + 1)))))
    ops += [(f"tables/{table}", _campaign(lambda table=table: verify.run_table(table)))
            for table in TABLES]
    return ops


BUILDERS = {"exhaustive": exhaustive, "kelmans": kelmans, "exact": exact}


def build(workload: str, size: str, seed: int) -> tuple[dict, list]:
    """(inputs, operations) for one pass of a workload."""
    spec = SIZES[workload][size]
    return spec, BUILDERS[workload](spec, seed)
