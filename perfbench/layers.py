"""Trace boundaries of the package's modules and the per-layer figures.

`install` replaces module attributes with span-recording wrappers; the
package itself is not edited.  A span's name is `<layer>.<boundary>`, and
its layer is the package module that does the work (`bench` is the
benchmark's own glue between campaign calls).
"""

from __future__ import annotations

from bicyclic_spectra import enumeration, polynomials, quotient, spectral, transforms, verify

LAYERS = ("graphs", "weights", "spectral", "transforms", "enumeration",
          "polynomials", "quotient", "verify")


class Probes:
    """Counts observed at the boundaries, beside the spans."""

    def __init__(self):
        self.generated_orders: set[int] = set()
        self.classes = 0
        self.generate_canon_calls = 0
        self.worst_residual = 0.0
        self.evaluate_args: set = set()
        self.kelmans_changed = 0


def canonical_cache() -> tuple[int, int]:
    """(calls, hits) of canonical_form so far, from its lru_cache counters."""
    info = enumeration.canonical_form.cache_info()
    return info.hits + info.misses, info.hits


def install(tracer) -> Probes:
    probes = Probes()
    wrap = tracer.wrap

    enumerate_bicyclic = verify.enumerate_bicyclic

    def generate(n, *args, **kwargs):
        before = canonical_cache()[0]
        rep = enumerate_bicyclic(n, *args, **kwargs)
        probes.generate_canon_calls += canonical_cache()[0] - before
        # the first call per order generates; later ones hit the package's
        # own enumeration cache
        if n not in probes.generated_orders:
            probes.generated_orders.add(n)
            probes.classes += rep.count
        return rep

    def residual(args, result):
        probes.worst_residual = max(probes.worst_residual, result.residual)

    def evaluated(args, result):
        probes.evaluate_args.add(args[:3])

    def changed(args, result):
        probes.kelmans_changed += result.changed

    canonical = wrap("enumeration.canonical", enumeration.canonical_form)
    rho_f = wrap("spectral.rho_f", spectral.rho_f)
    campaign = "verify.campaign"
    patches = [
        (verify, "verify_extremal", wrap(campaign, verify.verify_extremal)),
        (verify, "verify_kelmans", wrap(campaign, verify.verify_kelmans)),
        (verify, "verify_theorem41", wrap(campaign, verify.verify_theorem41)),
        (verify, "run_table", wrap(campaign, verify.run_table)),
        (verify.VerificationReport, "to_json",
         wrap("verify.report_json", verify.VerificationReport.to_json)),
        (verify, "enumerate_bicyclic", wrap("enumeration.generate", generate)),
        (verify, "targeted_max_degree_family",
         wrap("enumeration.targeted", verify.targeted_max_degree_family)),
        (verify, "canonical_form", canonical),
        (transforms, "canonical_form", canonical),
        (verify, "base_graph", wrap("graphs.base_graph", verify.base_graph)),
        (verify, "rho_f", rho_f),
        (spectral, "rho_f", rho_f),
        (spectral, "build_matrix", wrap("spectral.build_matrix", spectral.build_matrix)),
        (spectral, "spectral_radius",
         wrap("spectral.eigensolve", spectral.spectral_radius, residual)),
        (spectral, "evaluate", wrap("weights.evaluate", spectral.evaluate, evaluated)),
        (verify, "check_pstar", wrap("weights.check_pstar", verify.check_pstar)),
        (verify, "kelmans", wrap("transforms.kelmans", verify.kelmans, changed)),
        (verify, "pendant_shift", wrap("transforms.pendant_shift", verify.pendant_shift)),
        (polynomials, "char_poly", wrap("polynomials.char_poly", polynomials.char_poly)),
        (polynomials, "max_real_root",
         wrap("polynomials.root_isolation", polynomials.max_real_root)),
        (quotient, "sign_at_sqrt", wrap("polynomials.sign_at_sqrt", quotient.sign_at_sqrt)),
        (quotient, "family_quotient", wrap("quotient.quotient", quotient.family_quotient)),
        (quotient, "named_polynomial",
         wrap("quotient.named_polynomial", quotient.named_polynomial)),
        (quotient, "evaluate_sign_ledger", wrap("quotient.ledger", quotient.evaluate_sign_ledger)),
    ]
    for owner, attr, fn in patches:
        setattr(owner, attr, fn)
    return probes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, probes: Probes, wall_s: float,
                  pass_canon_calls: int, pass_canon_hits: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed as in BENCHMARK.json;
    the pass_canon_* counts are canonical_cache() deltas over the pass."""
    totals = tracer.totals()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    self_s = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, row in totals.items():
        self_s[name.split(".", 1)[0]] += row["self_s"]
    classes, canon = probes.classes, probes.generate_canon_calls
    out = {
        "enumeration.generate_s": total("enumeration.generate"),
        "enumeration.classes": classes,
        "enumeration.canon_calls": canon,
        # no canonical call while generating means no wasted certificates
        "enumeration.useful_ratio": _ratio(classes, canon) if canon else float(classes > 0),
        "enumeration.canon_hit_ratio": _ratio(pass_canon_hits, pass_canon_calls),
        "enumeration.canonical_s": total("enumeration.canonical"),
        "spectral.build_s": total("spectral.build_matrix"),
        "spectral.build_calls": calls("spectral.build_matrix"),
        "spectral.eigensolve_s": total("spectral.eigensolve"),
        "spectral.eigensolves": calls("spectral.eigensolve"),
        "spectral.worst_residual": probes.worst_residual,
        "weights.evaluate_calls": calls("weights.evaluate"),
        "weights.evaluate_s": total("weights.evaluate"),
        "weights.evaluate_repeat_ratio": _ratio(calls("weights.evaluate"),
                                                len(probes.evaluate_args)),
        "weights.check_pstar_s": total("weights.check_pstar"),
        "graphs.base_graph_s": total("graphs.base_graph"),
        "graphs.base_graph_calls": calls("graphs.base_graph"),
        "transforms.kelmans_s": total("transforms.kelmans"),
        "transforms.kelmans_calls": calls("transforms.kelmans"),
        "transforms.changed_ratio": _ratio(probes.kelmans_changed, calls("transforms.kelmans")),
        "transforms.pendant_shift_s": total("transforms.pendant_shift"),
        "polynomials.char_poly_s": total("polynomials.char_poly"),
        "polynomials.char_poly_calls": calls("polynomials.char_poly"),
        "polynomials.root_isolation_s": total("polynomials.root_isolation"),
        "polynomials.root_isolation_calls": calls("polynomials.root_isolation"),
        "polynomials.sign_at_sqrt_s": total("polynomials.sign_at_sqrt"),
        "polynomials.sign_at_sqrt_calls": calls("polynomials.sign_at_sqrt"),
        "quotient.quotient_s": total("quotient.quotient"),
        "quotient.named_polynomial_s": total("quotient.named_polynomial"),
        "quotient.ledger_s": total("quotient.ledger"),
        "verify.report_json_s": total("verify.report_json"),
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer),
        "trace.accounted_share": _ratio(sum(self_s[layer] for layer in LAYERS), wall_s),
    }
    out.update({f"{layer}.self_s": s for layer, s in self_s.items()})
    return out
