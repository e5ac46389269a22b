"""Command-line entry points for the verification campaigns.

Subcommands mirror the campaign API: `tables`, `extremal`, `kelmans`,
`theorem41`, `enumerate`, `spectral`.  Reports are printed as JSON (optionally
written to files, with CSV alongside).

Exit codes: 0 when every asserted case passed, 1 when an asserted case
failed, 2 when the input is outside the supported domain (a bad argument, an
order beyond a bound or too large to hold in memory, a malformed weight or one
beyond float range, an output path that cannot be written; one line,
`bicyclic-spectra: error: <message>`, on stderr); 141 when the reader closed
stdout (`... | head -1`), quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .enumeration import canonical_form, enumerate_bicyclic
from .graphs import (FAMILIES, Graph, graph6_decode, graph6_encode, make_infinity, make_theta,
                     rows_graph)
from .spectral import SpectralError, build_matrix, full_spectrum, spectral_radius
from .verify import VerificationReport, run_table, verify_extremal, verify_kelmans, verify_theorem41
from .weights import _PARAMETERS, parse_weight


def _parse_range(text: str) -> list[int]:
    """'6..9' or '7' -> list of integers."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _parse_weights(text: str):
    """Comma-separated weight specs; a comma inside parentheses or before a
    parameter (`a=`, `b=`, `alpha=`, `beta=`) stays within its spec."""
    specs, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        key, eq, _ = text[i + 1:].partition("=")
        if ch == "," and not depth and not (eq and key.strip().lower() in _PARAMETERS):
            specs.append(text[start:i])
            start = i + 1
    try:
        fs = [parse_weight(tok) for tok in specs + [text[start:]] if tok.strip()]
    except ValueError as exc:  # WeightSpecError: the spec's reason
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not fs:  # a campaign over no weight would check nothing and pass
        raise argparse.ArgumentTypeError("no weight given")
    twice = [f.label() for i, f in enumerate(fs) if f.label() in [g.label() for g in fs[:i]]]
    if twice:  # a repeated weight would run its campaign twice
        raise argparse.ArgumentTypeError(f"weight {twice[0]!r} given twice")
    return fs


def parse_graph_argument(text: str) -> Graph:
    """Named graphs ('G1:10', 'B:3,1,3', 'P:2,1,2') or a raw graph6 string."""
    head, _, rest = text.partition(":")
    try:
        if head in FAMILIES:
            return FAMILIES[head].build(int(rest))
        if head in ("B", "infinity", "P", "theta"):
            p, l, q = (int(x) for x in rest.split(","))
            return (make_infinity if head in ("B", "infinity") else make_theta)(p, l, q)
        return graph6_decode(text)
    except ValueError as exc:  # GraphError included: the builder's or decoder's reason
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc


def _emit(report: VerificationReport, args) -> int:
    payload = report.to_json()
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(payload + "\n")
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(report.to_csv())
    print(payload)
    return 0 if report.ok else 1


def _dumps_key(payload: dict) -> str:
    """json.dumps(payload, indent=2) with Python's int-to-string digit limit
    (3.10.7 and later) lifted while it runs: a class key's shape code, an int
    of about 2n bits, passes the default 4,300 digits by n = 7,300."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return json.dumps(payload, indent=2)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(payload, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


def _fail(message) -> int:
    print(f"bicyclic-spectra: error: {message}", file=sys.stderr)
    return 2


class _Parser(argparse.ArgumentParser):
    """Argument errors print the one documented line, without usage."""

    def error(self, message):
        sys.exit(_fail(message))


def main(argv=None) -> int:
    ap = _Parser(prog="bicyclic-spectra", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_outputs(p):
        p.add_argument("--json", dest="json_out", default=None, help="write JSON report here")
        p.add_argument("--csv", dest="csv_out", default=None, help="write CSV report here")

    p_tables = sub.add_parser("tables", help="recompute a published table")
    p_tables.add_argument("table", choices=["appendix_n6", "appendix_n7", "extended_table1"])
    add_outputs(p_tables)

    p_ext = sub.add_parser("extremal", help="extremal-graph campaigns")
    p_ext.add_argument("--n", required=True, type=_parse_range, help="order range A..B")
    p_ext.add_argument("--f", required=True, type=_parse_weights,
                       help="comma-separated weight specs, e.g. zagreb1,forgotten")
    p_ext.add_argument("--rank", choices=["1", "2"], default="1")
    p_ext.add_argument("--mode", choices=["exhaustive", "candidate"], default="exhaustive")
    add_outputs(p_ext)

    p_kel = sub.add_parser("kelmans", help="randomized monotonicity campaign")
    p_kel.add_argument("--samples", type=int, required=True)
    p_kel.add_argument("--seed", type=int, required=True)
    p_kel.add_argument("--f", required=True, type=_parse_weights)
    p_kel.add_argument("--n", type=_parse_range, default=list(range(4, 9)))
    add_outputs(p_kel)

    p_t41 = sub.add_parser("theorem41", help="extended-index inequality chain")
    p_t41.add_argument("--n", required=True, type=_parse_range)
    add_outputs(p_t41)

    p_enum = sub.add_parser("enumerate", help="bicyclic classes at one order")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--max-degree", type=int, default=None)
    p_enum.add_argument("--graph6", action="store_true",
                        help="stream one graph6 line per class before the summary")

    p_spec = sub.add_parser("spectral", help="spectral radius of A_f(G)")
    p_spec.add_argument("--graph", type=parse_graph_argument, required=True)
    p_spec.add_argument("--f", required=True)
    p_spec.add_argument("--full-spectrum", action="store_true")

    args = ap.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left (`... | head -1`): end quietly, and
        with open(os.devnull, "w") as devnull:  # keep the flush at exit quiet too
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a writer stopped by a closed pipe
    # OSError: an unwritable --json or --csv path; SpectralError: a matrix LAPACK cannot take
    except (ValueError, OSError, SpectralError) as exc:
        return _fail(exc)
    except MemoryError as exc:  # an order too large to hold its matrix
        return _fail(str(exc) or "out of memory")


def _run(args) -> int:
    if args.command == "tables":
        return _emit(run_table(args.table), args)
    if args.command == "extremal":
        rank = "first" if args.rank == "1" else "second"
        return _emit(verify_extremal(args.n, args.f, rank=rank, mode=args.mode), args)
    if args.command == "kelmans":
        return _emit(verify_kelmans(args.samples, args.n, args.f, rng_seed=args.seed), args)
    if args.command == "theorem41":
        return _emit(verify_theorem41(args.n), args)
    if args.command == "enumerate":
        method, chunks = enumerate_bicyclic(args.n, args.max_degree)
        count = 0
        for rows in chunks:
            count += len(rows)
            if args.graph6:
                for r in rows:
                    print(graph6_encode(rows_graph(r)))
        print(json.dumps({"n": args.n, "method": method, "count": count}))
        return 0
    if args.command == "spectral":
        f = parse_weight(args.f)
        m = build_matrix(args.graph, f)
        res = spectral_radius(m)
        payload = {
            "graph6": graph6_encode(args.graph),
            "n": args.graph.n,
            "m": args.graph.m,
            "weight": f.label(),
            "rho": res.rho,
            "residual": res.residual,
            "perron": [float(x) for x in res.perron],
            "certificate": list(canonical_form(args.graph)) if args.graph.is_bicyclic() else None,
        }
        if args.full_spectrum:
            payload["spectrum"] = [float(x) for x in full_spectrum(m)]
        print(_dumps_key(payload))
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
