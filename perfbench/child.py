"""One pass of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload kelmans --seed 1 --size full [--spans FILE]

Prints one JSON line: when the first campaign call started and the last one
ended (time.monotonic, which the parent compares with the moment it started
this process and with its speed probe, see speed.py), each operation's
outcome, peak RSS and library versions.  With --spans the pass is traced:
the per-layer figures, in measured seconds, are added and the spans written
to FILE.
"""

import argparse
import json
import platform
import resource
import sys
import time
import traceback


def versions() -> dict:
    import numpy as np

    import bicyclic_spectra

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})

    def library(kind):  # name and configuration, not the build paths
        info = deps.get(kind) or {}
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "package": bicyclic_spectra.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": library("blas"),
        "lapack": library("lapack"),
    }


def run_ops(ops: list) -> list[dict]:
    outcomes = []
    for op_id, op in ops:
        try:
            ok, text, units = op()
        except Exception as exc:  # a failing campaign is a counted outcome
            where = traceback.extract_tb(exc.__traceback__)[-1]
            outcomes.append({"id": op_id, "ok": False, "text": None, "units": 0,
                             "error": type(exc).__name__,
                             "detail": f"{exc} at {where.filename.rsplit('/', 1)[-1]}:{where.lineno}"})
        else:
            outcomes.append({"id": op_id, "ok": bool(ok), "text": text, "units": units,
                             "error": None})
    return outcomes


def main() -> None:
    import workloads  # imports the package: most of set-up

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=["full", "smoke"])
    ap.add_argument("--spans")
    args = ap.parse_args()
    inputs, ops = workloads.build(args.workload, args.size, args.seed)
    run = run_ops
    if args.spans:
        import layers
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}/seed={args.seed}/{time.time_ns()}")
        probes = layers.install(tracer)
        run = tracer.wrap("bench.run", run_ops)
        cache_before = layers.canonical_cache()
    t_first = time.monotonic()
    outcomes = run(ops)
    t_last = time.monotonic()
    out = {
        "t_first": t_first,
        "t_last": t_last,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": inputs,
        "ops": outcomes,
        "versions": versions(),
    }
    if args.spans:
        calls, hits = (a - b for a, b in zip(layers.canonical_cache(), cache_before))
        out["layers"] = layers.layer_metrics(tracer, probes, t_last - t_first, calls, hits)
        tracer.dump(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
