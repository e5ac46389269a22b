"""Benchmark of the package's verification campaigns.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (BENCHMARK.json gives why each
was chosen):

  exhaustive  verify_extremal, exhaustive mode, ranks 1 and 2, one call per
              (rank, order) for n = 4..10, weights zagreb1, hyper_zagreb,
              forgotten; deterministic, the seed is recorded and ignored
  kelmans     verify_kelmans, 2000 samples per weight over n = 4..8, same
              weights, seeded from --seed
  exact       for the six rational P* weights and G2, G3, G4 at n = 6..14:
              quotient characteristic polynomial equals the named polynomial
              and its Sturm-isolated largest root equals rho_f; then the sign
              ledger to n = 60, theorem 4.1 over 12..60 and the three
              published tables; deterministic, the seed is ignored

A sample is one pass of the workload in a fresh interpreter (child.py), as a
command-line user pays interpreter start, import and the package's
lru_cache warm-up on every invocation.  Samples run one at a time (a closed
loop with one client), with BLAS pinned to one thread and
BICYCLIC_SPECTRA_THREADS unset.  This process and its samples are pinned to
one CPU.  Samples are taken until --seconds have passed, at least three (two
traced pairs with --trace 1).

wall_s and setup_s are in reference seconds: the measured time rescaled by
the machine's momentary speed, which this process samples every 5 ms while
the sample runs (speed.py); the host this was built on swings by up to 1.6x
within a second.  The measured times are printed beside them as raw_wall_s
and raw_setup_s.  work_per_s is verified units per reference second.

--trace 0 prints the end-to-end metrics: medians over the samples.
--trace 1 alternates untraced and traced samples and prints the per-layer
metrics: medians over the traced samples.  Their times are reference seconds
too: each traced sample's span times are scaled by the ratio of its rescaled
to its measured wall time.  trace.overhead_s is the traced minus the
untraced median wall_s.

Every operation's verdict is checked against reference/ (see verdicts.py).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a fuller record, with provenance, goes to
.perfbench/<workload>-seed<seed>-trace<k>[-smoke].json.  Exit status: 0 when every
verdict matches, 1 on a mismatch or a sample that crashed, 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Probe
from verdicts import VerdictCheck, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("exhaustive", "kelmans", "exact")
MIN_ROUNDS = {0: 3, 1: 2}
STOP_AFTER_S = 150  # never start a round that would end past this
SAMPLE_TIMEOUT_S = 120
THREADS_ENV = "BICYCLIC_SPECTRA_THREADS"
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class SampleError(RuntimeError):
    pass


def child_env() -> dict:
    # bytecode is written once, by the warm-up, as an installed package has it
    env = {k: v for k, v in os.environ.items()
           if k not in (THREADS_ENV, "PYTHONDONTWRITEBYTECODE")}
    env.update(PINNED, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def pin_to_one_cpu() -> int:
    """Pin this process, and so the samples it starts, to one CPU, where the
    probe sees the speed the sample gets."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_sample(workload: str, seed: int, size: str, env: dict,
               spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    probe = Probe()
    # files, not pipes: a pipe could fill while this process only ticks
    with open(OUT_DIR / "sample.out", "w+") as out, open(OUT_DIR / "sample.err", "w+") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err, text=True)
        code = probe.watch(proc, SAMPLE_TIMEOUT_S)
        out.seek(0)
        err.seek(0)
        if code != 0:
            raise SampleError(f"sample exited with {code}:\n{err.read()[-2000:]}")
        sample = json.loads(out.read().splitlines()[-1])
    t_first, t_last = sample["t_first"], sample["t_last"]
    sample["setup_s"] = probe.rescale(t_spawn, t_first)
    sample["raw_setup_s"] = t_first - t_spawn
    sample["wall_s"] = probe.rescale(t_first, t_last)
    sample["raw_wall_s"] = t_last - t_first
    if "layers" in sample:
        scale = sample["wall_s"] / sample["raw_wall_s"]
        sample["layers"] = {name: value * scale if name.endswith("_s") else value
                            for name, value in sample["layers"].items()}
    return sample


def collect(args, env: dict) -> list[dict]:
    """Samples taken until --seconds have passed, each with a `traced` flag."""
    # compile the bytecode once, which a user does not pay per run
    subprocess.run([sys.executable, "-c", "import bicyclic_spectra, layers, speed, tracer, workloads"],
                   cwd=HERE, env=env, check=True, timeout=SAMPLE_TIMEOUT_S)
    samples = []
    t0 = time.monotonic()
    rounds = 0
    while True:
        t_round = time.monotonic()
        samples.append(run_sample(args.workload, args.seed, args.size, env) | {"traced": False})
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-{rounds}.json"
            samples.append(run_sample(args.workload, args.seed, args.size, env, spans)
                           | {"traced": True})
        rounds += 1
        now = time.monotonic()
        expected_end = now - t0 + (now - t_round)
        if rounds >= MIN_ROUNDS[args.trace] and (
                expected_end > args.seconds or expected_end > STOP_AFTER_S):
            return samples


def end_to_end(sample: dict, failed_ops: int) -> dict:
    ops = sample["ops"]
    return {
        "wall_s": sample["wall_s"],
        "setup_s": sample["setup_s"],
        "raw_wall_s": sample["raw_wall_s"],
        "raw_setup_s": sample["raw_setup_s"],
        "work_per_s": sum(op["units"] for op in ops) / sample["wall_s"],
        "peak_rss_mb": sample["peak_rss_mb"],
        "ok_share": (len(ops) - failed_ops) / len(ops),
        "failed_share": failed_ops / len(ops),
    }


def summarize(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "samples": len(values)}


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, first: dict) -> dict:
    return {
        "package_version": first["versions"]["package"],
        "git_revision": git_revision(),
        "python": first["versions"]["python"],
        "numpy": first["versions"]["numpy"],
        "blas": first["versions"]["blas"],
        "lapack": first["versions"]["lapack"],
        "nproc": os.cpu_count(),
        "cpu_pinned": args.cpu,
        "machine": os.uname().machine,
        "workload": args.workload,
        "size": args.size,
        "inputs": first["inputs"],
        "seed": args.seed,
        "seed_used": args.workload == "kelmans",
        THREADS_ENV: os.environ.get(THREADS_ENV),
        "sample_env": dict(PINNED, PYTHONHASHSEED="0",
                           **{THREADS_ENV: None, "PYTHONDONTWRITEBYTECODE": None}),
        "argv": sys.argv,
    }


def print_table(title: str, rows: dict[str, dict], units: dict[str, str]) -> None:
    print(title)
    print(f"  {'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for name, s in rows.items():
        print(f"  {name:34} {units.get(name, ''):6} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {s['samples']:3d}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: reduced inputs for the benchmark's own tests")
    args = ap.parse_args()

    if not (ROOT / "src" / "bicyclic_spectra" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    args.cpu = pin_to_one_cpu()
    try:
        samples = collect(args, child_env())
    except (SampleError, subprocess.SubprocessError) as exc:
        print(f"benchmark sample failed: {exc}", file=sys.stderr)
        return 1

    check = VerdictCheck(load_reference(args.workload))
    attempted = failed = 0
    per_sample = []
    for sample in samples:
        failed_ops = sum(check.check(op) for op in sample["ops"])
        attempted += len(sample["ops"])
        failed += failed_ops
        per_sample.append((sample, end_to_end(sample, failed_ops)))

    plain = [m for s, m in per_sample if not s["traced"]]
    e2e = {name: summarize([m[name] for m in plain]) for name in plain[0]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(failed_share="ratio", raw_wall_s="s", raw_setup_s="s")
    print_table(f"{args.workload}: end to end, untraced samples", e2e, units)
    if args.trace:
        traced = [s for s, _ in per_sample if s["traced"]]
        layer = {name: summarize([s["layers"][name] for s in traced])
                 for name in traced[0]["layers"]}
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        layer["trace.overhead_s"] = summarize([traced_wall - e2e["wall_s"]["median"]])
        print_table(f"{args.workload}: per layer, traced samples", layer, units)
        wanted, summaries = declared["per_layer"], layer
    else:
        wanted, summaries = declared["end_to_end"], e2e

    for defect in sorted(set(check.known_defects.values())):
        print(f"known defect (counted as failed): {defect}")
    for problem in check.mismatches[:20]:
        print(f"VERDICT MISMATCH: {problem}")
    prov = provenance(args, samples[0])
    print("provenance: " + json.dumps(prov))
    correct = not check.mismatches
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"result": result, "provenance": prov, "end_to_end": e2e,
              "per_layer": summaries if args.trace else None,
              "known_defects": check.known_defects, "mismatches": check.mismatches,
              "samples": [{"traced": s["traced"], **m} for s, m in per_sample]}
    suffix = "-smoke" if args.size == "smoke" else ""
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
