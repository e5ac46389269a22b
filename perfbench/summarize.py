"""Summarize sets of benchmark runs: medians, spreads and the bounds they call for.

    python3 perfbench/summarize.py .perfbench/set1 .perfbench/set2 [--baseline perfbench/baseline.json]

Each directory holds one set of run records, as run.py leaves them in
.perfbench/ (one per workload, seed and trace flag; move them into a
directory of their own after each set).  For each workload and end-to-end
metric it prints, per set, the median of the run values and the spread
(q3 - q1) as a share of the median; with two sets, also the shift of the
second median from the first, in the metric's worse direction.  BOUND_RULE
turns these into the bound each metric calls for, printed beside the bound
BENCHMARK.json declares.  With --baseline it writes both sets, the per-layer
figures of the traced runs and the provenance of the first run to the given
file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BOUND_RULE = ("the largest of 3 x the widest spread seen in any set and workload and "
              "2 x the largest worsening between the two sets, rounded up to a multiple "
              "of 0.01, at least 0.01 and at most 0.25; setup_s takes the largest "
              "allowed bound, 0.25")

NOTES = {
    "known_defect": "extremal --rank 2 --mode exhaustive with n=4 in range raises IndexError "
                    "at verify.py:358 (_exhaustive_case reads scored[1]; n=4 has one class). "
                    "It is 1 failed operation of 14 per exhaustive sample, so ok_share reads "
                    "13/14 and failed_share 1/14 until it is fixed.",
    "failed_share": "An end-to-end metric must not read 0 (its spread is taken relative "
                    "to its median), so the JSON result carries ok_share = 1 - failed_share; "
                    "failed_share is printed in the human-readable table and equals failed / "
                    "attempted in the result line.",
    "deferred_headline": "ROADMAP's headline, the largest n at which exhaustive verification "
                         "finishes within a budget, cannot be measured while enumerate_bicyclic "
                         "is capped at n=10 by a hard-coded bound; it arrives with ROADMAP "
                         "item 3.",
    "bounds": BOUND_RULE,
}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def records(run_dir: Path, workload: str, trace: int) -> list[dict]:
    """Full-size result records of one workload, in seed order."""
    paths = run_dir.glob(f"{workload}-seed*-trace{trace}.json")
    return sorted((json.loads(p.read_text()) for p in paths),
                  key=lambda r: r["provenance"]["seed"])


def worsening(metric: dict, first: float, second: float) -> float:
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def derived_bound(metric: dict, spreads: list[float], shifts: list[float]) -> float:
    if metric["name"] == "setup_s":
        return 0.25
    need = max([3 * s for s in spreads] + [2 * max(s, 0.0) for s in shifts])
    return min(0.25, max(0.01, math.ceil(round(need * 100, 9)) / 100))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("sets", nargs="+", type=Path, help="one directory of run records per set")
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = {"run_seconds": declared["run_seconds"], "notes": NOTES, "workloads": {}}
    spreads = {m["name"]: [] for m in declared["end_to_end"]}
    shifts = {m["name"]: [] for m in declared["end_to_end"]}
    for w in declared["workloads"]:
        sets = [records(d, w["name"], 0) for d in args.sets]
        if any(len(runs) < 2 for runs in sets):
            continue
        baseline.setdefault("provenance", sets[0][0]["provenance"])
        entry = {"why": w["why"], "sets": [], "per_layer": {}}
        print(f"{w['name']}: {' + '.join(str(len(runs)) for runs in sets)} runs")
        for runs in sets:
            entry["sets"].append({
                "seeds": [r["provenance"]["seed"] for r in runs],
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "failed": sum(r["result"]["failed"] for r in runs),
                "end_to_end": {}})
        for m in declared["end_to_end"]:
            name = m["name"]
            line = f"  {name:12} {m['unit']:6}"
            medians = []
            for runs, out in zip(sets, entry["sets"]):
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                s = spread(values)
                out["end_to_end"][name] = {"unit": m["unit"], **s, "values": values}
                spreads[name].append(s["spread"])
                medians.append(s["median"])
                line += f"  median {s['median']:.6g} spread {s['spread']:.4f}"
            if len(medians) == 2:
                shifts[name].append(worsening(m, *medians))
                line += f"  worsening {shifts[name][-1]:+.4f}"
            print(line)
        traced = records(args.sets[0], w["name"], 1)
        for m in declared["per_layer"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in traced]
            if values:
                entry["per_layer"][m["name"]] = {"unit": m["unit"],
                                                 "median": statistics.median(values),
                                                 "runs": len(values)}
        baseline["workloads"][w["name"]] = entry
    print(f"bounds ({BOUND_RULE}):")
    for m in declared["end_to_end"]:
        name = m["name"]
        if spreads[name]:
            print(f"  {name:12} derived {derived_bound(m, spreads[name], shifts[name]):.2f}"
                  f"  declared {m['bound']}")
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
