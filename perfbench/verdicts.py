"""Verdict check: every operation against the committed reference.

Reference files live in `reference/<workload>.json` and map an operation id
to the verdict recorded at the baseline commit, or to the exception type of
a known defect.  Non-float fields must match exactly; floats must agree to
1e-9 relative (1e-12 absolute near zero), so that a change which only moves
the last bits of an eigenvalue is not a false failure.  An operation without
a reference entry (a `kelmans` seed that was not recorded, or a reduced
size) must report ok and give the same verdict in every sample of the run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["ops"]


def normalize(text: str):
    """Parsed verdict without the report's own timing field."""
    verdict = json.loads(text)
    if isinstance(verdict, dict) and isinstance(verdict.get("summary"), dict):
        verdict["summary"].pop("runtime_seconds", None)
    return verdict


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between two verdicts, one line each."""
    if isinstance(expected, float) or isinstance(actual, float):
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (expected, actual))
        if numbers and math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {expected!r} != {actual!r}"]
    if type(expected) is not type(actual):
        return [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{path}/{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


class VerdictCheck:
    """Checks the operations of every sample of one benchmark run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.first: dict[str, object] = {}  # op id -> verdict of the first sample
        self.mismatches: list[str] = []
        self.known_defects: dict[str, str] = {}

    def check(self, outcome: dict) -> bool:
        """True when the operation counts as failed."""
        op_id = outcome["id"]
        ref = self.reference.get(op_id)
        if outcome["error"] is not None:
            if ref is not None and ref.get("error") == outcome["error"]:
                self.known_defects[op_id] = f"{outcome['error']}: {outcome['detail']}"
            else:
                self.mismatches.append(f"{op_id}: raised {outcome['error']}: {outcome['detail']}")
            return True
        if not outcome["ok"]:
            self.mismatches.append(f"{op_id}: report is not ok")
            return True
        verdict = normalize(outcome["text"])
        if ref is not None and ref.get("error") is None:
            diffs = compare(ref["verdict"], verdict)
            reason = "differs from the reference"
        elif ref is None:
            diffs = compare(self.first.setdefault(op_id, verdict), verdict)
            reason = "differs from the first sample of this run"
        else:  # the known defect is fixed: an ok report is accepted
            diffs = []
        if diffs:
            self.mismatches.append(f"{op_id}: {reason}: {diffs[0]}"
                                   + (f" (+{len(diffs) - 1} more)" if len(diffs) > 1 else ""))
            return True
        return False
