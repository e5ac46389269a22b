"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

The smoke runs use reduced inputs (--size smoke) and take about half a
minute together.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from speed import REF_KERNEL_S, Probe  # noqa: E402
from tracer import Tracer  # noqa: E402
from verdicts import VerdictCheck, compare, load_reference  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert f"  {m['name']} " in proc.stdout  # the human-readable table
    # the rank-2 n=4 defect is the only failing operation
    assert (result["failed"] > 0) == (workload == "exhaustive")
    if trace:
        assert result["metrics"]["trace.accounted_share"]["value"] > 0.9


def test_reference_covers_every_full_size_operation():
    for workload in ("exhaustive", "exact"):
        ops = workloads.build(workload, "full", seed=1)[1]
        assert {op_id for op_id, _ in ops} == set(load_reference(workload))
    kelmans = workloads.build("kelmans", "full", seed=7)[1]
    assert {op_id for op_id, _ in kelmans} <= set(load_reference("kelmans"))


def test_exits_nonzero_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "exhaustive", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_plus_child_times_equal_durations():
    ticks = iter(range(1000))
    tracer = Tracer("test", clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("a.leaf", lambda: None)
    middle = tracer.wrap("b.middle", lambda: (leaf(), leaf()))
    top = tracer.wrap("c.top", lambda: (middle(), leaf(), middle()))
    top()
    durations, covered, own = tracer.durations(), tracer.child_times(), tracer.self_times()
    assert len(tracer) == 8
    for d, c, s in zip(durations, covered, own):
        assert s + c == d
        assert s > 0
    assert tracer.parent[0] == -1
    assert sum(own) == durations[0]
    totals = tracer.totals()
    assert totals["a.leaf"]["calls"] == 5
    assert sum(row["self_s"] for row in totals.values()) == durations[0]


def test_span_closes_when_the_call_raises():
    tracer = Tracer("test")
    boom = tracer.wrap("x.boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    tracer.wrap("x.after", lambda: None)()
    assert tracer.end[0] >= tracer.start[0]
    assert list(tracer.parent) == [-1, -1]


def test_floats_match_to_relative_tolerance_other_fields_exactly():
    ref = {"rho": 10.0, "winner": "G1", "passed": True, "classes": 9,
           "gap": float("inf"), "rhos": [1.0, 2.0]}
    assert compare(ref, dict(ref, rho=10.0 * (1 + 5e-10))) == []
    assert compare(ref, dict(ref, rho=10.0 * (1 + 5e-9))) != []
    assert compare(ref, dict(ref, classes=10)) != []
    assert compare(ref, dict(ref, passed=1)) != []
    assert compare(ref, dict(ref, winner="G2")) != []
    assert compare(ref, dict(ref, rhos=[1.0])) != []


def _outcome(op_id, error=None, ok=True, text="{}"):
    return {"id": op_id, "ok": ok, "text": None if error else text, "units": 0,
            "error": error, "detail": "at verify.py:1"}


def test_known_defect_fails_the_operation_without_a_mismatch():
    check = VerdictCheck({"op": {"error": "IndexError", "detail": "at verify.py:1"}})
    assert check.check(_outcome("op", error="IndexError", ok=False))
    assert check.mismatches == []
    assert not check.check(_outcome("op"))  # fixed: an ok report is accepted
    assert check.check(_outcome("op", error="KeyError", ok=False))
    assert len(check.mismatches) == 1


def test_unrecorded_operation_must_repeat_its_first_verdict():
    check = VerdictCheck({})
    assert not check.check(_outcome("op", text='{"worst": 0.5}'))
    assert not check.check(_outcome("op", text='{"worst": 0.5}'))
    assert check.check(_outcome("op", text='{"worst": 0.25}'))
    assert check.check(_outcome("other", ok=False))
    assert len(check.mismatches) == 2


def test_probe_rescales_busy_time_by_the_sampled_speed():
    probe = Probe()
    # two ticks, at half and at the reference speed, inside [0, 1)
    probe.at.extend([0.2, 0.6])
    probe.cost.extend([2 * REF_KERNEL_S, REF_KERNEL_S])
    probe.spent.extend([4 * REF_KERNEL_S, 2 * REF_KERNEL_S])
    busy = 1.0 - 6 * REF_KERNEL_S
    assert probe.rescale(0.0, 1.0) == pytest.approx(busy * 0.75)
    assert probe.rescale(1.0, 2.0) == 1.0  # no tick: measured time


def test_probe_ticks_until_the_process_exits():
    probe = Probe()
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(0.3)"])
    assert probe.watch(proc, timeout=30) == 0
    assert len(probe.at) >= 3
    assert all(0 < c < s for c, s in zip(probe.cost, probe.spent))
