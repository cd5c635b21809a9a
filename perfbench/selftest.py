"""Self-test of the benchmark's own checks, on D2 q=3 (a few seconds).

    python3 perfbench/selftest.py

1. Negative controls: a command given the wrong expected verdict must count
   as one wrong verdict, and a command whose golden digest is wrong must
   count as one output mismatch; with true expectations both read 0.
2. The metric names and units a run prints match BENCHMARK.json, for
   `--trace 0` (end-to-end) and `--trace 1` (per-layer).
3. Without the package sources next to it, run.py exits non-zero and
   prints no result.
4. Pace arithmetic: with every probe at twice the reference time, a span's
   reference time is half its wall time, and the wall time leaves out the
   probes inside the span.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pace
import run
import workloads

D2 = workloads.CONTROL_Q3


def d2_workload(expect_honest_to_fail=False):
    honest = workloads.verify(D2, 2)
    if expect_honest_to_fail:
        honest = dataclasses.replace(honest, verdict="fail")
    control = workloads.verify(D2, 2, "utheory", "class")
    return workloads.Workload("selftest-d2", (honest, control), 2), control


def declared(section):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc[section]}


def printed(result):
    obj = json.loads(json.dumps(run.result_object(result)))
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}, obj.keys()
    return obj, {name: m["unit"] for name, m in obj["metrics"].items()}


def check_counts(result, passes, wrong, mismatched):
    assert result["attempted"] == 2 * passes, result
    assert result["wrong_verdicts"] == wrong * passes, result
    assert result["output_mismatches"] == mismatched * passes, result


def check_pace():
    probe_s = 2 * pace.REF_PROBE_S
    p = pace.Pace()
    p.probes = [(float(i), probe_s) for i in range(10)]
    wall = p.wall_seconds(0.5, 5.5)              # probes at 1..5 lie inside
    assert abs(wall - (5.0 - 5 * probe_s)) < 1e-12, wall
    ref = p.reference_seconds(0.5, 5.5)
    assert abs(ref - wall / 2) < 1e-12, (ref, wall)


def main():
    check_pace()
    print("ok: probes at twice the reference time halve a span's reference time")
    golden = run.load_golden()
    honest, control = d2_workload()

    result = run.measure(honest, 0, 0, golden)
    check_counts(result, 1, 0, 0)
    obj, units = printed(result)
    assert obj["correct"] and obj["failed"] == 0, obj
    assert units == declared("end_to_end"), (units, declared("end_to_end"))
    print("ok: true expectations give 0 wrong verdicts and 0 output mismatches")
    print("ok: --trace 0 prints exactly the end_to_end metrics of BENCHMARK.json")

    bad_golden = dict(golden)
    bad_golden[control.key] = "0" * 64
    wrong, _ = d2_workload(expect_honest_to_fail=True)
    for trace in (0, 1):
        result = run.measure(wrong, 0, trace, bad_golden)
        passes = 2 if trace else 1
        check_counts(result, passes, 1, 1)
        obj, units = printed(result)
        assert not obj["correct"] and obj["failed"] == 2 * passes, obj
        if trace:
            assert units == declared("per_layer"), set(units) ^ set(declared("per_layer"))
    print("ok: a wrong verdict reads wrong_verdicts 1, a wrong digest output_mismatches 1")
    print("ok: --trace 1 prints exactly the per_layer metrics of BENCHMARK.json")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, str(bare / run.HERE.name / "run.py"),
                           "--workload", "ladder-q3", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=str(bare), capture_output=True, text=True,
                          timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok: without the sources run.py exits %d and prints no result" % proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
