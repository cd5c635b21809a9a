"""The parasuper benchmark: end-to-end metrics per workload, or a layer trace.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is taken from its
`src/`.  Each pass runs in a fresh worker process that calls
`parasuper.cli.main` once per command.  End-to-end times are taken at the
reference speed of pace.py.  The last line of stdout is one JSON object:
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 5
DEADLINE_S = 170.0          # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot run or a worker died; no result is printed."""


def worker(mode, spec, deadline):
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    budget = deadline - perf_counter()
    if budget <= 1:
        raise BenchError("out of time before a %s worker could start" % mode)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, json.dumps(spec)],
            cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker exceeded the %.0f s run deadline" % (mode, DEADLINE_S))
    if proc.returncode != 0:
        raise BenchError("%s worker exited %d:\n%s" % (mode, proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wrong_verdict(command, result):
    """True when a command's exit code or report disagrees with its verdict."""
    if result["error"] is not None:
        return True
    if command.verdict == "pass":
        return result["rc"] != 0 or result["passed"] is False
    return result["rc"] != 1 or result["passed"] is not False or not result["counterexamples"]


def score(workload, passes, golden):
    """Count wrong verdicts and output mismatches over every pass."""
    wrong = mismatched = failed = attempted = 0
    problems = []
    for run in passes:
        for command, result in zip(workload.commands, run["commands"]):
            attempted += 1
            bad_verdict = wrong_verdict(command, result)
            bad_output = golden.get(command.key) != result["digest"]
            wrong += bad_verdict
            mismatched += bad_output
            failed += bad_verdict or bad_output
            if bad_verdict or bad_output:
                problems.append("%s: exit %s%s%s" % (
                    command.key, result["rc"], " (%s)" % result["error"] if result["error"] else "",
                    ", output digest differs from golden" if bad_output else ""))
    return {"attempted": attempted, "failed": failed, "wrong_verdicts": wrong,
            "output_mismatches": mismatched, "problems": problems}


def tail_percentile(samples):
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99):
        if len(samples) * (100 - p) / 100 >= 10:
            best = ("p%d" % p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1])
    return best


def summary(samples):
    out = {"median": statistics.median(samples), "samples": len(samples)}
    tail = tail_percentile(samples)
    if tail:
        out[tail[0]] = tail[1]
    return out


def measure(workload, seconds, trace, golden, seed=0):
    """Run one benchmark run of `workload`; returns metrics and counts."""
    start = perf_counter()
    deadline = start + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    spec = {"commands": [list(c.argv) for c in workload.commands], "work_dir": str(WORK)}
    if trace:
        plain = worker("pass", spec, deadline)
        run_id = "%s-seed%d-%d" % (workload.name, seed, os.getpid())
        spans_file = WORK / ("spans-%s-seed%d.json" % (workload.name, seed))
        traced = worker("pass", dict(spec, trace=True, run_id=run_id, spans_file=str(spans_file)),
                        deadline)
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        result = score(workload, [plain, traced], golden)
        result["metrics"] = {name: (layers[name], unit) for name, unit in spans.PER_LAYER.items()}
        return result

    setups = [worker("setup", spec, deadline) for _ in range(SETUP_REPEATS)]
    passes = []
    first = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(worker("pass", dict(spec, pace=True), deadline))
        last = perf_counter() - t0
        if perf_counter() - first + last > seconds:
            break
    rss = [p["maxrss_kb"] / 1024.0 for p in passes]
    result = score(workload, passes, golden)
    result["summaries"] = {"wall_ref_s": summary([p["wall_ref_s"] for p in passes]),
                           "setup_s": summary([s["setup_s"] for s in setups]),
                           "peak_rss_mb": summary(rss)}
    result["walls"] = {"wall_s": summary([p["wall_s"] for p in passes]),
                       "setup_wall_s": summary([s["setup_wall_s"] for s in setups])}
    result["metrics"] = {name: (result["summaries"][name]["median"], unit)
                         for name, unit in END_TO_END.items()}
    return result


def report_lines(workload, result):
    """Human-readable lines for one workload's result."""
    lines = ["workload %s (delta %d; %d command(s): %s)" % (
        workload.name, workload.delta, len(workload.commands),
        ", ".join(c.argv[0] + ("[%s]" % c.verdict if c.verdict == "fail" else "")
                  for c in workload.commands))]
    for name, (value, unit) in result["metrics"].items():
        extra = ""
        if name in result.get("summaries", {}):
            s = result["summaries"][name]
            tail = [k for k in s if k.startswith("p")]
            extra = "  (median of %d; %s)" % (s["samples"], "%s %.6g" % (tail[0], s[tail[0]])
                                              if tail else "no percentile has 10 samples beyond it")
        lines.append("  %-34s %14.6g %-5s%s" % (name, value, unit, extra))
    for name, s in result.get("walls", {}).items():
        lines.append("  %-34s %14.6g s      (median wall time, not at the reference speed)"
                     % (name, s["median"]))
    for name in ("wrong_verdicts", "output_mismatches"):
        lines.append("  %-34s %14d count  (of %d commands attempted)" % (
            name, result[name], result["attempted"]))
    lines += ["  problem: " + p for p in result["problems"]]
    return lines


def result_object(result):
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result["metrics"].items()}}


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.SPECS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure passes for about this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "parasuper" / "cli.py").is_file():
        print("perfbench: no parasuper sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    try:
        golden = load_golden()
        names = list(workloads.SPECS) if args.workload == "all" else [args.workload]
        objects = {}
        for name in names:
            workload = workloads.build(name, args.seed)
            result = measure(workload, args.seconds, args.trace, golden, args.seed)
            print("\n".join(report_lines(workload, result)), flush=True)
            objects[name] = result_object(result)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 3
    if args.workload == "all":
        final = {"correct": all(o["correct"] for o in objects.values()),
                 "attempted": sum(o["attempted"] for o in objects.values()),
                 "failed": sum(o["failed"] for o in objects.values()),
                 "metrics": {name: o["metrics"] for name, o in objects.items()}}
    else:
        final = objects[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
