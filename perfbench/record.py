"""Record the benchmark's reference data.

    python3 perfbench/record.py golden
        Run every command any seed can draw (each workload at each --delta)
        once and write the sha256 of its canonical output to golden.json.
        Run this only on a commit whose outputs are the reference.

    python3 perfbench/record.py baseline --runs 10 [--first-seed 1]
        Run `run.py --trace 0` on every workload with --runs seeds, each for
        BENCHMARK.json's `run_seconds`, and write the median and quartiles of
        each end-to-end metric, with the machine and library versions, to
        baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import run
import workloads


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=str(run.ROOT),
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def record_golden():
    run.WORK.mkdir(exist_ok=True)
    digests = {}
    for name in workloads.SPECS:
        commands = workloads.all_commands(name)
        deadline = perf_counter() + 600
        result = run.worker("pass", {"commands": [list(c.argv) for c in commands],
                                     "work_dir": str(run.WORK)}, deadline)
        for command, res in zip(commands, result["commands"]):
            if run.wrong_verdict(command, res):
                raise SystemExit("refusing to record: %s gave exit %s" % (command.key, res["rc"]))
            digests[command.key] = res["digest"]
            print("%s  %s" % (res["digest"], command.key), flush=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"recorded_on": git_commit(), "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def record_baseline(runs, first_seed, out_path):
    import numpy
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    table = {}
    for name in workloads.SPECS:
        values = {metric: [] for metric in run.END_TO_END}
        run_s = []
        failed = 0
        for seed in range(first_seed, first_seed + runs):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=str(run.ROOT), capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                raise SystemExit("run.py failed on %s seed %d:\n%s" % (name, seed, proc.stderr))
            run_s.append(perf_counter() - t0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()},
                  "failed", result["failed"], "run %.1fs" % run_s[-1], flush=True)
        table[name] = {"failed": failed, "run_s": quartiles(run_s),
                       "metrics": {m: quartiles(v) for m, v in values.items()}}
    doc = {"commit": git_commit(), "runs_per_workload": runs,
           "seeds": [first_seed, first_seed + runs - 1], "seconds": seconds,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "machine": platform.machine(),
           "workloads": table}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description="record golden digests or a baseline")
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("golden")
    b = sub.add_parser("baseline")
    b.add_argument("--runs", type=int, default=10)
    b.add_argument("--first-seed", type=int, default=1)
    b.add_argument("--out", default=str(run.HERE / "baseline.json"))
    args = parser.parse_args()
    if args.what == "golden":
        record_golden()
    else:
        record_baseline(args.runs, args.first_seed, args.out)


if __name__ == "__main__":
    main()
