"""One measured process: either set-up timing or one pass over a workload.

    python3 perfbench/worker.py setup '<json>'
    python3 perfbench/worker.py pass '<json>'

The JSON names the commands (CLI argument lists) and, for a pass, the work
directory for `--out` files and whether to trace or to pace.  The last line
of stdout is a JSON result.  numpy and parasuper are imported only after the
clock starts in set-up mode, so that their import is what `setup_s`
measures.  Set-up and paced passes also give their time at the reference
speed of pace.py; a traced pass is never paced, so probes do not land in
its spans.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

from pace import Pace


def measure_setup(commands):
    """Import the CLI and build every distinct world the commands use."""
    pace = Pace()
    pace.start()
    t0 = perf_counter()
    import parasuper.cli as cli
    parser = cli.build_parser()
    seen = set()
    for argv in commands:
        args = parser.parse_args(argv)
        key = (args.family, args.n, args.q, args.blocks, args.delta)
        if key not in seen:
            seen.add(key)
            cli.make_world(args)
    t1 = perf_counter()
    pace.stop()
    return {"setup_s": pace.reference_seconds(t0, t1), "setup_wall_s": pace.wall_seconds(t0, t1),
            "worlds": len(seen)}


def verdict_fields(argv, data):
    """The report's `passed` flag, and whether every failing check carries a
    counterexample; None for commands that print tables."""
    if argv[0] != "verify":
        return None, None
    try:
        payload = json.loads(data)
        failing = [c for r in payload["reports"] for c in r["checks"] if not c["passed"]]
        return payload["passed"], all("counterexample" in c for c in failing)
    except (ValueError, KeyError, TypeError):
        return None, False


def run_pass(commands, work_dir, tracer=None):
    """Run each command through `parasuper.cli.main` in this process."""
    import parasuper.cli as cli
    results = []
    for index, argv in enumerate(commands):
        out = os.path.join(work_dir, "out-%d-%d.txt" % (os.getpid(), index))
        if os.path.exists(out):
            os.remove(out)
        full = list(argv) + ["--out", out]
        gc.collect()
        error = None
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = cli.main(full)
            else:
                rc = tracer.run_command(index, cli.main, full)
        except Exception as exc:     # any crash is a wrong verdict, reported
            rc, error = None, "%s: %s" % (type(exc).__name__, exc)
        t1 = perf_counter()
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        passed, counterexamples = verdict_fields(argv, data)
        results.append({"rc": rc, "error": error, "seconds": t1 - t0, "span": [t0, t1],
                        "digest": hashlib.sha256(data).hexdigest(),
                        "passed": passed, "counterexamples": counterexamples})
    return results


def main(mode, spec):
    if mode == "setup":
        return measure_setup(spec["commands"])
    import parasuper.cli  # noqa: F401  (import before wrapping or pacing, untimed)
    tracer = None
    if spec.get("trace"):
        from spans import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()
    if not spec.get("pace"):
        results = run_pass(spec["commands"], spec["work_dir"], tracer)
    else:
        pace = Pace()
        pace.start()
        try:
            results = run_pass(spec["commands"], spec["work_dir"])
        finally:
            pace.stop()
        for r in results:
            r["seconds"] = pace.wall_seconds(*r["span"])
            r["reference_seconds"] = pace.reference_seconds(*r["span"])
    out = {"commands": results,
           "wall_s": sum(r["seconds"] for r in results),
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if spec.get("pace"):
        out["wall_ref_s"] = sum(r["reference_seconds"] for r in results)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(spec["spans_file"])
    return out


if __name__ == "__main__":
    result = main(sys.argv[1], json.loads(sys.argv[2]))
    print(json.dumps(result))
