"""Command-line driver: configuration parsing, builds, checks, table output.

Exit codes: 0 success, 1 verification failure, 2 usage error or resource
guard, 3 internal error (any other exception; its traceback goes to
stderr, so it is never mistaken for a falsification).  All output is
canonical and byte-identical across runs on the same configuration; wall
clock timings go to stderr or behind --timing.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
import traceback

from .errors import FalsificationError, ResourceGuardError, ValidationError
from .groups import DEFAULT_GUARDS, GroupSpec, Parabolic, check_config, check_levi_bound
from .utheory import build_u_theory, orbit_partition
from .gtheory import build_g_theory
from . import verify as verify_mod

def parse_blocks(family, n, text):
    """Half-list block sizes (outer to middle) to the full symmetric tuple.

    Family B always names the middle explicitly; for C and D a trailing even
    entry is taken as the middle when the totals work out, otherwise the
    middle is zero.  Explicit zeros are rejected, which keeps the reading
    unambiguous.
    """
    try:
        entries = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValidationError("blocks-parse", "blocks must be comma-separated integers")
    if not entries or any(e <= 0 for e in entries):
        raise ValidationError("blocks-parse", "block sizes must be positive integers")
    N = 2 * n + 1 if family == "B" else 2 * n
    if family == "B":
        half, mid = entries[:-1], entries[-1]
        full = half + (mid,) + tuple(reversed(half))
        return full
    with_middle = entries[:-1] + (entries[-1],) + tuple(reversed(entries[:-1]))
    without_middle = entries + (0,) + tuple(reversed(entries))
    candidates = [c for c in (with_middle, without_middle) if sum(c) == N]
    if not candidates:
        raise ValidationError("blocks-sum",
                              "block sizes %r do not fit N=%d" % (list(entries), N))
    return candidates[0]


def gather_guards(args):
    guards = dict(DEFAULT_GUARDS)
    for key in guards:
        flag = getattr(args, "guard_" + key, None)
        if flag is not None:
            guards[key] = flag
    return guards


def make_world(args):
    """The world of a configuration; the Levi guard needs only the validated
    block sizes, so it fires before any array of the spec is built."""
    blocks, delta = check_config(args.family, args.n, args.q,
                                 parse_blocks(args.family, args.n, args.blocks), args.delta)
    guards = gather_guards(args)
    check_levi_bound(blocks, args.q, guards["levi"])
    return Parabolic(GroupSpec(args.family, args.n, args.q, blocks, delta), guards)


def config_payload(args):
    return {
        "family": args.family,
        "n": args.n,
        "q": args.q,
        "blocks": args.blocks,
        "delta": args.delta,
    }


def check_out(out_path):
    """Refuse an `--out` path that cannot be written before any work: its
    directory must exist and be writable, and it must not be a directory
    or a read-only file.  The file itself is not created."""
    if out_path is None:
        return
    parent = os.path.dirname(os.path.abspath(out_path))
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(out_path if os.path.exists(out_path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValidationError("out", "cannot write %s: %s" % (out_path, os.strerror(code)))


def emit(text, out_path):
    """Write to `out_path`, or to stdout; an unwritable path is a usage error."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError("out", "cannot write %s: %s" % (out_path, exc.strerror))
    else:
        sys.stdout.write(text)


def dump_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_spec(args):
    world = make_world(args)
    spec = world.spec
    payload = {
        "config": config_payload(args),
        "label": spec.config_label(),
        "N": spec.N,
        "orders": {"L": world.nL, "U": world.nU, "G": world.g_size},
        "dim_u": spec.u_dim,
        "dim_uc": spec.uc_dim,
        "positive_roots": len(spec.roots),
        "crossing_roots": len(spec.roots_u),
        "field": world.field.M,
    }
    emit(dump_json(payload), args.out)
    return 0


def cmd_orbits(args):
    world = make_world(args)
    orbits = orbit_partition(world, args.space, args.group)[1]
    payload = {
        "config": config_payload(args),
        "space": args.space,
        "group": args.group,
        "orbits": [{"rep": int(o[0]),
                    "coords": world.u_digits(o[0]).tolist(),
                    "size": o.size} for o in orbits],
        "count": len(orbits),
    }
    emit(dump_json(payload), args.out)
    return 0


def emit_table(theory, world, fmt, out_path, config):
    """Serialize an assembled theory; deterministic, non-empty by construction."""
    if not (theory.classes and theory.chars):
        raise RuntimeError("a supercharacter theory cannot be empty")
    on_g = theory.group_size == world.g_size

    def rep_matrix(gid):
        return (world.g_matrix(gid) if on_g else world.U[gid]).tolist()

    classes_payload = []
    for idx, kl in enumerate(theory.classes):
        classes_payload.append({
            "id": idx,
            "label": kl.label,
            "size": kl.size,
            "representative": rep_matrix(kl.rep),
        })
    chars_payload = []
    for idx, ch in enumerate(theory.chars):
        values = [theory.pool.serialize(ch.ids[kl.rep]) for kl in theory.classes]
        chars_payload.append({
            "id": idx,
            "label": ch.label,
            "degree": ch.degree(theory.ident_id),
            "values": values,
        })
    payload = {
        "config": config,
        "kind": theory.kind,
        "counts": {"supercharacters": len(theory.chars),
                   "superclasses": len(theory.classes)},
        "supercharacters": chars_payload,
        "superclasses": classes_payload,
    }
    if fmt == "json":
        emit(dump_json(payload), out_path)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["id", "label", "degree"] + ["K%d" % i for i in range(len(theory.classes))]
    writer.writerow(header)
    for ch in chars_payload:
        writer.writerow([ch["id"], ch["label"], ch["degree"]]
                        + [";".join(v) for v in ch["values"]])
    emit(buf.getvalue(), out_path)


def cmd_table(args):
    """Build one theory (`utheory`, `gtheory` or `table`), check the
    supercharacter axioms on it, and emit it."""
    world = make_world(args)
    theory = build_g_theory(world) if args.theory == "gb" else build_u_theory(world, args.target)
    report = verify_mod.check_supertheory(theory)
    if not report.passed:
        raise FalsificationError("assembled theory fails the axiom check",
                                 report.first_failure())
    emit_table(theory, world, args.format, args.out, config_payload(args))
    return 0


def cmd_verify(args):
    world = make_world(args)
    reports = verify_mod.run_suites(world, args.suite, corrupt=args.corrupt)
    passed = all(r.passed for r in reports)
    payload = {
        "config": config_payload(args),
        "label": world.spec.config_label(),
        "suite": args.suite,
        "passed": passed,
        "reports": [r.to_json(with_timing=args.timing) for r in reports],
    }
    emit(dump_json(payload), args.out)
    total = sum(c.seconds for r in reports for c in r.checks)
    print("verify: %d checks, %s, %.1fs" % (
        sum(len(r.checks) for r in reports),
        "all passed" if passed else "FAILURES", total), file=sys.stderr)
    return 0 if passed else 1


def add_config_flags(sub):
    sub.add_argument("--family", required=True, choices=["B", "C", "D"])
    sub.add_argument("--n", required=True, type=int)
    sub.add_argument("--q", required=True, type=int)
    sub.add_argument("--blocks", required=True,
                     help="sizes from the outer block inward, e.g. 1,1,1")
    sub.add_argument("--delta", type=int, default=None,
                     help="override the non-square scalar (default: smallest)")
    sub.add_argument("--out", default=None, help="write output to a file")
    for key in DEFAULT_GUARDS:
        sub.add_argument("--guard-" + key, type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parasuper",
        description="Supercharacter theories of parabolic subgroups of finite "
                    "orthogonal and symplectic groups, verified by exact arithmetic.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("spec", help="print group orders and dimensions")
    add_config_flags(s)
    s.set_defaults(fn=cmd_spec)

    s = subs.add_parser("orbits", help="orbit partition of u or its dual")
    add_config_flags(s)
    s.add_argument("--space", choices=["u", "ustar"], default="ustar")
    s.add_argument("--group", choices=["Ub", "Hb", "Gb"], default="Ub")
    s.set_defaults(fn=cmd_orbits)

    s = subs.add_parser("utheory", help="radical-orbit supercharacter table")
    add_config_flags(s)
    s.add_argument("--target", choices=["U", "G"], default="G")
    s.add_argument("--format", choices=["json", "csv"], default="json")
    s.set_defaults(fn=cmd_table, theory="ub")

    s = subs.add_parser("gtheory", help="ambient-orbit supercharacter table")
    add_config_flags(s)
    s.add_argument("--format", choices=["json", "csv"], default="json")
    s.set_defaults(fn=cmd_table, theory="gb")

    s = subs.add_parser("table", help="emit a supercharacter table")
    add_config_flags(s)
    s.add_argument("--theory", choices=["ub", "gb"], required=True)
    s.add_argument("--format", choices=["json", "csv"], default="json")
    s.set_defaults(fn=cmd_table, target="G")

    s = subs.add_parser("verify", help="run verification suites")
    add_config_flags(s)
    s.add_argument("--suite", default="all",
                   choices=["lemmas", "utheory", "gtheory", "oracles", "refinement", "all"])
    s.add_argument("--corrupt", choices=["character", "class"], default=None,
                   help="negative control: corrupt the assembled theory first")
    s.add_argument("--timing", action="store_true", help="include timings in the report")
    s.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        check_out(args.out)
        return args.fn(args)
    except ValidationError as exc:
        print("error (%s): %s" % (exc.code, exc), file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print("resource guard: %s" % exc, file=sys.stderr)
        return 2
    except FalsificationError as exc:
        print("falsified: %s\ncounterexample: %s" % (exc, exc.counterexample),
              file=sys.stderr)
        return 1
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
