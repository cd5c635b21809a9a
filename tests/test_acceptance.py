"""Acceptance criteria: every configuration, every suite, exact tolerances.

Criteria 1-6 drive the real command line (`verify --suite all`) once per
configuration and read the emitted JSON report, so what is asserted here is
exactly what a user sees.  Each criterion prints one pass/fail line (run
with -s to watch).  Tolerance is zero everywhere: all comparisons are exact
equalities of cyclotomic numbers, integer counts, or point sets.
"""

import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import world_for
from parasuper.cli import main
from parasuper.gtheory import merged_by_roots, scalar_levi_subgroup

CONFIGS = [
    ("B", 2, 3, "1,1,1"),
    ("C", 2, 3, "1,1"),
    ("D", 2, 3, "1,1"),
    ("C", 2, 3, "2"),
    ("B", 2, 3, "1,3"),
    ("C", 2, 5, "1,1"),
]

TIME_BUDGET_SECONDS = 120.0

_RUNS = {}


def cli_verify_all(cfg):
    """One full CLI run per configuration, cached for all criteria."""
    if cfg not in _RUNS:
        fam, n, q, blocks = cfg
        out = Path(tempfile.mkstemp(suffix=".json")[1])
        argv = ["verify", "--family", fam, "--n", str(n), "--q", str(q),
                "--blocks", blocks, "--suite", "all", "--out", str(out)]
        t0 = time.monotonic()
        code = main(argv)
        elapsed = time.monotonic() - t0
        report = json.loads(out.read_text())
        out.unlink()
        _RUNS[cfg] = (code, elapsed, report)
    return _RUNS[cfg]


def suite_report(report, name):
    return [r for r in report["reports"] if r["suite"] == name]


def label(cfg):
    fam, n, q, blocks = cfg
    return "%s%d q=%d blocks=%s" % (fam, n, q, blocks)


def say(criterion, cfg, ok, extra=""):
    print("%s criterion %s @ %s %s" % ("PASS" if ok else "FAIL", criterion,
                                       label(cfg), extra))
    assert ok, "criterion %s failed at %s %s" % (criterion, label(cfg), extra)


@pytest.mark.parametrize("cfg", CONFIGS, ids=label)
def test_criterion_1_full_verify_within_budget(cfg):
    code, elapsed, report = cli_verify_all(cfg)
    ok = code == 0 and report["passed"] and elapsed < TIME_BUDGET_SECONDS
    say("1 (verify --suite all exits 0, <120s)", cfg, ok, "(%.1fs)" % elapsed)


@pytest.mark.parametrize("cfg", CONFIGS, ids=label)
def test_criterion_2_axiom_suite_both_theories(cfg):
    _, _, report = cli_verify_all(cfg)
    axioms = [r for r in report["reports"] if r["suite"].startswith("axioms:")]
    kinds = {r["suite"].split(":")[1] for r in axioms}
    ok = {"U-on-U", "Ub-on-G", "Gb-on-G"} <= kinds
    ok = ok and all(r["passed"] for r in axioms)
    wanted = {"partition", "S3-identity-class", "S2-constancy", "count-equality",
              "integer-degrees", "S1-orthogonality"}
    for r in axioms:
        ok = ok and wanted <= {c["name"] for c in r["checks"]}
    say("2 (S1/S2/S3, partition, counts, both theorems)", cfg, ok)


@pytest.mark.parametrize("cfg", CONFIGS, ids=label)
def test_criterion_3_oracle_suite(cfg):
    _, _, report = cli_verify_all(cfg)
    oracle = suite_report(report, "oracles")[0]
    names = {c["name"] for c in oracle["checks"]}
    ok = oracle["passed"] and {"radical-induction-oracle", "parabolic-induction-oracle",
                               "ambient-induction-oracle"} <= names
    say("3 (closed formulas equal direct induction, tolerance 0)", cfg, ok)


@pytest.mark.parametrize("cfg", CONFIGS, ids=label)
def test_criterion_4_lemma_suite(cfg):
    _, _, report = cli_verify_all(cfg)
    lemmas = suite_report(report, "lemmas")[0]
    names = {c["name"] for c in lemmas["checks"]}
    ok = lemmas["passed"] and {"annihilator-products-vanish", "left-orbit-restriction",
                               "fiber-equals-orbit", "setwise-stabilizers-agree"} <= names
    say("4 (lemma suite, exhaustive over orbit representatives)", cfg, ok)


@pytest.mark.parametrize("cfg", CONFIGS, ids=label)
def test_criterion_5_classification_suite(cfg):
    _, _, report = cli_verify_all(cfg)
    cls = suite_report(report, "classification")[0]
    names = {c["name"] for c in cls["checks"]}
    ok = cls["passed"] and {"orbits-vs-signatures-u", "orbits-vs-signatures-ustar"} == names
    say("5 (orbit classification by signatures, zero mismatches)", cfg, ok)


@pytest.mark.parametrize("cfg", CONFIGS, ids=label)
def test_criterion_6_coarseness(cfg):
    _, _, report = cli_verify_all(cfg)
    ref = suite_report(report, "refinement")[0]
    names = {c["name"] for c in ref["checks"]}
    ok = ref["passed"] and {"classes-refine", "characters-in-span"} <= names
    say("6 (coarse classes are unions; characters lie in the span)", cfg, ok)


def test_criterion_7_pinned_values():
    cfg = CONFIGS[0]
    world = world_for("B", 2, 3, (1, 1, 1, 1, 1))
    spec = world.spec
    md = merged_by_roots(spec, ((2, 1),))
    ok = md.segments == ((2, 1), (0,), (-1, -2))
    ld = scalar_levi_subgroup(world, md)
    ok = ok and len(ld) == 2 * (spec.p - 1)
    for hid in ld:
        h = world.L[hid].tolist()
        a = h[spec.pos[2]][spec.pos[2]]
        ai = pow(a, spec.p - 2, spec.p)
        ok = ok and h[spec.pos[1]][spec.pos[1]] == a
        ok = ok and h[spec.pos[0]][spec.pos[0]] in (1, spec.p - 1)
        ok = ok and h[spec.pos[-1]][spec.pos[-1]] == ai
        ok = ok and h[spec.pos[-2]][spec.pos[-2]] == ai
        for i in spec.labels:
            for j in spec.labels:
                if i != j:
                    ok = ok and h[spec.pos[i]][spec.pos[j]] == 0
    md2 = merged_by_roots(spec, ((2, -1),))
    ok = ok and md2.segments == ((2, 1, 0, -1, -2),)
    ld2 = scalar_levi_subgroup(world, md2)
    one = np.eye(spec.N, dtype=np.int64)
    ok = ok and ({tuple(map(tuple, world.L[h].tolist())) for h in ld2}
                 == {tuple(map(tuple, m.tolist())) for m in (one, -one % spec.p)})
    say("7 (pinned coarsenings and scalar Levi subgroups)", cfg, ok)


def test_criterion_8_determinism(capsys):
    argsets = [
        ["spec", "--family", "B", "--n", "2", "--q", "3", "--blocks", "1,1,1"],
        ["orbits", "--family", "C", "--n", "2", "--q", "3", "--blocks", "1,1",
         "--space", "ustar", "--group", "Gb"],
        ["utheory", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1"],
        ["gtheory", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1",
         "--format", "csv"],
        ["verify", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1",
         "--suite", "all"],
    ]
    ok = True
    for args in argsets:
        main(args)
        out1 = capsys.readouterr().out
        main(args)
        out2 = capsys.readouterr().out
        ok = ok and out1 == out2 and out1
    with capsys.disabled():
        say("8 (byte-identical output across runs)", CONFIGS[2], ok)


def test_criterion_9_negative_controls(capsys):
    base = ["verify", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1",
            "--suite", "utheory"]
    ok = main(base) == 0
    capsys.readouterr()
    for mode in ("character", "class"):
        code = main(base + ["--corrupt", mode])
        out = capsys.readouterr().out
        data = json.loads(out)
        failing = [c for r in data["reports"] for c in r["checks"] if not c["passed"]]
        ok = ok and code == 1 and failing and "counterexample" in failing[0]
    with capsys.disabled():
        say("9 (corruption flips the exit code with a counterexample)", CONFIGS[2], ok)
