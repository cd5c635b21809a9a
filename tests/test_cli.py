"""CLI behavior: subcommands, exit codes, determinism, table round trips."""

import ast
import hashlib
import json
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import subprocess_env
from hypothesis import given, strategies as st

from parasuper import cli
from parasuper.cli import main, parse_blocks
from parasuper.errors import ValidationError


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_blocks():
    assert parse_blocks("B", 2, "1,1,1") == (1, 1, 1, 1, 1)
    assert parse_blocks("B", 2, "1,3") == (1, 3, 1)
    assert parse_blocks("C", 2, "1,1") == (1, 1, 0, 1, 1)
    assert parse_blocks("C", 2, "2") == (2, 0, 2)
    assert parse_blocks("C", 2, "1,2") == (1, 2, 1)
    assert parse_blocks("D", 2, "1,1") == (1, 1, 0, 1, 1)
    with pytest.raises(ValidationError):
        parse_blocks("C", 2, "5")
    with pytest.raises(ValidationError):
        parse_blocks("B", 2, "1,x")


@st.composite
def symmetric_blocks(draw):
    """(family, n, full symmetric block tuple) with positive side blocks and
    a middle of the family's parity (odd for B, even and possibly empty for
    C and D), summing to N, rank n <= 4; the side blocks may be absent."""
    family = draw(st.sampled_from("BCD"))
    n = draw(st.integers(1, 4))
    N = 2 * n + 1 if family == "B" else 2 * n
    mid = draw(st.sampled_from(range(N % 2, N + 1, 2)))
    side = (N - mid) // 2
    cuts = sorted(draw(st.sets(st.integers(1, side - 1))) if side > 1 else [])
    sides = tuple(b - a for a, b in zip([0] + cuts, cuts + [side]) if b > a)
    return family, n, sides + (mid,) + sides[::-1]


@given(symmetric_blocks())
def test_parse_blocks_round_trip(case):
    # the half-list names the side blocks from the outside in, then the
    # middle unless it is empty
    family, n, blocks = case
    half = blocks[:len(blocks) // 2 + 1]
    text = ",".join(str(b) for b in (half if half[-1] else half[:-1]))
    assert parse_blocks(family, n, text) == blocks


def test_spec_subcommand_b2(capsys):
    code, out, _ = run_cli(
        ["spec", "--family", "B", "--n", "2", "--q", "3", "--blocks", "1,1,1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["orders"]["G"] == 648
    assert data["orders"]["L"] == 8 and data["orders"]["U"] == 81
    assert data["dim_u"] == 4 and data["crossing_roots"] == 4


def test_nonprime_q_is_usage_error(capsys):
    code, _, err = run_cli(
        ["spec", "--family", "B", "--n", "2", "--q", "4", "--blocks", "1,1,1"], capsys)
    assert code == 2
    assert "q-not-odd-prime" in err


def test_trivial_radical_is_usage_error(capsys):
    # a single block leaves u = 0: rejected up front with exit 2, not a crash
    code, out, err = run_cli(
        ["verify", "--family", "C", "--n", "1", "--q", "3", "--blocks", "2",
         "--suite", "all"], capsys)
    assert code == 2 and out == ""
    assert "trivial-radical" in err


@pytest.mark.parametrize("command", ["spec", "orbits", "utheory", "gtheory", "verify"])
@pytest.mark.parametrize("q", ["3", "5"])
def test_d1_is_a_trivial_radical(capsys, command, q):
    # D1 has a side block but no root, so u = 0: a usage error from the block
    # sizes, before any array is built
    code, out, err = run_cli([command, "--family", "D", "--n", "1", "--q", q, "--blocks", "1"],
                             capsys)
    assert code == 2 and out == ""
    assert "trivial-radical" in err and "Traceback" not in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(["spec", "--bogus"], capsys)
    assert code == 2
    # radical products are taken on demand, so there is no product-table guard
    code, _, _ = run_cli(["verify", "--family", "C", "--n", "2", "--q", "3", "--blocks", "1,1",
                          "--guard-tables", "5"], capsys)
    assert code == 2


def test_orbits_subcommand(capsys):
    code, out, _ = run_cli(
        ["orbits", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1",
         "--space", "u", "--group", "Ub"], capsys)
    assert code == 0
    data = json.loads(out)
    assert sum(o["size"] for o in data["orbits"]) == 9
    assert data["orbits"][0]["rep"] == 0


def test_utheory_table_json(capsys):
    code, out, _ = run_cli(
        ["utheory", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["counts"]["supercharacters"] == data["counts"]["superclasses"]
    assert len(data["supercharacters"][0]["values"]) == data["counts"]["superclasses"]
    # emitted values parse back to exactly the assembled theory's values
    from parasuper.groups import Parabolic, build_spec
    from parasuper.utheory import build_u_theory
    world = Parabolic(build_spec("D", 2, 3, (1, 1, 0, 1, 1)))
    theory = build_u_theory(world, "G")
    for ch_payload, ch in zip(data["supercharacters"], theory.chars):
        assert ch_payload["label"] == ch.label
        for val, kl in zip(ch_payload["values"], theory.classes):
            row, den = ch.value_at(kl.rep)
            assert [Fraction(v) for v in val] == [Fraction(c, den) for c in row]


def test_csv_column_count(capsys):
    code, out, _ = run_cli(
        ["utheory", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1",
         "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    ncls = len(json.loads(run_cli(
        ["utheory", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1"],
        capsys)[1])["superclasses"])
    assert len(header) == ncls + 3


def test_gtheory_and_table_alias(capsys):
    code1, out1, _ = run_cli(
        ["gtheory", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1"], capsys)
    code2, out2, _ = run_cli(
        ["table", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1",
         "--theory", "gb"], capsys)
    assert code1 == 0 and code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [["utheory"], ["utheory", "--target", "U"], ["gtheory"],
                                  ["table", "--theory", "ub"]])
def test_a_theory_failing_the_axioms_is_not_emitted(argv, monkeypatch, capsys):
    # every table command checks the theory it is given before emitting it:
    # a corrupted build exits 1 with the first failing axiom and no table
    from parasuper import cli
    from parasuper.verify import corrupt_character
    for name in ("build_u_theory", "build_g_theory"):
        monkeypatch.setattr(cli, name, lambda *args, real=getattr(cli, name):
                            corrupt_character(real(*args)))
    code, out, err = run_cli(
        argv + ["--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1"], capsys)
    assert code == 1 and out == ""
    assert "falsified: assembled theory fails the axiom check" in err
    assert "'check': 'S2-constancy'" in err


def test_verify_exit_codes(capsys):
    base = ["verify", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1"]
    code, out, _ = run_cli(base + ["--suite", "utheory"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    # negative controls flip the exit code and carry a counterexample
    code, out, _ = run_cli(base + ["--suite", "utheory", "--corrupt", "character"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    bad = [c for r in data["reports"] for c in r["checks"] if not c["passed"]]
    assert bad and "counterexample" in bad[0]
    code, out, _ = run_cli(base + ["--suite", "utheory", "--corrupt", "class"], capsys)
    assert code == 1


@pytest.mark.parametrize("suite, corrupt", [
    ("lemmas", "character"), ("lemmas", "class"), ("gtheory", "character"), ("gtheory", "class")])
def test_corrupt_on_a_suite_that_cannot_fail_is_usage_error(suite, corrupt, capsys):
    # neither suite reads the Ub-on-G theory that --corrupt changes, so the
    # negative control could only pass
    code, out, err = run_cli(["verify", "--family", "D", "--n", "2", "--q", "3",
                              "--blocks", "1,1", "--suite", suite, "--corrupt", corrupt], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error (corrupt): suite %r" % suite)


def test_determinism_byte_identical(capsys):
    args = ["utheory", "--family", "C", "--n", "2", "--q", "3", "--blocks", "1,1"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    args = ["verify", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1",
            "--suite", "lemmas"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_determinism_across_processes(tmp_path):
    # fresh interpreters: no shared caches, the strongest reproducibility check
    cmd = [sys.executable, "-m", "parasuper.cli", "spec", "--family", "B",
           "--n", "2", "--q", "3", "--blocks", "1,1,1"]
    env = subprocess_env("src", PATH="/usr/bin:/bin")
    r1 = subprocess.run(cmd, capture_output=True, cwd=".", env=env)
    r2 = subprocess.run(cmd, capture_output=True, cwd=".", env=env)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_verify_under_optimize_matches_golden(tmp_path):
    # python -O strips asserts: every check must still run, and the report
    # must hash to the golden digest of the same command
    argv = ["verify", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1",
            "--suite", "all"]
    root = pathlib.Path(__file__).resolve().parent.parent
    want = json.loads((root / "tests" / "golden" / "digests.json").read_text())[" ".join(argv)]
    out = tmp_path / "report.json"
    r = subprocess.run([sys.executable, "-O", "-m", "parasuper.cli"] + argv + ["--out", str(out)],
                       capture_output=True, env=subprocess_env(root / "src"))
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


@pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_spec_of_a_large_radical_stays_small():
    # spec prints orders and the field, which need L alone: on D4 q=3 Borel
    # the radical stack of 3^12 matrices would hold 272 MB by itself.  The
    # child's ru_maxrss would also count this process's memory, which Linux
    # carries into the child's peak at exec; VmHWM is the child's own peak
    code = "\n".join([
        "import contextlib, io",
        "from parasuper.cli import main",
        "argv = 'spec --family D --n 4 --q 3 --blocks 1,1,1,1'.split()",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = main(argv)",
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM'))",
        "print(code, hwm.split()[1])",
    ])
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env(src))
    assert out.returncode == 0, out.stderr
    exit_code, peak_kb = out.stdout.split()
    assert exit_code == "0" and int(peak_kb) < 100 * 1024


def test_spec_reads_the_field_order_off_the_blocks():
    # L = GL_1(65521) is cyclic of order q - 1, so M = q (q - 1): spec takes
    # it from the block sizes in well under a second, where raising all of L
    # to successive powers ran for minutes; the timeout stops a slow path
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    argv = "spec --family C --n 1 --q 65521 --blocks 1".split()
    r = subprocess.run([sys.executable, "-m", "parasuper.cli"] + argv, capture_output=True,
                       text=True, env=subprocess_env(src), timeout=30)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["field"] == 65521 * 65520 == 4292935920


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run_cli(
        ["utheory", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1",
         "--out", str(path)], capsys)
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["counts"]["supercharacters"] >= 1


def no_world(args):
    raise RuntimeError("the world was built before --out was checked")


@pytest.mark.parametrize("argv", [["spec"], ["verify", "--suite", "lemmas"]])
def test_an_unwritable_out_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    # the output path is the user's: a missing directory exits 2 with the
    # path named, not 3 with a traceback, and before the world is built
    monkeypatch.setattr(cli, "make_world", no_world)
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(argv + ["--family", "B", "--n", "2", "--q", "3", "--blocks", "1,1,1",
                                     "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error (out): cannot write %s: No such file or directory\n" % path
    assert not path.parent.exists()


def test_a_directory_as_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "make_world", no_world)
    code, out, err = run_cli(["verify", "--family", "B", "--n", "2", "--q", "3",
                              "--blocks", "1,1,1", "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error (out): cannot write %s: Is a directory\n" % tmp_path


def test_the_levi_guard_fires_before_the_spec_is_built(capsys):
    # the Levi bound needs only the block sizes: at rank 60 the guard fires
    # before the spec's (u_dim, N, N) root basis stack is built
    import tracemalloc
    tracemalloc.start()
    try:
        got = run_cli(["spec", "--family", "C", "--n", "60", "--q", "3",
                       "--blocks", ",".join(["1"] * 60)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (2, "", LEVI_GUARD % 2 ** 60 + "\n")
    assert peak < 50 * 2 ** 20


@pytest.mark.parametrize("n", [200, 3000])
def test_the_levi_guard_stops_a_bound_too_long_to_print(n, capsys):
    # |GL(200, 3)| has over 19,000 digits, past the 4,300 that Python
    # prints of an int, and the exact product for rank 3000 takes minutes:
    # the bound stops once it passes both 2^12000 and the guard (10 s is a
    # wide margin: both exit in well under a second, and rank 3000 ran on
    # for more than a minute before)
    import time
    start = time.perf_counter()
    got = run_cli(["spec", "--family", "C", "--n", str(n), "--q", "3", "--blocks", str(n)],
                  capsys)
    assert time.perf_counter() - start < 10
    assert got == (2, "", "resource guard: Levi bound over 2**12000 exceeds guard 1000000\n")


def test_internal_error_exits_3(monkeypatch, capsys):
    # an exception that is not a falsification, usage error or guard gets
    # its own exit code and a traceback, never the falsification code 1
    import parasuper.cli as cli

    def broken(args):
        raise AssertionError("planted internal failure")

    monkeypatch.setattr(cli, "make_world", broken)
    code, out, err = run_cli(
        ["spec", "--family", "B", "--n", "2", "--q", "3", "--blocks", "1,1,1"], capsys)
    assert code == 3 and out == ""
    assert "Traceback" in err and "planted internal failure" in err


PASSED = "verify: 32 checks, all passed, <s>"
FALSIFIED = "falsified: scalar Levi subgroup differs from the orbit's pointwise stabilizer"
LEVI_GUARD = "resource guard: Levi bound %d exceeds guard 1000000"
CHARTAB_GUARD = "error (chartab-guard): group of order %d exceeds guard 2000"
VERDICT_CENSUS = [
    # (family, n, blocks, q, exit code, first stderr line with the seconds masked)
    ("B", 2, "1,3", 3, 0, PASSED), ("B", 2, "2,1", 3, 0, PASSED), ("B", 2, "1,1,1", 3, 0, PASSED),
    ("C", 2, "2", 3, 0, PASSED), ("C", 2, "1,1", 3, 0, PASSED), ("C", 2, "1,2", 3, 0, PASSED),
    ("D", 2, "2", 3, 1, FALSIFIED), ("D", 2, "1,1", 3, 0, PASSED), ("D", 2, "1,2", 3, 0, PASSED),
    ("B", 2, "1,3", 5, 2, LEVI_GUARD % 5952000), ("B", 2, "2,1", 5, 0, PASSED),
    ("B", 2, "1,1,1", 5, 0, PASSED),
    ("C", 2, "2", 5, 0, PASSED), ("C", 2, "1,1", 5, 0, PASSED), ("C", 2, "1,2", 5, 0, PASSED),
    ("D", 2, "2", 5, 1, FALSIFIED), ("D", 2, "1,1", 5, 0, PASSED), ("D", 2, "1,2", 5, 0, PASSED),
    ("D", 3, "1,1,1", 3, 0, PASSED), ("D", 3, "2,1", 3, 0, PASSED),
    ("D", 3, "1,1,2", 3, 0, PASSED), ("D", 3, "2,2", 3, 0, PASSED),
    ("D", 3, "1,2", 3, 1, FALSIFIED), ("D", 3, "1,4", 3, 2, LEVI_GUARD % 48522240),
    ("C", 3, "1,4", 3, 2, LEVI_GUARD % 48522240), ("B", 3, "1,5", 3, 2, LEVI_GUARD % 951132948480),
    ("C", 3, "3", 3, 2, CHARTAB_GUARD % 11232), ("D", 3, "3", 3, 2, CHARTAB_GUARD % 11232),
    ("B", 3, "2,3", 3, 2, CHARTAB_GUARD % 2304), ("B", 3, "3,1", 3, 2, CHARTAB_GUARD % 22464),
]
# each falsified case fails at the basic pair 2:-1*1: the pointwise
# stabilizer of its orbit is larger than the scalar Levi subgroup; (scalar
# subgroup, stabilizer size, sha256 prefix of the printed stabilizer) per (n, q)
PAIR_COUNTEREXAMPLE = {(2, 3): ([12, 31], 24, "fd5ea83a99623ea2"),
                       (2, 5): ([80, 383], 120, "bea8c868ca3669d3"),
                       (3, 3): ([12, 31, 60, 79], 48, "2fcc1caa3dd186a6")}


def census(n):
    cases = [case for case in VERDICT_CENSUS if case[1] == n]
    return pytest.mark.parametrize("family, n, blocks, q, code, first", cases,
                                   ids=["%s%d-%s-q%d" % case[:4] for case in cases])


def check_verdict(family, n, blocks, q, code, first, capsys, suite="all"):
    got, _, err = run_cli(["verify", "--family", family, "--n", str(n), "--q", str(q),
                           "--blocks", blocks, "--suite", suite], capsys)
    lines = err.splitlines()
    assert (got, re.sub(r"[0-9.]+s$", "<s>", lines[0])) == (code, first)
    if code == 1:
        scalar, size, want_digest = PAIR_COUNTEREXAMPLE[n, q]
        assert lines[1].startswith("counterexample: ")
        ce = ast.literal_eval(lines[1][len("counterexample: "):])
        digest = hashlib.sha256(str(ce["stabilizer"]).encode()).hexdigest()[:16]
        assert (ce["pair"], ce["scalar"], len(ce["stabilizer"]), digest) == \
            ("2:-1*1", scalar, size, want_digest)


@census(2)
def test_rank_two_verdict_census(family, n, blocks, q, code, first, capsys):
    # every rank-2 block list with at least two non-empty blocks, at q=3 and
    # q=5, keeps its verdict: passing, falsified or stopped by the Levi guard
    check_verdict(family, n, blocks, q, code, first, capsys)


@census(3)
def test_rank_three_verdict_census(family, n, blocks, q, code, first, capsys):
    # rank-3 block lists at q=3 keep their verdicts too; the Levi guard
    # stops each of the three largest Levi subgroups before any enumeration,
    # and the chartab guard the four next largest before any form data
    check_verdict(family, n, blocks, q, code, first, capsys)


def test_rank_three_lemmas_pass_past_the_chartab_guard(capsys):
    # C3 q=3 blocks 3 (|L| = 11232) stops at the chartab guard under
    # --suite all, but its lemma suite needs no character table and passes;
    # the normality lemma tests the generators of each setwise stabilizer
    # instead of every conjugate, and the run takes about 6 s and 200 MB
    check_verdict("C", 3, "3", 3, 0, "verify: 7 checks, all passed, <s>", capsys, "lemmas")


def levi_square_arrays(world):
    """The memo keys under which a world holds an array with two axes of
    length |L|, searched through containers and object attributes."""
    import numpy as np
    from parasuper.groups import Parabolic
    found, seen = set(), set()

    def walk(value, key):
        if id(value) in seen or isinstance(value, Parabolic):
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            if list(value.shape).count(world.nL) >= 2:
                found.add(key)
            value = value.tolist() if value.dtype == object else []
        elif isinstance(value, dict):
            value = list(value.values())
        elif hasattr(value, "__dict__"):
            value = list(vars(value).values())
        if isinstance(value, (list, tuple)):
            for item in value:
                walk(item, key)
    for key, value in world._memo.items():
        walk(value, key)
    return found


@pytest.fixture
def levi_products(monkeypatch):
    """The sizes of the results of every mulL and conjL call."""
    from parasuper.groups import Parabolic
    sizes = [0]

    def recorded(method):
        def wrapper(self, *ids):
            out = method(self, *ids)
            sizes.append(out.size)
            return out
        return wrapper
    for name in ("mulL", "conjL"):
        monkeypatch.setattr(Parabolic, name, recorded(getattr(Parabolic, name)))
    return sizes


def test_chartab_guard_stops_before_the_levi_tables(monkeypatch, capsys, levi_products):
    # both G theories need the character table of all of L (|L| = 96 on B2
    # q=3 blocks 1,3): under a chartab guard of 50 they exit 2 before any
    # form data or table of L is built, while the lemma suite and the U-on-U
    # theory need no table and pass.  Levi products are taken on demand: no
    # call asks for |L|^2 of them, and no world holds an |L| x |L| array
    import parasuper.cli as cli
    worlds = []
    real = cli.make_world
    monkeypatch.setattr(cli, "make_world", lambda args: worlds.append(real(args)) or worlds[-1])
    cfg = ["--family", "B", "--n", "2", "--q", "3", "--blocks", "1,3", "--guard-chartab", "50"]
    for argv in (["verify"] + cfg + ["--suite", "all"], ["utheory"] + cfg + ["--target", "G"],
                 ["gtheory"] + cfg):
        assert run_cli(argv, capsys) == (
            2, "", "error (chartab-guard): group of order 96 exceeds guard 50\n")
        assert not any(key[0] in ("form_data", "subgroup_table") for key in worlds[-1]._memo
                       if isinstance(key, tuple))
    for argv in (["verify"] + cfg + ["--suite", "lemmas"], ["utheory"] + cfg + ["--target", "U"]):
        assert run_cli(argv, capsys)[0] == 0
    assert all(w.nL == 96 and not levi_square_arrays(w) for w in worlds)
    assert 0 < max(levi_products) < 96 ** 2


def test_only_the_table_of_l_is_an_l_by_l_array(capsys, monkeypatch):
    # below the chartab guard, a full run holds L's own multiplication
    # table, in its character table, and no other |L| x |L| array
    import parasuper.cli as cli
    worlds = []
    real = cli.make_world
    monkeypatch.setattr(cli, "make_world", lambda args: worlds.append(real(args)) or worlds[-1])
    assert run_cli(["verify", "--family", "B", "--n", "2", "--q", "3", "--blocks", "1,3",
                    "--suite", "all"], capsys)[0] == 0
    assert levi_square_arrays(worlds[0]) == {("subgroup_table", tuple(range(96)))}


def test_chartab_guard_comes_before_the_pair_contexts(capsys):
    # D2 q=3 blocks 2 (|L| = 48) fails a check in its pair contexts (see
    # VERDICT_CENSUS), which the guard now stops short of
    assert run_cli(["gtheory", "--family", "D", "--n", "2", "--q", "3", "--blocks", "2",
                    "--guard-chartab", "40"], capsys) == (
        2, "", "error (chartab-guard): group of order 48 exceeds guard 40\n")


@pytest.mark.parametrize("family, n, blocks, q", [
    ("D", 2, "2", 3), ("D", 2, "2", 5), ("D", 3, "1,2", 3)])
def test_utheory_suite_passes_where_only_the_ambient_theory_is_falsified(
        family, n, blocks, q, capsys):
    # `--suite all` is falsified on these worlds while building the Gb-on-G
    # theory (see VERDICT_CENSUS); `--suite utheory` reads only the U-on-U
    # and Ub-on-G theories, never builds Gb-on-G, and passes
    code, out, err = run_cli(["verify", "--family", family, "--n", str(n), "--q", str(q),
                              "--blocks", blocks, "--suite", "utheory"], capsys)
    checks = [c for r in json.loads(out)["reports"] for c in r["checks"]]
    assert (code, len(checks), all(c["passed"] for c in checks)) == (0, 12, True)
    assert err.startswith("verify: 12 checks, all passed")
