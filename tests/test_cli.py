"""CLI behavior: subcommands, exit codes, determinism, table round trips."""

import json
import subprocess
import sys

import pytest

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


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(["spec", "--bogus"], capsys)
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
            assert world.field.parse(val) == ch.value_at(kl.rep)


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
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    r1 = subprocess.run(cmd, capture_output=True, cwd=".", env=env)
    r2 = subprocess.run(cmd, capture_output=True, cwd=".", env=env)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run_cli(
        ["utheory", "--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1",
         "--out", str(path)], capsys)
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["counts"]["supercharacters"] >= 1


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
