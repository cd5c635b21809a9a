"""Golden outputs: every command's canonical `--out` file must hash to the
sha256 stored in tests/golden/digests.json.

The digests pin the exact bytes of the orbit partitions (their order too),
both theories' tables and the full verification report on two small
configurations, the verification report of B2 q=3 blocks 1,3 (|L| = 96),
and both G-level tables of C2 Borel at q=5 and q=7 with the report of C2
q=7 Borel, the report of C2 q=5 blocks 2 (field dimension 32) and the spec
of D4 q=3 Borel, so a refactor that changes any output is caught here.
Regenerate the file with `PYTHONPATH=src python tests/test_golden.py` only
when an output is meant to change.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from parasuper.cli import main

DIGESTS = pathlib.Path(__file__).resolve().parent / "golden" / "digests.json"

CONFIGS = [
    ("--family", "D", "--n", "2", "--q", "3", "--blocks", "1,1"),
    ("--family", "C", "--n", "2", "--q", "3", "--blocks", "2"),
]


def golden_commands():
    out = []
    for cfg in CONFIGS:
        out.append(("spec",) + cfg)
        for space in ("u", "ustar"):
            for group in ("Ub", "Hb", "Gb"):
                out.append(("orbits",) + cfg + ("--space", space, "--group", group))
        for target in ("U", "G"):
            out.append(("utheory",) + cfg + ("--target", target))
        out.append(("gtheory",) + cfg)
        out.append(("verify",) + cfg + ("--suite", "all"))
    # the large-Levi configuration (|L| = 96): per-form Levi scans
    out.append(("verify", "--family", "B", "--n", "2", "--q", "3", "--blocks", "1,3",
                "--suite", "all"))
    # large radicals, small Levi: the ζ side of every supercharacter and the
    # G-level induction oracles carry most of the work here
    for q in ("5", "7"):
        cfg = ("--family", "C", "--n", "2", "--q", q, "--blocks", "1,1")
        out.append(("utheory",) + cfg + ("--target", "G"))
        out.append(("gtheory",) + cfg)
    out.append(("verify", "--family", "C", "--n", "2", "--q", "7", "--blocks", "1,1",
                "--suite", "all"))
    # values of Q(zeta_5) carried in Q(zeta_120), dimension 32: the largest
    # Grams of the set, on the U-on-U theory
    out.append(("verify", "--family", "C", "--n", "2", "--q", "5", "--blocks", "2",
                "--suite", "all"))
    # |U| = 3^12: spec prints from L and the space guard alone
    out.append(("spec", "--family", "D", "--n", "4", "--q", "3", "--blocks", "1,1,1,1"))
    return out


def output_digest(argv, path):
    code = main(list(argv) + ["--out", str(path)])
    assert code == 0, "%s exited %d" % (" ".join(argv), code)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_output_matches_golden(argv, tmp_path):
    want = json.loads(DIGESTS.read_text())[" ".join(argv)]
    assert output_digest(argv, tmp_path / "out") == want


@pytest.mark.parametrize("argv", [a for a in golden_commands() if a[0] in ("spec", "orbits")],
                         ids=" ".join)
def test_spec_and_orbits_never_build_the_radical(argv, tmp_path, monkeypatch):
    # neither command prints a matrix of U, so neither builds the radical
    # stack; orbits prints no field either, so it never finds L's exponent
    from parasuper import groups

    def unread(*args):
        raise AssertionError("%s built what it does not print" % argv[0])
    monkeypatch.setattr(groups, "cayley_inv", unread)
    if argv[0] == "orbits":
        monkeypatch.setattr(groups, "_exponent", unread)
    want = json.loads(DIGESTS.read_text())[" ".join(argv)]
    assert output_digest(argv, tmp_path / "out") == want


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = {" ".join(a): output_digest(a, pathlib.Path(tmp) / "out")
                   for a in golden_commands()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
