"""Golden outputs: every command's canonical `--out` file must hash to the
sha256 stored in tests/golden/digests.json.

The digests pin the exact bytes of the orbit partitions (their order too),
both theories' tables and the full verification report on two small
configurations, so a refactor that changes any output is caught here.
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
    return out


def output_digest(argv, path):
    code = main(list(argv) + ["--out", str(path)])
    assert code == 0, "%s exited %d" % (" ".join(argv), code)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_output_matches_golden(argv, tmp_path):
    want = json.loads(DIGESTS.read_text())[" ".join(argv)]
    assert output_digest(argv, tmp_path / "out") == want


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = {" ".join(a): output_digest(a, pathlib.Path(tmp) / "out")
                   for a in golden_commands()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
