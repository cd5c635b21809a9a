"""The four benchmark workloads and the inputs a seed draws for them.

A workload is a fixed list of `parasuper` commands run back to back by one
client (a closed loop: the next command starts when the previous one has
returned).  The seed picks `--delta` among the non-squares mod q and, for
`ladder-q3`, the order of the commands.  Every command carries the verdict
it must reach: "pass" (exit 0, report `passed`) or "fail" (exit 1, report
not `passed`, every failing check with a counterexample).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (family, n, q, blocks) of each world a workload builds
C2Q5_BOREL = ("C", 2, 5, "1,1")
B2Q3_MID3 = ("B", 2, 3, "1,3")
D3Q3_BOREL = ("D", 3, 3, "1,1,1")
LADDER_Q3 = [("B", 2, 3, "1,1,1"), ("C", 2, 3, "1,1"), ("D", 2, 3, "1,1"), ("C", 2, 3, "2")]
CONTROL_Q3 = ("D", 2, 3, "1,1")


@dataclass(frozen=True)
class Command:
    argv: tuple           # CLI arguments without --out
    verdict: str          # "pass" or "fail"

    @property
    def key(self):
        """The golden-digest key: the command line as a user would type it."""
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple       # of Command, in run order
    delta: int


def nonsquares(q):
    squares = {(x * x) % q for x in range(1, q)}
    return [d for d in range(1, q) if d not in squares]


def config_args(world, delta):
    family, n, q, blocks = world
    return ("--family", family, "--n", str(n), "--q", str(q), "--blocks", blocks,
            "--delta", str(delta))


def verify(world, delta, suite="all", corrupt=None):
    argv = ("verify",) + config_args(world, delta) + ("--suite", suite)
    if corrupt:
        return Command(argv + ("--corrupt", corrupt), "fail")
    return Command(argv, "pass")


def _c2q5(delta):
    return [verify(C2Q5_BOREL, delta)]


def _b2q3_mid3(delta):
    return [verify(B2Q3_MID3, delta)]


def _d3q3_table(delta):
    argv = ("table",) + config_args(D3Q3_BOREL, delta) + ("--theory", "ub", "--format", "json")
    return [Command(argv, "pass")]


def _ladder(delta):
    cmds = [verify(w, delta) for w in LADDER_Q3]
    cmds += [verify(CONTROL_Q3, delta, "utheory", c) for c in ("character", "class")]
    return cmds


# name -> (q, command builder, why); `why` is one line for BENCHMARK.json
SPECS = {
    "verify-c2q5-borel": (
        5, _c2q5,
        "large radical, small Levi: chi_alpha_u and the G-level induction oracles dominate"),
    "verify-b2q3-mid3": (
        3, _b2q3_mid3,
        "large Levi, tiny radical: middle-block enumeration, per-form Levi scans, "
        "non-abelian tables and the lemma suite"),
    "table-d3q3-ub": (
        3, _d3q3_table,
        "rank 3 table output: BFS orbit closures in form data, then JSON emission; no checks"),
    "ladder-q3": (
        3, _ladder,
        "six small commands: per-command fixed costs dominate, and two negative "
        "controls must fail"),
}


def build(name, seed):
    """The workload `name` with the inputs seed `seed` draws."""
    q, make, _ = SPECS[name]
    rng = random.Random(seed)
    delta = rng.choice(nonsquares(q))
    commands = make(delta)
    if name == "ladder-q3":
        rng.shuffle(commands)
    return Workload(name, tuple(commands), delta)


def all_commands(name):
    """Every command the workload can run under any seed (for golden digests)."""
    q, make, _ = SPECS[name]
    return [c for d in nonsquares(q) for c in make(d)]
