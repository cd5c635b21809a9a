import copy
import os
import sys
import pathlib

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cyclo import Cyclo  # noqa: E402
from parasuper.groups import Parabolic, build_spec  # noqa: E402

_WORLDS = {}


def world_for(family, n, q, blocks):
    key = (family, n, q, tuple(blocks))
    if key not in _WORLDS:
        _WORLDS[key] = Parabolic(build_spec(family, n, q, blocks))
    return _WORLDS[key]


def subprocess_env(pythonpath, **extra):
    """The minimal environment of a test subprocess: PYTHONPATH, and
    PYTHONDONTWRITEBYTECODE when the caller sets it, so that a test run
    that writes no bytecode leaves none in src/ through its subprocesses."""
    env = {"PYTHONPATH": str(pythonpath), **extra}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def cleared(world):
    """A copy of a world with an empty memo: it shares the enumerated groups
    but recomputes every memoized table, subgroup and orbit."""
    out = copy.copy(world)
    out._memo = {}
    return out


def levi_conjugates(world):
    """Reference for Levi conjugation: the (nL, nL) ids of L[a] L[b] L[a]^-1,
    from the matrices, each inverse by Gauss-Jordan elimination."""
    from parasuper import linalg
    p = world.spec.p
    inv = linalg.inverse(world.L, p)
    return world.l_ids(world.L[:, None] @ world.L[None] % p @ inv[:, None] % p)


def levi_table(world, ids):
    """Reference for a Levi subgroup's TableGroup: the products of its
    matrices, numbered by position among the sorted ids."""
    from parasuper.chartab import TableGroup
    ids = sorted(int(i) for i in ids)
    mats = world.L[ids]
    prods = world.l_ids(mats[:, None] @ mats[None] % world.spec.p)
    return TableGroup(ids, np.searchsorted(ids, prods))


def levi_values(world, theta):
    """A Levi class function given as (ids, rows), as one Cyclo per Levi id."""
    ids, rows = theta
    return Cyclo.rows(world.field.M, rows[ids])


@pytest.fixture(scope="session")
def borel_d2():
    return world_for("D", 2, 3, (1, 1, 0, 1, 1))


@pytest.fixture(scope="session")
def borel_c2():
    return world_for("C", 2, 3, (1, 1, 0, 1, 1))


@pytest.fixture(scope="session")
def borel_b2():
    return world_for("B", 2, 3, (1, 1, 1, 1, 1))


@pytest.fixture(scope="session")
def twoblock_c2():
    return world_for("C", 2, 3, (2, 0, 2))
