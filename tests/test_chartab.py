"""Character tables: classes, irreducibles, orbit sums, induction, inner products."""

import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from conftest import subprocess_env
from cyclo import Cyclo, numerators
from hypothesis import example, given, settings, strategies as st

from parasuper import chartab, linalg
from parasuper.algebra import CycField
from parasuper.chartab import (
    TableGroup, check_orthogonality, conjugacy_classes, irr_characters, s_orbit_sums,
)
from parasuper.errors import FalsificationError, ValidationError
from parasuper.groups import enumerate_gl
from parasuper.verify import induce_exact, integer_gram


def from_elements(elements, mul_fn):
    """The TableGroup of raw elements under a multiplication function."""
    index = {e: i for i, e in enumerate(elements)}
    return TableGroup(elements, [[index[mul_fn(a, b)] for b in elements] for a in elements])


def cyclic(n):
    return TableGroup(list(range(n)), [[(i + j) % n for j in range(n)] for i in range(n)])


def symmetric3():
    import itertools
    perms = list(itertools.permutations(range(3)))
    return from_elements(perms, lambda a, b: tuple(a[b[i]] for i in range(3)))


def subgroup(group, ids):
    """The sub-table of a TableGroup on sorted element ids, which must be
    closed under products, with the ids kept as parent_ids."""
    back = np.full(group.n, -1)
    back[ids] = np.arange(len(ids))
    table = back[group.mul[np.ix_(ids, ids)]]
    assert (table >= 0).all()
    sub = TableGroup([group.elements[i] for i in ids], table)
    sub.parent_ids = list(ids)
    return sub


def orbit_sums(group, sub_ids, tab, s_ids):
    """s_orbit_sums with s^-1 r s read off the group's table."""
    reps = np.asarray(sub_ids)[tab.classes.reps]
    s = np.asarray(s_ids)
    conj = group.mul[group.mul[group.inv[s][:, None], reps[None, :]], s[:, None]]
    return s_orbit_sums(sub_ids, tab, s_ids, conj)


def cyc_chars(tab):
    """The table's integer rows as tuples of Cyclo, one value per class."""
    return [tuple(Cyclo.rows(tab.field.M, ch)) for ch in tab.chars]


def inner_product_classes(field, classes, group_order, vals1, vals2):
    """(1/|G|) sum over G of v1 * conj(v2), via class sums and integer_gram."""
    (a, da), (b, db) = numerators(vals1), numerators(vals2)
    gram = integer_gram(field, a[None], b[None], classes.sizes)
    return Cyclo(field.M, gram[0, 0]) * Fraction(1, group_order * da * db)


def induce(field, *args):
    """induce_exact on Cyclo values in, Cyclo values per class out; the
    values' common denominator divides the induced rows."""
    *head, h_values = args
    h_rows, h_den = numerators(h_values)
    rows, den = induce_exact(*head, h_rows)
    return Cyclo.rows(field.M, rows, den * h_den)


@pytest.fixture(scope="module")
def gl23():
    def key(m):
        return tuple(map(tuple, m.tolist()))
    mats = [key(m) for m in enumerate_gl(2, 3)]
    return from_elements(mats, lambda a, b: key(np.array(a) @ np.array(b) % 3))


def test_conjugacy_classes_abelian():
    g = cyclic(6)
    cls = conjugacy_classes(g)
    assert cls.k == 6 and all(s == 1 for s in cls.sizes)


def test_conjugacy_classes_gl23(gl23):
    cls = conjugacy_classes(gl23)
    assert cls.k == 8
    assert all(gl23.n % s == 0 for s in cls.sizes)
    assert sum(cls.sizes) == 48


def test_irr_cyclic_2():
    g = cyclic(2)
    tab = irr_characters(g, CycField(2))
    vals = sorted(tuple(v.coeffs[0] for v in ch) for ch in cyc_chars(tab))
    assert vals == [(1, -1), (1, 1)]


def test_irr_klein_four():
    els = [(a, b) for a in range(2) for b in range(2)]
    g = from_elements(
        els, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2))
    tab = irr_characters(g, CycField(2))
    assert tab.degrees == [1, 1, 1, 1]


@pytest.mark.parametrize("orders", [(6, 6), (2, 2, 2, 2), (12, 2), (4, 4)])
def test_abelian_chain_matches_dixon(orders):
    import itertools
    els = list(itertools.product(*map(range, orders)))
    g = from_elements(
        els, lambda x, y: tuple((a + b) % o for a, b, o in zip(x, y, orders)))
    field = CycField(lcm(3, g.exponent))
    classes = conjugacy_classes(g)
    chain = chartab._abelian_characters(g, classes, field)
    assert chain.shape == (g.n, g.n, field.dim)
    assert np.array_equal(chain, chartab._dixon_characters(g, classes, field))


def test_irr_gl23_degrees(gl23):
    field = CycField(lcm(3, gl23.exponent))
    tab = irr_characters(gl23, field)
    assert sorted(tab.degrees) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sum(d * d for d in tab.degrees) == 48


def test_irr_symmetric_group_s3():
    tab = irr_characters(symmetric3(), CycField(lcm(2, 3)))
    assert sorted(tab.degrees) == [1, 1, 2]


@pytest.mark.parametrize("which", ["s3", "gl23"])
def test_orthogonality_check_fires(which, gl23):
    # negative control: one value of one irreducible changed in the integer
    # table; the check names a row pair through the changed character, and
    # that pair's inner product, summed class by class, is wrong
    group = symmetric3() if which == "s3" else gl23
    tab = irr_characters(group, CycField(lcm(3, group.exponent)))
    check_orthogonality(tab)
    row, cls = (1, 2) if which == "s3" else (5, 3)
    tab.chars[row, cls, 1] += 1
    with pytest.raises(FalsificationError, match="row orthogonality fails") as err:
        check_orthogonality(tab)
    i, j = err.value.counterexample["rows"]
    assert row in (i, j) and i <= j
    vals = cyc_chars(tab)
    acc = Cyclo(tab.field.M)
    for c, size in enumerate(tab.classes.sizes):
        acc = acc + vals[i][c] * vals[j][c].conj() * size
    assert acc != Cyclo(tab.field.M, [group.n if i == j else 0])
    assert acc.text() == err.value.counterexample["sum"]


def test_orthogonality_check_survives_optimize():
    # the S3 negative control again, in an interpreter that strips asserts
    code = "\n".join([
        "import itertools",
        "from parasuper.algebra import CycField",
        "from parasuper.chartab import TableGroup, check_orthogonality, irr_characters",
        "from parasuper.errors import FalsificationError",
        "perms = list(itertools.permutations(range(3)))",
        "s3 = TableGroup(perms, [[perms.index(tuple(a[b[i]] for i in range(3))) for b in perms]",
        "                        for a in perms])",
        "tab = irr_characters(s3, CycField(6))",
        "tab.chars[1, 2, 1] += 1",
        "try:",
        "    check_orthogonality(tab)",
        "except FalsificationError as exc:",
        "    print(__debug__, exc, exc.counterexample['rows'])",
    ])
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=subprocess_env(src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("False row orthogonality fails [")


def square_matrices(ell):
    entries = st.integers(0, ell - 1)
    return st.integers(1, 6).flatmap(lambda m: st.lists(
        st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([7, 13, 97]).flatmap(
    lambda ell: st.tuples(st.just(ell), square_matrices(ell))))
@example((7, [[0]]))
@example((7, [[0, 1], [0, 0]]))                   # nilpotent: the one root 0
@example((7, [[0, 6], [1, 0]]))                   # t^2 + 1, no root mod 7
@example((13, [[1, 0, 0], [0, 1, 0], [0, 0, 5]]))
@example((97, np.diag([96, 3, 3, 0, 50, 3]).tolist()))   # repeated and zero roots
def test_charpoly_roots_are_the_zeros_of_the_determinant(case):
    ell, B = case
    m = len(B)
    want = [t for t in range(ell)
            if linalg.det([[(B[i][j] - (t if i == j else 0)) % ell for j in range(m)]
                           for i in range(m)], ell) == 0]
    assert chartab._charpoly_roots(np.array(B, dtype=np.int64), ell) == want


def test_non_invariant_eigenspace_is_an_error(monkeypatch):
    # negative control: S3's classes are {1}, the transpositions and the
    # 3-cycles.  The identity class matrix is I; replace the second by
    # diag(1, 1, 2), whose eigenspaces are <e0, e1> and <e2>, and the third by
    # one that maps e0 to e2, so <e0, e1> is not mapped into itself
    real = chartab._class_matrices

    def broken(group, classes):
        mats = real(group, classes)
        mats[1] = np.diag([1, 1, 2])
        mats[2] = 0
        mats[2][2, 0] = 1
        return mats

    monkeypatch.setattr(chartab, "_class_matrices", broken)
    with pytest.raises(RuntimeError, match="eigenspace is not invariant under a class-sum matrix"):
        irr_characters(symmetric3(), CycField(6))


def test_guard():
    with pytest.raises(ValidationError):
        irr_characters(cyclic(10), CycField(10), guard=5)


def test_s_orbit_sums_trivial_action():
    # acting group equal to the subgroup: inner automorphisms fix characters
    g = cyclic(4)
    field = CycField(4)
    tab = irr_characters(g, field)
    sums = [tuple(Cyclo.rows(field.M, s)) for s in orbit_sums(g, range(4), tab, range(4))]
    assert len(sums) == 4
    assert sorted(tuple(v.coeffs for v in s) for s in sums) == \
        sorted(tuple(v.coeffs for v in ch) for ch in cyc_chars(tab))


def test_s_orbit_sums_swap():
    # C4 inside the dihedral group of order 8: reflection swaps i <-> -i,
    # fusing the two faithful linear characters into one degree-2 sum
    els = [(r, s) for s in range(2) for r in range(4)]

    def mul(x, y):
        r1, s1 = x
        r2, s2 = y
        return ((r1 + (r2 if s1 == 0 else -r2)) % 4, (s1 + s2) % 2)

    d8 = from_elements(els, mul)
    sub_ids = [i for i, e in enumerate(d8.elements) if e[1] == 0]
    c4 = subgroup(d8, sub_ids)
    field = CycField(4)
    tab = irr_characters(c4, field)
    sums = orbit_sums(d8, c4.parent_ids, tab, list(range(d8.n)))
    sums = [tuple(Cyclo.rows(field.M, s)) for s in sums]
    assert len(sums) == 3
    idc = int(tab.classes.class_of[c4.ident])
    degs = sorted(s[idc].rational() for s in sums)
    assert degs == [1, 1, 2]


def test_s_orbit_sums_requires_normal():
    s3 = symmetric3()
    # subgroup generated by a transposition is not normal
    swap = s3.elements.index((1, 0, 2))
    sub_ids = sorted({s3.ident, swap})
    c2 = subgroup(s3, sub_ids)
    tab = irr_characters(c2, CycField(6))
    with pytest.raises(ValidationError, match="not normal"):
        orbit_sums(s3, c2.parent_ids, tab, list(range(s3.n)))


def test_induction_degree_and_trivial():
    g = cyclic(6)
    field = CycField(6)
    cls = conjugacy_classes(g)
    sub_ids = [0, 2, 4]
    one = Cyclo(field.M, [1])
    ind = induce(field, cls.class_of, cls.sizes, sub_ids, [0, 0, 0], [one])
    idc = int(cls.class_of[g.ident])
    assert ind[idc].rational() == 2          # index of the subgroup
    # inducing the trivial character of the whole group gives it back
    full = induce(field, cls.class_of, cls.sizes, list(range(6)), [0] * 6, [one])
    assert all(v == one for v in full)


def test_induce_exact_is_the_textbook_sum(gl23):
    # (1/|H|) sum over x in G of phi(x g x^-1), phi extended by zero off H;
    # phi takes three distinct values on the Borel subgroup, one of them zero
    field = CycField(lcm(3, gl23.exponent))
    cls = conjugacy_classes(gl23)
    borel = [i for i, m in enumerate(gl23.elements) if m[1][0] == 0]
    zero = Cyclo(field.M)
    values = [zero, Cyclo(field.M, [1]), Cyclo.zeta(field.M, field.M // 3) * 2]
    local = [i % 3 for i in range(len(borel))]
    phi = {h: values[t] for h, t in zip(borel, local)}
    ind = induce(field, cls.class_of, cls.sizes, borel, local, values)
    assert len(ind) == cls.k
    for k, g in enumerate(cls.reps):
        acc = zero
        for x in range(gl23.n):
            acc = acc + phi.get(int(gl23.mul[gl23.mul[x, g], gl23.inv[x]]), zero)
        assert ind[k] == acc * Fraction(1, len(borel))
    assert len(set(ind)) >= 3


def test_frobenius_reciprocity(gl23):
    field = CycField(lcm(3, gl23.exponent))
    tab = irr_characters(gl23, field)
    cls = tab.classes
    # subgroup: the diagonal torus
    diag = [i for i, m in enumerate(gl23.elements) if m[0][1] == 0 and m[1][0] == 0]
    sub = subgroup(gl23, diag)
    sub_tab = irr_characters(sub, field)
    random.seed(4)
    theta = cyc_chars(sub_tab)[random.randrange(len(sub_tab.chars))]
    psi = cyc_chars(tab)[random.randrange(len(tab.chars))]
    theta_by_el = [theta[int(sub_tab.classes.class_of[t])] for t in range(sub.n)]
    ind = induce(field, cls.class_of, cls.sizes, sub.parent_ids,
                 sub_tab.classes.class_of, theta)
    lhs = inner_product_classes(field, cls, gl23.n, ind, psi)
    # <theta, Res psi> on the subgroup
    res = [psi[int(cls.class_of[sub.parent_ids[int(r)]])] for r in sub_tab.classes.reps]
    rhs = inner_product_classes(field, sub_tab.classes, sub.n, theta_by_el and [
        theta[c] for c in range(sub_tab.classes.k)], res)
    assert lhs == rhs
    # induced characters have integral norm
    norm = inner_product_classes(field, cls, gl23.n, ind, ind)
    assert norm.rational().denominator == 1


def test_inner_product_basics():
    g = cyclic(4)
    field = CycField(4)
    cls = conjugacy_classes(g)
    one = [Cyclo(field.M, [1])] * cls.k
    assert inner_product_classes(field, cls, 4, one, one) == one[0]
    # regular character against trivial
    reg = [Cyclo(field.M, [4 if r == g.ident else 0]) for r in cls.reps]
    assert inner_product_classes(field, cls, 4, reg, one) == one[0]
