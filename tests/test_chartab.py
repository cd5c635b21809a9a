"""Character tables: classes, irreducibles, orbit sums, induction, inner products."""

import random

import pytest

from parasuper.algebra import CycField, lcm
from parasuper.chartab import (
    TableGroup, conjugacy_classes, inner_product_classes, irr_characters,
    s_orbit_sums,
)
from parasuper.errors import ValidationError
from parasuper.groups import enumerate_gl, mat_mul
from parasuper.verify import induce_exact


def cyclic(n):
    return TableGroup(list(range(n)), [[(i + j) % n for j in range(n)] for i in range(n)])


@pytest.fixture(scope="module")
def gl23():
    mats = enumerate_gl(2, 3)
    return TableGroup.from_elements(mats, lambda a, b: mat_mul(a, b, 3))


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
    vals = sorted(tuple(v.coeffs[0] for v in ch) for ch in tab.chars)
    assert vals == [(1, -1), (1, 1)]


def test_irr_klein_four():
    els = [(a, b) for a in range(2) for b in range(2)]
    g = TableGroup.from_elements(
        els, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2))
    tab = irr_characters(g, CycField(2))
    assert tab.degrees == [1, 1, 1, 1]


def test_irr_gl23_degrees(gl23):
    field = CycField(lcm(3, gl23.exponent))
    tab = irr_characters(gl23, field)
    assert sorted(tab.degrees) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sum(d * d for d in tab.degrees) == 48


def test_irr_symmetric_group_s3():
    import itertools
    perms = list(itertools.permutations(range(3)))
    g = TableGroup.from_elements(
        perms, lambda a, b: tuple(a[b[i]] for i in range(3)))
    tab = irr_characters(g, CycField(lcm(2, 3)))
    assert sorted(tab.degrees) == [1, 1, 2]


def test_guard():
    with pytest.raises(ValidationError):
        irr_characters(cyclic(10), CycField(10), guard=5)


def test_s_orbit_sums_trivial_action():
    # acting group equal to the subgroup: inner automorphisms fix characters
    g = cyclic(4)
    field = CycField(4)
    tab = irr_characters(g, field)
    sums = s_orbit_sums(g, list(range(4)), tab, list(range(4)))
    assert len(sums) == 4
    assert sorted(tuple(v.coeffs for v in s) for s in sums) == \
        sorted(tuple(v.coeffs for v in ch) for ch in tab.chars)


def test_s_orbit_sums_swap():
    # C4 inside the dihedral group of order 8: reflection swaps i <-> -i,
    # fusing the two faithful linear characters into one degree-2 sum
    els = [(r, s) for s in range(2) for r in range(4)]

    def mul(x, y):
        r1, s1 = x
        r2, s2 = y
        return ((r1 + (r2 if s1 == 0 else -r2)) % 4, (s1 + s2) % 2)

    d8 = TableGroup.from_elements(els, mul)
    sub_ids = [i for i, e in enumerate(d8.elements) if e[1] == 0]
    c4 = d8.subgroup(sub_ids)
    field = CycField(4)
    tab = irr_characters(c4, field)
    sums = s_orbit_sums(d8, c4.parent_ids, tab, list(range(d8.n)))
    assert len(sums) == 3
    idc = int(tab.classes.class_of[c4.ident])
    degs = sorted(s[idc].as_int() for s in sums)
    assert degs == [1, 1, 2]


def test_s_orbit_sums_requires_normal():
    import itertools
    perms = list(itertools.permutations(range(3)))
    s3 = TableGroup.from_elements(perms, lambda a, b: tuple(a[b[i]] for i in range(3)))
    # subgroup generated by a transposition is not normal
    swap = perms.index((1, 0, 2))
    sub_ids = sorted({s3.ident, swap})
    c2 = s3.subgroup(sub_ids)
    tab = irr_characters(c2, CycField(6))
    with pytest.raises(ValidationError):
        s_orbit_sums(s3, c2.parent_ids, tab, list(range(s3.n)))


def test_induction_degree_and_trivial():
    g = cyclic(6)
    field = CycField(6)
    cls = conjugacy_classes(g)
    sub_ids = [0, 2, 4]
    vals = [field.one] * 3
    ind = induce_exact(g.n, cls.members, sub_ids, vals, field)
    idc = int(cls.class_of[g.ident])
    assert ind[idc].as_int() == 2          # index of the subgroup
    # inducing the trivial character of the whole group gives it back
    full = induce_exact(g.n, cls.members, list(range(6)), [field.one] * 6, field)
    assert all(v == field.one for v in full)


def test_frobenius_reciprocity(gl23):
    field = CycField(lcm(3, gl23.exponent))
    tab = irr_characters(gl23, field)
    cls = tab.classes
    # subgroup: the diagonal torus
    diag = [i for i, m in enumerate(gl23.elements) if m[0][1] == 0 and m[1][0] == 0]
    sub = gl23.subgroup(diag)
    sub_tab = irr_characters(sub, field)
    random.seed(4)
    theta = sub_tab.chars[random.randrange(len(sub_tab.chars))]
    psi = tab.chars[random.randrange(len(tab.chars))]
    theta_by_el = [theta[int(sub_tab.classes.class_of[t])] for t in range(sub.n)]
    ind = induce_exact(gl23.n, cls.members, sub.parent_ids, theta_by_el, field)
    lhs = inner_product_classes(cls, gl23.n, ind, psi)
    # <theta, Res psi> on the subgroup
    res = [psi[int(cls.class_of[sub.parent_ids[int(r)]])] for r in sub_tab.classes.reps]
    rhs = inner_product_classes(sub_tab.classes, sub.n, theta_by_el and [
        theta[c] for c in range(sub_tab.classes.k)], res)
    assert lhs == rhs
    # induced characters have integral norm
    norm = inner_product_classes(cls, gl23.n, ind, ind)
    assert norm.as_fraction().denominator == 1


def test_inner_product_basics():
    g = cyclic(4)
    field = CycField(4)
    cls = conjugacy_classes(g)
    one = [field.one] * cls.k
    assert inner_product_classes(cls, 4, one, one) == field.one
    # regular character against trivial
    reg = [field.from_int(4 if r == g.ident else 0) for r in cls.reps]
    assert inner_product_classes(cls, 4, reg, one) == field.one
