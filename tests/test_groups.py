"""Group construction: validation, involution, roots, enumerations, Springer map."""

import random

import pytest

from parasuper.errors import ValidationError
from parasuper.groups import (
    Parabolic, build_spec, enumerate_gl, enumerate_levi, gb_generators,
    identity, mat_add, mat_mul, mat_neg, springer_inv, springer_map,
    subgroup_generators,
)


def mulclose(gens, p, maxsize=None):
    els = set(gens)
    frontier = list(els)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = mat_mul(a, b, p)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if maxsize and len(els) > maxsize:
                        raise AssertionError("closure exceeded %d" % maxsize)
        frontier = new
    return els


# -- validation --------------------------------------------------------------

def test_build_spec_examples():
    spec = build_spec("B", 2, 3, (1, 1, 1, 1, 1))
    assert spec.N == 5 and spec.labels == (2, 1, 0, -1, -2)
    spec = build_spec("C", 2, 3, (2, 0, 2))
    assert spec.N == 4 and len(spec.segments[0]) == 0


@pytest.mark.parametrize("family,n,q,blocks,code", [
    ("B", 2, 3, (1, 2, 1), "middle-parity"),       # the parity violation fires
    ("B", 2, 3, (1, 1, 1), "blocks-sum"),
    ("B", 2, 3, (1, 1, 1, 2, 1), "blocks-asymmetric"),
    ("C", 2, 3, (1, 1, 1, 1, 1), "middle-parity"),
    ("B", 2, 4, (1, 1, 1, 1, 1), "q-not-odd-prime"),
    ("B", 2, 9, (1, 1, 1, 1, 1), "q-not-odd-prime"),
    ("A", 2, 3, (1, 1, 1, 1, 1), "family"),
    ("C", 2, 3, (1, 1, 0, 1, 1, 0), "blocks-asymmetric"),
])
def test_build_spec_rejects(family, n, q, blocks, code):
    with pytest.raises(ValidationError) as err:
        build_spec(family, n, q, blocks)
    assert err.value.code == code


def test_delta_validation():
    spec = build_spec("C", 2, 3, (1, 1, 0, 1, 1), delta=2)
    assert spec.delta == 2
    with pytest.raises(ValidationError):
        build_spec("C", 2, 3, (1, 1, 0, 1, 1), delta=1)


# -- involution ---------------------------------------------------------------

@pytest.mark.parametrize("family,blocks", [
    ("B", (1, 1, 1, 1, 1)), ("C", (1, 1, 0, 1, 1)), ("D", (1, 1, 0, 1, 1)),
])
def test_dagger_is_involutive_antiautomorphism(family, blocks):
    spec = build_spec(family, 2, 3, blocks)
    random.seed(1)
    for _ in range(25):
        a = tuple(tuple(random.randrange(3) for _ in range(spec.N)) for _ in range(spec.N))
        b = tuple(tuple(random.randrange(3) for _ in range(spec.N)) for _ in range(spec.N))
        assert spec.dagger(spec.dagger(a)) == a
        assert spec.dagger(mat_mul(a, b, 3)) == mat_mul(spec.dagger(b), spec.dagger(a), 3)
    # exhaustive on matrix units
    for i in spec.labels:
        for j in spec.labels:
            e = spec.E(i, j)
            assert spec.dagger(spec.dagger(e)) == e
    assert spec.dagger(identity(spec.N)) == identity(spec.N)


def test_dagger_on_units():
    spec = build_spec("B", 2, 3, (1, 1, 1, 1, 1))
    assert spec.dagger(spec.E(2, 1)) == spec.E(-1, -2)
    specc = build_spec("C", 2, 3, (1, 1, 0, 1, 1))
    got = specc.dagger(specc.E(2, 1))
    assert got in (specc.E(-1, -2), mat_neg(specc.E(-1, -2), 3))
    # sign computed from the symplectic structure
    assert got == specc.E(-1, -2)
    assert specc.dagger(specc.E(2, -1)) == mat_neg(specc.E(1, -2), 3)


# -- roots ---------------------------------------------------------------------

def test_root_systems():
    b2 = build_spec("B", 2, 3, (1, 1, 1, 1, 1))
    assert [(r.i, r.j) for r in b2.roots_u] == [(2, 1), (2, 0), (2, -1), (1, 0)]
    assert all(r.eps == -1 for r in b2.roots_u)

    d2 = build_spec("D", 2, 3, (1, 1, 0, 1, 1))
    assert [(r.i, r.j) for r in d2.roots_u] == [(2, 1), (2, -1)]

    c2 = build_spec("C", 2, 3, (1, 1, 0, 1, 1))
    by_pair = {(r.i, r.j): r.eps for r in c2.roots}
    assert by_pair[(2, -2)] == 0 and by_pair[(1, -1)] == 0
    assert by_pair[(2, 1)] in (1, -1) and by_pair[(2, -1)] in (1, -1)


def test_root_basis_is_anti_fixed_and_independent(borel_b2):
    spec = borel_b2.spec
    from parasuper import linalg
    rows = []
    for r in spec.roots_u:
        m = spec.root_matrix(r)
        assert spec.dagger(m) == mat_neg(m, spec.p)
        rows.append(spec.uc_coords(m, check=False))
    assert linalg.rank(rows, spec.p) == spec.u_dim


# -- Levi and unipotent enumeration --------------------------------------------

def test_levi_orders(borel_b2, borel_c2, twoblock_c2):
    assert borel_b2.nL == 8            # torus squared times the middle pair
    assert borel_c2.nL == 4
    assert twoblock_c2.nL == 48        # GL(2,3)
    b131 = build_spec("B", 2, 3, (1, 3, 1))
    assert len(enumerate_levi(b131)) == 2 * 48   # (q-1) times the middle group


def test_levi_is_a_group_of_isometries(borel_b2):
    spec = borel_b2.spec
    L = borel_b2.L
    els = set(L)
    for g in L:
        assert spec.is_isometry(g)
    for a in L[:4]:
        for b in L:
            assert mat_mul(a, b, spec.p) in els


def test_middle_block_group_order():
    # odd orthogonal middle of size 3 has 48 elements
    from parasuper.groups import enumerate_middle
    spec = build_spec("B", 2, 3, (1, 3, 1))
    assert len(enumerate_middle(spec, 3)) == 48
    # symplectic middle of size 2 is SL(2,3), order 24
    specc = build_spec("C", 2, 3, (1, 2, 1))
    assert len(enumerate_middle(specc, 3)) == 24


@pytest.mark.parametrize("family, q, blocks", [
    ("B", 3, (1, 3, 1)), ("C", 3, (1, 2, 1)), ("C", 5, (1, 2, 1)),
    ("D", 3, (1, 2, 1)), ("D", 5, (1, 2, 1)), ("B", 3, (1, 1, 1, 1, 1)),
    ("B", 5, (1, 1, 1, 1, 1)),
])
def test_middle_block_equals_the_isometry_filter(family, q, blocks):
    # same list, same order as filtering GL(n0, q) by the ambient isometry test
    from parasuper.groups import _embed_block, enumerate_middle
    spec = build_spec(family, 2, q, blocks)
    want = [m for m in enumerate_gl(len(spec.segments[0]), q)
            if spec.is_isometry(_embed_block(spec, m, 0))]
    assert enumerate_middle(spec, 3) == want


def test_unipotent_enumeration(borel_d2, borel_b2):
    assert borel_d2.nU == 9
    assert borel_b2.nU == 81
    spec = borel_d2.spec
    for g in borel_d2.U:
        assert spec.is_isometry(g)


def test_gl_enumeration_order():
    assert len(enumerate_gl(2, 3)) == 48
    assert len(enumerate_gl(1, 5)) == 4


# -- Springer map ---------------------------------------------------------------

def test_springer_basics(borel_d2):
    spec = borel_d2.spec
    e = identity(spec.N)
    zero = tuple(tuple(0 for _ in range(spec.N)) for _ in range(spec.N))
    assert springer_map(spec, e) == zero
    assert springer_inv(spec, zero) == e
    # f(1+x) = x whenever x^2 = 0
    x = spec.root_matrix(spec.roots_u[0])
    if mat_mul(x, x, spec.p) == zero:
        assert springer_map(spec, mat_add(e, x, spec.p)) == x


def test_springer_round_trip_exhaustive(borel_d2):
    spec = borel_d2.spec
    for g in borel_d2.U:
        assert springer_inv(spec, springer_map(spec, g)) == g


def test_springer_rejects_non_unipotent(borel_d2):
    spec = borel_d2.spec
    with pytest.raises(ValidationError):
        springer_map(spec, mat_neg(identity(spec.N), spec.p))


def test_springer_equivariance_sampled(borel_c2):
    spec = borel_c2.spec
    gens = subgroup_generators(spec, "Ub")
    random.seed(5)
    vs = gens + [mat_mul(random.choice(gens), random.choice(gens), spec.p) for _ in range(4)]
    from parasuper.groups import mat_inv
    for g in borel_c2.U[:20]:
        fg = springer_map(spec, g)
        for v in vs:
            vi = mat_inv(v, spec.p)
            assert (springer_map(spec, mat_mul(mat_mul(v, g, spec.p), vi, spec.p))
                    == mat_mul(mat_mul(v, fg, spec.p), vi, spec.p))


# -- generators -----------------------------------------------------------------

def test_generator_closures(borel_d2, borel_c2):
    spec = borel_d2.spec
    ub = mulclose(subgroup_generators(spec, "Ub"), spec.p, maxsize=1000)
    assert len(ub) == spec.p ** spec.uc_dim
    hb = mulclose(subgroup_generators(spec, "Hb"), spec.p, maxsize=1000)
    hdim = len(spec.hc_positions())
    assert len(hb) == spec.p ** hdim
    assert set(subgroup_generators(spec, "Hb")) <= set(subgroup_generators(spec, "Ub"))

    specc = borel_c2.spec
    ubc = mulclose(subgroup_generators(specc, "Ub"), specc.p, maxsize=2000)
    assert len(ubc) == specc.p ** specc.uc_dim


def test_lb_generators_generate_blockwise_gl():
    spec = build_spec("C", 2, 3, (2, 0, 2))
    lb = mulclose(subgroup_generators(spec, "Lb"), spec.p, maxsize=3000)
    assert len(lb) == 48 * 48    # independent GL(2,3) on the two blocks


def test_nilpotent_algebra_two_sided_stability(borel_c2):
    spec = borel_c2.spec
    for a in gb_generators(spec)[:6]:
        for b in gb_generators(spec)[:6]:
            for (i, j) in spec.uc_positions:
                m = mat_mul(mat_mul(a, spec.E(i, j), spec.p), b, spec.p)
                assert spec.mat_of_uc(spec.uc_coords(m, check=False)) == m


# -- pair group tables ------------------------------------------------------------

def test_pair_group_structure(borel_d2):
    w = borel_d2
    assert w.g_size == w.nL * w.nU
    g = w.g_matrix(w.g_ident)
    assert g == identity(w.spec.N)
    # locate splits products correctly
    for rid in range(w.nL):
        for uid in range(0, w.nU, 2):
            gm = mat_mul(w.L[rid], w.U[uid], w.spec.p)
            assert w.locate(gm) == (rid, uid)


def test_g_classes_partition(borel_d2):
    label, classes = borel_d2.g_classes
    assert sum(len(c) for c in classes) == borel_d2.g_size
    assert all(label[c[0]] == i for i, c in enumerate(classes))
    # conjugation-stable: identity class is a singleton
    sizes = sorted(len(c) for c in classes)
    assert sizes[0] == 1
