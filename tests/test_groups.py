"""Group construction: validation, involution, roots, enumerations, Cayley map."""

import random
from math import lcm

import numpy as np
import pytest
from conftest import cleared, levi_conjugates, world_for
from hypothesis import given, settings, strategies as st

from parasuper import groups, linalg
from parasuper.algebra import CycField
from parasuper.errors import FalsificationError, ResourceGuardError, ValidationError
from parasuper.groups import (
    Parabolic, build_spec, cayley, cayley_inv, enumerate_gl, enumerate_levi,
    subgroup_generators,
)

CONFTEST_WORLDS = ["borel_d2", "borel_c2", "borel_b2", "twoblock_c2"]


def key(m):
    return tuple(map(tuple, np.asarray(m).tolist()))


def mulclose(gens, p, maxsize=None):
    els = {key(g) for g in gens}
    frontier = list(gens)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = a @ b % p
                if key(c) not in els:
                    els.add(key(c))
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
    ("C", 1, 3, (2,), "trivial-radical"),          # one block: u = 0 and G = L
    ("B", 1, 3, (3,), "trivial-radical"),
    ("C", 1, 65537, (1, 0, 1), "q-too-large"),     # past the stacked eliminations' 2^16
    ("C", 1, 2 ** 89 - 1, (1, 0, 1), "q-too-large"),   # before any primality test
    ("D", 1, 3, (1, 0, 1), "trivial-radical"),     # D1 has no roots: u = 0 with a side block
    # build_spec's keyword arguments in place of the blocks: a delta that is
    # 0 mod q, as given and reduced, is no non-square
    ("C", 2, 3, {"blocks": (1, 1, 0, 1, 1), "delta": 3}, "delta-not-nonsquare"),
    ("C", 2, 3, {"blocks": (1, 1, 0, 1, 1), "delta": 0}, "delta-not-nonsquare"),
])
def test_build_spec_rejects(family, n, q, blocks, code):
    kwargs = blocks if isinstance(blocks, dict) else {"blocks": blocks}
    with pytest.raises(ValidationError) as err:
        build_spec(family, n, q, **kwargs)
    assert err.value.code == code


def test_delta_validation():
    spec = build_spec("C", 2, 3, (1, 1, 0, 1, 1), delta=2)
    assert spec.delta == 2
    with pytest.raises(ValidationError):
        build_spec("C", 2, 3, (1, 1, 0, 1, 1), delta=1)
    # the message names the delta as given
    with pytest.raises(ValidationError, match="^delta 4 is a square mod 3$"):
        build_spec("C", 2, 3, (1, 1, 0, 1, 1), delta=4)
    with pytest.raises(ValidationError, match="^delta 3 is 0 mod 3, not a non-square$"):
        build_spec("C", 2, 3, (1, 1, 0, 1, 1), delta=3)


# -- involution ---------------------------------------------------------------

@pytest.mark.parametrize("family,blocks", [
    ("B", (1, 1, 1, 1, 1)), ("C", (1, 1, 0, 1, 1)), ("D", (1, 1, 0, 1, 1)),
])
def test_dagger_is_involutive_antiautomorphism(family, blocks):
    spec = build_spec(family, 2, 3, blocks)
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.integers(0, 3, (spec.N, spec.N))
        b = rng.integers(0, 3, (spec.N, spec.N))
        assert np.array_equal(spec.dagger(spec.dagger(a)), a)
        assert np.array_equal(spec.dagger(a @ b % 3), spec.dagger(b) @ spec.dagger(a) % 3)
    # exhaustive on matrix units
    for i in spec.labels:
        for j in spec.labels:
            e = spec.E(i, j)
            assert np.array_equal(spec.dagger(spec.dagger(e)), e)
    one = np.eye(spec.N, dtype=np.int64)
    assert np.array_equal(spec.dagger(one), one)


def test_dagger_on_units():
    spec = build_spec("B", 2, 3, (1, 1, 1, 1, 1))
    assert np.array_equal(spec.dagger(spec.E(2, 1)), spec.E(-1, -2))
    specc = build_spec("C", 2, 3, (1, 1, 0, 1, 1))
    got = specc.dagger(specc.E(2, 1))
    assert any(np.array_equal(got, m) for m in (specc.E(-1, -2), -specc.E(-1, -2) % 3))
    # sign computed from the symplectic structure
    assert np.array_equal(got, specc.E(-1, -2))
    assert np.array_equal(specc.dagger(specc.E(2, -1)), -specc.E(1, -2) % 3)


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


@pytest.mark.parametrize("family", ["B", "C", "D"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q", [3, 5])
def test_root_signs_are_the_only_anti_fixed_ones(family, n, q):
    # eps = -s_i s_j (0 on a self-mirrored root) is the one sign that makes
    # E(i,j) + eps E(-j,-i) anti-fixed: the other sign never is
    spec = build_spec(family, n, q, (1,) * n + ((1,) if family == "B" else (0,)) + (1,) * n)
    for r in spec.roots:
        m = spec.root_matrix(r)
        assert np.array_equal(spec.dagger(m), -m % q)
        if r.eps:
            other = (spec.E(r.i, r.j) - r.eps * spec.E(*r.mirror)) % q
            assert not np.array_equal(spec.dagger(other), -other % q)


def test_an_inconsistent_involution_is_caught(monkeypatch):
    # with every sign +1, the symplectic self-mirrored roots E(i,-i) are
    # fixed, not anti-fixed, and the batched check over the root matrices fires
    monkeypatch.setattr(groups.GroupSpec, "sign", lambda self, label: 1)
    with pytest.raises(RuntimeError, match="not anti-fixed"):
        build_spec("C", 2, 3, (1, 1, 0, 1, 1))


def test_root_basis_is_anti_fixed_and_independent(borel_b2):
    spec = borel_b2.spec
    from parasuper import linalg
    rows = []
    for r in spec.roots_u:
        m = spec.root_matrix(r)
        assert np.array_equal(spec.dagger(m), -m % spec.p)
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
    els = {key(g) for g in L}
    for g in L:
        assert spec.is_isometry(g)
    for a in L[:4]:
        for b in L:
            assert key(a @ b % spec.p) in els


def exponent(stack, p):
    """Reference for the exponent of a group of matrices: the lcm of the
    element orders, by one batched power loop that drops each element once
    it reaches 1."""
    one = np.eye(stack.shape[-1], dtype=np.int64)
    exp, k, power = 1, 1, stack
    while len(stack):
        done = (power == one).all(axis=(1, 2))
        if done.any():
            exp = lcm(exp, k)
        stack = stack[~done]
        power = power[~done] @ stack % p
        k += 1
    return exp


def compositions(k):
    """Every tuple of positive integers summing to k."""
    if k == 0:
        yield ()
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            yield (first,) + rest


def admitted_block_lists(family, n, q):
    """Every full symmetric block tuple of rank n with a side block, that
    the default Levi guard admits."""
    N = 2 * n + 1 if family == "B" else 2 * n
    for mid in range(N % 2, N, 2):
        for side in compositions((N - mid) // 2):
            blocks = side + (mid,) + side[::-1]
            try:
                groups.check_levi_bound(blocks, q, groups.DEFAULT_GUARDS["levi"])
            except ResourceGuardError:
                continue
            yield blocks


@pytest.mark.parametrize("family, n, q, blocks", [
    (f, n, q, None) for q, ranks in ((3, (2, 3)), (5, (2,)), (7, (2,))) for f in "BCD"
    for n in ranks] + [("D", 4, 3, (1, 1, 1, 1, 0, 1, 1, 1, 1)), ("C", 2, 19, (2, 0, 2))],
    ids=lambda v: "all" if v is None else str(v))
def test_field_order_is_lcm_of_p_and_the_exponent_of_l(family, n, q, blocks):
    # the tier-1 worlds: every block list at ranks 2 and 3 that the Levi
    # guard admits, D4 Borel and the C2 q=19 spec world (|L| = 123,120),
    # where the closed form gives the exponent that powering all of L gives
    for full in admitted_block_lists(family, n, q) if blocks is None else [blocks]:
        spec = build_spec(family, n, q, full)
        assert spec.field_order() == lcm(q, exponent(enumerate_levi(spec), q)), full


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_levi_exponent_of_every_admitted_block(q):
    # every middle block alone that the Levi guard admits (B: 1, 3; C and D:
    # 0, 2), and GL_n alone (a side block around an empty C middle) up to
    # |GL_n(q)| <= 20,000, against enumeration
    for family, blocks in [("B", (1,)), ("B", (3,)), ("C", (0,)), ("C", (2,)), ("D", (0,)),
                           ("D", (2,)), ("C", (1, 0, 1)), ("C", (2, 0, 2)), ("C", (3, 0, 3))]:
        try:
            groups.check_levi_bound(blocks, q, 20000 if len(blocks) > 1 else
                                    groups.DEFAULT_GUARDS["levi"])
        except ResourceGuardError:
            continue
        if len(blocks) > 1:
            stack = enumerate_gl(blocks[0], q)
        else:
            side = 2 if blocks == (0,) else 1        # D1 has no radical
            spec = build_spec(family, side + blocks[0] // 2, q, (side,) + blocks + (side,))
            stack = groups.enumerate_middle(spec)
        assert groups.levi_exponent(family, q, blocks) == exponent(stack, q), (family, blocks)


def test_middle_block_group_order():
    # odd orthogonal middle of size 3 has 48 elements
    from parasuper.groups import enumerate_middle
    spec = build_spec("B", 2, 3, (1, 3, 1))
    assert len(enumerate_middle(spec)) == 48
    # symplectic middle of size 2 is SL(2,3), order 24
    specc = build_spec("C", 2, 3, (1, 2, 1))
    assert len(enumerate_middle(specc)) == 24


@pytest.mark.parametrize("family, q, blocks", [
    ("B", 3, (1, 3, 1)), ("C", 3, (1, 2, 1)), ("C", 5, (1, 2, 1)),
    ("D", 3, (1, 2, 1)), ("D", 5, (1, 2, 1)), ("B", 3, (1, 1, 1, 1, 1)),
    ("B", 5, (1, 1, 1, 1, 1)),
])
def test_middle_block_equals_the_isometry_filter(family, q, blocks):
    # same list, same order as filtering GL(n0, q) by the ambient isometry test
    from parasuper.groups import enumerate_middle
    spec = build_spec(family, 2, q, blocks)
    mid = spec.block_slice[0]

    def embedded(m):
        g = np.eye(spec.N, dtype=np.int64)
        g[mid, mid] = m
        return g

    want = [m for m in enumerate_gl(len(spec.segments[0]), q)
            if spec.is_isometry(embedded(m))]
    assert np.array_equal(enumerate_middle(spec), np.array(want))


def test_levi_build_rejects_a_non_isometry(monkeypatch):
    # negative control for the batched isometry check of the Levi stack
    spec = build_spec("B", 2, 3, (1, 3, 1))
    good = groups.enumerate_middle(spec)
    bad = good.copy()
    bad[5] = np.diag([1, 1, 2])
    monkeypatch.setattr(groups, "enumerate_middle", lambda spec: bad)
    with pytest.raises(RuntimeError, match="not an isometry"):
        Parabolic(spec)


def test_unipotent_enumeration(borel_d2, borel_b2):
    assert borel_d2.nU == 9
    assert borel_b2.nU == 81
    spec = borel_d2.spec
    for g in borel_d2.U:
        assert spec.is_isometry(g)


def test_gl_enumeration_order():
    assert len(enumerate_gl(2, 3)) == 48
    assert len(enumerate_gl(1, 5)) == 4


# -- Cayley map -------------------------------------------------------------------

def inverse(m, p):
    return linalg.inverse(m, p)


def cayley_by_definition(spec, g):
    """f(1+x) = 2x (x+2)^-1, one matrix inverse per element."""
    p, one = spec.p, np.eye(spec.N, dtype=np.int64)
    x = (g - one) % p
    return 2 * x @ inverse((x + 2 * one) % p, p) % p


def cayley_inv_by_definition(spec, y):
    """y -> 1 + (2-y)^-1 2y, one matrix inverse per element."""
    p, one = spec.p, np.eye(spec.N, dtype=np.int64)
    return (one + inverse((2 * one - y) % p, p) @ (2 * y) % p) % p


def test_cayley_basics(borel_d2):
    spec = borel_d2.spec
    e = np.eye(spec.N, dtype=np.int64)
    zero = np.zeros((spec.N, spec.N), dtype=np.int64)
    assert np.array_equal(cayley(spec, e), zero)
    assert np.array_equal(cayley_inv(spec, zero), e)
    # f(1+x) = x whenever x^2 = 0
    x = spec.root_matrix(spec.roots_u[0])
    if not (x @ x % spec.p).any():
        assert np.array_equal(cayley(spec, e + x), x)


def test_cayley_round_trip_exhaustive(borel_d2):
    spec = borel_d2.spec
    for g in borel_d2.U:
        assert np.array_equal(cayley_inv(spec, cayley(spec, g)), g)


def test_cayley_rejects_non_unipotent(borel_d2):
    spec = borel_d2.spec
    with pytest.raises(ValidationError) as err:
        cayley(spec, -np.eye(spec.N, dtype=np.int64) % spec.p)
    assert err.value.code == "not-unipotent"


def test_cayley_equivariance_sampled(borel_c2):
    spec = borel_c2.spec
    gens = list(subgroup_generators(spec, "Ub"))
    random.seed(5)
    vs = gens + [random.choice(gens) @ random.choice(gens) % spec.p for _ in range(4)]
    for g in borel_c2.U[:20]:
        fg = cayley(spec, g)
        for v in vs:
            vi = inverse(v, spec.p)
            assert np.array_equal(cayley(spec, v @ g @ vi % spec.p), v @ fg @ vi % spec.p)


@pytest.mark.parametrize("name", CONFTEST_WORLDS)
def test_cayley_matches_the_defining_formulas(name, request):
    w = request.getfixturevalue(name)
    spec = w.spec
    fU = cayley(spec, w.U)
    ys = spec.mat_of_u(w.u_digits(np.arange(w.nU)))
    for g, f, y in zip(w.U, fU, ys):
        assert np.array_equal(f, cayley_by_definition(spec, g))
        assert np.array_equal(g, cayley_inv_by_definition(spec, y))
    # an id is the packed coordinates of its Cayley image, and ids invert by negation
    assert np.array_equal(w.pack_u(spec.u_coords(fU)), np.arange(w.nU))
    ar = np.arange(w.nU)
    assert (w.mulU(ar[:, None], ar[None, :])[ar, w.invU] == 0).all()


@pytest.mark.parametrize("name", CONFTEST_WORLDS)
def test_u_codec_is_the_little_endian_base_p_expansion(name, request):
    # reference: each digit of each point of u written out by hand; packing
    # takes the digits mod p and inverts the expansion
    w = request.getfixturevalue(name)
    p, d = w.spec.p, w.spec.u_dim
    points = np.arange(w.nU)
    want = np.array([[x // p ** t % p for t in range(d)] for x in points.tolist()])
    assert np.array_equal(w.u_digits(points), want)
    assert np.array_equal(w.u_digits(points[-1]), want[-1])
    assert np.array_equal(w.pack_u(want), points)
    assert np.array_equal(w.pack_u(want + p), points)
    assert np.array_equal(w.pack_u(want[::-1]), points[::-1])


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from("BCD"), q=st.sampled_from([3, 5]), data=st.data())
def test_cayley_on_random_u_points(family, q, data):
    blocks = (1, 1, 1, 1, 1) if family == "B" else (1, 1, 0, 1, 1)
    spec = build_spec(family, 2, q, blocks)
    coords = data.draw(st.lists(st.integers(0, q - 1), min_size=spec.u_dim,
                                max_size=spec.u_dim))
    y = spec.mat_of_u(coords)
    g = cayley_inv(spec, y)
    assert np.array_equal(g, cayley_inv_by_definition(spec, y))
    assert spec.is_isometry(g)
    assert np.array_equal(cayley(spec, g), y)
    assert np.array_equal(cayley_by_definition(spec, g), y)


def test_radical_lookup_rejects_a_matrix_outside_u(borel_b2):
    w = borel_b2
    h = next(h for h in range(w.nL) if h != w.idL)
    with pytest.raises(ValidationError):
        w.u_ids(w.L[h])
    with pytest.raises(ValidationError):
        w.l_ids(w.U[1])
    assert w.u_ids(w.U[::-1]).tolist() == list(range(w.nU))[::-1]


@pytest.mark.parametrize("family, blocks", [
    ("C", (1, 1, 1, 0, 1, 1, 1)), ("B", (1, 1, 1, 1, 1, 1, 1)),
])
def test_root_entry_key_is_a_permutation_at_rank_three(family, blocks):
    w = Parabolic(build_spec(family, 3, 3, blocks))
    spec = w.spec
    keys = w.pack_u(w.U[:, spec.u_rows, spec.u_cols])
    assert np.array_equal(np.sort(keys), np.arange(w.nU))
    assert w.nU == 3 ** 9


# -- generators -----------------------------------------------------------------

def test_generator_closures(borel_d2, borel_c2):
    spec = borel_d2.spec
    ub = mulclose(subgroup_generators(spec, "Ub"), spec.p, maxsize=1000)
    assert len(ub) == spec.p ** spec.uc_dim
    hb = mulclose(subgroup_generators(spec, "Hb"), spec.p, maxsize=1000)
    hdim = len(spec.hc_positions())
    assert len(hb) == spec.p ** hdim
    assert ({key(g) for g in subgroup_generators(spec, "Hb")}
            <= {key(g) for g in subgroup_generators(spec, "Ub")})

    specc = borel_c2.spec
    ubc = mulclose(subgroup_generators(specc, "Ub"), specc.p, maxsize=2000)
    assert len(ubc) == specc.p ** specc.uc_dim


@pytest.mark.parametrize("name", CONFTEST_WORLDS)
def test_table_generators_are_the_greedy_choice(name, request):
    # reference: the least element outside the two-sided product closure of
    # the identity and the generators so far, closed by plain set loops
    w = request.getfixturevalue(name)
    mul = w.l_ids(w.L[:, None] @ w.L[None] % w.spec.p)
    n, want, closure = w.nL, [], {int(w.idL)}
    while len(closure) < n:
        want.append(min(set(range(n)) - closure))
        closure.add(want[-1])
        while True:
            new = {int(mul[a, b]) for a in closure for b in closure} - closure
            if not new:
                break
            closure |= new
    assert w.levi_generator_conjugates[0].tolist() == want


@pytest.mark.parametrize("name", CONFTEST_WORLDS)
def test_radical_products_on_demand(name, request):
    w = request.getfixturevalue(name)
    # reference ids: the packed Cayley coordinates of each matrix product
    a = np.arange(w.nU)[::7]
    prods = w.U[a][:, None] @ w.U[None] % w.spec.p
    want = w.pack_u(w.spec.u_coords(cayley(w.spec, prods)))
    assert np.array_equal(w.mulU(a[:, None], np.arange(w.nU)[None, :]), want)
    # the Cayley images of the root basis generate U, and the checked
    # right-multiplication table is their product with every element
    basis_ids = w.pack_u(np.eye(w.spec.u_dim))
    assert np.array_equal(w.U_times_basis, w.mulU(np.arange(w.nU)[:, None], basis_ids[None]))
    members, at = w.generated(np.eye(w.spec.u_dim), "U")
    assert np.array_equal(members, np.arange(w.nU)) and np.array_equal(at, w.U_times_basis)


def test_dropping_a_basis_image_fails_the_generation_check(borel_c2, monkeypatch):
    # the claimed subgroup stays all of U while the last basis row is dropped;
    # on a cleared copy, since the world's memo holds U already
    w = cleared(borel_c2)
    eye = np.eye(w.spec.u_dim, dtype=np.int64)
    points = w.u_digits(np.arange(w.nU))
    monkeypatch.setattr(groups, "enumerate_subspace", lambda basis, p: points)
    with pytest.raises(FalsificationError, match="do not generate U$") as err:
        w.generated(eye[:-1], "U")
    assert err.value.counterexample == {"subgroup": "U"}
    # a set that the generators lead out of fails the closure check
    points = w.u_digits([0, 1])
    with pytest.raises(FalsificationError, match="U is not closed") as err:
        w.generated(eye, "U", {"note": 1})
    assert err.value.counterexample == {"subgroup": "U", "note": 1}


def test_a_failed_generation_check_is_not_memoized(borel_c2, monkeypatch):
    # each failing caller reports its own counterexample; once the check
    # passes, the subgroup is stored once for every later caller and name
    from parasuper.utheory import form_data, orbit_partition
    lam = next(int(orb[0]) for orb in orbit_partition(borel_c2, "ustar", "Ub")[1]
               if form_data(borel_c2, int(orb[0])).U_lam_ids.size < borel_c2.nU)
    fd = form_data(borel_c2, lam)
    w = cleared(borel_c2)
    everything = w.u_digits(np.arange(w.nU))
    with monkeypatch.context() as patched:
        patched.setattr(groups, "enumerate_subspace", lambda basis, p: everything)
        for where in ({"lam": lam}, {"lam": -1}, {"pair": "x"}):
            with pytest.raises(FalsificationError, match="do not generate U_lam") as err:
                w.generated(fd.u_lam_basis, "U_lam", where)
            assert err.value.counterexample == {"subgroup": "U_lam", **where}
    members, at = w.generated(fd.u_lam_basis, "U_lam", {"lam": lam})
    assert np.array_equal(members, fd.U_lam_ids)
    again = w.generated(fd.u_lam_basis.tolist(), "U_D", {"pair": "x"})
    assert again[0] is members and again[1] is at


def test_lb_generators_generate_blockwise_gl():
    spec = build_spec("C", 2, 3, (2, 0, 2))
    lb = mulclose(subgroup_generators(spec, "Lb"), spec.p, maxsize=3000)
    assert len(lb) == 48 * 48    # independent GL(2,3) on the two blocks


def test_nilpotent_algebra_two_sided_stability(borel_c2):
    spec = borel_c2.spec
    for a in subgroup_generators(spec, "Gb")[:6]:
        for b in subgroup_generators(spec, "Gb")[:6]:
            for (i, j) in spec.uc_positions:
                m = a @ spec.E(i, j) @ b % spec.p
                assert np.array_equal(spec.mat_of_uc(spec.uc_coords(m, check=False)), m)


# -- pair group tables ------------------------------------------------------------

def test_pair_group_structure(borel_d2):
    w = borel_d2
    assert w.g_size == w.nL * w.nU
    g = w.g_matrix(w.g_ident)
    assert np.array_equal(g, np.eye(w.spec.N, dtype=np.int64))
    # the lookups split products correctly: the Levi part is the block diagonal
    diag = np.zeros((w.spec.N, w.spec.N), dtype=bool)
    for k in w.spec.segments:
        diag[w.spec.block_slice[k], w.spec.block_slice[k]] = True
    for rid in range(w.nL):
        for uid in range(0, w.nU, 2):
            gm = w.g_matrix(rid * w.nU + uid)
            assert w.l_ids(gm * diag) == rid
            assert w.u_ids(w.spec.dagger(w.L[rid]) @ gm) == uid


def test_g_classes_partition(borel_d2):
    label, classes = borel_d2.g_classes
    assert sum(len(c) for c in classes) == borel_d2.g_size
    assert all(label[c[0]] == i for i, c in enumerate(classes))
    # conjugation-stable: identity class is a singleton
    sizes = sorted(len(c) for c in classes)
    assert sizes[0] == 1


def conjugacy_classes_by_matrices(mats, p):
    """Classes of the group whose elements are the stack `mats`, id = index,
    by conjugating every element by every element: sorted member arrays,
    ordered by their least member."""
    n, N = mats.shape[0], mats.shape[-1]
    digits = p ** np.arange(N * N, dtype=np.int64)
    keys = mats.reshape(n, -1) @ digits
    order = np.argsort(keys)
    inv = linalg.inverse(mats, p)
    least = np.arange(n)
    for x, xi in zip(mats, inv):
        conj = (x @ mats % p @ xi % p).reshape(n, -1) @ digits
        at = order[np.searchsorted(keys, conj, sorter=order)]
        assert np.array_equal(keys[at], conj)
        least = np.minimum(least, at)
    return [np.flatnonzero(least == r) for r in np.unique(least)]


@pytest.mark.parametrize("name", CONFTEST_WORLDS)
def test_conjugacy_classes_match_brute_force(name, request):
    w = request.getfixturevalue(name)
    p = w.spec.p
    for (label, classes), mats in (
            (w.u_group_classes, w.U),
            (w.g_classes, (w.L[:, None] @ w.U[None] % p).reshape(-1, w.spec.N, w.spec.N))):
        want = conjugacy_classes_by_matrices(mats, p)
        assert [c.tolist() for c in classes] == [c.tolist() for c in want]
        for i, c in enumerate(want):
            assert (label[c] == i).all()


@pytest.mark.parametrize("name", CONFTEST_WORLDS)
def test_levi_products_are_the_matrix_products(name, request, monkeypatch):
    # mulL (of two and of three factors) and conjL over broadcast id arrays,
    # in slices of 7 products
    w = request.getfixturevalue(name)
    p, rng = w.spec.p, np.random.default_rng(11)
    a, b = rng.integers(w.nL, size=(40, 1)), rng.integers(w.nL, size=(1, 30))
    monkeypatch.setattr(groups, "_slice", lambda width: 7)
    assert np.array_equal(w.mulL(a, b), w.l_ids(w.L[a] @ w.L[b] % p))
    assert np.array_equal(w.mulL(a, b, a), w.l_ids(w.L[a] @ w.L[b] % p @ w.L[a] % p))
    assert np.array_equal(w.conjL(a, b), levi_conjugates(w)[a, b])
    assert w.mulL(a[:, 0], w.invL[a[:, 0]]).tolist() == [w.idL] * len(a)
    assert w.conjL(a[:0], b).shape == (0, 30)


def first_moved_reference(conj, acting, points, key):
    inside = set(points)
    for s in acting:
        for x in points:
            if int(conj[s, x]) not in inside or key is not None and key[conj[s, x]] != key[x]:
                return int(s), int(x)
    return None


@pytest.mark.parametrize("name", CONFTEST_WORLDS + ["mid3_b2"])
def test_first_moved_by_conjugation_is_the_first_of_a_full_scan(name, request):
    # acting sets: all of L, the setwise stabilizers of the forms, and the
    # same with one element dropped (no longer a group, so the generators'
    # closure leaves the set); points: normal and non-normal
    # subgroups and arbitrary sets; keys: membership, the identity map and
    # a key lumping Levi ids together.  Only a non-abelian L moves anything
    from parasuper.utheory import form_data, orbit_partition
    w = world_for("B", 2, 3, (1, 3, 1)) if name == "mid3_b2" else request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    fds = [form_data(w, int(orb[0])) for orb in orbit_partition(w, "ustar", "Ub")[1]]
    actings = [list(range(w.nL))] + [fd.S_ids for fd in fds[:6]]
    actings += [acting[:1] + acting[2:] for acting in actings if len(acting) > 2][:3]
    pointss = [fd.L0_ids for fd in fds[:6]] + [[int(w.idL), w.nL - 1]]
    pointss += [sorted(rng.choice(w.nL, size=3, replace=False).tolist())]
    keys = [None, np.arange(w.nL), np.arange(w.nL) % 3]
    conj, moved = levi_conjugates(w), 0
    for acting in actings:
        for points in pointss:
            for key in keys:
                want = first_moved_reference(conj, acting, points, key)
                assert groups.first_moved_by_conjugation(w, acting, points, key) == want
                moved += want is not None
    abelian = (conj == np.arange(w.nL)).all()
    assert bool(moved) != abelian


def test_first_moved_by_conjugation_on_large_scans_of_gl25():
    # GL(2, 5), scans of more than 2^11 pairs, which test generators only.
    # The first greedy generator of {1, z, ...}, z central of order 4,
    # closes on z^2 outside the set: the set is no group, yet the first
    # generator that moves a point names the first pair of the scan.  On the
    # upper triangular subgroup a generator moves a point; with membership
    # in all of L nothing moves
    w = world_for("C", 2, 5, (2, 0, 2))
    conj = levi_conjugates(w)
    central = np.flatnonzero((conj == np.arange(w.nL)).all(axis=1)).tolist()
    z = min(c for c in central if int(w.mulL([c], [c])[0]) != w.idL)
    ids = np.arange(w.nL)
    block = w.spec.block_slice[1]
    upper = np.flatnonzero(w.L[:, block, block][:, 1, 0] == 0).tolist()
    for acting in ([w.idL, z] + [s for s in range(z + 1, w.nL) if s not in central][:10],
                   upper):
        want = first_moved_reference(conj, acting, ids, ids)
        assert want is not None and groups.first_moved_by_conjugation(w, acting, ids, ids) == want
    assert len(upper) == 80 and groups.first_moved_by_conjugation(w, upper, ids) is None


WORLD_TABLES = ["U", "_u_of_key", "field", "invL", "U_times_basis", "invU", "conjUbyL",
                "levi_generator_conjugates", "g_classes", "u_group_classes"]


def test_a_cleared_memo_rebuilds_every_world_table(borel_c2):
    # negative controls corrupt a copy of a world and clear its memo; the
    # copy must then share no table with the world.  Every table of a warm
    # world is rebuilt equal but new in a cleared copy, and read off the
    # copy's own L: with L reversed, conjUbyL comes out with its rows reversed
    import copy
    w = borel_c2
    assert sorted(name for name, attr in vars(Parabolic).items()
                  if isinstance(attr, groups.world_table)) == sorted(WORLD_TABLES)
    warm = {name: getattr(w, name) for name in WORLD_TABLES}
    bad = copy.copy(w)
    bad._memo = {}
    def same(a, b):
        if isinstance(a, (list, tuple)):
            return len(a) == len(b) and all(map(same, a, b))
        if isinstance(a, CycField):
            return isinstance(b, CycField) and a.M == b.M
        return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype

    for name in WORLD_TABLES:
        table = getattr(bad, name)
        assert table is not warm[name] and table is getattr(bad, name)
        assert same(table, warm[name])
    flipped = copy.copy(w)
    flipped._memo = {}
    flipped.L = w.L[::-1]
    assert np.array_equal(flipped.conjUbyL, w.conjUbyL[::-1])


def test_a_new_world_holds_only_l_and_its_keys(borel_c2):
    # the build enumerates L alone; U, its key table, the field and every
    # other table are world tables, built on first read
    w = Parabolic(borel_c2.spec)
    arrays = {name for name, value in vars(w).items() if isinstance(value, np.ndarray)}
    assert arrays == {"L", "_l_rows", "_l_cols", "_l_lead", "_l_order", "_l_keys"}
    assert not w._memo


@pytest.mark.parametrize("world", [
    ("D", 2, 3, (1, 1, 0, 1, 1)), ("C", 2, 3, (1, 1, 0, 1, 1)), ("B", 2, 3, (1, 1, 1, 1, 1)),
    ("C", 2, 3, (2, 0, 2)), ("B", 2, 3, (1, 3, 1)), ("D", 3, 3, (1, 1, 1, 0, 1, 1, 1))],
    ids=lambda cfg: "%s%d-q%d-%s" % (cfg[0], cfg[1], cfg[2], "|".join(map(str, cfg[3]))))
def test_conjugating_the_radical_is_the_levi_action_on_u(world):
    # conjUbyL reads the conjugates off the dot action of L on u; the
    # reference conjugates the matrices of U by each Levi element and looks
    # the products up in U
    w = world_for(*world)
    p = w.spec.p
    linv = linalg.inverse(w.L, p)
    assert w.conjUbyL.dtype == np.int32
    for r in range(w.nL):
        assert np.array_equal(w.conjUbyL[r], w.u_ids((w.L[r] @ w.U % p) @ linv[r]))
