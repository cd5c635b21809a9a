"""Radical-orbit theory: form extensions, supercharacters, superclasses."""

from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import cleared, levi_conjugates, levi_table, levi_values, world_for
from cyclo import Cyclo

from parasuper import groups, linalg, utheory
from parasuper.algebra import CycField
from parasuper.chartab import conjugacy_classes, irr_characters, s_orbit_sums
from parasuper.errors import FalsificationError, ValidationError
from parasuper.groups import Parabolic, build_spec
from parasuper.orbits import (
    _slice, enumerate_subspace, pack, quotient_orbits, smallest_bimodule, unpack,
)
from parasuper.theory import SuperChar, SuperClass, SuperTheory, ValuePool
from parasuper.utheory import (
    build_u_theory, chi_alpha_u, form_data,
    levi_conj_orbits, lift_to_levi, orbit_eps_counts, orbit_partition, counts_to_values,
    pair_products, subgroup_table, superclass_u, zeta_at_conjugates,
)
from parasuper.gtheory import build_g_theory
from parasuper.verify import check_supertheory


def test_zero_form_data(borel_c2):
    fd = form_data(borel_c2, 0)
    spec = borel_c2.spec
    assert not fd.Lam_coords.any()
    assert fd.orbit_ub.size == 1
    assert np.array_equal(fd.u_lam_basis, np.eye(spec.u_dim))      # u_0 = u
    assert fd.U_lam_ids.size == borel_c2.nU                        # U_0 = U
    assert np.array_equal(fd.UcLam_basis, np.eye(spec.uc_dim))     # Uc_0 = Uc
    assert fd.L0_ids == list(range(borel_c2.nL))


def test_form_extension_is_deterministic(borel_c2):
    a = form_data(borel_c2, 5)
    b = form_data(cleared(borel_c2), 5)
    assert np.array_equal(a.Lam_coords, b.Lam_coords)
    assert np.array_equal(a.orbit_ub, b.orbit_ub)


def test_form_data_full_sweep(borel_c2):
    # the constructor checks restriction, anti-self-duality, both annihilator
    # descriptions of u_lam, that U_lam is the subgroup its generators
    # generate, and multiplicativity
    for orb in orbit_partition(borel_c2, "ustar", "Ub")[1]:
        fd = form_data(borel_c2, int(orb[0]))
        assert fd.orbit_hb.size <= fd.orbit_ub.size
        assert set(fd.L0_ids) <= set(fd.S_ids)


@pytest.fixture(scope="module")
def mid3_b2():
    from conftest import world_for
    return world_for("B", 2, 3, (1, 3, 1))


@pytest.mark.parametrize("name", ["borel_b2", "borel_c2", "borel_d2", "twoblock_c2", "mid3_b2"])
def test_generator_checks_agree_with_all_pairs(name, request):
    # FormData checks U_lam on the Cayley images of a basis of u_lam; the
    # reference finds U_lam by a span test on every point of u and checks
    # closure and multiplicativity over all |U_lam|^2 products
    w = request.getfixturevalue(name)
    p = w.spec.p
    digits = w.u_digits(np.arange(w.nU))
    for orb in orbit_partition(w, "ustar", "Ub")[1]:
        fd = form_data(w, int(orb[0]))
        k = len(fd.u_lam_basis)
        basis = np.broadcast_to(fd.u_lam_basis, (w.nU, k, w.spec.u_dim))
        ref = np.flatnonzero(linalg.rank(np.concatenate([basis, digits[:, None]], axis=1), p) == k)
        assert np.array_equal(fd.U_lam_ids, ref)
        prods = w.mulU(ref[:, None], ref[None, :])
        assert np.isin(prods, ref).all()
        psi = digits[ref] @ np.array(fd.lam_coords) % p
        at = np.searchsorted(ref, prods)
        assert np.array_equal(psi[at], (psi[:, None] + psi[None, :]) % p)


def test_ub_on_g_never_builds_the_radical_table(monkeypatch):
    # radical products are taken on demand, at most one slice of N x N
    # products at once (orbits._slice), far fewer than the |U| x |U| table
    d3 = Parabolic(build_spec("D", 3, 3, (1, 1, 1, 0, 1, 1, 1)))
    batches = []
    real = Parabolic.mulU

    def counted(self, a, b):
        out = real(self, a, b)
        batches.append(np.size(out))
        return out
    monkeypatch.setattr(Parabolic, "mulU", counted)
    theory = build_u_theory(d3, "G")
    assert check_supertheory(theory).passed
    assert batches and max(batches) <= _slice(d3.spec.N ** 2) < d3.nU ** 2


@pytest.mark.parametrize("name", ["borel_b2", "borel_c2"])
def test_counts_and_generated_do_not_depend_on_the_slice(name, request, monkeypatch):
    # orbit_eps_counts and Parabolic.generated take their products in slices
    # of at most _BLOCK entries; slices of a point or two give the same
    # counts, and the same members and positions, as the default
    from parasuper import orbits
    w = request.getfixturevalue(name)
    ub_orbits = orbit_partition(w, "ustar", "Ub")[1]
    bases = [np.eye(w.spec.u_dim, dtype=np.int64)] + [
        form_data(w, int(orb[0])).u_lam_basis for orb in ub_orbits]
    want_counts = [orbit_eps_counts(w, orb) for orb in ub_orbits]
    want_generated = [w.generated(basis, "U") for basis in bases]
    monkeypatch.setattr(orbits, "_BLOCK", 64)
    assert _slice(w.nU) < max(orb.size for orb in ub_orbits)
    assert _slice(w.spec.u_dim * w.spec.N ** 2) < w.nU
    fresh = cleared(w)
    for orb, counts in zip(ub_orbits, want_counts):
        assert np.array_equal(orbit_eps_counts(fresh, orb), counts)
    for basis, (members, at) in zip(bases, want_generated):
        got_members, got_at = fresh.generated(basis, "U")
        assert np.array_equal(got_members, members) and np.array_equal(got_at, at)


def first_form_with(w, pred):
    return next(int(orb[0]) for orb in orbit_partition(w, "ustar", "Ub")[1]
                if pred(form_data(w, int(orb[0]))))


def test_closure_check_fires(borel_c2, monkeypatch):
    # a one-dimensional u_lam whose generator's Cayley image, squared, leaves
    # the span
    lam = first_form_with(borel_c2, lambda fd: fd.lam != 0)

    def planted(mats, p):
        # every reduced kernel, of Uc_Lambda and of u_lam, becomes [1, 0, 0, 1, 0...]
        red = np.zeros(np.shape(mats), dtype=np.int64)
        red[..., 0, [0, 3]] = 1
        pivots = np.zeros(red.shape[:-2] + red.shape[-1:], dtype=bool)
        pivots[..., 0] = True
        return red, pivots
    bad = SimpleNamespace(**{**vars(linalg), "rref_stack": planted})
    monkeypatch.setattr(utheory, "linalg", bad)
    with pytest.raises(FalsificationError, match="not closed under products") as err:
        form_data(cleared(borel_c2), lam)
    assert err.value.counterexample == {"subgroup": "U_lam", "lam": lam}


def test_generation_check_fires(borel_c2, monkeypatch):
    # all of U is closed under products, but the Cayley images of a basis of
    # a smaller u_lam generate only U_lam; on a cleared copy, since the
    # world's memo holds U_lam already
    lam = first_form_with(borel_c2, lambda fd: fd.U_lam_ids.size < borel_c2.nU)
    everything = borel_c2.u_digits(np.arange(borel_c2.nU))
    monkeypatch.setattr(groups, "enumerate_subspace", lambda basis, p: everything)
    with pytest.raises(FalsificationError, match="do not generate U_lam") as err:
        form_data(cleared(borel_c2), lam)
    assert err.value.counterexample == {"subgroup": "U_lam", "lam": lam}


def test_multiplicativity_check_fires(borel_c2, monkeypatch):
    # lam changed at one element of U_lam other than the identity
    lam = first_form_with(borel_c2, lambda fd: fd.U_lam_ids.size > 1)
    real = utheory.eps_exponents

    def changed(world, lam_coords, ids):
        vals = real(world, lam_coords, ids).copy()
        vals[-1] = (vals[-1] + 1) % world.spec.p
        return vals
    monkeypatch.setattr(utheory, "eps_exponents", changed)
    with pytest.raises(FalsificationError, match="not multiplicative on U_lam") as err:
        form_data(cleared(borel_c2), lam)
    assert err.value.counterexample == {"lam": lam}


def chi_alpha_u_by_counting(w, fd, theta_by_l):
    # plain reference: count the (theta, zeta) value pairs that Levi
    # conjugation takes each element of G to, and number the distinct count
    # vectors in ascending order
    zer_ids, zer_rows = counts_to_values(w, orbit_eps_counts(w, fd.orbit_ub))
    zer_vals = Cyclo.rows(w.field.M, zer_rows)
    tvals = list(dict.fromkeys(theta_by_l))
    tid = [tvals.index(v) for v in theta_by_l]
    nz = len(zer_vals)
    pairs = [(t, z) for t in range(len(tvals)) for z in range(nz)]
    # theta and zeta ids at rho g rho^-1 for g = r u, over all rho, coded as
    # the index of the pair (t, z) in `pairs`; one count vector per g
    t_at = np.array(tid)[levi_conjugates(w).T]           # (r, rho)
    z_at = zer_ids[w.conjUbyL.T]                         # (u, rho)
    codes = (t_at[:, None] * nz + z_at[None]).reshape(w.nL * w.nU, w.nL)
    vectors = np.zeros((len(codes), len(pairs)), dtype=np.int64)
    np.add.at(vectors, (np.arange(len(codes))[:, None], codes), 1)
    distinct, position = np.unique(vectors, axis=0, return_inverse=True)
    scale = Fraction(fd.orbit_hb.size, fd.orbit_ub.size * len(fd.L0_ids))
    values = []
    for vec in distinct:
        acc = Cyclo(w.field.M)
        for (t, z), c in zip(pairs, vec.tolist()):
            if c:
                acc = acc + tvals[t] * zer_vals[z] * c
        values.append(acc * scale)
    return position.ravel().tolist(), values


def _levi_conjugate(w, rho, g):
    """Packed ids of rho g rho^-1 for an array g of packed G ids."""
    r, u = np.divmod(np.asarray(g, dtype=np.int64), w.nU)
    return w.conjL(rho, r) * w.nU + w.conjUbyL[rho, u]


@pytest.mark.parametrize("name", ["borel_d2", "mid3_b2"])
def test_levi_conj_orbits(name, request):
    w = request.getfixturevalue(name)
    reps, orbit = levi_conj_orbits(w)
    g = np.arange(w.g_size)
    # constant on orbits, and each representative is its orbit's least id
    for rho in range(w.nL):
        assert np.array_equal(orbit[_levi_conjugate(w, rho, g)], orbit)
    assert np.array_equal(orbit[reps], np.arange(reps.size))
    assert (reps[orbit] <= g).all() and (np.diff(reps) > 0).all()
    # Burnside: the number of orbits is the mean number of fixed points
    conj = levi_conjugates(w)
    fixed = sum(int((conj[rho] == np.arange(w.nL)).sum())
                * int((w.conjUbyL[rho] == np.arange(w.nU)).sum()) for rho in range(w.nL))
    assert fixed % w.nL == 0 and reps.size == fixed // w.nL


@pytest.mark.parametrize("name", ["borel_d2", "mid3_b2"])
def test_superclass_u_is_the_union_of_levi_conjugates(name, request):
    # reference: the union over every rho of rho (h coset) rho^-1
    w = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    for h_idx in rng.choice(w.nL, size=min(w.nL, 6), replace=False):
        for size in (1, 3, w.nU // 2):
            coset = rng.choice(w.nU, size=size, replace=False)
            want = np.unique(np.concatenate(
                [_levi_conjugate(w, rho, h_idx * w.nU + coset) for rho in range(w.nL)]))
            assert np.array_equal(superclass_u(w, h_idx, coset), want)


def stabilizer_orbit_sums(w, fd, conj):
    """L0's character table and its orbit sums under S, s^-1 r s read off
    the reference conjugation table `conj` (levi_conjugates)."""
    table = subgroup_table(w, fd.L0_ids)
    reps = np.asarray(fd.L0_ids)[table.classes.reps]
    return table, s_orbit_sums(fd.L0_ids, table, fd.S_ids, conj[np.ix_(w.invL[fd.S_ids], reps)])


def theta_sums(w):
    """(fd, table, rows, theta_by_l) for every form and every orbit sum theta
    of its pointwise stabilizer's irreducibles; theta_by_l is theta as one
    Cyclo per Levi element id, zero outside the stabilizer."""
    conj = levi_conjugates(w)
    for orb in orbit_partition(w, "ustar", "Ub")[1]:
        fd = form_data(w, int(orb[0]))
        table, sums = stabilizer_orbit_sums(w, fd, conj)
        pos_of = {g: t for t, g in enumerate(fd.L0_ids)}
        for rows in sums:
            vals = Cyclo.rows(w.field.M, rows)
            yield fd, table, rows, [vals[int(table.classes.class_of[pos_of[r]])]
                                    if r in pos_of else Cyclo(w.field.M) for r in range(w.nL)]


def test_lift_to_levi_numbers_values_by_first_appearance(borel_c2):
    # chi_alpha_u's local ids, and with them the printed character order,
    # depend on how theta's values are numbered: in order of first
    # appearance over the Levi ids, as dict.fromkeys numbers them
    w = borel_c2
    shared = 0
    for fd, table, rows, theta_by_l in theta_sums(w):
        shared += len(np.unique(rows, axis=0)) < len(rows)
        ids, distinct = lift_to_levi(w, fd.L0_ids, table, rows)
        first = {v: k for k, v in enumerate(dict.fromkeys(theta_by_l))}
        assert ids.tolist() == [first[v] for v in theta_by_l]
        assert Cyclo.rows(w.field.M, distinct) == list(first)
    assert shared        # some theta takes one value on two classes of L0


@pytest.mark.parametrize("name", ["borel_d2", "twoblock_c2", "mid3_b2"])
def test_chi_alpha_u_matches_pair_counting(name, request):
    # mid3_b2's wide Levi subgroup (|L| = 96) gives long rows of
    # (Levi part, zeta id) pairs, which zeta_at_conjugates shares by row
    w = request.getfixturevalue(name)
    for fd, table, rows, theta_by_l in theta_sums(w):
        theta = lift_to_levi(w, fd.L0_ids, table, rows)
        assert levi_values(w, theta) == theta_by_l
        ids, rows, den = chi_alpha_u(w, fd, theta, zeta_at_conjugates(w, fd))
        want_ids, want_values = chi_alpha_u_by_counting(w, fd, theta_by_l)
        assert ids.tolist() == want_ids
        assert Cyclo.rows(w.field.M, rows, den) == want_values


@pytest.mark.parametrize("M", [12, 20])
@pytest.mark.parametrize("shape", [(40,), (6, 9)])
def test_pair_products_is_the_product_of_each_codes_rows(M, shape):
    # every code's row is the product of its own theta row and zeta row;
    # codes repeat, some theta and zeta ids are never named, and the
    # distinct codes are valued once each, in ascending order
    field = CycField(M)
    rng = np.random.default_rng(M + len(shape))
    t_rows = rng.integers(-4, 5, (5, field.dim))
    z_rows = rng.integers(-4, 5, (7, field.dim))
    t_ids, z_ids = rng.integers(0, 3, shape), rng.integers(2, 6, shape)
    codes = t_ids * len(z_rows) + z_ids
    pos, rows = pair_products(field, codes, t_rows, z_rows)
    assert pos.shape == codes.shape and len(rows) == len(np.unique(codes)) < codes.size
    assert np.array_equal(np.unique(codes)[pos], codes)
    for t, z, at in zip(t_ids.ravel(), z_ids.ravel(), pos.ravel()):
        assert np.array_equal(rows[at], field.mul_rows(t_rows[[t]], z_rows[[z]])[0])


def test_radical_supercharacter_values(borel_c2):
    w = borel_c2
    field = w.field
    theory = build_u_theory(w, "U")
    for ch in theory.chars:
        lam = ch.provenance["lam"]
        # degree equals the size of the smaller orbit
        assert ch.degree(0) == ch.provenance["sub_orbit_size"]
        if lam == 0:
            one = ((1,) + (0,) * (field.dim - 1), 1)
            assert all(ch.value_at(u) == one for u in range(w.nU))


def test_u_theory_counts_match(borel_d2, borel_c2):
    for w in (borel_d2, borel_c2):
        theory = build_u_theory(w, "U")
        n_star = len(orbit_partition(w, "ustar", "Ub")[1])
        n_pts = len(orbit_partition(w, "u", "Ub")[1])
        assert len(theory.chars) == n_star
        assert len(theory.classes) == n_pts
        assert n_star == n_pts


def test_g_theory_assembles(borel_d2):
    theory = build_u_theory(borel_d2, "G")
    assert len(theory.chars) == len(theory.classes)
    assert check_supertheory(theory).passed
    # the identity class is present
    assert any(kl.size == 1 and kl.rep == theory.ident_id for kl in theory.classes)


def test_chi_alpha_degree_formula(borel_b2):
    w = borel_b2
    theory = build_u_theory(w, "G")
    for ch in theory.chars:
        lam = ch.provenance["lam"]
        fd = form_data(w, lam)
        theta_one = levi_values(w, ch.provenance["theta_by_l"])[w.idL]
        want = Fraction(fd.orbit_hb.size * w.nL, len(fd.L0_ids)) * theta_one.rational()
        assert ch.value_at(theory.ident_id) == Cyclo(w.field.M, [want]).pair()


def test_zero_form_block_is_levi_character_lift(borel_c2):
    w = borel_c2
    theory = build_u_theory(w, "G")
    # the zero-form characters are the Levi characters pulled back through
    # the quotient; their values do not depend on the radical part
    zero_chars = [ch for ch in theory.chars if ch.provenance["lam"] == 0]
    assert zero_chars
    for ch in zero_chars:
        ids = ch.ids.reshape(w.nL, w.nU)
        assert (ids == ids[:, :1]).all()


def test_superclass_single_point(borel_d2):
    theory = build_u_theory(borel_d2, "G")
    singles = [kl for kl in theory.classes if kl.size == 1]
    assert any(kl.rep == theory.ident_id for kl in singles)


def test_falsification_on_corrupted_theory(borel_d2):
    from parasuper.verify import corrupt_character
    theory = build_u_theory(borel_d2, "G")
    bad = corrupt_character(theory)
    report = check_supertheory(bad)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and failing[0].counterexample


def test_subgroup_table_is_one_table_per_subgroup(mid3_b2):
    # the pointwise stabilizers of the forms repeat; each distinct subgroup
    # gets one table, whatever the order of its ids
    w = mid3_b2
    stabs = {tuple(form_data(w, int(orb[0])).L0_ids)
             for orb in orbit_partition(w, "ustar", "Ub")[1]}
    assert len(stabs) > 1
    tables = {}
    for ids in stabs:
        tab = subgroup_table(w, ids)
        assert subgroup_table(w, list(reversed(ids))) is tab
        assert subgroup_table(w, np.random.default_rng(3).permutation(ids)) is tab
        assert tab.group.elements == sorted(ids)
        fresh = irr_characters(levi_table(w, ids), w.field)
        assert np.array_equal(tab.group.mul, fresh.group.mul)
        assert np.array_equal(tab.chars, fresh.chars)
        tables[ids] = tab
    assert len({id(tab) for tab in tables.values()}) == len(stabs)


def test_subgroup_table_refuses_a_set_that_is_no_subgroup(mid3_b2):
    # the identity and an element whose square is neither: the products of
    # the set leave it, and no table is built
    w = mid3_b2
    x = next(x for x in range(w.nL) if int(w.mulL([x], [x])[0]) not in (w.idL, x))
    with pytest.raises(ValidationError, match="not closed under products"):
        subgroup_table(w, [w.idL, x])
    assert not w.memoized(("subgroup_table", tuple(sorted([w.idL, x]))))


def test_theories_compute_one_table_per_distinct_subgroup(monkeypatch):
    # both G theories of B2 q=3 blocks 1,3 take their Levi subgroup tables
    # from subgroup_table: one irr_characters call per distinct subgroup,
    # fewer than the forms and scalar Levi subgroups that ask for one
    from parasuper.gtheory import build_g_theory, signature_classes
    w = Parabolic(build_spec("B", 2, 3, (1, 3, 1)))
    calls = []

    def counted(group, *args):
        calls.append(group.elements)
        return irr_characters(group, *args)

    monkeypatch.setattr(utheory, "irr_characters", counted)
    build_u_theory(w, "G")
    build_g_theory(w)
    assert len(calls) == len({tuple(ids) for ids in calls})      # no subgroup twice
    asked = len(orbit_partition(w, "ustar", "Ub")[1]) + len(signature_classes(w))
    assert len(calls) < asked


@pytest.mark.parametrize("name", ["borel_c2", "borel_d2"])
def test_uc_lambda_is_the_intersection_of_both_annihilators(name, request):
    # Uc_Lambda = {x in Uc : Lambda(x h) = Lambda(h-dagger x) = 0 for h in Hc},
    # by scanning every x of Uc, Lambda(M) the pairing of M with the matrix
    # of Lambda (zero outside Uc)
    w = request.getfixturevalue(name)
    spec, p = w.spec, w.spec.p
    xs = spec.mat_of_uc(unpack(np.arange(p ** spec.uc_dim), p, spec.uc_dim))
    hc = spec.units(spec.hc_positions())
    for orb in orbit_partition(w, "ustar", "Ub")[1]:
        fd = form_data(w, int(orb[0]))
        lam_m = spec.mat_of_uc(fd.Lam_coords)
        right = (xs[:, None] @ hc * lam_m).sum(axis=(2, 3)) % p
        left = (spec.dagger(hc) @ xs[:, None] * lam_m).sum(axis=(2, 3)) % p
        want = np.flatnonzero(~(right.any(axis=1) | left.any(axis=1)))
        got = np.unique(pack(enumerate_subspace(fd.UcLam_basis, p), p))
        assert np.array_equal(got, want)
        assert np.array_equal(linalg.rref(fd.UcLam_basis, p, spec.uc_dim)[0], fd.UcLam_basis)


def u_theory_over_every_form(w):
    # the G branch of build_u_theory before it kept one form per L-orbit and
    # one Levi element per conjugacy class: every form and every Levi
    # element, copies dropped when the SuperTheory is made
    pool = ValuePool(w.field)
    chars, conj = [], levi_conjugates(w)
    for orb in orbit_partition(w, "ustar", "Ub")[1]:
        lam = int(orb[0])
        fd = form_data(w, lam)
        table, sums = stabilizer_orbit_sums(w, fd, conj)
        zeta = zeta_at_conjugates(w, fd)
        for sidx, vals in enumerate(sums):
            theta = lift_to_levi(w, fd.L0_ids, table, vals)
            ids = pool.intern(*chi_alpha_u(w, fd, theta, zeta))
            chars.append(SuperChar("chi[lam=%d,theta=%d]" % (lam, sidx), ids,
                                   pool, {"lam": lam, "theta": sidx, "theta_by_l": theta}))
    classes = []
    act_u = w.action("u", "Ub")
    for h_idx in range(w.nL):
        _, u_h_basis = smallest_bimodule(w, w.L[h_idx])
        for omega, coset in quotient_orbits(act_u, u_h_basis, w.guards["space"]):
            classes.append(SuperClass("K[h=%d,omega=%d]" % (h_idx, omega),
                                      superclass_u(w, h_idx, coset),
                                      {"h": h_idx, "omega": omega}))
    return SuperTheory("Ub-on-G", w.g_size, w.g_ident, chars, classes, pool, {})


@pytest.mark.parametrize("config", [
    ("D", 2, 3, (1, 1, 0, 1, 1)), ("C", 2, 3, (2, 0, 2)), ("B", 2, 3, (1, 3, 1)),
    ("C", 2, 5, (1, 1, 0, 1, 1)), ("D", 3, 3, (1, 1, 1, 0, 1, 1, 1))])
def test_levi_representatives_build_the_theory_of_every_form(config):
    from conftest import world_for
    w = world_for(*config)
    got, want = build_u_theory(w, "G"), u_theory_over_every_form(w)
    assert got.pool.values == want.pool.values
    assert [ch.label for ch in got.chars] == [ch.label for ch in want.chars]
    for a, b in zip(got.chars, want.chars):
        assert np.array_equal(a.ids, b.ids)
        assert (a.provenance["lam"], a.provenance["theta"]) == (b.provenance["lam"],
                                                                b.provenance["theta"])
        for x, y in zip(a.provenance["theta_by_l"], b.provenance["theta_by_l"]):
            assert np.array_equal(x, y)
    assert [(kl.label, kl.provenance) for kl in got.classes] == \
        [(kl.label, kl.provenance) for kl in want.classes]
    for a, b in zip(got.classes, want.classes):
        assert np.array_equal(a.members, b.members)


def test_ub_on_g_builds_each_character_and_class_once(monkeypatch):
    # one chi_alpha_u call per supercharacter and one quotient partition per
    # distinct u_h of the conjugacy classes of L, on B2 q=3 blocks 1,3
    # (|L| = 96, 27 forms, 20 classes of L)
    w = Parabolic(build_spec("B", 2, 3, (1, 3, 1)))
    counts = Counter()

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(utheory, name, wrapper)
    counted("chi_alpha_u", utheory.chi_alpha_u)
    counted("quotient_orbits", utheory.quotient_orbits)
    theory = build_u_theory(w, "G")
    assert counts["chi_alpha_u"] == len(theory.chars) == 44
    reps = utheory.levi_class_representatives(w)
    assert len(reps) == len(conjugacy_classes(levi_table(w, range(w.nL))).reps) == 20
    u_hs = {(b.shape, b.tobytes()) for b in (smallest_bimodule(w, w.L[h])[1] for h in reps)}
    assert counts["quotient_orbits"] == len(u_hs) == 10


@pytest.mark.parametrize("config", [("B", 2, 3, (1, 3, 1)), ("C", 2, 5, (1, 1, 0, 1, 1))])
def test_levi_class_representatives_are_the_least_of_each_class(config):
    # read off L's character table; the reference takes the least conjugate
    # of every Levi element from the |L| x |L| conjugation table
    w = world_for(*config)
    want = np.flatnonzero(levi_conjugates(w).min(axis=0) == np.arange(w.nL)).tolist()
    assert utheory.levi_class_representatives(w) == want


def test_levi_representative_forms_image_the_forms_in_slices():
    # C3 q=3 blocks 3 has 11,232 Levi elements and 729 forms: all their
    # images at once held an 812 MB int64 stack
    import tracemalloc
    w = Parabolic(build_spec("C", 3, 3, (3, 0, 3)))
    tracemalloc.start()
    try:
        forms = utheory.levi_representative_forms(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forms) == 7 and forms[0] == 0
    assert peak < 200 * 2 ** 20


def test_the_radical_subgroup_is_built_once_per_annihilator(monkeypatch):
    # U_lam depends on lam only through u_lam: the 49 forms of C2 q=5 Borel
    # have 2 distinct u_lam, and generated builds 2 subgroups for them
    w = Parabolic(build_spec("C", 2, 5, (1, 1, 0, 1, 1)))
    builds = []
    real = groups.enumerate_subspace
    monkeypatch.setattr(groups, "enumerate_subspace",
                        lambda basis, p: builds.append(len(basis)) or real(basis, p))
    forms = [form_data(w, int(orb[0])) for orb in orbit_partition(w, "ustar", "Ub")[1]]
    assert len(forms) == 49
    assert len({fd.u_lam_basis.tobytes() for fd in forms}) == len(builds) == 2
    assert all(fd.U_lam_ids is form_data(w, 0).U_lam_ids
               for fd in forms if len(fd.u_lam_basis) == w.spec.u_dim)


@pytest.mark.parametrize("name", ["borel_d2", "borel_c2", "borel_b2", "twoblock_c2", "borel_d3"])
def test_memoized_form_data_is_that_of_a_cleared_world(name, request):
    # each form's data on the shared memo equals the data built alone on a
    # world with an empty memo: every form of the conftest worlds, and the
    # form representatives of D3 q=3 Borel, where distinct u_lam share a
    # dimension (its 6 subgroups have dimensions 3, 4, 4, 5, 5 and 6)
    if name == "borel_d3":
        w = world_for("D", 3, 3, (1, 1, 1, 0, 1, 1, 1))
        forms = [int(orb[0]) for orb in orbit_partition(w, "ustar", "Ub")[1]]
    else:
        w = request.getfixturevalue(name)
        forms = range(w.nU)
    for lam in forms:
        warm, cold = vars(form_data(w, lam)), vars(form_data(cleared(w), lam))
        assert warm.keys() == cold.keys()
        for field in warm.keys() - {"world"}:
            assert np.array_equal(warm[field], cold[field]), (lam, field)


def test_memoized_subgroups_cosets_and_closures_are_read_only(borel_c2):
    w = borel_c2
    build_u_theory(w, "G")
    build_g_theory(w)
    arrays_of = {"generated": list, "quotient_orbits": lambda cosets: [c for _, c in cosets],
                 "coset_closure": lambda closure: [closure]}
    shared = {}
    for key, value in w._memo.items():
        if isinstance(key, tuple) and key[0] in arrays_of:
            shared.setdefault(key[0], []).extend(arrays_of[key[0]](value))
    assert shared.keys() == arrays_of.keys()
    assert any(a is w.U_times_basis for a in shared["generated"])
    for arrays in shared.values():
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[..., :1] = 0


def test_a_missing_form_representative_fails_the_axioms(borel_c2, monkeypatch):
    # negative control: the axioms catch a reduction that drops one L-orbit
    # of forms
    real = utheory.levi_representative_forms
    monkeypatch.setattr(utheory, "levi_representative_forms", lambda world: real(world)[:-1])
    report = check_supertheory(build_u_theory(borel_c2, "G"))
    failing = [c for c in report.checks if not c.passed]
    assert "count-equality" in [c.name for c in failing]
    assert all(c.counterexample for c in failing)


BATCH_WORLDS = {
    "B2-borel": ("B", 2, 3, (1, 1, 1, 1, 1)),
    "B2-1,3": ("B", 2, 3, (1, 3, 1)),
    "C2q5-borel": ("C", 2, 5, (1, 1, 0, 1, 1)),
    "D3-borel": ("D", 3, 3, (1, 1, 1, 0, 1, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(BATCH_WORLDS))
def test_a_batch_gives_every_form_the_data_of_a_batch_of_one(name):
    # one stacked pass over every form representative, on a world with an
    # empty memo, against each form built alone on another
    w = world_for(*BATCH_WORLDS[name])
    forms = [int(orb[0]) for orb in orbit_partition(w, "ustar", "Ub")[1]]
    batched = cleared(w)
    utheory.build_forms(batched, forms)
    for lam in forms:
        assert batched.memoized(("form_data", lam))
        many, one = vars(form_data(batched, lam)), vars(form_data(cleared(w), lam))
        assert many.keys() == one.keys()
        for field in many.keys() - {"world"}:
            assert np.array_equal(many[field], one[field]), (lam, field)


def _plant_extension_defects(world, monkeypatch, coord, columns):
    # every form with a nonzero coordinate `coord` gets a nonzero entry in
    # the given columns of form_maps
    planted = utheory.form_maps(world).copy()
    planted[coord, columns] += 1
    monkeypatch.setattr(utheory, "form_maps", lambda w: planted)


def _plant_multiplicativity_defect(world, monkeypatch, lam):
    # the elementary character of the form lam changes at one element
    real = utheory.eps_exponents
    bad_coords = world.u_digits(lam)

    def changed(w, lam_coords, ids):
        vals = real(w, lam_coords, ids)
        if np.array_equal(lam_coords, bad_coords):
            vals = vals.copy()
            vals[-1] = (vals[-1] + 1) % w.spec.p
        return vals
    monkeypatch.setattr(utheory, "eps_exponents", changed)


@pytest.mark.parametrize("plant, message", [
    ("anti-self-dual", "extension is not anti-self-dual"),
    # a form failing two stacked checks reports the first in check order
    ("both", "extension does not restrict to the original form"),
    ("per-form", "form composed with the Springer map is not multiplicative on U_lam")])
def test_a_form_failing_in_a_batch_raises_alone_and_the_others_are_kept(
        borel_c2, monkeypatch, plant, message):
    # negative control: one form of a batch fails a check, in the stacked
    # part or in its own step.  The batch stores nothing for it and raises
    # nothing; asking for it raises its failure, the message and
    # counterexample of the same form built alone, every time; the other
    # forms are memoized
    forms = [int(orb[0]) for orb in orbit_partition(borel_c2, "ustar", "Ub")[1]]
    digits = borel_c2.u_digits(forms)
    coord = int(np.flatnonzero(digits.any(axis=0))[-1])
    bad = next(lam for lam, d in zip(forms, digits) if d[coord] and form_data(
        borel_c2, lam).U_lam_ids.size > 1)
    batch = [lam for lam, d in zip(forms, digits) if not d[coord]] + [bad]
    batch.insert(len(batch) // 2, batch.pop())
    uc, u = borel_c2.spec.uc_dim, borel_c2.spec.u_dim
    if plant == "anti-self-dual":
        _plant_extension_defects(borel_c2, monkeypatch, coord, [uc + u])
    elif plant == "both":
        _plant_extension_defects(borel_c2, monkeypatch, coord, [uc, uc + u])
    else:
        _plant_multiplicativity_defect(borel_c2, monkeypatch, bad)
    with pytest.raises(FalsificationError, match=message) as alone:
        form_data(cleared(borel_c2), bad)
    w = cleared(borel_c2)
    utheory.build_forms(w, batch)
    assert [lam for lam in batch if not w.memoized(("form_data", lam))] == [bad]
    for _ in range(2):
        with pytest.raises(FalsificationError, match=message) as err:
            form_data(w, bad)
        assert err.value.counterexample == alone.value.counterexample == {"lam": bad}
    assert not w.memoized(("form_data", bad))
