"""Orbit machinery: closures, partitions, stabilizers, bimodules, quotients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parasuper import linalg
from parasuper.groups import identity, ucstar_ad_matrix, ustar_action_matrix
from parasuper.orbits import (
    LinearAction, QuotientSpace, enumerate_subspace, levi_stabilizer,
    orbit_closure, partition_orbits, quotient_orbits, smallest_bimodule,
)
from parasuper.utheory import action_on_u, action_on_ustar, form_data


def test_orbit_of_zero_is_fixed(borel_d2):
    act = action_on_ustar(borel_d2, "Ub")
    orb = orbit_closure(0, act)
    assert orb.size == 1 and orb.rep == 0


def test_orbit_sizes_are_p_powers(borel_c2):
    p = borel_c2.spec.p
    for act in (action_on_ustar(borel_c2, "Ub"), action_on_ustar(borel_c2, "Hb")):
        for orb in partition_orbits(act):
            size = orb.size
            while size % p == 0:
                size //= p
            assert size == 1


def test_sub_orbit_containment(borel_c2):
    ub = action_on_ustar(borel_c2, "Ub")
    hb = action_on_ustar(borel_c2, "Hb")
    for lam in range(borel_c2.u_size):
        o_h = orbit_closure(lam, hb)
        o_u = orbit_closure(lam, ub)
        assert np.isin(o_h.points, o_u.points).all()


def test_partition_covers_disjointly(borel_d2):
    orbits = partition_orbits(action_on_u(borel_d2, "Ub"))
    total = np.concatenate([o.points for o in orbits])
    assert np.array_equal(np.sort(total), np.arange(borel_d2.u_size))
    # each orbit is generator-closed
    act = action_on_u(borel_d2, "Ub")
    for o in orbits:
        for m in act.gen_mats:
            img = np.sort(act.apply(m, o.points))
            assert np.array_equal(img, o.points)


def test_one_point_space():
    act = LinearAction("trivial", 3, 0, [])
    orbits = partition_orbits(act)
    assert len(orbits) == 1 and orbits[0].size == 1


@st.composite
def small_actions(draw):
    p = draw(st.sampled_from([3, 5]))
    dim = draw(st.integers(1, 3))
    entries = st.lists(st.integers(0, p - 1), min_size=dim * dim, max_size=dim * dim)
    mats = entries.map(lambda e: np.array(e, dtype=np.int64).reshape(dim, dim)).filter(
        lambda m: linalg.det(m.tolist(), p) != 0)
    return LinearAction("random", p, dim, draw(st.lists(mats, min_size=1, max_size=3)))


def naive_closure(seed, act):
    seen, todo = {seed}, [seed]
    while todo:
        x = todo.pop()
        for m in act.gen_mats:
            y = int(act.apply(m, [x])[0])
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return tuple(sorted(seen))


@settings(max_examples=60, deadline=None)
@given(small_actions())
def test_partition_is_the_set_of_single_seed_closures(act):
    orbits = partition_orbits(act)
    total = np.concatenate([o.points for o in orbits])
    assert np.array_equal(np.sort(total), np.arange(act.size))
    assert [o.rep for o in orbits] == sorted(o.rep for o in orbits)
    closures = {naive_closure(x, act) for x in range(act.size)}
    assert {tuple(o.points.tolist()) for o in orbits} == closures
    for x in range(act.size):
        assert tuple(orbit_closure(x, act).points.tolist()) == naive_closure(x, act)


def test_stabilizers_on_zero_orbit(borel_b2):
    w = borel_b2
    for space in ("ustar", "ucstar"):
        for mode in ("setwise", "pointwise"):
            assert levi_stabilizer(w, np.array([0]), space, mode) == list(range(w.nL))
    fd = form_data(w, 0)
    assert fd.L0_ids == list(range(w.nL))
    assert fd.S_ids == list(range(w.nL))


@pytest.mark.parametrize("mode", ["setwise", "pointwise"])
@pytest.mark.parametrize("space", ["ustar", "ucstar"])
def test_stabilizers_by_direct_filter(borel_b2, space, mode):
    # dual vectors of the first two crossing roots (on u*) and their extended
    # forms' two-sided orbits (on Uc*): compare the generic stabilizer routine
    # against a handwritten filter over all of L; on the second form the
    # setwise and pointwise stabilizers differ
    w = borel_b2
    spec = w.spec
    for t in (0, 1):
        lam = w.pack_u([int(s == t) for s in range(spec.u_dim)])
        if space == "ustar":
            points = orbit_closure(lam, action_on_ustar(w, "Ub")).points
            act, mat_of = action_on_ustar(w, "Ub"), ustar_action_matrix
        else:
            points = form_data(w, lam).orbit_two_sided.points
            act, mat_of = LinearAction("uc", spec.p, spec.uc_dim, []), ucstar_ad_matrix
        by_hand = []
        for hid, h in enumerate(w.L):
            img = [int(x) for x in act.apply(mat_of(spec, h), points)]
            if (set(img) == set(points.tolist()) if mode == "setwise"
                    else img == points.tolist()):
                by_hand.append(hid)
        got = levi_stabilizer(w, points, space, mode)
        assert got == by_hand
        assert set(levi_stabilizer(w, points, space, "pointwise")) <= set(got)


def test_smallest_bimodule_identity(borel_b2):
    uc_h, u_h = smallest_bimodule(borel_b2, identity(borel_b2.spec.N))
    assert uc_h == [] and u_h == []


def test_smallest_bimodule_defining_property(borel_b2):
    w = borel_b2
    spec = w.spec
    from parasuper import linalg
    from parasuper.groups import mat_inv, mat_mul, mat_sub
    for h in w.L:
        uc_h, u_h = smallest_bimodule(w, h)
        red, piv = linalg.rref(uc_h, spec.p) if uc_h else ([], [])
        hi = mat_inv(h, spec.p)
        # conjugation defect of every basis element lies inside
        for (i, j) in spec.uc_positions:
            e = spec.E(i, j)
            d = mat_sub(mat_mul(mat_mul(h, e, spec.p), hi, spec.p), e, spec.p)
            vec = spec.uc_coords(d, check=False)
            assert linalg.in_span(red, piv, vec, spec.p) or not any(vec)
        # u_h is the u-part: adjoint action is trivial on the quotient
        redu, pivu = linalg.rref(u_h, spec.p) if u_h else ([], [])
        for r in spec.roots_u:
            e = spec.root_matrix(r)
            d = mat_sub(mat_mul(mat_mul(h, e, spec.p), hi, spec.p), e, spec.p)
            vec = spec.u_coords(d)
            assert linalg.in_span(redu, pivu, vec, spec.p) or not any(vec)


def test_quotient_orbits_edge_cases(borel_d2):
    act = action_on_u(borel_d2, "Ub")
    # quotient by zero subspace = plain partition
    qs, orbits0 = quotient_orbits(act, [])
    plain = partition_orbits(act)
    assert sorted(o.size for o in orbits0) == sorted(o.size for o in plain)
    # quotient by the full space has a single point
    full = [tuple(1 if i == j else 0 for i in range(act.dim)) for j in range(act.dim)]
    qs, orbits1 = quotient_orbits(act, full)
    assert len(orbits1) == 1 and orbits1[0].size == 1


def test_quotient_coset_points(borel_b2):
    w = borel_b2
    act = action_on_u(w, "Ub")
    from parasuper.orbits import smallest_bimodule as sb
    h = w.L[1]
    _, u_h = sb(w, h)
    qs, orbits = quotient_orbits(act, u_h)
    total = sum(qs.coset_points(o.points, act).size for o in orbits)
    assert total == w.u_size


def test_enumerate_subspace():
    pts = enumerate_subspace([(1, 0, 2)], 3, 3)
    assert pts.shape == (3, 3)
    assert {tuple(r) for r in pts.tolist()} == {(0, 0, 0), (1, 0, 2), (2, 0, 1)}
    assert enumerate_subspace([], 3, 4).shape == (1, 4)
