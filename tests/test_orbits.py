"""Orbit machinery: images, closures, partitions, Levi stabilizers, bimodules, quotients."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import world_for
from parasuper import groups, linalg
from parasuper.errors import ValidationError
from parasuper.groups import DEFAULT_GUARDS, ucstar_ad_matrix, ustar_action_matrix
from parasuper.orbits import (
    LinearAction, _bfs, dense_unique, enumerate_subspace, orbit_closure,
    partition_by_perms, partition_orbits, quotient_orbits, smallest_bimodule, sorted_isin,
    sorted_unique,
)
from parasuper.utheory import form_data, orbit_partition

SPACE = DEFAULT_GUARDS["space"]


def apply(act, mat, pts):
    """The images of points under one matrix, each point's coordinates times
    the matrix: the reference for an action's batched generator images."""
    return act.pack(act.unpack(pts) @ np.asarray(mat).T)


def test_orbit_of_zero_is_fixed(borel_d2):
    act = borel_d2.action("ustar", "Ub")
    orb = orbit_closure(0, act)
    assert orb.size == 1 and int(orb[0]) == 0


def test_orbit_sizes_are_p_powers(borel_c2):
    p = borel_c2.spec.p
    for act in (borel_c2.action("ustar", "Ub"), borel_c2.action("ustar", "Hb")):
        for orb in partition_orbits(act, SPACE)[1]:
            size = orb.size
            while size % p == 0:
                size //= p
            assert size == 1


def test_sub_orbit_containment(borel_c2):
    ub = borel_c2.action("ustar", "Ub")
    hb = borel_c2.action("ustar", "Hb")
    for lam in range(borel_c2.nU):
        o_h = orbit_closure(lam, hb)
        o_u = orbit_closure(lam, ub)
        assert np.isin(o_h, o_u).all()


def test_partition_covers_disjointly(borel_d2):
    orbits = partition_orbits(borel_d2.action("u", "Ub"), SPACE)[1]
    total = np.concatenate(orbits)
    assert np.array_equal(np.sort(total), np.arange(borel_d2.nU))
    # each orbit is generator-closed
    act = borel_d2.action("u", "Ub")
    for o in orbits:
        for m in act.gen_mats:
            img = np.sort(apply(act, m, o))
            assert np.array_equal(img, o)


def test_one_point_space():
    act = LinearAction("trivial", 3, 0, np.zeros((0, 0, 0), dtype=np.int64))
    orbits = partition_orbits(act, SPACE)[1]
    assert len(orbits) == 1 and orbits[0].size == 1


@st.composite
def small_actions(draw):
    p = draw(st.sampled_from([3, 5]))
    dim = draw(st.integers(1, 3))
    entries = st.lists(st.integers(0, p - 1), min_size=dim * dim, max_size=dim * dim)
    mats = entries.map(lambda e: np.array(e, dtype=np.int64).reshape(dim, dim)).filter(
        lambda m: linalg.det(m, p) != 0)
    return LinearAction("random", p, dim, np.array(draw(st.lists(mats, min_size=1, max_size=3))))


def naive_closure(seed, images):
    """Plain set closure of one point under the generators' image lists."""
    seen, todo = {seed}, [seed]
    while todo:
        x = todo.pop()
        for img in images:
            y = img[x]
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return tuple(sorted(seen))


@settings(max_examples=60, deadline=None)
@given(small_actions())
def test_partition_is_the_set_of_single_seed_closures(act):
    orbits = partition_orbits(act, SPACE)[1]
    total = np.concatenate(orbits)
    assert np.array_equal(np.sort(total), np.arange(act.size))
    assert [int(o[0]) for o in orbits] == sorted(int(o[0]) for o in orbits)
    images = [apply(act, m, np.arange(act.size)).tolist() for m in act.gen_mats]
    closures = [naive_closure(x, images) for x in range(act.size)]
    assert {tuple(o.tolist()) for o in orbits} == set(closures)
    for x in range(act.size):
        assert tuple(orbit_closure(x, act).tolist()) == closures[x]


def set_closure_partition(n, perms):
    """Orbit labels and sorted orbits of {0..n-1} under lists of images, by
    plain set closure from each point not yet labelled, in ascending order."""
    label, orbits = [-1] * n, []
    for x in range(n):
        if label[x] >= 0:
            continue
        seen, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for pm in perms:
                if pm[y] not in seen:
                    seen.add(pm[y])
                    todo.append(pm[y])
        for y in seen:
            label[y] = len(orbits)
        orbits.append(sorted(seen))
    return label, orbits


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), max_size=3))))
@example((0, []))
@example((1, []))
@example((1, [[0]]))
@example((7, []))
@example((6, [[1, 2, 0, 4, 5, 3], [0, 1, 2, 3, 4, 5]]))
def test_partition_by_perms_is_the_set_closure(case):
    # arbitrary permutations, not only linear actions: the labels and the
    # member lists match a plain set closure, order included
    n, perms = case
    label, orbits = partition_by_perms(n, [np.array(pm, dtype=np.int64) for pm in perms])
    want_label, want_orbits = set_closure_partition(n, perms)
    assert label.tolist() == want_label
    assert [o.tolist() for o in orbits] == want_orbits
    assert all(o.dtype == np.int64 for o in orbits)


@settings(max_examples=60, deadline=None)
@given(small_actions(), st.data())
def test_invariant_span_is_the_span_of_the_orbits(act, data):
    seeds = data.draw(st.lists(st.integers(0, act.size - 1), max_size=3))
    orbit_points = [orbit_closure(x, act) for x in seeds]
    digits = act.unpack(np.concatenate([np.zeros(0, dtype=np.int64)] + orbit_points))
    want, want_piv = linalg.rref(digits, act.p, act.dim)
    got, piv = linalg.invariant_span(act.unpack(seeds).reshape(-1, act.dim), act.gen_mats, act.p)
    assert np.array_equal(got, want) and piv == want_piv


def images_under_L(w, space, points):
    """(nL, k) images of k points under every Levi element."""
    return w.action(space, "L").images(points)


def pointwise(w, space, points):
    """Levi ids whose images of the points are the points themselves."""
    return np.flatnonzero((images_under_L(w, space, points) == points).all(axis=1)).tolist()


def setwise(w, space, points):
    """Levi ids mapping the sorted point set onto itself."""
    return np.flatnonzero((np.sort(images_under_L(w, space, points), axis=1)
                           == points).all(axis=1)).tolist()


@pytest.mark.parametrize("name", ["borel_b2", "borel_c2"])
def test_each_action_is_built_once_per_world(name, request):
    # the Levi stacks that the "L" actions image by are the builders' matrices of L
    w = request.getfixturevalue(name)
    for space in ("u", "ustar", "ucstar-left", "ucstar-twosided"):
        for tag in ("Ub", "Hb", "Gb"):
            assert w.action(space, tag) is w.action(space, tag)
    for space, builder in (("ustar", ustar_action_matrix), ("ucstar", ucstar_ad_matrix)):
        act = w.action(space, "L")
        assert act is w.action(space, "L")
        assert act.gen_mats.dtype == np.int64
        assert np.array_equal(act.gen_mats, builder(w.spec, w.L))


@pytest.mark.parametrize("name", ["borel_b2", "borel_c2", "borel_d2"])
def test_pointwise_stabilizer_of_the_span_is_that_of_the_orbit(name, request):
    # FormData reads L0 off the span of the two-sided orbit; the enumerated
    # orbit must give the same pointwise stabilizer for every form
    w = request.getfixturevalue(name)
    for lam in range(w.nU):
        fd = form_data(w, lam)
        orbit = orbit_closure(fd.Lam_packed, w.action("ucstar-twosided", "Ub"))
        assert fd.L0_ids == pointwise(w, "ucstar", orbit)


@pytest.mark.parametrize("name", ["borel_b2", "borel_c2"])
def test_images_do_not_depend_on_the_slice(name, request, monkeypatch):
    # images takes its points in slices of at most _BLOCK product entries;
    # slices of a point or two give the same images as the default, for a
    # generator action and for all of L on u, u* and forms over Uc
    w = request.getfixturevalue(name)
    from parasuper import orbits
    acts = [w.action("ucstar-twosided", "Ub-simple")] + [w.action(space, "L")
                                                         for space in ("u", "ustar", "ucstar")]
    points = [np.arange(min(act.size, 200)) for act in acts]
    want = [act.images(pts) for act, pts in zip(acts, points)]
    monkeypatch.setattr(orbits, "_BLOCK", 64)
    for act, pts, img in zip(acts, points, want):
        assert orbits._slice(act.width) < pts.size
        assert np.array_equal(act.images(pts), img)
        assert act.images(np.zeros(0, dtype=np.int64)).shape == (act.gen_mats.shape[0], 0)


@pytest.mark.parametrize("block", [1, 200, 1000])
def test_full_perms_under_a_tiny_block_are_the_generator_images(borel_b2, monkeypatch, block):
    # full_perms images the whole space through images, one slice of a few
    # points at a time (width 40: slices of 1, 5 and 25 of the 81 points);
    # each permutation is the generator applied point by point
    from parasuper import orbits
    monkeypatch.setattr(orbits, "_BLOCK", block)
    act = borel_b2.action("ustar", "Ub")
    fresh = LinearAction(act.label, act.p, act.dim, act.gen_mats)
    perms = fresh.full_perms(SPACE)
    assert len(perms) == len(act.gen_mats)
    for perm, m in zip(perms, act.gen_mats):
        assert np.array_equal(perm, apply(act, m, np.arange(act.size)))


def test_stabilizers_on_zero_orbit(borel_b2):
    w = borel_b2
    for space in ("ustar", "ucstar"):
        img = images_under_L(w, space, np.array([0]))
        assert img.shape == (w.nL, 1) and not img.any()
    fd = form_data(w, 0)
    assert fd.L0_ids == list(range(w.nL))
    assert fd.S_ids == list(range(w.nL))


@pytest.mark.parametrize("mode", ["setwise", "pointwise"])
@pytest.mark.parametrize("space", ["ustar", "ucstar"])
def test_stabilizers_by_direct_filter(borel_b2, space, mode):
    # dual vectors of the first two crossing roots (on u*) and their extended
    # forms' two-sided orbits (on Uc*): compare the stabilizers read off the
    # Levi images against a handwritten filter over all of L; on the second
    # form the setwise and pointwise stabilizers differ.  The setwise one is
    # also the membership test of the seed's image, and FormData's S and L0
    # are these stabilizers of the dot orbit and the two-sided orbit
    w = borel_b2
    spec = w.spec
    for t in (0, 1):
        lam = w.pack_u([int(s == t) for s in range(spec.u_dim)])
        fd = form_data(w, lam)
        if space == "ustar":
            seed = lam
            points = orbit_closure(lam, w.action("ustar", "Ub"))
            act, mat_of = w.action("ustar", "Ub"), ustar_action_matrix
        else:
            seed = fd.Lam_packed
            act, mat_of = w.action("ucstar-twosided", "Ub"), ucstar_ad_matrix
            points = orbit_closure(seed, act)
        by_hand = []
        for hid, h in enumerate(w.L):
            img = [int(x) for x in apply(act, mat_of(spec, h), points)]
            if (set(img) == set(points.tolist()) if mode == "setwise"
                    else img == points.tolist()):
                by_hand.append(hid)
        got = (setwise if mode == "setwise" else pointwise)(w, space, points)
        assert got == by_hand
        assert set(pointwise(w, space, points)) <= set(got)
        if mode == "setwise":
            member = np.isin(images_under_L(w, space, [seed])[:, 0], points)
            assert np.flatnonzero(member).tolist() == by_hand
            if space == "ustar":
                assert fd.S_ids == by_hand
        elif space == "ucstar":
            assert fd.L0_ids == by_hand


def test_smallest_bimodule_identity(borel_b2):
    spec = borel_b2.spec
    uc_h, u_h = smallest_bimodule(borel_b2, np.eye(spec.N, dtype=np.int64))
    assert uc_h.shape == (0, spec.uc_dim) and u_h.shape == (0, spec.u_dim)


def test_smallest_bimodule_defining_property(borel_b2):
    w = borel_b2
    spec = w.spec
    for h in w.L:
        uc_h, u_h = smallest_bimodule(w, h)
        hi = linalg.inverse(h, spec.p)
        # both bases are in rref, and the conjugation defect of every basis
        # element lies inside: adding it to the basis keeps the rank
        for basis, units, coords in [
                (uc_h, spec.units(spec.uc_positions), lambda d: spec.uc_coords(d, check=False)),
                (u_h, spec.u_basis, spec.u_coords)]:
            assert np.array_equal(linalg.rref(basis, spec.p, basis.shape[1])[0], basis)
            defects = coords((h @ units % spec.p @ hi - units) % spec.p)
            stacked = np.concatenate([np.broadcast_to(basis, (len(defects),) + basis.shape),
                                      defects[:, None]], axis=1)
            assert (linalg.rank(stacked, spec.p) == len(basis)).all()


def test_quotient_orbits_edge_cases(borel_d2):
    act = borel_d2.action("u", "Ub")
    # quotient by zero subspace = plain partition, labelled by least points
    plain = partition_orbits(act, SPACE)[1]
    got = quotient_orbits(act, [], SPACE)
    assert [(omega, m.tolist()) for omega, m in got] == [(int(o[0]), o.tolist()) for o in plain]
    # quotient by the full space has a single point
    (omega, members), = quotient_orbits(act, np.eye(act.dim, dtype=np.int64), SPACE)
    assert omega == 0 and members.tolist() == list(range(act.size))


def test_quotient_cosets_cover_u(borel_b2):
    w = borel_b2
    act = w.action("u", "Ub")
    for h in w.L:
        _, u_h = smallest_bimodule(w, h)
        got = quotient_orbits(act, u_h, SPACE)
        omegas = [omega for omega, _ in got]
        assert omegas == sorted(set(omegas))
        assert np.array_equal(np.sort(np.concatenate([m for _, m in got])), np.arange(w.nU))


def test_quotient_orbits_reject_a_subspace_that_is_not_invariant(borel_d2):
    # a lone root vector of u moved by the radical into another root
    act = borel_d2.action("u", "Ub")
    for vec in np.eye(act.dim, dtype=np.int64)[:, None]:
        if len(linalg.invariant_span(vec, act.gen_mats, act.p)[0]) > 1:
            break
    with pytest.raises(ValidationError, match="not invariant"):
        quotient_orbits(act, vec, SPACE)


def brute_force_quotient(act, sub_basis):
    """(omega, sorted preimage) of each orbit on u / W, ascending omega, by
    plain set closure of the reduced coordinate vectors under the generators."""
    p = act.p
    red, piv = linalg.rref(sub_basis, p, act.dim)
    free = [c for c in range(act.dim) if c not in piv]

    def reduce(v):
        v = [x % p for x in v]
        for row, c in zip(red.tolist(), piv):
            v = [(a - v[c] * b) % p for a, b in zip(v, row)]
        return tuple(v)

    reduced = [reduce(v) for v in act.unpack(np.arange(act.size)).tolist()]
    mats = [m.tolist() for m in act.gen_mats]
    todo, out = set(reduced), []
    while todo:
        seen, stack = set(), [min(todo)]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(reduce([sum(a * b for a, b in zip(row, v)) for row in m])
                             for m in mats)
        todo -= seen
        omega = min(sum(v[c] * p ** t for t, c in enumerate(free)) for v in seen)
        out.append((omega, [x for x, v in enumerate(reduced) if v in seen]))
    return sorted(out)


@pytest.mark.parametrize("config", [("B", 2, 3, (1, 3, 1)), ("C", 2, 3, (1, 1, 0, 1, 1))],
                         ids=["B2-1,3", "C2-borel"])
def test_quotient_orbits_are_the_set_closures_of_reduced_vectors(config):
    # every h: the (omega, coset) sequence superclasses are built from
    w = world_for(*config)
    act = w.action("u", "Ub")
    for h in w.L:
        _, u_h = smallest_bimodule(w, h)
        got = [(omega, m.tolist()) for omega, m in quotient_orbits(act, u_h, SPACE)]
        assert got == brute_force_quotient(act, u_h)


def test_enumerate_subspace():
    pts = enumerate_subspace([(1, 0, 2)], 3)
    assert pts.shape == (3, 3)
    assert {tuple(r) for r in pts.tolist()} == {(0, 0, 0), (1, 0, 2), (2, 0, 1)}
    assert enumerate_subspace(np.zeros((0, 4), dtype=np.int64), 3).tolist() == [[0, 0, 0, 0]]


def test_sliced_closure_is_the_whole_frontier_closure(borel_b2, monkeypatch):
    # a two-sided closure of a few hundred points, imaged in slices of 7
    # points, equals the closure imaged a whole layer at a time; a budget
    # below its size stops it
    from parasuper import orbits
    from parasuper.errors import ResourceGuardError
    act = borel_b2.action("ucstar-twosided", "Ub")
    whole = max((orbit_closure(form_data(borel_b2, int(orb[0])).Lam_packed, act)
                 for orb in partition_orbits(borel_b2.action("ustar", "Ub"), SPACE)[1]),
                key=lambda orb: orb.size)
    seed = int(whole[0])
    monkeypatch.setattr(orbits, "_BLOCK", 7 * act.width)
    assert whole.size > 100
    assert np.array_equal(orbit_closure(seed, act, whole.size), whole)
    with pytest.raises(ResourceGuardError, match="over the space guard"):
        orbit_closure(seed, act, whole.size - 1)


int_arrays = st.lists(st.integers(-40, 40), max_size=30).map(
    lambda v: np.array(v, dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(int_arrays, int_arrays)
@example(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
@example(np.array([3, 3, -1]), np.zeros(0, dtype=np.int64))
def test_sorted_set_helpers_are_numpy_unique_and_isin(a, b):
    got = sorted_unique(a)
    assert got.dtype == np.unique(a).dtype and np.array_equal(got, np.unique(a))
    hay = np.unique(b)
    for needles in (a, a[:, None], a[: a.size // 2 * 2].reshape(-1, 2)):
        got = sorted_isin(needles, hay)
        assert got.shape == needles.shape and np.array_equal(got, np.isin(needles, hay))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30).flatmap(
    lambda size: st.tuples(st.just(size), st.lists(st.integers(0, size - 1), max_size=40))))
@example((1, []))
def test_dense_unique_is_numpy_unique_with_inverse(args):
    size, codes = args
    codes = np.array(codes, dtype=np.int64)
    uniq, inverse = dense_unique(codes, size)
    want_uniq, want_inverse = np.unique(codes, return_inverse=True)
    assert np.array_equal(uniq, want_uniq) and np.array_equal(inverse, want_inverse)
    assert np.array_equal(uniq[inverse], codes)


SIMPLE_ROOT_WORLDS = {
    "C2q5-borel": (("C", 2, 5, (1, 1, 0, 1, 1)), 6, 12),
    "B2-1,1,1": (("B", 2, 3, (1, 1, 1, 1, 1)), 8, 20),
    "B2-1,3": (("B", 2, 3, (1, 3, 1)), 12, 14),
    "C2-2": (("C", 2, 3, (2, 0, 2)), 8, 8),
    "D2-1,1": (("D", 2, 3, (1, 1, 0, 1, 1)), 6, 12),
    "D3-borel": (("D", 3, 3, (1, 1, 1, 0, 1, 1, 1)), 10, 30),
}


@pytest.mark.parametrize("name", sorted(SIMPLE_ROOT_WORLDS))
def test_simple_root_closures_are_the_ub_closures(name, monkeypatch):
    # the simple-root generators are some of Ub's and generate it: the
    # two-sided closure of every form representative under them is closed
    # under the other Ub generators too (so it is the Ub closure, compared
    # directly where that is cheap), and the invariant spans in both
    # orientations and the smallest bimodule of every Levi element agree
    config, n_simple, n_ub = SIMPLE_ROOT_WORLDS[name]
    w = world_for(*config)
    ub = w.action("ucstar-twosided", "Ub")
    simple = w.action("ucstar-twosided", "Ub-simple")
    assert (len(simple.gen_mats), len(ub.gen_mats)) == (n_simple, n_ub)
    spec = w.spec
    simple_keys = {g.tobytes() for g in groups.subgroup_generators(spec, "Ub-simple")}
    others = [g for g in groups.subgroup_generators(spec, "Ub") if g.tobytes() not in simple_keys]
    assert 2 * len(others) == n_ub - n_simple
    rest = LinearAction("rest", spec.p, simple.dim,
                        groups.ACTIONS["ucstar-twosided"](spec, np.array(others).reshape(
                            -1, spec.N, spec.N)))
    p = spec.p
    for orb in orbit_partition(w, "ustar", "Ub")[1]:
        fd = form_data(w, int(orb[0]))
        closure = orbit_closure(fd.Lam_packed, simple)
        assert np.array_equal(_bfs(closure, rest.images, rest.width), closure)
        if closure.size < 10 ** 4:
            assert np.array_equal(closure, orbit_closure(fd.Lam_packed, ub))
        lam = simple.unpack(fd.Lam_packed)
        for mats in (lambda a: a.gen_mats, lambda a: a.gen_mats.transpose(0, 2, 1)):
            got, want = (linalg.invariant_span(lam, mats(a), p) for a in (simple, ub))
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    full = copy.copy(w)
    full._memo = {}
    real = groups.subgroup_generators
    monkeypatch.setattr(groups, "subgroup_generators",
                        lambda spec, tag: real(spec, "Ub" if tag == "Ub-simple" else tag))
    for h in w.L:
        for got, want in zip(smallest_bimodule(w, h), smallest_bimodule(full, h)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("space, tag", [("ucstar-left", "Hb"), ("ucstar-twosided", "Ub-simple")])
def test_tagged_closures_are_the_closures_one_by_one(space, tag, monkeypatch):
    # the lemma suite's closures of every form's extension: one tagged BFS
    # per group gives each form's orbit_closure.  Under a budget that the
    # bounds pass, the forms split into consecutive groups, each within the
    # budget unless it is one form, and each group is closed only when the
    # caller reaches it
    from parasuper import orbits
    w = world_for("B", 2, 3, (1, 1, 1, 1, 1))
    act = w.action(space, tag)
    fds = [form_data(w, int(orb[0])) for orb in orbit_partition(w, "ustar", "Ub")[1]]
    seeds = [fd.Lam_packed for fd in fds]
    bounds = [w.spec.p ** fd.span_dim for fd in fds]
    want = [orbit_closure(seed, act) for seed in seeds]
    assert all(orb.size <= bound for orb, bound in zip(want, bounds))
    groups_closed = []
    real = orbits._bfs
    monkeypatch.setattr(orbits, "_bfs", lambda seeds, *rest: (
        groups_closed.append(len(seeds)), real(seeds, *rest))[1])
    for budget in (SPACE, sum(bounds) - 1, max(bounds), max(bounds) - 1):
        groups_closed.clear()
        got = list(orbits.orbit_closures(seeds, bounds, act, budget))
        assert len(got) == len(want) and all(np.array_equal(g, o) for g, o in zip(got, want))
        assert sum(groups_closed) == len(seeds)
        starts = np.cumsum([0] + groups_closed)
        for lo, hi in zip(starts[:-1], starts[1:]):
            assert hi - lo == 1 or sum(bounds[lo:hi]) <= budget
            assert hi == len(seeds) or sum(bounds[lo:hi + 1]) > budget     # groups are maximal
        assert (len(groups_closed) == 1) == (budget >= sum(bounds))
    groups_closed.clear()
    lazy = orbits.orbit_closures(seeds, bounds, act, max(bounds))
    next(lazy)
    assert len(groups_closed) == 1 < len(seeds)


def test_a_form_whose_bound_passes_the_guard_is_closed_alone_under_it():
    # the guard fires exactly where a closure per form fires: on the first
    # form whose orbit passes it, after the forms before it are closed
    from parasuper.errors import ResourceGuardError
    from parasuper.orbits import orbit_closures
    w = world_for("B", 2, 3, (1, 1, 1, 1, 1))
    act = w.action("ucstar-twosided", "Ub-simple")
    fds = [form_data(w, int(orb[0])) for orb in orbit_partition(w, "ustar", "Ub")[1]]
    sizes = [orbit_closure(fd.Lam_packed, act).size for fd in fds]
    budget = max(sizes) - 1
    first = sizes.index(max(sizes))
    closures = orbit_closures([fd.Lam_packed for fd in fds],
                              [w.spec.p ** fd.span_dim for fd in fds], act, budget)
    for k in range(first):
        assert next(closures).size == sizes[k]
    with pytest.raises(ResourceGuardError, match="orbit closure passed"):
        next(closures)
