"""Ambient-orbit theory: rook placements, signatures, coarsenings, assembly."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import cleared, levi_conjugates, levi_values, world_for
from cyclo import Cyclo
from hypothesis import given, settings, strategies as st

from parasuper import gtheory, linalg
from parasuper.errors import FalsificationError
from parasuper.groups import build_spec
from parasuper.gtheory import (
    BasicPair, build_g_theory, classify_g_orbits, enumerate_basic_pairs,
    is_rook_placement, merged_by_levi, merged_by_roots, pair_point_u,
    pair_signature, scalar_levi_subgroup, signature_classes,
)
from parasuper.utheory import intern_rows
from parasuper.verify import check_supertheory


def test_rook_condition(borel_d2):
    spec = borel_d2.spec
    assert is_rook_placement(spec, ())
    assert is_rook_placement(spec, ((2, 1),))
    # (2,1) and (2,-1) share row 2
    assert not is_rook_placement(spec, ((2, 1), (2, -1)))


def test_enumerate_basic_pairs_d2(borel_d2):
    pairs = enumerate_basic_pairs(borel_d2.spec)
    assert BasicPair((), ()) in pairs
    # no two-element placement exists: both crossing roots share row 2
    assert all(len(p.roots) <= 1 for p in pairs)
    # orthogonal family: all weights are 1
    assert all(all(w == 1 for w in p.phi) for p in pairs)


def test_enumerate_basic_pairs_c2(borel_c2):
    spec = borel_c2.spec
    pairs = enumerate_basic_pairs(spec)
    # delta variants exist exactly on the (i,-i) roots
    deltas = [p for p in pairs if spec.delta in p.phi]
    assert deltas
    for p in deltas:
        for (i, j), w in zip(p.roots, p.phi):
            if w == spec.delta:
                assert j == -i
    # at most one delta per mirror block pair
    for p in pairs:
        marked = [spec.block_of[i] for (i, j), w in zip(p.roots, p.phi)
                  if w == spec.delta]
        assert len(marked) == len(set(marked))


def test_pair_signature_examples(borel_c2):
    w = borel_c2
    spec = w.spec
    empty = pair_signature(w, BasicPair((), ()))
    assert all(r == 0 for (_, _, r) in empty.ranks)
    assert all(d == 1 for d in empty.d)
    sig = pair_signature(w, BasicPair(((1, -1),), (spec.delta,)))
    assert sig.d[-1] == -1                      # block pair k=1 carries delta
    one = pair_signature(w, BasicPair(((2, 1),), (1,)))
    ranks = dict(((k, m), r) for (k, m, r) in one.ranks)
    assert ranks[(2, 1)] == 1 and ranks[(-1, -2)] == 1


def test_classification_passes(borel_d2, borel_c2, twoblock_c2):
    for w in (borel_d2, borel_c2, twoblock_c2):
        out_u = classify_g_orbits(w, "u")
        out_s = classify_g_orbits(w, "ustar")
        assert out_u["orbits"] == out_u["signatures"]
        assert out_s["orbits"] == out_s["signatures"]


def test_union_rank_check_fires(borel_c2, monkeypatch):
    # the ranks of one non-representative point in each of the two last
    # orbits of u with more than one point are raised; the lower orbit is
    # the one reported
    from parasuper.utheory import orbit_partition
    w = borel_c2
    orbits = orbit_partition(w, "u", "Gb")[1]
    moved = [k for k, orb in enumerate(orbits) if orb.size > 1][-2:]
    points = [int(orbits[k][-1]) for k in moved]
    real = linalg.rank

    def raised(mats, p):
        out = real(mats, p)
        if out.shape == (w.nU,):                # a union over every point of u
            out[points] += 1
        return out
    monkeypatch.setattr(gtheory, "linalg", SimpleNamespace(**{**vars(linalg), "rank": raised}))
    with pytest.raises(FalsificationError, match="not constant on an orbit") as err:
        classify_g_orbits(w, "u")
    k = moved[0]
    assert err.value.counterexample == {"space": "u", "orbit": k, "rep": int(orbits[k][0])}


def _pair_orbits(w, space):
    """The basic pairs of a world and the Gb orbit index of each one's point."""
    from parasuper.utheory import orbit_partition
    label = orbit_partition(w, space, "Gb")[0]
    pairs = enumerate_basic_pairs(w.spec)
    return pairs, [int(label[pair_point_u(w, pair)]) for pair in pairs]


@pytest.mark.parametrize("space", ["u", "ustar"])
def test_classification_rejects_equal_signatures_in_two_orbits(borel_c2, space, monkeypatch):
    # the last pair is given the signature of the second: the two lie in
    # different orbits, and the check names the last pair and both orbits
    w = borel_c2
    pairs, orbit = _pair_orbits(w, space)
    assert orbit[1] != orbit[-1]
    real = gtheory.pair_signature
    monkeypatch.setattr(gtheory, "pair_signature", lambda world, pair: real(
        world, pairs[1] if pair == pairs[-1] else pair))
    with pytest.raises(FalsificationError, match="equal signatures lie in different") as err:
        classify_g_orbits(w, space)
    assert err.value.counterexample == {"space": space, "pair": pairs[-1].label(),
                                        "orbit_a": orbit[1], "orbit_b": orbit[-1]}


@pytest.mark.parametrize("space", ["u", "ustar"])
def test_classification_rejects_two_signatures_in_one_orbit(borel_c2, space, monkeypatch):
    # every pair gets its own signature, its position in the enumeration,
    # and the third pair is enumerated once more at the end: its orbit then
    # holds two signatures
    w = borel_c2
    pairs, orbit = _pair_orbits(w, space)
    listed = pairs + [pairs[2]]
    calls = itertools.count()
    monkeypatch.setattr(gtheory, "enumerate_basic_pairs", lambda spec: listed)
    monkeypatch.setattr(gtheory, "pair_signature", lambda world, pair: next(calls))
    with pytest.raises(FalsificationError, match="different signatures share an orbit") as err:
        classify_g_orbits(w, space)
    assert err.value.counterexample == {"space": space, "orbit": orbit[2],
                                        "pair": pairs[2].label(),
                                        "sig_a": 2, "sig_b": len(pairs)}


@pytest.mark.parametrize("space", ["u", "ustar"])
def test_classification_rejects_an_orbit_without_a_pair(borel_c2, space, monkeypatch):
    # the fourth and the last pair are left out of the enumeration; their
    # orbits are reported in ascending order with their least points
    from parasuper.utheory import orbit_partition
    w = borel_c2
    pairs, orbit = _pair_orbits(w, space)
    kept = [pair for k, pair in enumerate(pairs) if k not in (3, len(pairs) - 1)]
    monkeypatch.setattr(gtheory, "enumerate_basic_pairs", lambda spec: kept)
    with pytest.raises(FalsificationError, match="contains no basic-pair representative") as err:
        classify_g_orbits(w, space)
    missing = sorted([orbit[3], orbit[-1]])
    orbits = orbit_partition(w, space, "Gb")[1]
    assert err.value.counterexample == {"space": space, "orbits": missing,
                                        "reps": [int(orbits[k][0]) for k in missing]}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3).flatmap(lambda ell: st.tuples(st.just(ell), st.lists(
    st.tuples(st.integers(-ell, ell), st.integers(-ell, ell)), max_size=4))))
def test_close_segments_is_the_finest_symmetric_interval_coarsening(case):
    # reference by definition: among all cuts of ell..-ell into intervals,
    # the one with the most segments that is symmetric about zero and keeps
    # each span (lo..hi, empty when lo > hi) inside one segment
    ell, spans = case
    blocks = list(range(ell, -ell - 1, -1))
    best = None
    for cuts in itertools.product([False, True], repeat=2 * ell):
        segs = [[ell]]
        for k, cut in zip(blocks[1:], cuts):
            if cut:
                segs.append([k])
            else:
                segs[-1].append(k)
        seg_of = {k: t for t, seg in enumerate(segs) for k in seg}
        symmetric = all(len({seg_of[-k] for k in seg}) == 1 for seg in segs)
        kept = all(len({seg_of[k] for k in range(lo, hi + 1)}) <= 1 for lo, hi in spans)
        if symmetric and kept and (best is None or len(segs) > len(best)):
            best = segs
    assert gtheory._close_segments(ell, spans) == tuple(tuple(seg) for seg in best)


def test_merged_decomposition_paper_examples(borel_b2):
    spec = borel_b2.spec
    md = merged_by_roots(spec, ((2, 1),))
    assert md.segments == ((2, 1), (0,), (-1, -2))
    md = merged_by_roots(spec, ((2, -1),))
    assert md.segments == ((2, 1, 0, -1, -2),)
    md = merged_by_roots(spec, ())
    assert md.segments == ((2,), (1,), (0,), (-1,), (-2,))


def test_scalar_levi_paper_examples(borel_b2):
    w = borel_b2
    spec = w.spec
    # D = {(2,1)}: diag(a, a, +-1, 1/a, 1/a), order 2(q-1)
    ids = scalar_levi_subgroup(w, merged_by_roots(spec, ((2, 1),)))
    assert len(ids) == 2 * (spec.p - 1)
    for hid in ids:
        h = w.L[hid].tolist()
        a = h[spec.pos[2]][spec.pos[2]]
        inv = pow(a, spec.p - 2, spec.p)
        assert h[spec.pos[1]][spec.pos[1]] == a
        assert h[spec.pos[0]][spec.pos[0]] in (1, spec.p - 1)
        assert h[spec.pos[-1]][spec.pos[-1]] == inv
        assert h[spec.pos[-2]][spec.pos[-2]] == inv
    # D = {(2,-1)}: +-identity only
    ids = scalar_levi_subgroup(w, merged_by_roots(spec, ((2, -1),)))
    assert len(ids) == 2
    mats = {tuple(map(tuple, w.L[h].tolist())) for h in ids}
    one = np.eye(spec.N, dtype=np.int64)
    assert mats == {tuple(map(tuple, m.tolist())) for m in (one, -one % spec.p)}
    # D = empty: no multi-block segments, the whole Levi subgroup survives
    ids = scalar_levi_subgroup(w, merged_by_roots(spec, ()))
    assert ids == list(range(w.nL))


def test_merged_by_levi(borel_c2):
    w = borel_c2
    spec = w.spec
    md = merged_by_levi(spec, np.eye(spec.N, dtype=np.int64))
    assert len(md.segments) == 1               # everything is the same scalar
    for hid, h in enumerate(w.L):
        md = merged_by_levi(spec, h)
        mirror = tuple(tuple(sorted((-t for t in seg), reverse=True))
                       for seg in reversed(md.segments))
        assert mirror == md.segments


def merged_by_levi_by_runs(spec, h):
    """Reference for merged_by_levi, as a run/pending scan over the blocks.
    Coarsening along maximal runs of blocks where h is one scalar matrix.

    An empty block is transparent: it joins a run only when the same scalar
    value continues on both sides of it, otherwise it stays a (labelless)
    singleton segment, which keeps the coarsening symmetric about zero.
    """
    ell = spec.ell
    h = np.asarray(h).tolist()
    scalar = {}
    for k in range(ell, -ell - 1, -1):
        labs = spec.segments[k]
        if not labs:
            scalar[k] = "any"
            continue
        diag0 = h[spec.pos[labs[0]]][spec.pos[labs[0]]]
        ok = True
        for a in labs:
            for b in labs:
                want = diag0 if a == b else 0
                if h[spec.pos[a]][spec.pos[b]] != want:
                    ok = False
        scalar[k] = diag0 if ok else None

    segs = []
    run = []
    val = None
    pending = []

    def close_run():
        nonlocal run, val
        if run:
            segs.append(tuple(run))
        run, val = [], None

    def flush_pending():
        nonlocal pending
        for pb in pending:
            segs.append((pb,))
        pending = []

    for t in range(ell, -ell - 1, -1):
        s = scalar[t]
        if s is None:
            close_run()
            flush_pending()
            segs.append((t,))
        elif s == "any":
            pending.append(t)
        elif val is None:
            flush_pending()
            run, val = [t], s
        elif s == val:
            run.extend(pending)
            pending = []
            run.append(t)
        else:
            close_run()
            flush_pending()
            run, val = [t], s
    close_run()
    flush_pending()

    md = gtheory.MergedDecomposition(tuple(segs))
    mirror = tuple(tuple(sorted((-t for t in seg), reverse=True)) for seg in reversed(md.segments))
    if mirror != md.segments:
        raise FalsificationError("Levi coarsening is not symmetric about zero",
                                 {"segments": [list(seg) for seg in md.segments]})
    return md


@pytest.mark.parametrize("config", [
    ("B", 2, 3, (1, 1, 1, 1, 1)), ("B", 2, 3, (1, 3, 1)), ("B", 2, 3, (2, 1, 2)),
    ("C", 2, 3, (1, 1, 0, 1, 1)), ("C", 2, 3, (2, 0, 2)), ("C", 2, 5, (1, 1, 0, 1, 1)),
    ("D", 2, 3, (1, 1, 0, 1, 1)), ("D", 3, 3, (1, 1, 1, 0, 1, 1, 1)),
    ("D", 3, 3, (1, 2, 0, 2, 1)), ("C", 3, 3, (1, 2, 0, 2, 1)),
], ids=lambda c: "%s%d-q%d-%s" % (c[0], c[1], c[2], ",".join(map(str, c[3]))))
def test_merged_by_levi_matches_the_run_scan(config):
    w = world_for(*config)
    for h in w.L:
        assert merged_by_levi(w.spec, h) == merged_by_levi_by_runs(w.spec, h)


def test_merged_by_levi_rejects_an_asymmetric_coarsening(borel_c2):
    # diag(1, 1, 2, 1) is no isometry: blocks 2 and 1 share a scalar while
    # their mirrors -2 and -1 do not
    spec = borel_c2.spec
    h = np.diag([1, 1, 2, 1])
    with pytest.raises(FalsificationError, match="not symmetric about zero") as err:
        merged_by_levi_by_runs(spec, h)
    assert err.value.counterexample == {"segments": [[2, 1], [0], [-1], [-2]]}
    with pytest.raises(FalsificationError, match="not symmetric about zero") as err:
        merged_by_levi(spec, h)
    assert err.value.counterexample == {"spans": [[1, 2]]}


def test_signature_class_count_matches_orbits(borel_c2):
    w = borel_c2
    sigs = signature_classes(w)
    from parasuper.utheory import orbit_partition
    assert len(sigs) == len(orbit_partition(w, "ustar", "Gb")[1])


def test_build_g_theory(borel_d2, borel_b2):
    for w in (borel_d2, borel_b2):
        theory = build_g_theory(w)
        assert len(theory.chars) == len(theory.classes)
        assert check_supertheory(theory).passed
        assert any(kl.size == 1 and kl.rep == theory.ident_id for kl in theory.classes)
        total = sum(kl.size for kl in theory.classes)
        assert total == w.g_size


def test_g_supercharacter_degree(borel_d2):
    w = borel_d2
    theory = build_g_theory(w)
    from parasuper.orbits import orbit_closure
    for ch in theory.chars:
        lam = ch.provenance["lam"]
        ld = ch.provenance["ld_ids"]
        theta_one = levi_values(w, ch.provenance["theta_by_l"])[w.idL]
        orb = orbit_closure(lam, w.action("ustar", "Gb"))
        want = (w.nL // len(ld)) * theta_one.rational() * orb.size
        assert ch.degree(theory.ident_id) == want


def test_delta_override_gives_the_same_partition():
    # q=5 has two non-squares; the assembled coarse theory must not depend
    # on which one is fixed
    from parasuper.groups import Parabolic
    from parasuper.gtheory import classify_g_orbits
    w2 = Parabolic(build_spec("C", 2, 5, (1, 1, 0, 1, 1)))
    w3 = Parabolic(build_spec("C", 2, 5, (1, 1, 0, 1, 1), delta=3))
    g2 = build_g_theory(w2)
    g3 = build_g_theory(w3)
    assert len(g2.chars) == len(g3.chars)
    classify_g_orbits(w3, "u")
    k2 = sorted(kl.members.tobytes() for kl in g2.classes)
    k3 = sorted(kl.members.tobytes() for kl in g3.classes)
    assert k2 == k3


def test_evaluation_identity_on_classes(borel_d2):
    # the value of a character on a class equals theta-dot at the class's
    # Levi part times the orbit sum at its radical part
    w = borel_d2
    theory = build_g_theory(w)
    from parasuper.utheory import counts_to_values, orbit_eps_counts
    from parasuper.orbits import orbit_closure
    for ch in theory.chars:
        lam = ch.provenance["lam"]
        ld = set(ch.provenance["ld_ids"])
        theta_by_l = levi_values(w, ch.provenance["theta_by_l"])
        orb = orbit_closure(lam, w.action("ustar", "Gb"))
        zids, zrows = counts_to_values(w, orbit_eps_counts(w, orb))
        zvals = Cyclo.rows(w.field.M, zrows)
        scale = w.nL // len(ld)
        for kl in theory.classes:
            r, u = divmod(kl.rep, w.nU)
            want = theta_by_l[r] * zvals[int(zids[u])] * scale
            assert ch.value_at(kl.rep) == want.pair()


def test_levi_invariance_check_reports_the_first_moved_pair(twoblock_c2, monkeypatch):
    # twoblock_c2 has a pair whose scalar Levi subgroup is all of the
    # non-abelian Levi subgroup; a theta changed on its last non-central
    # element is moved by conjugation, and the check must name the first
    # (rho, r) in row-major order over Levi elements rho and scalar Levi
    # elements r
    w = twoblock_c2
    real = gtheory.lift_to_levi
    planted = []

    def perturbed(world, sub_ids, table, vals):
        ids, rows = real(world, sub_ids, table, vals)
        if len(sub_ids) == world.nL and not planted:
            r = [int(r) for r in sub_ids if (world.conjL(np.arange(world.nL), r) != r).any()][-1]
            dense = rows[ids]
            dense[r, 0] += 1
            planted.append((list(sub_ids), Cyclo.rows(world.field.M, dense)))
            ids, rows = intern_rows(dense)
        return ids, rows

    monkeypatch.setattr(gtheory, "lift_to_levi", perturbed)
    with pytest.raises(FalsificationError) as err:
        build_g_theory(w)
    ld_ids, theta_by_l = planted[0]
    conj = levi_conjugates(w)
    want = next((rho, d) for rho in range(w.nL) for d in ld_ids
                if theta_by_l[int(conj[rho, d])] != theta_by_l[d])
    assert "moved by Levi conjugation" in str(err.value)
    ce = err.value.counterexample
    assert (ce["rho"], ce["r"]) == want and ce["theta"] == 0


def test_normality_check_reports_the_first_conjugate_leaving_the_scalar_subgroup(
        twoblock_c2, monkeypatch):
    # negative control: the first pair context's scalar Levi subgroup is
    # replaced by the identity and the last non-central Levi element, which
    # is no subgroup normal in L; the check must name the first (rho, r) in
    # row-major order over Levi elements rho and the planted ids r whose
    # conjugate rho r rho^-1 leaves them
    w = cleared(twoblock_c2)
    conj = levi_conjugates(w)
    r = [r for r in range(w.nL) if (conj[:, r] != r).any()][-1]
    planted = sorted({int(w.idL), r})
    real = gtheory.pair_context

    def replaced(world, pair):
        ctx = real(world, pair)
        if not pair.roots:
            ctx = dict(ctx, ld_ids=planted)
        return ctx

    monkeypatch.setattr(gtheory, "pair_context", replaced)
    with pytest.raises(FalsificationError, match="not normal in the Levi subgroup") as err:
        build_g_theory(w)
    want = next((rho, x) for rho in range(w.nL) for x in planted
                if int(conj[rho, x]) not in planted)
    assert err.value.counterexample == {"pair": "", "rho": want[0], "r": want[1]}


def subspace_points(world, flags):
    """Packed points of the coordinate subspace supported on flagged roots:
    the points of u whose unflagged coordinates vanish."""
    ids = np.arange(world.nU)
    return ids[~world.u_digits(ids)[:, ~np.asarray(flags)].any(axis=1)]


def test_dropping_a_basis_image_of_u_d_fails_the_generation_check(borel_c2, monkeypatch):
    # U_D of the first signature class with a proper merged radical, claimed
    # in full while the first row of its root basis is dropped
    from parasuper import groups
    from parasuper.gtheory import crossing_flags
    w = cleared(borel_c2)           # the world's memo may hold the subgroup
    for _, pairs in signature_classes(w):
        flags = crossing_flags(w.spec, merged_by_roots(w.spec, pairs[0].roots))
        if 1 < sum(flags) < w.spec.u_dim:
            break
    basis = np.eye(w.spec.u_dim, dtype=np.int64)[np.flatnonzero(flags)]
    where = {"pair": pairs[0].label()}
    members, at = w.generated(basis, "U_D", where)
    assert np.array_equal(members, subspace_points(w, flags))
    assert at.shape == (members.size, len(basis))
    points = w.u_digits(members)
    monkeypatch.setattr(groups, "enumerate_subspace", lambda basis, p: points)
    with pytest.raises(FalsificationError, match="do not generate U_D") as err:
        w.generated(basis[1:], "U_D", where)
    assert err.value.counterexample == {"subgroup": "U_D", **where}


@pytest.mark.parametrize("config", [
    ("C", 2, 3, (1, 1, 0, 1, 1)), ("C", 2, 3, (2, 0, 2)), ("D", 2, 3, (1, 1, 0, 1, 1)),
    ("C", 2, 5, (1, 1, 0, 1, 1))])
def test_each_gb_orbit_sum_adds_its_ub_orbit_counts(config):
    # the zeta of a Gb-orbit on u*, summed from the count columns of its
    # Ub-orbits, is the zeta counted directly over the whole orbit
    from parasuper.utheory import (
        counts_to_values, orbit_eps_counts, orbit_partition, orbit_sum,
    )
    w = cleared(world_for(*config))
    label = orbit_partition(w, "ustar", "Ub")[0]
    merged = 0
    for orb in orbit_partition(w, "ustar", "Gb")[1]:
        z_ids, z_rows = orbit_sum(w, orb)
        want_ids, want_rows = counts_to_values(w, orbit_eps_counts(w, orb))
        assert np.array_equal(z_ids, want_ids) and np.array_equal(z_rows, want_rows)
        merged += np.unique(label[orb]).size > 1
    assert merged            # some Gb-orbit is a union of several Ub-orbits


def test_orbit_sum_refuses_a_set_that_splits_an_ub_orbit(borel_c2):
    from parasuper.utheory import orbit_partition, orbit_sum
    part = next(orb for orb in orbit_partition(borel_c2, "ustar", "Ub")[1] if orb.size > 1)
    with pytest.raises(FalsificationError, match="not a union of Ub-orbits") as err:
        orbit_sum(borel_c2, part[1:])
    assert err.value.counterexample == {"lam": int(part[1])}


@pytest.mark.parametrize("config, batches", [
    (("C", 2, 5, (1, 1, 0, 1, 1)), [13, 3]), (("C", 2, 3, (2, 0, 2)), [5, 2])])
def test_the_pair_forms_are_built_in_one_batch(config, batches, monkeypatch):
    # after the Ub-on-G theory, the Gb-on-G build adds the forms of its
    # representative pairs that are still missing as one FormBatch, not one
    # batch of one per pair context
    from parasuper import utheory
    sizes = []
    real = utheory.FormBatch.__init__

    def counted(self, world, lams):
        sizes.append(len(lams))
        real(self, world, lams)
    monkeypatch.setattr(utheory.FormBatch, "__init__", counted)
    w = cleared(world_for(*config))
    utheory.build_u_theory(w, "G")
    build_g_theory(w)
    assert sizes == batches
