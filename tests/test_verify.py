"""Verification harness: suites on small configurations plus negative controls."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import cleared, levi_conjugates, levi_values
from cyclo import Cyclo

from parasuper.errors import FalsificationError
from parasuper.groups import Parabolic
from parasuper.theory import SuperChar, SuperClass
from parasuper.utheory import build_u_theory, eps_exponents, form_data, orbit_of, orbit_sum
from parasuper.verify import (
    ClassScan, _compare_char_to_induced, check_lemmas, check_oracles, check_refinement,
    check_supertheory, corrupt_character, corrupt_class, induce_product, product_counts,
    run_suites, theories,
)


def cyclo_at(ch, gid):
    """The value of a supercharacter at an element, as a Cyclo."""
    row, den = ch.value_at(gid)
    return Cyclo.rows(ch.pool.field.M, [row], den)[0]


def test_all_suites_pass_d2(borel_d2):
    reports = run_suites(borel_d2, "all")
    assert all(r.passed for r in reports), [
        (r.suite, c.name) for r in reports for c in r.checks if not c.passed]
    names = [r.suite for r in reports]
    assert "lemmas" in names and "refinement" in names


def test_single_suite_selection(borel_d2):
    reports = run_suites(borel_d2, "lemmas")
    assert len(reports) == 1 and reports[0].suite == "lemmas"


def test_report_json_shape(borel_d2):
    reports = run_suites(borel_d2, "lemmas")
    payload = reports[0].to_json()
    assert payload["suite"] == "lemmas"
    assert all(set(c) <= {"name", "passed", "counterexample"} for c in payload["checks"])
    timed = reports[0].to_json(with_timing=True)
    assert all("seconds" in c for c in timed["checks"])


def test_corrupt_character_fails_s2(borel_d2):
    theory = build_u_theory(borel_d2, "G")
    bad = corrupt_character(theory)
    report = check_supertheory(bad)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "S2-constancy" in failing
    ce = next(c.counterexample for c in report.checks if c.name == "S2-constancy")
    # the counterexample reproduces: the two elements carry different values
    ch = next(c for c in bad.chars if c.label == ce["char"])
    e1, e2 = ce["elements"]
    assert ch.value_at(e1) != ch.value_at(e2)


def test_pool_numerators_follow_the_pool():
    # a value interned after the matrix was built (as corrupt_character
    # does) must be in the next matrix, over a denominator that covers it
    from parasuper.algebra import CycField
    from parasuper.theory import ValuePool
    pool = ValuePool(CycField(12))

    def values():
        return [Cyclo.rows(12, [row], den)[0] for row, den in pool.values]
    pool.id_of(Cyclo(12, [Fraction(1, 2)]).pair())
    assert Cyclo.rows(12, *pool.numerators()) == values()
    pool.id_of((Cyclo.zeta(12, 5) * Fraction(2, 3)).pair())
    num, den = pool.numerators()
    assert len(num) == 3 and den == 6
    assert Cyclo.rows(12, num, den) == values()


def test_degree_is_an_integer_or_an_error():
    # a degree is read off a pool pair; a value that is not an integer,
    # rational or not, raises instead of printing a wrong degree
    from parasuper.algebra import CycField
    from parasuper.errors import ValidationError
    from parasuper.theory import ValuePool
    pool = ValuePool(CycField(3))
    ids = pool.intern(np.arange(4), [[6, 0], [3, 0], [0, 2], [-4, 0]], 2)
    ch = SuperChar("x", ids, pool)
    assert [ch.degree(0), ch.degree(3)] == [3, -2]
    for gid in (1, 2):
        with pytest.raises(ValidationError, match="is not an integer"):
            ch.degree(gid)


def test_corrupt_class_detected(borel_d2):
    theory = build_u_theory(borel_d2, "G")
    bad = corrupt_class(theory)
    report = check_supertheory(bad)
    assert not report.passed


def _spread(theory):
    """Copy of a theory whose first character is changed at the last member
    of every class with two or more elements, so many classes fail S2."""
    import copy
    bad = copy.copy(theory)
    bad.chars = list(theory.chars)
    ch = theory.chars[0]
    ids = ch.ids.copy()
    for kl in theory.classes:
        if kl.size >= 2:
            ids[kl.members[-1]] = theory.pool.id_of((cyclo_at(ch, kl.members[-1]) + 1).pair())
    bad.chars[0] = SuperChar(ch.label + "*", ids, theory.pool, dict(ch.provenance))
    return bad


def _reclassed(theory, members_of):
    import copy
    bad = copy.copy(theory)
    bad.classes = [SuperClass(kl.label + "*", members_of(k))
                   for k, kl in enumerate(theory.classes)]
    return bad


def _rotated(theory):
    """Each class hands its last member to the next class (cyclically)."""
    cls = theory.classes
    return _reclassed(theory, lambda k: np.append(
        cls[k].members[:-1] if cls[k].size >= 2 else cls[k].members,
        [cls[k - 1].members[-1]] if cls[k - 1].size >= 2 else []).astype(np.int64))


def _overlapping(theory):
    """Each class also holds the first member of the next class."""
    cls = theory.classes
    return _reclassed(theory, lambda k: np.append(
        cls[k].members, cls[(k + 1) % len(cls)].members[0]))


def _s2_by_loops(theory):
    # the per-(character, class) loop S2-constancy ran before ClassScan
    for ch in theory.chars:
        for kl in theory.classes:
            ids = ch.ids[kl.members]
            if ids.size and (ids != ids[0]).any():
                bad = kl.members[np.where(ids != ids[0])[0][0]]
                return {"char": ch.label, "class": kl.label,
                        "elements": [int(kl.members[0]), int(bad)],
                        "values": [cyclo_at(ch, kl.members[0]).text(),
                                   cyclo_at(ch, bad).text()],
                        "message": "character is not constant on a class"}
    return None


def _span_constancy_by_loops(fine, coarse):
    # the loop the constancy pass of characters-in-span ran before ClassScan
    for ch in coarse.chars:
        for kl in fine.classes:
            ids = ch.ids[kl.members]
            if ids.size and (ids != ids[0]).any():
                return {"char": ch.label, "class": kl.label,
                        "message": "coarse character not constant on a fine class"}
    return None


CORRUPTIONS = {"character": corrupt_character, "class": corrupt_class,
               "spread": _spread, "rotated": _rotated, "overlapping": _overlapping}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
@pytest.mark.parametrize("name", ["borel_d2", "borel_c2"])
def test_constancy_scan_reports_what_the_loops_report(name, corruption, request):
    # S2-constancy and the constancy pass of characters-in-span report the
    # first (character, class, element) in loop order, also on corrupted,
    # overlapping and incomplete partitions
    w = request.getfixturevalue(name)
    gG = theories(w)[2]
    bad = CORRUPTIONS[corruption](build_u_theory(w, "G"))   # a private pool
    s2 = next(c for c in check_supertheory(bad).checks if c.name == "S2-constancy")
    want = _s2_by_loops(bad)
    assert want is not None and not s2.passed
    assert s2.counterexample == want
    span = next(c for c in check_refinement(bad, gG).checks
                if c.name == "characters-in-span")
    want = _span_constancy_by_loops(bad, gG)
    if want is None:
        assert span.counterexample.get("message") != "coarse character not constant on a fine class"
    else:
        assert span.counterexample == want


def _induction_comparison_by_loops(ch, clean, classes, what):
    # the per-class loop the oracles' comparison amounts to, against a
    # clean character standing in for the induced one
    for members in classes:
        ids = ch.ids[members]
        if (ids != ids[0]).any():
            return {"char": ch.label, "what": what,
                    "elements": [int(members[0]), int(members[np.flatnonzero(ids != ids[0])[0]])],
                    "message": "closed formula is not constant on a conjugacy class"}
        if ch.value_at(members[0]) != clean.value_at(members[0]):
            return {"char": ch.label, "what": what, "class_rep": int(members[0]),
                    "formula": cyclo_at(ch, members[0]).text(),
                    "induction": cyclo_at(clean, members[0]).text(),
                    "message": "closed formula disagrees with direct induction"}
    return None


@pytest.mark.parametrize("corruption", ["character", "spread"])
@pytest.mark.parametrize("name", ["borel_d2", "borel_c2"])
def test_induction_comparison_reports_what_the_loop_reports(name, corruption, request):
    w = request.getfixturevalue(name)
    tG = build_u_theory(w, "G")                             # a private pool
    bad = CORRUPTIONS[corruption](tG)
    _, g_classes = w.g_classes
    num, den = tG.pool.numerators()
    clean = tG.chars[0]
    induced = (num[clean.ids[[int(m[0]) for m in g_classes]]], den)
    want = _induction_comparison_by_loops(bad.chars[0], clean, g_classes, "test")
    assert want is not None
    with pytest.raises(FalsificationError) as exc:
        _compare_char_to_induced(bad.chars[0], ClassScan(g_classes), induced, "test")
    assert dict(exc.value.counterexample, message=str(exc.value)) == want
    _compare_char_to_induced(clean, ClassScan(g_classes), induced, "test")


def test_oracles_and_refinement_c2(borel_c2):
    tU, tG, gG = theories(borel_c2)
    assert check_oracles(borel_c2, tU, tG, gG).passed
    assert check_refinement(tG, gG).passed


@pytest.mark.parametrize("name", ["borel_c2", "twoblock_c2"])
def test_factored_induction_is_the_per_element_induction(name, request):
    # reference: theta(r) zeta(u) at each element r u of H = R V on its own,
    # added into its class of G with weight |G| / |K|, over den |H|; for
    # every Levi-averaged (H = L0 U_lam) and ambient (H = L_D U) character
    w = request.getfixturevalue(name)
    tU, tG, gG = theories(w)
    class_of, members = w.g_classes
    sizes = np.array([m.size for m in members])
    eps = w.field.eps_rows(w.spec.p)
    cases = []
    for ch in tG.chars:
        fd = form_data(w, ch.provenance["lam"])
        cases.append((ch, fd.L0_ids, fd.U_lam_ids,
                      eps_exponents(w, fd.lam_coords, fd.U_lam_ids), eps))
    for ch in gG.chars:
        z_ids, z_rows = orbit_sum(w, orbit_of(w, "ustar", "Gb", ch.provenance["lam"]))
        cases.append((ch, ch.provenance["ld_ids"], np.arange(w.nU), z_ids, z_rows))
    for ch, r_ids, u_ids, z_ids, z_rows in cases:
        theta = ch.provenance["theta_by_l"]
        r = np.repeat(np.asarray(r_ids, dtype=np.int64), len(u_ids))
        cls = class_of[r * w.nU + np.tile(u_ids, len(r_ids))]
        vals = w.field.mul_rows(theta[1][theta[0][r]], z_rows[np.tile(z_ids, len(r_ids))])
        want = np.zeros((len(sizes), w.field.dim), dtype=object)
        np.add.at(want, cls, vals.astype(object) * (w.g_size // sizes[cls])[:, None])
        rows, den = induce_product(
            w, class_of, sizes, product_counts(class_of, w.nU, r_ids, u_ids, z_ids, z_rows),
            theta)
        assert den == len(r) and np.array_equal(rows, want), ch.label
    assert len(cases) == len(tG.chars) + len(gG.chars) > 0


def test_span_check_reports_the_missing_direction(borel_c2):
    # negative control: with one fine character dropped, a coarse character
    # above it leaves the span; the counterexample names the first such
    # character, with the Bessel sum over the remaining fine characters as
    # the textbook computes it, one inner product at a time
    import copy
    tU, tG, gG = theories(borel_c2)
    fine = copy.copy(tG)
    fine.chars = tG.chars[:-1]
    report = check_refinement(fine, gG)
    failed = {c.name: c.counterexample for c in report.checks if not c.passed}
    assert list(failed) == ["characters-in-span"]
    ce = failed["characters-in-span"]
    field = borel_c2.field

    def inner(x, y):
        acc = Cyclo(field.M)
        for kl in tG.classes:
            acc = acc + cyclo_at(x, kl.rep) * cyclo_at(y, kl.rep).conj() * kl.size
        return acc * Fraction(1, tG.group_size)

    for chi in gG.chars:
        total = Cyclo(field.M)
        for psi in fine.chars:
            z = inner(chi, psi)
            total = total + z * z.conj() * (1 / Fraction(inner(psi, psi).rational()))
        if chi.label != ce["char"]:
            assert total == inner(chi, chi)
            continue
        assert total != inner(chi, chi)
        assert ce["projection_norm"] == total.text()
        assert ce["norm"] == str(inner(chi, chi).rational())
        break


def test_lemma_suite_b2(borel_b2):
    assert check_lemmas(borel_b2).passed


def test_springer_lemma_reports_the_first_non_equivariant_element(borel_c2, monkeypatch):
    # negative control: f plus a fixed non-central element z of u off the
    # identity; the reference is a plain loop over U in id order
    from parasuper import groups, linalg, verify
    from parasuper.groups import subgroup_generators
    w, spec, p = borel_c2, borel_c2.spec, borel_c2.spec.p
    one = np.eye(spec.N, dtype=np.int64)
    z = spec.u_basis[0]

    def broken(spec, G):
        moved = (np.asarray(G) != one).any(axis=(-2, -1))[..., None, None]
        return (groups.cayley(spec, G) + moved * z) % p

    gens = subgroup_generators(spec, "Ub")
    samples = list(gens) + [a @ b % p for a, b in zip(gens, gens[1:])]
    assert any(not np.array_equal(v @ z % p, z @ v % p) for v in samples)

    def fails(g):
        for v in samples:
            vi = np.array(linalg.inverse(v.tolist(), p), dtype=np.int64)
            if not np.array_equal(broken(spec, v @ g @ vi % p), v @ broken(spec, g) @ vi % p):
                return True
        return False

    want = next(u for u in range(w.nU) if fails(w.U[u]))
    monkeypatch.setattr(verify, "cayley", broken)
    check = next(c for c in check_lemmas(w).checks if c.name == "springer-equivariance")
    assert not check.passed
    assert check.counterexample == {"u": want,
                                    "message": "Springer map is not conjugation equivariant"}


def test_refinement_class_counts(borel_c2):
    _, tG, gG = theories(borel_c2)
    assert len(gG.classes) <= len(tG.classes)
    fine = tG.class_of_element()
    for kl in gG.classes:
        assert np.unique(fine[kl.members]).size >= 1


def test_larger_prime_configuration():
    # q=7 exercises a 12-dimensional cyclotomic field (M = 42) end to end
    from conftest import world_for
    w = world_for("D", 2, 7, (1, 1, 0, 1, 1))
    assert w.field.M == 42 and w.field.dim == 12
    reports = run_suites(w, "all")
    assert all(r.passed for r in reports), [
        (r.suite, c.name) for r in reports for c in r.checks if not c.passed]


def test_rank_three_configuration():
    # a rank-3 group end to end: both theories assemble and pass the axioms
    from conftest import world_for
    w = world_for("D", 3, 3, (1, 1, 1, 0, 1, 1, 1))
    assert w.nU == 729 and w.g_size == 5832
    for suite in ("utheory", "gtheory"):
        reports = run_suites(w, suite)
        assert all(r.passed for r in reports), suite


def test_closure_guard_stops_the_lemma_suite():
    # B2 q=3 Borel: |u| = 81 fits a space guard of 100, but the lemma
    # suite's closures on forms over Uc pass it
    from parasuper.errors import ResourceGuardError
    from parasuper.groups import Parabolic, build_spec
    w = Parabolic(build_spec("B", 2, 3, (1, 1, 1, 1, 1)), {"space": 100})
    with pytest.raises(ResourceGuardError, match="orbit closure passed"):
        run_suites(w, "lemmas")


def test_gram_matches_elementwise_inner_product(borel_d2):
    from parasuper.verify import class_values_matrix, integer_gram
    theory = build_u_theory(borel_d2, "G")
    field = theory.pool.field
    V, den = class_values_matrix(theory.pool, theory.chars, theory.classes)
    weights = [kl.size for kl in theory.classes]
    gram = integer_gram(field, V, V, weights)
    n = theory.group_size
    for a in (0, 1, len(theory.chars) - 1):
        for b in (0, len(theory.chars) - 1):
            acc = Cyclo(field.M)
            for kl in theory.classes:
                va = cyclo_at(theory.chars[a], kl.rep)
                vb = cyclo_at(theory.chars[b], kl.rep)
                acc = acc + va * vb.conj() * kl.size
            direct = acc * Fraction(1, n)
            via_gram = Cyclo(field.M, [Fraction(int(x), n * den * den) for x in gram[a, b]])
            assert direct == via_gram


def test_product_lemma_rechecks_memoized_forms():
    # the theories are built first (as under --suite all), so the form data
    # is memoized before the lemma runs; a planted pair of Uc_Lambda vectors
    # whose product the extension does not kill must still be reported
    from parasuper.groups import Parabolic, build_spec
    from parasuper.utheory import form_data, orbit_partition
    w = Parabolic(build_spec("D", 2, 3, (1, 1, 0, 1, 1)))
    theories(w)
    spec, p = w.spec, w.spec.p
    units = np.eye(spec.uc_dim, dtype=np.int64)

    def lam_of_product(fd, x, y):
        prod = spec.mat_of_uc(x) @ spec.mat_of_uc(y) % p
        return int(fd.Lam_coords @ spec.uc_coords(prod, check=False)) % p

    planted = next((fd, x, y) for orb in orbit_partition(w, "ustar", "Ub")[1]
                   for fd in [form_data(w, int(orb[0]))]
                   for x in units for y in units if lam_of_product(fd, x, y))
    fd, x, y = planted
    fd.UcLam_basis = np.concatenate([fd.UcLam_basis, [x, y]])
    lemmas = run_suites(w, "all")[0]
    check = next(c for c in lemmas.checks if c.name == "annihilator-products-vanish")
    assert not check.passed
    assert check.counterexample["lam"] == fd.lam
    assert lam_of_product(fd, check.counterexample["x"], check.counterexample["y"])


def _swap_provenance(theory, key, other_of):
    """Copy of a theory whose first character that other_of finds a partner
    for carries that partner's provenance value under key."""
    import copy
    bad = copy.copy(theory)
    bad.chars = list(theory.chars)
    for idx, ch in enumerate(theory.chars):
        other = other_of(ch)
        if other is not None:
            prov = dict(ch.provenance, **{key: other.provenance[key]})
            bad.chars[idx] = SuperChar(ch.label, ch.ids, ch.pool, prov)
            return bad, ch.label
    raise AssertionError("no character to swap")


@pytest.mark.parametrize("which", ["U-on-U", "Ub-on-G", "Gb-on-G"])
def test_oracles_catch_swapped_provenance(borel_c2, which):
    # each oracle induces from what the provenance names, independently of
    # the closed formula; naming another orbit's form (U-on-U) or another
    # theta of the same form or pair must fail exactly the matching oracle
    tU, tG, gG = theories(borel_c2)
    oracle = {"U-on-U": "radical-induction-oracle",
              "Ub-on-G": "parabolic-induction-oracle",
              "Gb-on-G": "ambient-induction-oracle"}[which]

    def partner(theory, same, key):
        value = (lambda v: v) if key == "lam" else (lambda v: levi_values(borel_c2, v))
        return lambda ch: next(
            (o for o in theory.chars if same(o, ch)
             and value(o.provenance[key]) != value(ch.provenance[key])), None)

    if which == "U-on-U":
        tU, label = _swap_provenance(tU, "lam", partner(tU, lambda o, ch: True, "lam"))
    elif which == "Ub-on-G":
        same_form = lambda o, ch: o.provenance["lam"] == ch.provenance["lam"]
        tG, label = _swap_provenance(tG, "theta_by_l", partner(tG, same_form, "theta_by_l"))
    else:
        same_pair = lambda o, ch: (o.provenance["roots"], o.provenance["phi"]) == (
            ch.provenance["roots"], ch.provenance["phi"])
        gG, label = _swap_provenance(gG, "theta_by_l", partner(gG, same_pair, "theta_by_l"))
    report = check_oracles(borel_c2, tU, tG, gG)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [oracle]
    ce = failed[0].counterexample
    assert ce["message"] == "closed formula disagrees with direct induction"
    assert ce["char"] == label
    assert ce["formula"] != ce["induction"] and "class_rep" in ce


def test_normality_lemma_reports_the_first_corrupted_conjugate(twoblock_c2):
    # negative control: in a copy of the world, one form's L0 becomes the
    # identity and the last element y of L0 that some s in S moves by
    # conjugation, a subset that is not normal in S; the reference is the
    # plain (lam, s, x) loop over conjugates read off the matrices
    import copy
    from parasuper.utheory import form_data, orbit_partition
    w = twoblock_c2
    conj = levi_conjugates(w)
    reps = [int(orb[0]) for orb in orbit_partition(w, "ustar", "Ub")[1]]

    def first_failure(l0_of):
        for lam in reps:
            f = form_data(w, lam)
            for s in f.S_ids:
                for x in l0_of(f):
                    if int(conj[s, x]) not in l0_of(f):
                        return {"lam": lam, "s": s, "x": x}

    fd = next(fd for fd in (form_data(w, lam) for lam in reps)
              if (conj[np.ix_(fd.S_ids, fd.L0_ids)] != fd.L0_ids).any())
    y = [y for y in fd.L0_ids if (conj[fd.S_ids, y] != y).any()][-1]
    planted = sorted({int(w.idL), y})
    bad = cleared(w)
    bad_fd = copy.copy(fd)
    bad_fd.L0_ids = planted
    bad.memo(("form_data", fd.lam), lambda: bad_fd)
    want = first_failure(lambda f: planted if f is fd else f.L0_ids)
    assert want is not None
    check = next(c for c in check_lemmas(bad).checks if c.name == "pointwise-normal-in-setwise")
    assert not check.passed
    assert check.counterexample == dict(
        want, message="pointwise stabilizer is not normal in the setwise one")
    assert check_lemmas(w).passed


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_two_sided_stability_reports_a_levi_element_off_the_block_diagonal(borel_c2, warm):
    # negative control: in a copy, one Levi element gets a nonzero entry in
    # the bottom-left block, so it no longer normalizes the nilpotent algebra
    # and the Levi stabilizers by membership lose their footing.  The warm
    # copy is made after the lemmas passed on the world; the cold one of a
    # new world, before anything is cached.  Either way the lemmas that read
    # Levi stabilizers report that the element does not act on u
    import copy
    w = borel_c2 if warm else Parabolic(borel_c2.spec)
    spec = w.spec
    if warm:
        assert check_lemmas(w).passed
    k = w.nL - 1
    bad = copy.copy(w)
    bad._memo = {}
    bad.L = w.L.copy()
    bad.L[k, spec.pos[-2], spec.pos[2]] = 1
    checks = {c.name: c for c in check_lemmas(bad).checks}
    check = checks.pop("two-sided-stability")
    assert not check.passed
    assert check.counterexample["levi"] == k
    assert check.counterexample["message"] == (
        "a Levi element does not normalize the nilpotent algebra")
    i, j = check.counterexample["position"]
    e = spec.E(i, j)
    assert ((bad.L[k] @ e @ spec.dagger(bad.L[k]) % spec.p)[~spec.uc_mask]).any()
    assert checks.pop("springer-equivariance").passed
    assert checks and all(c.counterexample == {
        "element": k, "message": "a group element does not act on u"} for c in checks.values())


def test_setwise_lemma_reports_a_corrupted_stabilizer(borel_c2):
    # negative control: one form's S, in a copy, loses its last element; the
    # two-sided orbit's stabilizer by membership disagrees for that form only
    import copy
    from parasuper.utheory import form_data, orbit_partition
    w = borel_c2
    assert check_lemmas(w).passed
    lam = next(int(orb[0]) for orb in reversed(orbit_partition(w, "ustar", "Ub")[1])
               if len(form_data(w, int(orb[0])).S_ids) > 1)
    bad = copy.copy(w)
    bad._memo = {}
    fd = form_data(bad, lam)
    full = fd.S_ids
    fd.S_ids = full[:-1]
    check = next(c for c in check_lemmas(bad).checks if c.name == "setwise-stabilizers-agree")
    assert not check.passed
    assert check.counterexample == {
        "lam": lam, "via_dot_orbit": full[:-1], "via_two_sided": full,
        "message": "setwise stabilizers computed two ways disagree"}


def test_each_orbit_sum_is_computed_once(monkeypatch):
    # the U-on-U characters, chi_alpha_u, pair_context and the ambient
    # oracle all read one memoized orbit sum per orbit of forms, and the
    # counts behind them are taken once per Ub-orbit
    from parasuper import utheory
    from parasuper.groups import Parabolic, build_spec
    w = Parabolic(build_spec("C", 2, 3, (1, 1, 0, 1, 1)))
    real = utheory.orbit_eps_counts
    seen = []

    def counted(world, points):
        seen.append(points.tobytes())
        return real(world, points)

    monkeypatch.setattr(utheory, "orbit_eps_counts", counted)
    assert all(report.passed for report in run_suites(w, "all"))
    assert seen and len(seen) == len(set(seen))
    # and only on single Ub-orbits: a Gb-orbit's zeta adds their counts
    ub = {orb.tobytes() for orb in utheory.orbit_partition(w, "ustar", "Ub")[1]}
    assert set(seen) <= ub


def test_each_action_permutes_its_space_once(monkeypatch):
    # the Ub permutations of u serve both its orbit partition and the
    # quotient orbits of the superclasses; no action computes them twice
    from parasuper.groups import build_spec
    from parasuper.orbits import LinearAction
    w = Parabolic(build_spec("C", 2, 3, (1, 1, 0, 1, 1)))
    real = LinearAction.images
    whole = []

    def counted(self, pts):
        if np.size(pts) == self.size:
            whole.append(self.label)
        return real(self, pts)

    monkeypatch.setattr(LinearAction, "images", counted)
    assert all(r.passed for r in run_suites(w, "all"))
    assert "u:Ub" in whole and len(whole) == len(set(whole))


@pytest.mark.parametrize("suite, built", [
    ("lemmas", set()), ("utheory", {"U", "G"}), ("gtheory", {"Gb"}),
    ("oracles", {"U", "G", "Gb"}), ("refinement", {"G", "Gb"}), ("all", {"U", "G", "Gb"})])
def test_a_suite_builds_only_the_theories_it_reads(borel_d2, suite, built, monkeypatch):
    # on a world with an empty memo; the theories are built in the order
    # U-on-U, Ub-on-G, Gb-on-G, as under --suite all
    from conftest import cleared
    from parasuper import verify
    order = []
    for name in ("build_u_theory", "build_g_theory"):
        monkeypatch.setattr(verify, name, lambda *args, real=getattr(verify, name): (
            order.append(args[1:] or ("Gb",)), real(*args))[1])
    w = cleared(borel_d2)
    assert all(r.passed for r in run_suites(w, suite))
    assert [which for (which,) in order] == [k for k in ("U", "G", "Gb") if k in built]
    assert {k for k in ("U", "G", "Gb") if w.memoized(("theory", k))} == built


def test_partition_counts_memberships_past_any_small_integer():
    # negative control: 257 classes {0, i} over a group of 258 elements put
    # the identity in 257 classes, which a one-byte counter would see as 1
    from parasuper.algebra import CycField
    from parasuper.theory import SuperTheory, ValuePool
    classes = [SuperClass("K%d" % i, [0, i]) for i in range(1, 258)]
    theory = SuperTheory("t", 258, 0, [], classes, ValuePool(CycField(3)))
    check = next(c for c in check_supertheory(theory).checks if c.name == "partition")
    assert not check.passed
    assert check.counterexample == {"element": 0, "classes": [kl.label for kl in theory.classes],
                                    "message": "element lies in two classes"}
