"""Verification harness: suites on small configurations plus negative controls."""

import numpy as np

from parasuper.utheory import build_u_theory
from parasuper.verify import (
    check_lemmas, check_oracles, check_refinement, check_supertheory,
    corrupt_character, corrupt_class, run_suites, theories,
)


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


def test_corrupt_class_detected(borel_d2):
    theory = build_u_theory(borel_d2, "G")
    bad = corrupt_class(theory)
    report = check_supertheory(bad)
    assert not report.passed


def test_oracles_and_refinement_c2(borel_c2):
    tU, tG, gG = theories(borel_c2)
    assert check_oracles(borel_c2, tU, tG, gG).passed
    assert check_refinement(tG, gG, borel_c2).passed


def test_lemma_suite_b2(borel_b2):
    assert check_lemmas(borel_b2).passed


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


def test_table_guard_blocks_oversized_radical():
    from parasuper.errors import ResourceGuardError
    from parasuper.groups import Parabolic, build_spec
    spec = build_spec("D", 3, 3, (1, 1, 1, 0, 1, 1, 1))
    small = Parabolic(spec, {"tables": 10})
    with np.testing.assert_raises(ResourceGuardError):
        small.mulU


def test_gram_matches_elementwise_inner_product(borel_d2):
    from fractions import Fraction
    from parasuper.verify import class_values_matrix, integer_gram
    theory = build_u_theory(borel_d2, "G")
    field = theory.pool.field
    Vs, dens = class_values_matrix(theory.chars, theory.classes, field)
    weights = [kl.size for kl in theory.classes]
    gram = integer_gram(field, Vs, Vs, weights)
    n = theory.group_size
    for a in (0, 1, len(theory.chars) - 1):
        for b in (0, len(theory.chars) - 1):
            acc = field.zero
            for kl in theory.classes:
                va = theory.chars[a].value_at(kl.rep)
                vb = theory.chars[b].value_at(kl.rep)
                acc = acc + (va * vb.conjugate()).scale(kl.size)
            direct = acc.scale(Fraction(1, n))
            via_gram = field.from_coeffs(
                [Fraction(int(x), n * dens[a] * dens[b]) for x in gram[a, b]])
            assert direct == via_gram


def test_product_lemma_rechecks_memoized_forms():
    # the theories are built first (as under --suite all), so the form data
    # is memoized before the lemma runs; a planted pair of Uc_Lambda vectors
    # whose product the extension does not kill must still be reported
    from parasuper.groups import Parabolic, build_spec, mat_mul
    from parasuper.utheory import form_data, ustar_orbit_partition
    w = Parabolic(build_spec("D", 2, 3, (1, 1, 0, 1, 1)))
    theories(w)
    spec, p = w.spec, w.spec.p
    units = [tuple(int(a == b) for b in range(spec.uc_dim)) for a in range(spec.uc_dim)]

    def lam_of_product(fd, x, y):
        prod = mat_mul(spec.mat_of_uc(x), spec.mat_of_uc(y), p)
        return int(np.array(fd.Lam_coords) @ np.array(spec.uc_coords(prod, check=False))) % p

    planted = next((fd, x, y) for orb in ustar_orbit_partition(w, "Ub")
                   for fd in [form_data(w, orb.rep)]
                   for x in units for y in units if lam_of_product(fd, x, y))
    fd, x, y = planted
    fd.UcLam_basis = list(fd.UcLam_basis) + [x, y]
    lemmas = run_suites(w, "all")[0]
    check = next(c for c in lemmas.checks if c.name == "annihilator-products-vanish")
    assert not check.passed
    assert check.counterexample["lam"] == fd.lam
    assert lam_of_product(fd, check.counterexample["x"], check.counterexample["y"])
