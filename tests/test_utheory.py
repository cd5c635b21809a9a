"""Radical-orbit theory: form extensions, supercharacters, superclasses."""

from fractions import Fraction

import numpy as np
from parasuper.utheory import (
    action_on_ustar, build_u_theory, form_data, l_table, orbit_eps_counts,
    counts_to_values, ustar_orbit_partition, u_orbit_partition,
)


def test_zero_form_data(borel_c2):
    fd = form_data(borel_c2, 0)
    assert all(c == 0 for c in fd.Lam_coords)
    assert fd.orbit_ub.size == 1
    assert len(fd.u_lam_basis) == borel_c2.spec.u_dim      # u_0 = u
    assert fd.U_lam_ids.size == borel_c2.nU                # U_0 = U
    assert len(fd.R_basis) == borel_c2.spec.uc_dim         # R_0 = Uc
    assert fd.L0_ids == list(range(borel_c2.nL))


def test_form_extension_is_deterministic(borel_c2):
    a = form_data(borel_c2, 5)
    b = __import__("parasuper.utheory", fromlist=["FormData"]).FormData(borel_c2, 5)
    assert a.Lam_coords == b.Lam_coords
    assert np.array_equal(a.orbit_ub.points, b.orbit_ub.points)


def test_form_data_full_sweep(borel_c2):
    # the constructor asserts: restriction, anti-self-duality, both
    # annihilator descriptions of u_lam, and multiplicativity
    for orb in ustar_orbit_partition(borel_c2, "Ub"):
        fd = form_data(borel_c2, orb.rep)
        assert fd.orbit_hb.size <= fd.orbit_ub.size
        assert set(fd.L0_ids) <= set(fd.S_ids)


def test_radical_supercharacter_values(borel_c2):
    w = borel_c2
    field = w.field
    theory = build_u_theory(w, "U")
    for ch in theory.chars:
        lam = ch.provenance["lam"]
        # degree equals the size of the smaller orbit
        assert ch.degree(0) == ch.provenance["sub_orbit_size"]
        if lam == 0:
            assert all(ch.value_at(u) == field.one for u in range(w.nU))


def test_u_theory_counts_match(borel_d2, borel_c2):
    for w in (borel_d2, borel_c2):
        theory = build_u_theory(w, "U")
        n_star = len(ustar_orbit_partition(w, "Ub"))
        n_pts = len(u_orbit_partition(w, "Ub"))
        assert len(theory.chars) == n_star
        assert len(theory.classes) == n_pts
        assert n_star == n_pts


def test_g_theory_assembles(borel_d2):
    theory = build_u_theory(borel_d2, "G")
    assert len(theory.chars) == len(theory.classes)
    assert theory.meta["axioms"] == "pass"
    # the identity class is present
    assert any(kl.size == 1 and kl.rep == theory.ident_id for kl in theory.classes)


def test_chi_alpha_degree_formula(borel_b2):
    w = borel_b2
    theory = build_u_theory(w, "G")
    for ch in theory.chars:
        lam = ch.provenance["lam"]
        fd = form_data(w, lam)
        theta_one = ch.provenance["theta_by_l"][w.idL]
        want = Fraction(fd.orbit_hb.size * w.nL, len(fd.L0_ids)) * theta_one.as_fraction()
        assert ch.value_at(theory.ident_id).as_fraction() == want


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
    from parasuper.verify import check_supertheory, corrupt_character
    theory = build_u_theory(borel_d2, "G")
    bad = corrupt_character(theory)
    report = check_supertheory(bad)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and failing[0].counterexample
