"""Falsification harness: axiom checks, lemma suite, induction oracles,
and the coarseness relation between the two theories.

Every check is exact; a failure carries a machine-readable counterexample
that reproduces deterministically.  The expensive pairwise orthogonality
sweep runs on integer coefficient matrices at superclass level (scaled
cyclotomic coordinates contracted with the reduction tensor), which is
mathematically identical to the elementwise inner product and overflow-safe
by explicit bound checking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dfield
from fractions import Fraction

import numpy as np

from .algebra import lcm
from .errors import FalsificationError, ValidationError
from .groups import mat_inv, mat_mul, subgroup_generators, gb_generators
from .orbits import levi_stabilizer, orbit_closure
from .theory import SuperChar, SuperClass
from .utheory import (
    _memo, action_left_ucstar, build_u_theory, counts_to_values, form_data,
    orbit_eps_counts, orbit_of, ustar_orbit_partition,
)
from .gtheory import build_g_theory, classify_g_orbits


@dataclass
class CheckResult:
    name: str
    passed: bool
    counterexample: dict = dfield(default_factory=dict)
    seconds: float = 0.0

    def to_json(self, with_timing=False):
        out = {"name": self.name, "passed": self.passed}
        if self.counterexample:
            out["counterexample"] = _jsonable(self.counterexample)
        if with_timing:
            out["seconds"] = round(self.seconds, 3)
        return out


@dataclass
class Report:
    suite: str
    checks: list = dfield(default_factory=list)

    def add(self, name, passed, counterexample=None, seconds=0.0):
        self.checks.append(CheckResult(name, bool(passed), counterexample or {}, seconds))

    def run(self, name, fn):
        t0 = time.monotonic()
        try:
            fn()
            self.add(name, True, None, time.monotonic() - t0)
        except FalsificationError as exc:
            self.add(name, False, dict(exc.counterexample, message=str(exc)),
                     time.monotonic() - t0)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return {"check": c.name, **c.counterexample}
        return None

    def to_json(self, with_timing=False):
        return {"suite": self.suite, "passed": self.passed,
                "checks": [c.to_json(with_timing) for c in self.checks]}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "serialize"):
        return obj.serialize()
    if hasattr(obj, "ranks"):
        return {"ranks": _jsonable(obj.ranks), "d": _jsonable(obj.d)}
    return obj


# ---------------------------------------------------------------------------
# supercharacter axioms

def class_values_matrix(chars, classes, field):
    """Integer coefficient matrices of per-class values, with denominators."""
    Vs, dens = [], []
    for ch in chars:
        vals = [ch.value_at(kl.rep) for kl in classes]
        den = 1
        for v in vals:
            for c in v.coeffs:
                den = lcm(den, Fraction(c).denominator)
        V = [[int(Fraction(c) * den) for c in v.coeffs] for v in vals]
        Vs.append(V)
        dens.append(den)
    return Vs, dens


def integer_gram(field, VA, VB, weights):
    """G[a, b, :] = reduced integer coefficients of sum_K w_K A_a(K) conj(B_b(K)).

    Dividing entry (a, b) by |G| * den_a * den_b gives the exact inner
    product; in particular G[a, b] == 0 iff the characters are orthogonal.
    """
    dim, M = field.dim, field.M
    A = np.array(VA, dtype=object)
    B = np.array(VB, dtype=object)
    w = np.array(weights, dtype=object)
    # contraction tensor: zeta^c * conj(zeta^d) reduced to the power basis
    red = np.empty((dim, dim, dim), dtype=object)
    for c in range(dim):
        for d in range(dim):
            row = field._pow[(c - d) % M]
            for e in range(dim):
                red[c, d, e] = row[e]
    bound = 0
    if A.size and B.size:
        amax = max(abs(int(x)) for x in A.ravel()) or 1
        bmax = max(abs(int(x)) for x in B.ravel()) or 1
        rmax = max(abs(int(x)) for x in red.ravel()) or 1
        bound = int(sum(int(x) for x in w)) * amax * bmax * rmax * dim * dim
    if bound < 2 ** 62:
        A = A.astype(np.int64)
        B = B.astype(np.int64)
        w64 = np.array(weights, dtype=np.int64)
        red64 = red.astype(np.int64)
        Bw = B * w64[None, :, None]
        out = np.zeros((A.shape[0], B.shape[0], dim), dtype=np.int64)
        chunk = max(1, 2 ** 22 // max(1, B.shape[0] * dim * dim))
        for s in range(0, A.shape[0], chunk):
            Mab = np.einsum("akc,bkd->abcd", A[s:s + chunk], Bw)
            out[s:s + chunk] = np.einsum("abcd,cde->abe", Mab, red64)
        return out
    Bw = B * w[None, :, None]
    Mab = np.einsum("akc,bkd->abcd", A, Bw)
    return np.einsum("abcd,cde->abe", Mab, red)


def check_supertheory(theory, world=None):
    """S1-S3, partition, count equality, and integrality, all exact."""
    report = Report("axioms:" + theory.kind)
    field = theory.pool.field
    n = theory.group_size

    def partition_check():
        seen = np.zeros(n, dtype=np.int8)
        for kl in theory.classes:
            seen[kl.members] += 1
        over = np.where(seen > 1)[0]
        if over.size:
            labs = [kl.label for kl in theory.classes
                    if np.isin(over[0], kl.members)]
            raise FalsificationError("element lies in two classes",
                                     {"element": int(over[0]), "classes": labs})
        missing = np.where(seen == 0)[0]
        if missing.size:
            raise FalsificationError("element not covered by any class",
                                     {"element": int(missing[0])})
    report.run("partition", partition_check)

    def s3_check():
        for kl in theory.classes:
            if kl.size == 1 and kl.rep == theory.ident_id:
                return
        raise FalsificationError("the identity is not a singleton class",
                                 {"ident": theory.ident_id})
    report.run("S3-identity-class", s3_check)

    def s2_check():
        for ch in theory.chars:
            for kl in theory.classes:
                ids = ch.ids[kl.members]
                if ids.size and (ids != ids[0]).any():
                    bad = kl.members[np.where(ids != ids[0])[0][0]]
                    raise FalsificationError(
                        "character is not constant on a class",
                        {"char": ch.label, "class": kl.label,
                         "elements": [int(kl.members[0]), int(bad)],
                         "values": [ch.value_at(kl.members[0]).serialize(),
                                    ch.value_at(bad).serialize()]})
    report.run("S2-constancy", s2_check)

    def count_check():
        if len(theory.chars) != len(theory.classes):
            raise FalsificationError(
                "character count differs from class count",
                {"chars": len(theory.chars), "classes": len(theory.classes)})
    report.run("count-equality", count_check)

    def degree_check():
        for ch in theory.chars:
            v = ch.value_at(theory.ident_id)
            if not v.is_rational() or v.as_fraction().denominator != 1 or v.as_fraction() <= 0:
                raise FalsificationError("degree is not a positive integer",
                                         {"char": ch.label, "value": v.serialize()})
    report.run("integer-degrees", degree_check)

    def s1_check():
        Vs, dens = class_values_matrix(theory.chars, theory.classes, field)
        weights = [kl.size for kl in theory.classes]
        gram = integer_gram(field, Vs, Vs, weights)
        nc = len(theory.chars)
        for a in range(nc):
            for b in range(a + 1, nc):
                if any(int(x) for x in gram[a, b]):
                    num = field.from_coeffs(
                        [Fraction(int(x), n * dens[a] * dens[b]) for x in gram[a, b]])
                    raise FalsificationError(
                        "two supercharacters are not orthogonal",
                        {"chars": [theory.chars[a].label, theory.chars[b].label],
                         "inner_product": num.serialize()})
        for a in range(nc):
            vec = [int(x) for x in gram[a, a]]
            if any(vec[1:]):
                raise FalsificationError("self inner product is not rational",
                                         {"char": theory.chars[a].label})
            den = n * dens[a] * dens[a]
            if vec[0] <= 0 or vec[0] % den:
                raise FalsificationError(
                    "self inner product is not a positive integer",
                    {"char": theory.chars[a].label,
                     "value": str(Fraction(vec[0], den))})
    report.run("S1-orthogonality", s1_check)
    return report


# ---------------------------------------------------------------------------
# lemma suite

def check_lemmas(world):
    report = Report("lemmas")
    spec = world.spec
    p = spec.p

    def nilpotent_stability():
        gens = gb_generators(spec)
        for a in gens:
            for b in gens:
                for (i, j) in spec.uc_positions:
                    m = mat_mul(mat_mul(a, spec.E(i, j), p), b, p)
                    if spec.mat_of_uc(spec.uc_coords(m, check=False)) != m:
                        raise FalsificationError(
                            "the nilpotent algebra is not stable under two-sided "
                            "multiplication", {"position": [i, j]})
    report.run("two-sided-stability", nilpotent_stability)

    def springer_equivariance():
        from .groups import springer_map
        gens = subgroup_generators(spec, "Ub")
        samples = list(gens)
        for a, b in zip(gens, gens[1:]):
            samples.append(mat_mul(a, b, p))
        for u in world.U:
            fu = springer_map(spec, u)
            for v in samples:
                lhs = springer_map(spec, mat_mul(mat_mul(v, u, p), mat_inv(v, p), p))
                rhs = mat_mul(mat_mul(v, fu, p), mat_inv(v, p), p)
                if lhs != rhs:
                    raise FalsificationError(
                        "Springer map is not conjugation equivariant",
                        {"u": world.Uindex[u]})
    report.run("springer-equivariance", springer_equivariance)

    reps = [orb.rep for orb in ustar_orbit_partition(world, "Ub")]
    emb = np.array(spec.u_embed_matrix(), dtype=np.int64)      # (uc_dim, u_dim)
    uc_powers = np.array([p ** t for t in range(spec.uc_dim)], dtype=np.int64)

    def product_vanishing():
        # the extension of each form vanishes on products from Uc_Lambda
        for lam in reps:
            fd = form_data(world, lam)
            Lam = np.array(fd.Lam_coords, dtype=np.int64)
            for va in fd.UcLam_basis:
                ma = spec.mat_of_uc(va)
                for vb in fd.UcLam_basis:
                    prod = spec.uc_coords(mat_mul(ma, spec.mat_of_uc(vb), p), check=False)
                    if int(Lam @ np.array(prod, dtype=np.int64)) % p:
                        raise FalsificationError(
                            "extension does not vanish on a product of annihilator elements",
                            {"lam": lam, "x": list(va), "y": list(vb)})
    report.run("annihilator-products-vanish", product_vanishing)

    def projection_of_left_orbit():
        for lam in reps:
            fd = form_data(world, lam)
            left = orbit_closure(fd.Lam_packed, action_left_ucstar(world, "Hb"))
            digs = (left.points[:, None] // uc_powers[None, :]) % p
            proj = world.pack_u_array(digs @ emb)
            got = np.unique(proj)
            if not np.array_equal(got, fd.orbit_hb.points):
                raise FalsificationError(
                    "restriction of the left orbit differs from the dot orbit",
                    {"lam": lam, "restricted": got.tolist()[:8],
                     "dot_orbit": fd.orbit_hb.points.tolist()[:8]})
    report.run("left-orbit-restriction", projection_of_left_orbit)

    def fiber_equals_orbit():
        all_digs = world.u_digits(np.arange(world.nU))
        for lam in reps:
            fd = form_data(world, lam)
            if fd.u_lam_basis:
                basis = np.array(fd.u_lam_basis, dtype=np.int64)
                vals = (all_digs @ basis.T) % p
                lam_vals = (np.array(world.unpack_u(lam), dtype=np.int64) @ basis.T) % p
                mask = (vals == lam_vals[None, :]).all(axis=1)
            else:
                mask = np.ones(world.nU, dtype=bool)
            fiber = np.where(mask)[0].astype(np.int64)
            if not np.array_equal(fiber, fd.orbit_hb.points):
                raise FalsificationError(
                    "the agreement fiber differs from the dot orbit",
                    {"lam": lam, "fiber_size": int(fiber.size),
                     "orbit_size": fd.orbit_hb.size})
    report.run("fiber-equals-orbit", fiber_equals_orbit)

    def setwise_stabilizers_agree():
        for lam in reps:
            fd = form_data(world, lam)
            s_two = levi_stabilizer(world, fd.orbit_two_sided.points, "ucstar", "setwise")
            if s_two != fd.S_ids:
                raise FalsificationError(
                    "setwise stabilizers computed two ways disagree",
                    {"lam": lam, "via_dot_orbit": fd.S_ids, "via_two_sided": s_two})
    report.run("setwise-stabilizers-agree", setwise_stabilizers_agree)

    def pointwise_normal_in_setwise():
        for lam in reps:
            fd = form_data(world, lam)
            l0 = set(fd.L0_ids)
            for s in fd.S_ids:
                for x in fd.L0_ids:
                    c = int(world.conjL[s, x])
                    if c not in l0:
                        raise FalsificationError(
                            "pointwise stabilizer is not normal in the setwise one",
                            {"lam": lam, "s": s, "x": x})
    report.run("pointwise-normal-in-setwise", pointwise_normal_in_setwise)
    return report


# ---------------------------------------------------------------------------
# induction oracles

def induce_exact(group_size, classes, h_ids, h_vals, field):
    """Frobenius induction as per-class values, via centralizer counting."""
    h_order = len(h_ids)
    local = [field.zero]
    index = {field.zero: 0}
    ids = np.zeros(group_size, dtype=np.int64)
    for gid, v in zip(h_ids, h_vals):
        t = index.get(v)
        if t is None:
            t = len(local)
            local.append(v)
            index[v] = t
        ids[int(gid)] = t
    out = []
    for members in classes:
        counts = np.bincount(ids[members], minlength=len(local))
        acc = field.zero
        for t in np.nonzero(counts)[0]:
            if t == 0 and local[0].is_zero():
                continue
            acc = acc + local[int(t)].scale(int(counts[t]))
        cent = group_size // int(members.size)
        out.append(acc.scale(Fraction(cent, h_order)))
    return out


def _compare_char_to_induced(ch, classes, induced, what):
    # value-for-value: the induced side is a class function by construction,
    # so the formula side must be constant on every class and match there
    for members, want in zip(classes, induced):
        ids = ch.ids[members]
        if (ids != ids[0]).any():
            bad = members[np.where(ids != ids[0])[0][0]]
            raise FalsificationError(
                "closed formula is not constant on a conjugacy class",
                {"char": ch.label, "what": what,
                 "elements": [int(members[0]), int(bad)]})
        got = ch.value_at(int(members[0]))
        if got != want:
            raise FalsificationError(
                "closed formula disagrees with direct induction",
                {"char": ch.label, "what": what, "class_rep": int(members[0]),
                 "formula": got.serialize(), "induction": want.serialize()})


def check_oracles(world, theory_u, theory_ub_g, theory_gb_g):
    report = Report("oracles")
    field = world.field
    p = world.spec.p

    def zeta_oracle():
        _, u_classes = world.u_group_classes
        for ch in theory_u.chars:
            lam = ch.provenance["lam"]
            fd = form_data(world, lam)
            lam_vec = np.array(world.unpack_u(lam), dtype=np.int64)
            tvals = (world.u_digits(fd.U_lam_ids) @ lam_vec) % p
            h_vals = [field.additive_character(p, int(t)) for t in tvals]
            induced = induce_exact(world.nU, u_classes, fd.U_lam_ids, h_vals, field)
            _compare_char_to_induced(ch, u_classes, induced, "radical supercharacter")
    report.run("radical-induction-oracle", zeta_oracle)

    def chi_u_oracle():
        _, g_classes = world.g_classes
        for ch in theory_ub_g.chars:
            lam = ch.provenance["lam"]
            theta_by_l = ch.provenance["theta_by_l"]
            fd = form_data(world, lam)
            lam_vec = np.array(world.unpack_u(lam), dtype=np.int64)
            tv = (world.u_digits(fd.U_lam_ids) @ lam_vec) % p
            h_ids, h_vals = [], []
            for r in fd.L0_ids:
                for upos, uid in enumerate(fd.U_lam_ids):
                    h_ids.append(r * world.nU + int(uid))
                    h_vals.append(theta_by_l[r] * field.additive_character(p, int(tv[upos])))
            induced = induce_exact(world.g_size, g_classes, h_ids, h_vals, field)
            _compare_char_to_induced(ch, g_classes, induced, "Levi-averaged supercharacter")
    report.run("parabolic-induction-oracle", chi_u_oracle)

    def chi_g_oracle():
        _, g_classes = world.g_classes
        for ch in theory_gb_g.chars:
            lam = ch.provenance["lam"]
            theta_by_l = ch.provenance["theta_by_l"]
            ld_ids = ch.provenance["ld_ids"]
            orbit = orbit_of(world, "ustar", "Gb", lam)
            zeta_ids, zeta_vals = counts_to_values(
                world, orbit_eps_counts(world, orbit.points))
            h_ids, h_vals = [], []
            for r in ld_ids:
                base = r * world.nU
                for uid in range(world.nU):
                    h_ids.append(base + uid)
                    h_vals.append(theta_by_l[r] * zeta_vals[int(zeta_ids[uid])])
            induced = induce_exact(world.g_size, g_classes, h_ids, h_vals, field)
            _compare_char_to_induced(ch, g_classes, induced, "ambient-orbit supercharacter")
    report.run("ambient-induction-oracle", chi_g_oracle)
    return report


# ---------------------------------------------------------------------------
# classification and refinement

def check_classification(world):
    report = Report("classification")
    report.run("orbits-vs-signatures-u", lambda: classify_g_orbits(world, "u"))
    report.run("orbits-vs-signatures-ustar", lambda: classify_g_orbits(world, "ustar"))
    return report


def check_refinement(theory_ub_g, theory_gb_g, world):
    report = Report("refinement")
    field = theory_ub_g.pool.field

    def classes_refine():
        fine = theory_ub_g.class_of_element()
        for kl in theory_gb_g.classes:
            fine_ids = np.unique(fine[kl.members])
            covered = np.concatenate(
                [theory_ub_g.classes[int(i)].members for i in fine_ids])
            if not np.array_equal(np.unique(covered), kl.members):
                raise FalsificationError(
                    "a coarse class is not a union of fine classes",
                    {"class": kl.label})
        if len(theory_gb_g.classes) > len(theory_ub_g.classes):
            raise FalsificationError("coarse theory has more classes than the fine one", {})
    report.run("classes-refine", classes_refine)

    def span_check():
        classes = theory_ub_g.classes
        n = theory_ub_g.group_size
        # coarse characters are constant on fine classes once refinement holds
        for ch in theory_gb_g.chars:
            for kl in classes:
                ids = ch.ids[kl.members]
                if ids.size and (ids != ids[0]).any():
                    raise FalsificationError(
                        "coarse character not constant on a fine class",
                        {"char": ch.label, "class": kl.label})
        VU, dU = class_values_matrix(theory_ub_g.chars, classes, field)
        VG, dG = class_values_matrix(theory_gb_g.chars, classes, field)
        weights = [kl.size for kl in classes]
        cross = integer_gram(field, VG, VU, weights)      # (nG, nU, dim)
        self_u = integer_gram(field, VU, VU, weights)
        self_g = integer_gram(field, VG, VG, weights)
        for a, ch in enumerate(theory_gb_g.chars):
            # Bessel equality: ||chi||^2 == sum |<chi, basis_i>|^2 / ||basis_i||^2,
            # which holds iff chi lies in the exact span of the orthogonal basis
            total = field.zero
            for i in range(len(theory_ub_g.chars)):
                z = field.from_coeffs([Fraction(int(x), n * dG[a] * dU[i])
                                       for x in cross[a, i]])
                if z.is_zero():
                    continue
                norm_i = Fraction(int(self_u[i, i][0]), n * dU[i] * dU[i])
                total = total + (z * z.conjugate()).scale(1 / norm_i)
            own = Fraction(int(self_g[a, a][0]), n * dG[a] * dG[a])
            if total != field.from_fraction(own):
                raise FalsificationError(
                    "coarse character is outside the span of the fine characters",
                    {"char": ch.label, "projection_norm": total.serialize(),
                     "norm": str(own)})
    report.run("characters-in-span", span_check)
    return report


# ---------------------------------------------------------------------------
# negative controls

def corrupt_character(theory):
    """Copy the theory with one character value flipped on one element."""
    import copy
    bad = copy.copy(theory)
    bad.chars = list(theory.chars)
    target = None
    for kl in theory.classes:
        if kl.size >= 2:
            target = kl
            break
    if target is None:
        raise ValidationError("corrupt", "no class with two elements to corrupt")
    ch = theory.chars[0]
    new_ids = ch.ids.copy()
    field = theory.pool.field
    moved = theory.pool.id_of(ch.value_at(target.members[-1]) + field.one)
    new_ids[target.members[-1]] = moved
    bad.chars[0] = SuperChar(ch.label + "*", new_ids, theory.pool, dict(ch.provenance))
    return bad


def corrupt_class(theory):
    """Copy the theory with one element moved between two classes."""
    import copy
    bad = copy.copy(theory)
    bad.classes = list(theory.classes)
    src = None
    for idx, kl in enumerate(theory.classes):
        if kl.size >= 2:
            src = idx
            break
    if src is None:
        raise ValidationError("corrupt", "no class with two elements to corrupt")
    dst = 0 if src != 0 else 1
    moved = int(theory.classes[src].members[-1])
    src_members = theory.classes[src].members[:-1]
    dst_members = np.append(theory.classes[dst].members, moved)
    bad.classes[src] = SuperClass(theory.classes[src].label + "*", src_members)
    bad.classes[dst] = SuperClass(theory.classes[dst].label + "*", dst_members)
    return bad


# ---------------------------------------------------------------------------
# suite runner

def theories(world):
    tU = _memo(world, ("theory", "U"), lambda: build_u_theory(world, "U", check=False))
    tG = _memo(world, ("theory", "G"), lambda: build_u_theory(world, "G", check=False))
    gG = _memo(world, ("theory", "Gb"), lambda: build_g_theory(world, check=False))
    return tU, tG, gG


def run_suites(world, suite="all", corrupt=None):
    """Run the requested verification suites; returns a list of Reports."""
    if suite not in ("lemmas", "utheory", "gtheory", "oracles", "refinement", "all"):
        raise ValidationError("suite", "unknown suite %r" % (suite,))
    reports = []
    wants = (suite,) if suite != "all" else (
        "lemmas", "utheory", "gtheory", "oracles", "refinement")
    need_theories = bool({"utheory", "gtheory", "oracles", "refinement"} & set(wants))
    tU = tG = gG = None
    if need_theories:
        tU, tG, gG = theories(world)
        if corrupt == "character":
            tG = corrupt_character(tG)
        elif corrupt == "class":
            tG = corrupt_class(tG)
        elif corrupt:
            raise ValidationError("corrupt", "unknown corruption %r" % (corrupt,))
    if "lemmas" in wants:
        reports.append(check_lemmas(world))
    if "utheory" in wants:
        reports.append(check_supertheory(tU, world))
        reports.append(check_supertheory(tG, world))
    if "gtheory" in wants:
        reports.append(check_supertheory(gG, world))
        reports.append(check_classification(world))
    if "oracles" in wants:
        reports.append(check_oracles(world, tU, tG, gG))
    if "refinement" in wants:
        reports.append(check_refinement(tG, gG, world))
    return reports
