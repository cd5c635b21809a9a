"""Falsification harness: axiom checks, lemma suite, induction oracles,
and the coarseness relation between the two theories.

Every check is exact; a failure carries a machine-readable counterexample
that reproduces deterministically.  Checks compute on integer coefficient
rows over common denominators: class values are gathered from each value
pool's numerator matrix, every inner product is `integer_gram`, and
induction sums integer rows.  The Levi and ambient oracles induce theta *
zeta from a subgroup H = R V: the elements of H are counted by (r, class,
zeta id) once per H (product_counts), and each theta is induced from those
counts (induce_product).  A value in a counterexample is the text of an
integer row over a denominator (`algebra.serialize`).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from math import lcm

import numpy as np

from . import linalg
from .algebra import absmax, int_dtype, integer_gram, integer_norms, serialize
from .errors import FalsificationError, ValidationError
from .groups import cayley, first_moved_by_conjugation, subgroup_generators
from .orbits import orbit_closures, sorted_isin, sorted_unique
from .theory import SuperChar, SuperClass
from .utheory import (
    build_forms, build_u_theory, eps_exponents, form_data, orbit_of, orbit_partition, orbit_sum,
    pair_products,
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
    if hasattr(obj, "ranks"):
        return {"ranks": _jsonable(obj.ranks), "d": _jsonable(obj.d)}
    return obj


# ---------------------------------------------------------------------------
# constancy on classes

class ClassScan:
    """Member arrays of classes laid end to end, to test a function (an id
    per element) for constancy on every class at once.  Classes may overlap
    or miss elements, as in a corrupted partition."""

    def __init__(self, members):
        sizes = np.array([m.size for m in members])
        self.flat = np.concatenate(members)
        self.start = np.cumsum(sizes) - sizes
        self.owner = np.repeat(np.arange(len(members)), sizes)
        self.head = self.flat[self.start[self.owner]]    # first member of the class

    def first_non_constant(self, ids):
        """(class, its first member, first member with another id) for the
        first class on which `ids` is not constant, or None."""
        bad = ids[self.flat] != ids[self.head]
        if bad.any():
            pos = int(np.argmax(bad))
            return int(self.owner[pos]), int(self.head[pos]), int(self.flat[pos])
        return None


# ---------------------------------------------------------------------------
# supercharacter axioms

def class_values_matrix(pool, chars, classes):
    """Values of `chars` (interned in `pool`) at the class representatives,
    gathered from the pool's numerator matrix: (V, den) with V of shape
    (chars, classes, dim) and value = V / den."""
    num, den = pool.numerators()
    reps = np.array([kl.rep for kl in classes], dtype=np.int64)
    ids = np.array([ch.ids[reps] for ch in chars], dtype=np.int64)
    return num[ids.reshape(len(chars), reps.size)], den


def check_supertheory(theory):
    """S1-S3, partition, count equality, and integrality, all exact."""
    report = Report("axioms:" + theory.kind)
    field = theory.pool.field
    n = theory.group_size

    def partition_check():
        seen = np.bincount(np.concatenate([np.zeros(0, dtype=np.int64)]
                                          + [kl.members for kl in theory.classes]), minlength=n)
        over = np.where(seen > 1)[0]
        if over.size:
            labs = [kl.label for kl in theory.classes
                    if sorted_isin(over[0], kl.members)]
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
        scan = ClassScan([kl.members for kl in theory.classes])
        for ch in theory.chars:
            hit = scan.first_non_constant(ch.ids)
            if hit is not None:
                k, first, bad = hit
                raise FalsificationError(
                    "character is not constant on a class",
                    {"char": ch.label, "class": theory.classes[k].label,
                     "elements": [first, bad],
                     "values": [ch.pool.serialize(ch.ids[first]),
                                ch.pool.serialize(ch.ids[bad])]})
    report.run("S2-constancy", s2_check)

    def count_check():
        if len(theory.chars) != len(theory.classes):
            raise FalsificationError(
                "character count differs from class count",
                {"chars": len(theory.chars), "classes": len(theory.classes)})
    report.run("count-equality", count_check)

    def degree_check():
        for ch in theory.chars:
            row, den = ch.value_at(theory.ident_id)
            if den != 1 or any(row[1:]) or row[0] <= 0:
                raise FalsificationError("degree is not a positive integer",
                                         {"char": ch.label, "value": serialize(row, den)})
    report.run("integer-degrees", degree_check)

    def s1_check():
        V, den = class_values_matrix(theory.pool, theory.chars, theory.classes)
        gram = integer_gram(field, V, V, [kl.size for kl in theory.classes])
        scale = n * den * den                 # gram / scale are the inner products
        off = np.argwhere(np.triu((gram != 0).any(axis=2), 1))
        if off.size:
            a, b = off[0].tolist()
            raise FalsificationError(
                "two supercharacters are not orthogonal",
                {"chars": [theory.chars[a].label, theory.chars[b].label],
                 "inner_product": serialize(gram[a, b], scale)})
        diag = np.arange(len(theory.chars))
        for a, vec in enumerate(gram[diag, diag].tolist()):
            if any(vec[1:]):
                raise FalsificationError("self inner product is not rational",
                                         {"char": theory.chars[a].label})
            if vec[0] <= 0 or vec[0] % scale:
                raise FalsificationError(
                    "self inner product is not a positive integer",
                    {"char": theory.chars[a].label,
                     "value": str(Fraction(vec[0], scale))})
    report.run("S1-orthogonality", s1_check)
    return report


# ---------------------------------------------------------------------------
# lemma suite

def check_lemmas(world):
    report = Report("lemmas")
    spec = world.spec
    p = spec.p

    def nilpotent_stability():
        # a E(i,j) b for all generators b and positions, one generator a at a
        # time; the first failure in (a, b, position) order is reported
        gens = subgroup_generators(spec, "Gb")
        units = spec.units(spec.uc_positions)
        for a in gens:
            prods = (a @ units % p)[None] @ gens[:, None] % p
            bad = np.argwhere(prods[..., ~spec.uc_mask].any(axis=-1))
            if bad.size:
                i, j = spec.uc_positions[bad[0, 1]]
                raise FalsificationError(
                    "the nilpotent algebra is not stable under two-sided "
                    "multiplication", {"position": [i, j]})
        # every Levi element l normalizes it, l E l^-1 in uc (isometries
        # invert by the dagger): so L permutes the orbits of Ub, which the
        # stabilizers by membership rest on; first failure in (l, position)
        conj = world.L[:, None] @ units % p @ spec.dagger(world.L)[:, None] % p
        bad = np.argwhere(conj[..., ~spec.uc_mask].any(axis=-1))
        if bad.size:
            i, j = spec.uc_positions[bad[0, 1]]
            raise FalsificationError(
                "a Levi element does not normalize the nilpotent algebra",
                {"levi": int(bad[0, 0]), "position": [i, j]})
    report.run("two-sided-stability", nilpotent_stability)

    def springer_equivariance():
        # f(v u v^-1) = v f(u) v^-1 on all of U for each sample v; the
        # counterexample is the first u in U order failing for some v
        gens = subgroup_generators(spec, "Ub")
        samples = np.concatenate([gens, gens[:-1] @ gens[1:] % p])
        fu = cayley(spec, world.U)
        bad = np.zeros(world.nU, dtype=bool)
        for v, vi in zip(samples, linalg.inverse(samples, p)):
            lhs = cayley(spec, (v @ world.U % p) @ vi % p)
            bad |= (lhs != (v @ fu % p) @ vi % p).any(axis=(1, 2))
        if bad.any():
            raise FalsificationError("Springer map is not conjugation equivariant",
                                     {"u": int(np.flatnonzero(bad)[0])})
    report.run("springer-equivariance", springer_equivariance)

    reps = [int(orb[0]) for orb in orbit_partition(world, "ustar", "Ub")[1]]
    build_forms(world, reps)
    emb = spec.u_embed_matrix()                                # (uc_dim, u_dim)

    def closed(act):
        # (form data, orbit of its extension under act) per form, in order,
        # closed in groups within the space guard (orbit_closures); W_lam
        # holds both orbits, as Hb lies in Ub.  A form whose data fails
        # raises after every earlier form is checked, as in a loop of
        # form_data calls
        fds = []
        for lam in reps:
            try:
                fds.append(form_data(world, lam))
            except FalsificationError:
                break
        yield from zip(fds, orbit_closures([fd.Lam_packed for fd in fds],
                                           [p ** fd.span_dim for fd in fds],
                                           act, world.guards["space"]))
        if len(fds) < len(reps):
            form_data(world, reps[len(fds)])

    def product_vanishing():
        # the extension of each form vanishes on products from Uc_Lambda
        for lam in reps:
            fd = form_data(world, lam)
            mats = spec.mat_of_uc(fd.UcLam_basis)
            prods = spec.uc_coords(mats[:, None] @ mats[None] % p, check=False)
            bad = np.argwhere(prods @ fd.Lam_coords % p)
            if bad.size:
                a, b = bad[0]
                raise FalsificationError(
                    "extension does not vanish on a product of annihilator elements",
                    {"lam": lam, "x": fd.UcLam_basis[a], "y": fd.UcLam_basis[b]})
    report.run("annihilator-products-vanish", product_vanishing)

    def projection_of_left_orbit():
        act = world.action("ucstar-left", "Hb")
        for fd, left in closed(act):
            proj = world.pack_u(act.unpack(left) @ emb)
            got = sorted_unique(proj)
            if not np.array_equal(got, fd.orbit_hb):
                raise FalsificationError(
                    "restriction of the left orbit differs from the dot orbit",
                    {"lam": fd.lam, "restricted": got.tolist()[:8],
                     "dot_orbit": fd.orbit_hb.tolist()[:8]})
    report.run("left-orbit-restriction", projection_of_left_orbit)

    def fiber_equals_orbit():
        all_digs = world.u_digits(np.arange(world.nU))
        for lam in reps:
            fd = form_data(world, lam)
            basis = fd.u_lam_basis
            mask = (all_digs @ basis.T % p == world.u_digits(lam) @ basis.T % p).all(axis=1)
            fiber = np.flatnonzero(mask)
            if not np.array_equal(fiber, fd.orbit_hb):
                raise FalsificationError(
                    "the agreement fiber differs from the dot orbit",
                    {"lam": lam, "fiber_size": int(fiber.size),
                     "orbit_size": fd.orbit_hb.size})
    report.run("fiber-equals-orbit", fiber_equals_orbit)

    def setwise_stabilizers_agree():
        for fd, two_sided in closed(world.action("ucstar-twosided", "Ub-simple")):
            img = world.action("ucstar", "L").images([fd.Lam_packed])[:, 0]
            at = np.searchsorted(two_sided, img).clip(max=two_sided.size - 1)
            s_two = np.flatnonzero(two_sided[at] == img).tolist()
            if s_two != fd.S_ids:
                raise FalsificationError(
                    "setwise stabilizers computed two ways disagree",
                    {"lam": fd.lam, "via_dot_orbit": fd.S_ids, "via_two_sided": s_two})
    report.run("setwise-stabilizers-agree", setwise_stabilizers_agree)

    def pointwise_normal_in_setwise():
        checked = set()         # forms with the same S and L0 share the verdict
        for lam in reps:
            fd = form_data(world, lam)
            sets = (tuple(fd.S_ids), tuple(fd.L0_ids))
            if sets in checked:
                continue
            checked.add(sets)
            moved = first_moved_by_conjugation(world, fd.S_ids, fd.L0_ids)
            if moved:
                raise FalsificationError(
                    "pointwise stabilizer is not normal in the setwise one",
                    {"lam": lam, "s": moved[0], "x": moved[1]})
    report.run("pointwise-normal-in-setwise", pointwise_normal_in_setwise)
    return report


# ---------------------------------------------------------------------------
# induction oracles

def induce_exact(class_of, sizes, h_ids, h_local, h_rows, h_counts=None):
    """Frobenius induction from a subgroup H, as integer rows per class of G.

    `class_of` labels the elements of G by class, `sizes` gives the class
    sizes.  The function on H is interned: entry i stands for h_counts[i]
    elements of H (one each by default), all in the class of h_ids[i] and
    each worth the integer coefficient row h_rows[h_local[i]].  The value on
    a class K is |G| / (|K| |H|) times its sum over H meet K.  Returns
    (rows, den): the value on class K is rows[K] / den, where den = |H|.
    """
    h_rows = np.asarray(h_rows)
    weights = np.ones(len(h_ids), dtype=np.int64) if h_counts is None else h_counts
    order = int(weights.sum())
    k = class_of[h_ids]
    mult = (len(class_of) // np.asarray(sizes, dtype=np.int64))[k] * weights
    dtype = int_dtype(absmax(h_rows) * len(class_of) * order)
    rows = np.zeros((len(sizes), h_rows.shape[1]), dtype=dtype)
    np.add.at(rows, k, h_rows[np.asarray(h_local)].astype(dtype) * mult.astype(dtype)[:, None])
    return rows, order


def product_counts(class_of, nU, r_ids, u_ids, z_ids, z_rows):
    """The theta-free half of inducing theta(r) zeta(u) from H = {r u : r in
    r_ids, u in u_ids}, where zeta(u_ids[j]) is the integer row
    z_rows[z_ids[j]]: the elements of H counted by (r, class of r u in G,
    zeta id), once per H.  Returns, per triple, its first element, r, zeta
    id and count, then z_rows: the `counts` of induce_product."""
    r_ids = np.asarray(r_ids, dtype=np.int64)
    nr, nz = r_ids.size, len(z_rows)
    h_ids = (r_ids[:, None] * nU + u_ids[None, :]).ravel()
    codes = ((class_of[h_ids].reshape(nr, -1) * nr + np.arange(nr)[:, None]) * nz
             + z_ids[None, :]).ravel()
    uniq, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return h_ids[first], r_ids[uniq // nz % nr], uniq % nz, counts, z_rows


def induce_product(world, class_of, sizes, counts, theta):
    """induce_exact of theta(r) zeta(u) on H from its product_counts, one
    product per distinct (theta id, zeta id) pair; theta is (ids, rows)
    from lift_to_levi."""
    h_ids, r, z, mult, z_rows = counts
    t_ids, t_rows = theta
    h_local, rows = pair_products(world.field, t_ids[r] * len(z_rows) + z, t_rows, z_rows)
    return induce_exact(class_of, sizes, h_ids, h_local, rows, mult)


def _scaled(rows, c):
    return rows.astype(int_dtype(max(c, absmax(rows) * c))) * c


def _compare_char_to_induced(ch, scan, induced, what):
    # value-for-value: the induced side is a class function by construction,
    # so the formula side must be constant on every class (of `scan`, a
    # partition) and match there; values compare as cross-multiplied integer
    # rows, and the first class failing either way is reported
    rows, den = induced
    num, pden = ch.pool.numerators()
    reps = scan.flat[scan.start]
    differs = (_scaled(num[ch.ids[reps]], den) != _scaled(rows, pden)).any(axis=1)
    first = int(np.argmax(differs)) if differs.any() else len(reps)
    hit = scan.first_non_constant(ch.ids)
    if hit is not None and hit[0] <= first:
        raise FalsificationError(
            "closed formula is not constant on a conjugacy class",
            {"char": ch.label, "what": what, "elements": list(hit[1:])})
    if first < len(reps):
        raise FalsificationError(
            "closed formula disagrees with direct induction",
            {"char": ch.label, "what": what, "class_rep": int(reps[first]),
             "formula": ch.pool.serialize(ch.ids[reps[first]]),
             "induction": serialize(rows[first], den)})


def check_oracles(world, theory_u, theory_ub_g, theory_gb_g):
    report = Report("oracles")
    eps = world.field.eps_rows(world.spec.p)

    def oracle(classes, theory, what, induced):
        # each character against induced(ch, class_of, sizes), the induction
        # of a function on a subgroup H, class by class
        class_of, members = classes
        sizes = [m.size for m in members]
        scan = ClassScan(members)
        for ch in theory.chars:
            _compare_char_to_induced(ch, scan, induced(ch, class_of, sizes), what)

    def radical(ch, class_of, sizes):
        fd = form_data(world, ch.provenance["lam"])
        return induce_exact(class_of, sizes, fd.U_lam_ids,
                            eps_exponents(world, fd.lam_coords, fd.U_lam_ids), eps)

    def by_theta(h_of):
        # theta * zeta on H = R V, h_of(ch) = (R, V, zeta ids on V, zeta
        # rows): H is counted once per form or pair, each theta induced
        # from its counts
        counted = {}

        def induced(ch, class_of, sizes):
            lam = ch.provenance["lam"]
            if lam not in counted:
                counted[lam] = product_counts(class_of, world.nU, *h_of(ch))
            return induce_product(world, class_of, sizes, counted[lam],
                                  ch.provenance["theta_by_l"])
        return induced

    def levi_h(ch):
        fd = form_data(world, ch.provenance["lam"])
        return (fd.L0_ids, fd.U_lam_ids, eps_exponents(world, fd.lam_coords, fd.U_lam_ids),
                eps)

    def ambient_h(ch):
        z_ids, z_rows = orbit_sum(world, orbit_of(world, "ustar", "Gb", ch.provenance["lam"]))
        return ch.provenance["ld_ids"], np.arange(world.nU), z_ids, z_rows

    report.run("radical-induction-oracle", lambda: oracle(
        world.u_group_classes, theory_u, "radical supercharacter", radical))
    report.run("parabolic-induction-oracle", lambda: oracle(
        world.g_classes, theory_ub_g, "Levi-averaged supercharacter", by_theta(levi_h)))
    report.run("ambient-induction-oracle", lambda: oracle(
        world.g_classes, theory_gb_g, "ambient-orbit supercharacter", by_theta(ambient_h)))
    return report


# ---------------------------------------------------------------------------
# classification and refinement

def check_classification(world):
    report = Report("classification")
    report.run("orbits-vs-signatures-u", lambda: classify_g_orbits(world, "u"))
    report.run("orbits-vs-signatures-ustar", lambda: classify_g_orbits(world, "ustar"))
    return report


def check_refinement(theory_ub_g, theory_gb_g):
    report = Report("refinement")
    field = theory_ub_g.pool.field

    def classes_refine():
        fine = theory_ub_g.class_of_element()
        for kl in theory_gb_g.classes:
            fine_ids = sorted_unique(fine[kl.members])
            covered = np.concatenate(
                [theory_ub_g.classes[int(i)].members for i in fine_ids])
            if not np.array_equal(sorted_unique(covered), kl.members):
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
        scan = ClassScan([kl.members for kl in classes])
        for ch in theory_gb_g.chars:
            hit = scan.first_non_constant(ch.ids)
            if hit is not None:
                raise FalsificationError(
                    "coarse character not constant on a fine class",
                    {"char": ch.label, "class": classes[hit[0]].label})
        VU, dU = class_values_matrix(theory_ub_g.pool, theory_ub_g.chars, classes)
        VG, dG = class_values_matrix(theory_gb_g.pool, theory_gb_g.chars, classes)
        weights = [kl.size for kl in classes]
        cross = integer_gram(field, VG, VU, weights)      # (nG, nU, dim)
        self_u = integer_norms(field, VU, weights)        # (nU, dim)
        self_g = integer_norms(field, VG, weights)
        # Bessel equality: ||chi||^2 == sum |<chi, basis_i>|^2 / ||basis_i||^2,
        # which holds iff chi lies in the exact span of the orthogonal basis.
        # With s_i = self_u[i][0] and S = lcm(s_i) it reads, in integers,
        # sum_i |cross_ai|^2 (S / s_i) = self_g[a][0] S.  The sum is the
        # norm, over the fine characters, of cross divided by the gcd g of
        # its entries, which keeps it in int64
        s_i = [int(x) for x in self_u[:, 0].tolist()]
        S = lcm(1, *(abs(x) for x in s_i if x))
        g = int(np.gcd.reduce(cross.ravel())) if cross.size else 0
        g = g or 1
        bessel = integer_norms(field, cross // g, [S // x if x else 0 for x in s_i])
        for a, ch in enumerate(theory_gb_g.chars):
            got = [g * g * int(x) for x in bessel[a].tolist()]
            own = int(self_g[a][0])
            if got != [own * S] + [0] * (field.dim - 1):
                raise FalsificationError(
                    "coarse character is outside the span of the fine characters",
                    {"char": ch.label,
                     "projection_norm": serialize(got, S * n * dG * dG),
                     "norm": str(Fraction(own, n * dG * dG))})
    report.run("characters-in-span", span_check)
    return report


# ---------------------------------------------------------------------------
# negative controls

def _first_class_of_two(theory):
    """Index of the theory's first class with at least two elements."""
    for idx, kl in enumerate(theory.classes):
        if kl.size >= 2:
            return idx
    raise ValidationError("corrupt", "no class with two elements to corrupt")


def corrupt_character(theory):
    """Copy the theory with one character value flipped on one element."""
    bad = copy.copy(theory)
    bad.chars = list(theory.chars)
    target = theory.classes[_first_class_of_two(theory)]
    ch = theory.chars[0]
    new_ids = ch.ids.copy()
    row, den = ch.value_at(target.members[-1])
    moved = theory.pool.id_of(((row[0] + den,) + row[1:], den))
    new_ids[target.members[-1]] = moved
    bad.chars[0] = SuperChar(ch.label + "*", new_ids, theory.pool, dict(ch.provenance))
    return bad


def corrupt_class(theory):
    """Copy the theory with one element moved between two classes."""
    bad = copy.copy(theory)
    bad.classes = list(theory.classes)
    src = _first_class_of_two(theory)
    dst = 0 if src != 0 else 1
    moved = int(theory.classes[src].members[-1])
    src_members = theory.classes[src].members[:-1]
    dst_members = np.append(theory.classes[dst].members, moved)
    bad.classes[src] = SuperClass(theory.classes[src].label + "*", src_members)
    bad.classes[dst] = SuperClass(theory.classes[dst].label + "*", dst_members)
    return bad


# ---------------------------------------------------------------------------
# suite runner

# the theories each suite reads: "U" U-on-U, "G" Ub-on-G, "Gb" Gb-on-G
SUITE_THEORIES = {"lemmas": (), "utheory": ("U", "G"), "gtheory": ("Gb",),
                  "oracles": ("U", "G", "Gb"), "refinement": ("G", "Gb")}


def theory_of(world, which):
    """One of the three theories ("U", "G" or "Gb"), memoized per world."""
    return world.memo(("theory", which), lambda: (
        build_g_theory(world) if which == "Gb" else build_u_theory(world, which)))


def theories(world):
    return tuple(theory_of(world, which) for which in ("U", "G", "Gb"))


def run_suites(world, suite="all", corrupt=None):
    """Run the requested verification suites; returns a list of Reports.
    Only the theories those suites read are built, in the order U, G, Gb."""
    if suite not in ("lemmas", "utheory", "gtheory", "oracles", "refinement", "all"):
        raise ValidationError("suite", "unknown suite %r" % (suite,))
    reports = []
    wants = (suite,) if suite != "all" else (
        "lemmas", "utheory", "gtheory", "oracles", "refinement")
    reads = {which for want in wants for which in SUITE_THEORIES[want]}
    if corrupt and "G" not in reads:
        # a negative control must be able to fail
        raise ValidationError("corrupt", "suite %r does not read the Ub-on-G theory that "
                                         "--corrupt changes" % (suite,))
    built = {which: theory_of(world, which) for which in ("U", "G", "Gb") if which in reads}
    if corrupt == "character":
        built["G"] = corrupt_character(built["G"])
    elif corrupt == "class":
        built["G"] = corrupt_class(built["G"])
    elif corrupt:
        raise ValidationError("corrupt", "unknown corruption %r" % (corrupt,))
    tU, tG, gG = (built.get(which) for which in ("U", "G", "Gb"))
    if "lemmas" in wants:
        reports.append(check_lemmas(world))
    if "utheory" in wants:
        reports.append(check_supertheory(tU))
        reports.append(check_supertheory(tG))
    if "gtheory" in wants:
        reports.append(check_supertheory(gG))
        reports.append(check_classification(world))
    if "oracles" in wants:
        reports.append(check_oracles(world, tU, tG, gG))
    if "refinement" in wants:
        reports.append(check_refinement(tG, gG))
    return reports
