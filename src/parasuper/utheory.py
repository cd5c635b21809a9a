"""Supercharacter theory built from radical-group orbits on the dual of u.

For each linear form lam on u there is a unique anti-self-dual extension to
the enveloping nilpotent algebra; its left/right annihilator subalgebras cut
out the subgroup the elementary character lives on, and averaging over the
Levi subgroup produces the supercharacters of the parabolic group.  The
superclasses come from Levi elements paired with radical orbits on a
quotient of u.  Everything is exact; every structural identity the
construction relies on is asserted at build time and failures abort with a
counterexample.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import linalg
from .chartab import TableGroup, irr_characters, s_orbit_sums
from .errors import FalsificationError, ValidationError
from .groups import (
    gb_generators, mat_mul, subgroup_generators, u_action_matrix,
    ucstar_left_matrix, ucstar_right_matrix, ustar_action_matrix,
)
from .orbits import (
    LinearAction, enumerate_subspace, levi_stabilizer, orbit_closure,
    partition_orbits, quotient_orbits, smallest_bimodule,
)
from .theory import (
    SuperChar, SuperClass, SuperTheory, ValuePool, dedup_chars, dedup_classes,
    sort_canonical,
)


def _memo(world, key, fn):
    cache = getattr(world, "_memo", None)
    if cache is None:
        cache = {}
        world._memo = cache
    if key not in cache:
        cache[key] = fn()
    return cache[key]


# ---------------------------------------------------------------------------
# actions

def action_on_u(world, tag):
    """Dot action x -> g x g-dagger on u for the group named by tag."""
    def build():
        gens = gb_generators(world.spec) if tag == "Gb" else subgroup_generators(world.spec, tag)
        mats = [u_action_matrix(world.spec, g) for g in gens]
        return LinearAction("u:" + tag, world.spec.p, world.spec.u_dim, mats)
    return _memo(world, ("action_u", tag), build)


def action_on_ustar(world, tag):
    """Dot action on forms: (g . lam)(x) = lam(g-dagger x g)."""
    def build():
        gens = gb_generators(world.spec) if tag == "Gb" else subgroup_generators(world.spec, tag)
        mats = [ustar_action_matrix(world.spec, g) for g in gens]
        return LinearAction("ustar:" + tag, world.spec.p, world.spec.u_dim, mats)
    return _memo(world, ("action_ustar", tag), build)


def action_twosided_ucstar(world, tag="Ub"):
    """Left and right translation action of the radical group on forms of Uc."""
    def build():
        gens = subgroup_generators(world.spec, tag)
        mats = [ucstar_left_matrix(world.spec, g) for g in gens]
        mats += [ucstar_right_matrix(world.spec, g) for g in gens]
        return LinearAction("ucstar:%s-%s" % (tag, tag), world.spec.p,
                            world.spec.uc_dim, mats)
    return _memo(world, ("action_ucstar2", tag), build)


def action_left_ucstar(world, tag):
    def build():
        gens = subgroup_generators(world.spec, tag)
        mats = [ucstar_left_matrix(world.spec, g) for g in gens]
        return LinearAction("ucstar-left:" + tag, world.spec.p, world.spec.uc_dim, mats)
    return _memo(world, ("action_ucstar_left", tag), build)


def _orbit_partition(world, space, tag):
    """Orbits of u or u* under one group, with the orbit index of each point."""
    def build():
        action = action_on_u(world, tag) if space == "u" else action_on_ustar(world, tag)
        orbits = partition_orbits(action, world.guards["space"])
        label = np.empty(action.size, dtype=np.int64)
        for idx, orb in enumerate(orbits):
            label[orb.points] = idx
        return orbits, label
    return _memo(world, ("orbits", space, tag), build)


def ustar_orbit_partition(world, tag="Ub"):
    return _orbit_partition(world, "ustar", tag)[0]


def u_orbit_partition(world, tag="Ub"):
    return _orbit_partition(world, "u", tag)[0]


def orbit_of(world, space, tag, point):
    """The orbit of one point of u or u*, looked up in the memoized partition."""
    orbits, label = _orbit_partition(world, space, tag)
    return orbits[label[int(point)]]


# ---------------------------------------------------------------------------
# form data

class FormData:
    """Everything attached to one form on u: the anti-self-dual extension,
    annihilator subalgebras, orbits, and Levi stabilizers."""

    def __init__(self, world, lam_packed):
        spec = world.spec
        p = spec.p
        self.world = world
        self.lam = int(lam_packed)
        self.lam_coords = world.unpack_u(self.lam)

        inv2 = (p + 1) // 2
        lam_vec = np.array(self.lam_coords, dtype=np.int64)

        def lam_of_u_mat(m):
            return int(lam_vec @ np.array(spec.u_coords(m), dtype=np.int64)) % p

        # unique extension with Lambda-dagger = -Lambda
        Lam = []
        for (i, j) in spec.uc_positions:
            e = spec.E(i, j)
            m = tuple(tuple((inv2 * (a - b)) % p for a, b in zip(ra, rb))
                      for ra, rb in zip(e, spec.dagger(e)))
            Lam.append(lam_of_u_mat(m))
        self.Lam_coords = tuple(Lam)
        Lam_vec = np.array(Lam, dtype=np.int64)

        def Lam_of_mat(m):
            return int(Lam_vec @ np.array(spec.uc_coords(m, check=False), dtype=np.int64)) % p

        # restriction back to u must be lam, and the extension anti-self-dual
        for t, r in enumerate(spec.roots_u):
            assert Lam_of_mat(spec.root_matrix(r)) == self.lam_coords[t] % p, \
                "extension does not restrict to the original form"
        for (i, j) in spec.uc_positions:
            e = spec.E(i, j)
            assert (Lam_of_mat(spec.dagger(e)) + Lam_of_mat(e)) % p == 0, \
                "extension is not anti-self-dual"

        hc_pos = spec.hc_positions()
        hc_mats = [spec.E(a, b) for (a, b) in hc_pos]
        uc_mats = [spec.E(i, j) for (i, j) in spec.uc_positions]

        # R = {x : Lambda(x Hc) = 0}, Lc = {x : Lambda(Hc-dagger x) = 0}
        rows_r = []
        rows_l = []
        for hm in hc_mats:
            hd = spec.dagger(hm)
            rows_r.append([Lam_of_mat(mat_mul(xm, hm, p)) for xm in uc_mats])
            rows_l.append([Lam_of_mat(mat_mul(hd, xm, p)) for xm in uc_mats])
        self.R_basis = linalg.right_kernel(rows_r, p, spec.uc_dim)
        self.L_basis = linalg.right_kernel(rows_l, p, spec.uc_dim)
        self.UcLam_basis = linalg.intersect(self.R_basis, self.L_basis, p)

        # u_lam inside u, via both defining conditions; they must agree
        # (products of u with the ideal leave u, so the extension evaluates them)
        u_mats = [spec.root_matrix(r) for r in spec.roots_u]
        rows_ur = [[Lam_of_mat(mat_mul(xm, hm, p)) for xm in u_mats] for hm in hc_mats]
        rows_ul = [[Lam_of_mat(mat_mul(spec.dagger(hm), xm, p)) for xm in u_mats]
                   for hm in hc_mats]
        k_r = linalg.right_kernel(rows_ur, p, spec.u_dim)
        k_l = linalg.right_kernel(rows_ul, p, spec.u_dim)
        red_r = linalg.rref(k_r, p)[0] if k_r else []
        red_l = linalg.rref(k_l, p)[0] if k_l else []
        assert red_r == red_l, "the two annihilator conditions cut out different subalgebras of u"
        self.u_lam_basis = list(red_r)

        # subgroup U_lam = points of u_lam under the Springer bijection
        pts = enumerate_subspace(self.u_lam_basis, p, spec.u_dim)
        self.U_lam_ids = np.unique(world.pack_u_array(pts))
        sub = world.mulU[np.ix_(self.U_lam_ids, self.U_lam_ids)]
        assert np.isin(sub, self.U_lam_ids).all(), "U_lam is not closed under products"

        # orbits
        self.orbit_ub = orbit_of(world, "ustar", "Ub", self.lam)
        self.orbit_hb = orbit_of(world, "ustar", "Hb", self.lam)
        assert np.isin(self.orbit_hb.points, self.orbit_ub.points).all()

        uc_powers = np.array([p ** t for t in range(spec.uc_dim)], dtype=np.int64)
        self.Lam_packed = int((np.array(Lam, dtype=np.int64) % p) @ uc_powers)
        self.orbit_two_sided = orbit_closure(self.Lam_packed, action_twosided_ucstar(world))

        # Levi stabilizers: pointwise on the two-sided orbit, setwise on the dot orbit
        self.L0_ids = levi_stabilizer(world, self.orbit_two_sided.points, "ucstar", "pointwise")
        self.S_ids = levi_stabilizer(world, self.orbit_ub.points, "ustar", "setwise")
        assert set(self.L0_ids) <= set(self.S_ids), \
            "pointwise stabilizer must sit inside the setwise stabilizer"

        # L0 normalizes U_lam
        for hid in self.L0_ids:
            img = np.sort(world.conjUbyL[hid, self.U_lam_ids])
            assert np.array_equal(img, self.U_lam_ids), "stabilizer does not normalize U_lam"

        # the elementary character is multiplicative on U_lam
        tvals = (world.u_digits(self.U_lam_ids) @ lam_vec) % p
        prod = world.mulU[np.ix_(self.U_lam_ids, self.U_lam_ids)]
        pos = {int(g): t for t, g in enumerate(self.U_lam_ids)}
        prod_pos = np.vectorize(pos.__getitem__)(prod)
        if not np.array_equal(tvals[prod_pos] % p, (tvals[:, None] + tvals[None, :]) % p):
            raise FalsificationError(
                "form composed with the Springer map is not multiplicative on U_lam",
                {"lam": self.lam})


def form_data(world, lam_packed):
    """Memoized FormData per form representative."""
    return _memo(world, ("form_data", int(lam_packed)),
                 lambda: FormData(world, lam_packed))


# ---------------------------------------------------------------------------
# supercharacters

def orbit_eps_counts(world, orbit_points):
    """counts[t, u] = #(forms mu in the orbit with mu(f(U[u])) = t)."""
    p = world.spec.p
    digs = world.u_digits(orbit_points)                      # (n, d)
    all_pts = world.u_digits(np.arange(world.nU))            # (nU, d)
    tvals = (digs @ all_pts.T) % p                           # (n, nU)
    counts = np.zeros((p, world.nU), dtype=np.int64)
    for t in range(p):
        counts[t] = (tvals == t).sum(axis=0)
    return counts


def counts_to_values(world, counts, scale=None):
    """Intern one exact value per distinct count column; returns (ids, values)."""
    p = world.spec.p
    field = world.field
    cols, inverse = np.unique(counts.T, axis=0, return_inverse=True)
    values = []
    for col in cols:
        acc = field.zero
        for t in range(p):
            c = int(col[t])
            if c:
                acc = acc + field.additive_character(p, t).scale(c)
        if scale is not None:
            acc = acc.scale(scale)
        values.append(acc)
    return inverse.astype(np.int64), values


def radical_supercharacter(world, lam):
    """The supercharacter of the radical attached to one form: the smaller
    orbit size over the larger times the orbit sum of character values.

    Returns local (ids, values); equals the character induced from the
    elementary character of the associated subgroup (oracle-checked).
    """
    orb = orbit_of(world, "ustar", "Ub", lam)
    hb = orbit_of(world, "ustar", "Hb", lam)
    counts = orbit_eps_counts(world, orb.points)
    ids_local, values = counts_to_values(world, counts, Fraction(hb.size, orb.size))
    return ids_local, values, orb, hb


def chi_alpha_u(world, fd, theta_vals_by_l):
    """Supercharacter of the parabolic for one (theta, form) pair.

    theta_vals_by_l: list of Cyc, one per Levi element id, zero outside the
    pointwise stabilizer.  Evaluates the closed Levi-averaged formula on all
    of G at once via count tensors.
    """
    field = world.field
    nL, nU = world.nL, world.nU
    scale = Fraction(fd.orbit_hb.size, fd.orbit_ub.size * len(fd.L0_ids))

    zer_ids, zer_vals = counts_to_values(world, orbit_eps_counts(world, fd.orbit_ub.points))

    tvals = []
    tindex = {}
    tids = np.empty(nL, dtype=np.int64)
    for r, v in enumerate(theta_vals_by_l):
        got = tindex.get(v)
        if got is None:
            got = len(tvals)
            tvals.append(v)
            tindex[v] = got
        tids[r] = got
    nt, nz = len(tvals), len(zer_vals)

    conjL, conjU = world.conjL, world.conjUbyL
    pair_codes = []
    for rho in range(nL):
        t_p = tids[conjL[rho]]                               # (nL,)
        z_p = zer_ids[conjU[rho]]                            # (nU,)
        pair_codes.append((t_p[:, None] * nz + z_p[None, :]).ravel())
    occurring = np.unique(np.concatenate([np.unique(pc) for pc in pair_codes]))
    remap = np.full(nt * nz, -1, dtype=np.int64)
    remap[occurring] = np.arange(occurring.size)
    counts = np.zeros((nL * nU, occurring.size), dtype=np.int32)
    rows = np.arange(nL * nU)
    for pc in pair_codes:
        np.add.at(counts, (rows, remap[pc]), 1)

    uniq, inverse = np.unique(counts, axis=0, return_inverse=True)
    final_vals = []
    prod_cache = {}
    for row in uniq:
        acc = field.zero
        for slot in np.nonzero(row)[0]:
            code = int(occurring[slot])
            prod = prod_cache.get(code)
            if prod is None:
                prod = tvals[code // nz] * zer_vals[code % nz]
                prod_cache[code] = prod
            acc = acc + prod.scale(int(row[slot]))
        final_vals.append(acc.scale(scale))
    return inverse.astype(np.int64), final_vals


def superclass_u(world, h_idx, coset_points):
    """Levi-averaged class from one Levi element and a lifted orbit coset."""
    base_u = np.asarray(coset_points, dtype=np.int64)
    members = []
    for rho in range(world.nL):
        r_new = int(world.conjL[rho, h_idx])
        u_new = world.conjUbyL[rho][base_u]
        members.append(r_new * world.nU + u_new)
    return np.unique(np.concatenate(members))


# ---------------------------------------------------------------------------
# assembly

def intern_ids(pool, local_ids, local_values):
    mapping = np.array([pool.id_of(v) for v in local_values], dtype=np.int32)
    return mapping[local_ids]


def build_u_theory(world, target="G", check=True):
    """Assemble the radical-orbit supercharacter theory for U or for G."""
    if target not in ("U", "G"):
        raise ValidationError("target", "target must be 'U' or 'G'")
    pool = ValuePool(world.field)
    star_orbits = ustar_orbit_partition(world, "Ub")

    if target == "U":
        chars = []
        for orb in star_orbits:
            ids_local, values, _, hb = radical_supercharacter(world, orb.rep)
            ids = intern_ids(pool, ids_local, values)
            chars.append(SuperChar("zeta[lam=%d]" % orb.rep, ids.astype(np.int32), pool,
                                   {"lam": orb.rep, "orbit_size": orb.size,
                                    "sub_orbit_size": hb.size}))
        classes = []
        for orb in u_orbit_partition(world, "Ub"):
            classes.append(SuperClass("K[x=%d]" % orb.rep, orb.points, {"x": orb.rep}))
        theory = SuperTheory("U-on-U", world.nU, 0, dedup_chars(chars),
                             dedup_classes(classes), pool,
                             {"config": world.spec.config_label(), "target": "U"})
    else:
        ltable = l_table(world)
        chars = []
        for orb in star_orbits:
            fd = form_data(world, orb.rep)
            sub = ltable.subgroup(fd.L0_ids)
            table = irr_characters(sub, world.field, world.guards["chartab"])
            sums = s_orbit_sums(ltable, fd.L0_ids, table, fd.S_ids)
            pos_of = {g: t for t, g in enumerate(fd.L0_ids)}
            for sidx, vals in enumerate(sums):
                theta_by_l = []
                for r in range(world.nL):
                    t = pos_of.get(r)
                    if t is None:
                        theta_by_l.append(world.field.zero)
                    else:
                        theta_by_l.append(vals[int(table.classes.class_of[t])])
                ids_local, values = chi_alpha_u(world, fd, theta_by_l)
                ids = intern_ids(pool, ids_local, values)
                chars.append(SuperChar(
                    "chi[lam=%d,theta=%d]" % (orb.rep, sidx), ids.astype(np.int32), pool,
                    {"lam": orb.rep, "theta": sidx, "theta_by_l": theta_by_l}))
        chars = dedup_chars(chars)

        classes = []
        act_u = action_on_u(world, "Ub")
        for h_idx in range(world.nL):
            _, u_h_basis = smallest_bimodule(world, world.L[h_idx])
            qs, qorbits = quotient_orbits(act_u, u_h_basis, world.guards["space"])
            for orb in qorbits:
                coset = qs.coset_points(orb.points, act_u)
                members = superclass_u(world, h_idx, coset)
                classes.append(SuperClass(
                    "K[h=%d,omega=%d]" % (h_idx, orb.rep), members,
                    {"h": h_idx, "omega": orb.rep}))
        classes = dedup_classes(classes)
        theory = SuperTheory("Ub-on-G", world.g_size, world.g_ident, chars, classes, pool,
                             {"config": world.spec.config_label(), "target": "G"})

    sort_canonical(theory)
    if check:
        from .verify import check_supertheory
        report = check_supertheory(theory, world)
        if not report.passed:
            raise FalsificationError("assembled theory fails the axiom check",
                                     report.first_failure())
        theory.meta["axioms"] = "pass"
    return theory


def l_table(world):
    return _memo(world, "l_table",
                 lambda: TableGroup(list(range(world.nL)), world.mulL))
