"""Supercharacter theory built from radical-group orbits on the dual of u.

For each linear form lam on u there is a unique anti-self-dual extension to
the enveloping nilpotent algebra; its left/right annihilator subalgebras cut
out the subgroup the elementary character lives on, and averaging over the
Levi subgroup produces the supercharacters of the parabolic group.  The
superclasses come from Levi elements paired with radical orbits on a
quotient of u.  The orbits are those of the world's actions
(`Parabolic.action`).  The construction is L-equivariant (L normalizes Ub
and the results are unions of L-conjugation orbits of G), so the G theory
is built from the least form of each L-orbit of forms and the least
element of each conjugacy class of L; the forms and Levi elements skipped
would only repeat them, later in the order, so labels and value-pool order
are those of the loop over all of them (see build_u_theory).  The orbit
sum zeta of a form is counted once per Ub-orbit (orbit_sum), and its half
of each character once per form (zeta_at_conjugates), so a theta of the
stabilizer touches only zeta's distinct rows (chi_alpha_u).  Everything
is exact; every structural identity the construction relies on is checked
at build time, and a failure raises a FalsificationError with the form as
its counterexample.  The assembled theory is returned unchecked: its
caller runs the supercharacter axioms.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import linalg
from .algebra import absmax, int_dtype
from .chartab import TableGroup, check_chartab_guard, irr_characters, s_orbit_sums
from .errors import FalsificationError, ValidationError
from .orbits import (
    _slice, dense_unique, levi_stabilizers, pack, partition_by_perms, partition_orbits,
    quotient_orbits, read_only, smallest_bimodule, sorted_isin, sorted_unique,
)
from .theory import SuperChar, SuperClass, SuperTheory, ValuePool


# ---------------------------------------------------------------------------
# orbits

def orbit_partition(world, space, tag):
    """Orbits of u or u* under one group: (orbit index of each point, sorted
    orbits ordered by least point)."""
    return world.memo(("orbits", space, tag), lambda: partition_orbits(
        world.action(space, tag), world.guards["space"]))


def orbit_of(world, space, tag, point):
    """The orbit of one point of u or u*, looked up in the memoized partition."""
    label, orbits = orbit_partition(world, space, tag)
    return orbits[label[int(point)]]


# ---------------------------------------------------------------------------
# form data

def form_maps(world):
    """The linear maps of a form lam on u that FormBatch reads, side by side
    as the columns of one (u_dim, ...) matrix, memoized per world: the
    extension Lam, its restriction to u, its anti-self-duality defect, and
    the annihilator condition rows on Uc and on u (see FormBatch)."""
    def build():
        spec = world.spec
        p = spec.p
        inv2 = (p + 1) // 2
        # unique extension with Lambda-dagger = -Lambda: Lambda(E) = lam((E - E-dagger)/2)
        units = spec.units(spec.uc_positions)
        extend = spec.u_coords(inv2 * (units - spec.dagger(units)))          # (uc, u)
        restrict = spec.uc_coords(spec.u_basis)                              # (u, uc)
        dual = spec.uc_coords(spec.dagger(units)) + spec.uc_coords(units)    # (uc, uc)
        # R = {x : Lambda(x Hc) = 0}, Lc = {x : Lambda(Hc-dagger x) = 0}; with
        # Lambda as a matrix LamM, zero outside Uc, Lambda(E(i,j) h) is
        # (LamM h^T)[i, j] and Lambda(h-dagger E(i,j)) is (h-dagger^T LamM)[i, j],
        # linear in LamM, the sum of Lam[a] times the matrix unit of a
        ri, rj = spec.uc_rows, spec.uc_cols
        hc = spec.units(spec.hc_positions())
        rows_r = (units[:, None] @ hc.transpose(0, 2, 1))[..., ri, rj] % p     # (uc, k, uc)
        rows_l = (spec.dagger(hc).transpose(0, 2, 1) @ units[:, None])[..., ri, rj] % p
        # Lambda is linear: the u rows are the Uc rows times the embedding
        emb = spec.u_embed_matrix()
        on_lam = [np.eye(spec.uc_dim, dtype=np.int64), restrict.T, dual.T,
                  rows_r, rows_l, rows_r @ emb % p, rows_l @ emb % p]
        return read_only(extend.T @ np.concatenate(
            [m.reshape(spec.uc_dim, -1) for m in on_lam], axis=1) % p)
    return world.memo("form_maps", build)


class FormBatch:
    """The stacked part of FormData for a list of forms.  One product with
    form_maps gives every form's extension Lam, both extension checks and
    its annihilator condition rows; one Gauss-Jordan elimination of each
    stack of conditions gives the three kernels (Uc_Lambda, and u_lam by
    either condition), and one levi_stabilizers call each gives L0 and S.
    Only the smallest invariant subspace holding Lam is found form by form.
    Every form is computed, and FormData raises its first failure in the
    order of the checks: a failure here is kept, not raised."""

    def __init__(self, world, lams):
        spec = world.spec
        p = spec.p
        uc, u, k = spec.uc_dim, spec.u_dim, len(spec.hc_positions())
        self.lams = [int(lam) for lam in lams]
        n = len(self.lams)
        self.lam_coords = world.u_digits(self.lams)
        cuts = np.cumsum([uc, u, uc, k * uc, k * uc, k * u])
        self.Lam, restricted, dual, r_uc, l_uc, r_u, l_u = np.split(
            self.lam_coords @ form_maps(world) % p, cuts, axis=1)

        # Uc_Lambda = R meet Lc, cut out by both sets of conditions at once;
        # u_lam inside u, by either condition, and they must agree (products
        # of u with the ideal leave u, so the extension evaluates them)
        uc_lam, uc_piv = linalg.rref_stack(linalg.right_kernel_stack(
            np.concatenate([r_uc.reshape(n, k, uc), l_uc.reshape(n, k, uc)], axis=1), p), p)
        u_lam, u_piv = linalg.rref_stack(linalg.right_kernel_stack(
            np.concatenate([r_u.reshape(n, k, u), l_u.reshape(n, k, u)]), p), p)
        self.UcLam_bases = [b[:r] for b, r in zip(uc_lam, uc_piv.sum(axis=1).tolist())]
        self.u_lam_bases = [b[:r] for b, r in zip(u_lam, u_piv[:n].sum(axis=1).tolist())]
        self.failure = [None] * n
        for message, bad in reversed([
                ("extension does not restrict to the original form",
                 (restricted != self.lam_coords).any(axis=1)),
                ("extension is not anti-self-dual", dual.any(axis=1)),
                ("the two annihilator conditions cut out different subalgebras of u",
                 (u_lam[:n] != u_lam[n:]).any(axis=(1, 2)))]):
            for i in np.flatnonzero(bad).tolist():
                self.failure[i] = message

        # Levi stabilizers: pointwise on the two-sided orbit, read on the
        # orbit's span (the smallest invariant subspace holding Lam), and
        # setwise on the dot orbit, by membership of the image of lam (L
        # normalizes Ub, so it permutes the dot orbits).  A Levi element that
        # does not act on u fails here for every form; FormData raises it
        # where the stabilizers are read
        gens = world.action("ucstar-twosided", "Ub-simple").gen_mats
        spans = [pack(linalg.invariant_span(lam, gens, p)[0], p) for lam in self.Lam]
        self.span_dims = [s.size for s in spans]
        self.levi_failure = None
        try:
            self.L0 = levi_stabilizers(world, "ucstar", np.concatenate(spans), self.span_dims)
            label = orbit_partition(world, "ustar", "Ub")[0]
            self.S = levi_stabilizers(world, "ustar", self.lams, [1] * n, label)
        except FalsificationError as exc:
            self.levi_failure = exc


class FormData:
    """Everything attached to one form on u: the anti-self-dual extension,
    annihilator subalgebras, orbits, and Levi stabilizers; form i of a
    FormBatch, whose stacked results it reads and checks."""

    def __init__(self, world, batch, i):
        p = world.spec.p
        self.lam = batch.lams[i]
        if batch.failure[i]:
            self._fail(batch.failure[i])
        self.lam_coords = batch.lam_coords[i]
        self.Lam_coords = batch.Lam[i]
        self.UcLam_basis = batch.UcLam_bases[i]
        self.u_lam_basis = batch.u_lam_bases[i]

        # U_lam, checked to be <T>, T the Cayley images of the basis of u_lam;
        # at[i, k] locates U_lam_ids[i] T[k]
        self.U_lam_ids, at = world.generated(self.u_lam_basis, "U_lam", {"lam": self.lam})

        # orbits
        self.orbit_ub = orbit_of(world, "ustar", "Ub", self.lam)
        self.orbit_hb = orbit_of(world, "ustar", "Hb", self.lam)
        if not sorted_isin(self.orbit_hb, self.orbit_ub).all():
            self._fail("the Hb orbit of the form leaves its Ub orbit")

        self.Lam_packed = int(pack(self.Lam_coords, p))
        self.span_dim = batch.span_dims[i]      # of the span W_lam of the two-sided orbit
        if batch.levi_failure is not None:
            raise batch.levi_failure
        self.L0_ids = batch.L0[i]
        self.S_ids = batch.S[i]
        if not set(self.L0_ids) <= set(self.S_ids):
            self._fail("pointwise stabilizer must sit inside the setwise stabilizer")

        # L0 normalizes U_lam
        img = np.sort(world.conjUbyL[np.ix_(self.L0_ids, self.U_lam_ids)], axis=1)
        if (img != self.U_lam_ids).any():
            self._fail("stabilizer does not normalize U_lam")

        # the elementary character is multiplicative on U_lam: psi(1) = 1 and
        # psi(x t) = psi(x) psi(t) for t in T, which extends along words in T
        tvals = eps_exponents(world, self.lam_coords, self.U_lam_ids)
        if tvals[0] or not np.array_equal(tvals[at], (tvals[:, None] + tvals[at[0]]) % p):
            self._fail("form composed with the Springer map is not multiplicative on U_lam")

    def _fail(self, message):
        raise FalsificationError(message, {"lam": self.lam})


def eps_exponents(world, lam_coords, ids):
    """The elementary character u -> eps(lam(f(u))) on radical ids, as the
    exponent t of its value eps(t); the id of u packs the coordinates of f(u)."""
    return (world.u_digits(ids) @ np.asarray(lam_coords, dtype=np.int64)) % world.spec.p


def build_forms(world, lams):
    """Memoize the FormData of every form of `lams` not built yet, from one
    FormBatch per slice of forms whose product with form_maps holds at most
    _BLOCK entries (one batch on small worlds).  A form that fails a check
    stores nothing: form_data raises that failure, with its own message and
    counterexample, when the form is asked for."""
    todo = list(dict.fromkeys(lam for lam in map(int, lams)
                              if not world.memoized(("form_data", lam))))
    step = _slice(form_maps(world).shape[1])
    for lo in range(0, len(todo), step):
        batch = FormBatch(world, todo[lo:lo + step])
        for i, lam in enumerate(batch.lams):
            try:
                world.memo(("form_data", lam), lambda i=i: FormData(world, batch, i))
            except FalsificationError:
                pass


def form_data(world, lam_packed):
    """Memoized FormData of one form; a form not built yet is built as a
    batch of one."""
    lam = int(lam_packed)
    return world.memo(("form_data", lam), lambda: FormData(world, FormBatch(world, [lam]), 0))


# ---------------------------------------------------------------------------
# supercharacters

def orbit_eps_counts(world, orbit_points):
    """counts[t, u] = #(forms mu in the orbit with mu(f(U[u])) = t), from
    (slice, nU) values of at most _BLOCK entries, not (orbit, nU)."""
    p, block = world.spec.p, _slice(world.nU)
    all_pts = world.u_digits(np.arange(world.nU)).T          # (d, nU)
    counts = np.zeros((p, world.nU), dtype=np.int64)
    for lo in range(0, len(orbit_points), block):
        tvals = world.u_digits(orbit_points[lo:lo + block]) @ all_pts % p
        for t in range(p):
            counts[t] += (tvals == t).sum(axis=0)
    return counts


def counts_to_values(world, counts):
    """One integer coefficient row per distinct count column: (ids, rows),
    with column u of counts worth rows[ids[u]] = sum_t counts[t, u] eps(t)."""
    cols, inverse = unique_rows(counts.T)
    return inverse, cols @ world.field.eps_rows(world.spec.p)


def ub_orbit_counts(world, index):
    """The distinct count columns of Ub-orbit `index` on u*, memoized per
    orbit: (ids, cols) with orbit_eps_counts(orbit)[:, u] == cols[ids[u]]."""
    def build():
        orbit = orbit_partition(world, "ustar", "Ub")[1][index]
        cols, ids = unique_rows(orbit_eps_counts(world, orbit).T)
        return ids, cols
    return world.memo(("orbit_counts", index), build)


def orbit_sum(world, points):
    """zeta, the sum of the elementary characters of the forms in `points`,
    a union of Ub-orbits on u* (one Ub- or Gb-orbit), memoized per set:
    (ids, rows) as from counts_to_values.  Counts add over disjoint sets, so
    a union's counts are the sum of its Ub-orbits' count columns, and
    orbit_eps_counts runs once per Ub-orbit."""
    def build():
        label, orbits = orbit_partition(world, "ustar", "Ub")
        parts = sorted_unique(label[points]).tolist()
        if sum(orbits[i].size for i in parts) != points.size:
            raise FalsificationError("a set of forms is not a union of Ub-orbits",
                                     {"lam": int(points[0])})
        if len(parts) == 1:
            ids, cols = ub_orbit_counts(world, parts[0])
            return ids, cols @ world.field.eps_rows(world.spec.p)
        counts = sum(cols[ids] for ids, cols in (ub_orbit_counts(world, i) for i in parts))
        return counts_to_values(world, counts.T)
    return world.memo(("orbit_sum", points.tobytes()), build)


def unique_rows(a):
    """Distinct rows of a 2-d integer array in ascending lexicographic order,
    and the index of each row among them."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def intern_rows(a):
    """Distinct rows of a 2-d integer array in order of first appearance, and
    the index of each row among them: (ids, distinct) with a == distinct[ids]."""
    uniq, inverse = unique_rows(a)
    order = np.argsort(np.unique(inverse, return_index=True)[1])
    return np.argsort(order)[inverse], uniq[order]


def levi_conj_orbits(world):
    """Orbits of L acting on G = LU by conjugation, memoized per world:
    (reps, orbit) with reps the least packed id of each orbit, ascending,
    and orbit[g] the index in reps of the orbit of g."""
    def build():
        orbit, members = partition_by_perms(world.g_size, world.levi_conj_perms())
        return np.array([m[0] for m in members]), orbit
    return world.memo("levi_conj_orbits", build)


def levi_parts_of_conjugates(world):
    """rho r rho^-1 for each L-conjugation orbit representative r u of G
    (rows) and each Levi element rho (columns), memoized per world in the
    smallest unsigned dtype that holds a Levi id."""
    def build():
        r, at = dense_unique(levi_conj_orbits(world)[0] // world.nU, world.nL)
        conj = world.conjL(np.arange(world.nL), r[:, None])
        return conj.astype(np.min_scalar_type(world.nL - 1))[at]
    return world.memo("levi_parts_of_conjugates", build)


def zeta_at_conjugates(world, fd):
    """The theta-free half of chi_alpha_u for one form, shared by all its
    theta: for each L-conjugation orbit representative g = r u of G, the
    (Levi part, zeta id) pairs of rho g rho^-1 over every rho, each row
    sorted by its codes (rho r rho^-1) nz + (zeta id of rho u rho^-1).
    Returns (levi, zid, at, z_rows): the distinct sorted rows split into
    their Levi parts and zeta ids, the index in them of each
    representative's row, and zeta's distinct integer rows."""
    z_ids, z_rows = orbit_sum(world, fd.orbit_ub)
    nz = len(z_rows)
    u = levi_conj_orbits(world)[0] % world.nU
    codes = (levi_parts_of_conjugates(world).astype(np.min_scalar_type(world.nL * nz)) * nz
             + z_ids[world.conjUbyL[:, u].T])
    codes.sort(axis=1)
    rows, at = unique_rows(codes)
    levi, zid = np.divmod(rows, nz)
    return levi, zid, at, z_rows


def chi_alpha_u(world, fd, theta, zeta):
    """Supercharacter of the parabolic for one (theta, form) pair.

    theta: (ids, rows) from lift_to_levi, a value id per Levi element id and
    the distinct integer coefficient rows, zero outside the pointwise
    stabilizer; zeta: zeta_at_conjugates(world, fd).  Evaluates the closed
    Levi-averaged formula, which is constant on the orbits of L conjugating
    G, at one element per orbit: the (theta, zeta) value-pair codes at
    rho g rho^-1 over every rho, sorted, for g the orbit representative.
    Representatives with one row of zeta's (Levi part, zeta id) pairs share
    one row of codes, so only zeta's distinct rows are coded.  Returns
    (local ids, integer rows, den) for ValuePool.intern.  Local ids number
    the sorted code rows in descending order (the ascending order of their
    pair counts); with theta ids in order of first appearance, this order is
    printed output (see sort_canonical).
    """
    tids, t_rows = theta
    levi, zid, at, z_rows = zeta
    nz = len(z_rows)
    codes = (tids[levi] * nz + zid).astype(np.min_scalar_type(len(t_rows) * nz))
    codes.sort(axis=1)
    uniq, inverse = unique_rows(codes)
    uniq, inverse = uniq[::-1], len(uniq) - 1 - inverse

    # a row's value is the sum of the (theta, zeta) products its codes name:
    # one gather-and-sum of their integer coefficient rows, times the
    # orbit-size ratio over |L0|
    pos, num = pair_products(world.field, uniq, t_rows, z_rows)
    sums = num.astype(int_dtype(absmax(num) * world.nL))[pos].sum(axis=1)
    den = Fraction(fd.orbit_ub.size * len(fd.L0_ids), fd.orbit_hb.size)
    return inverse[at][levi_conj_orbits(world)[1]], sums, den


def pair_products(field, codes, t_rows, z_rows):
    """The products t_rows[i] * z_rows[j] named by the pair codes i * nz + j,
    nz = len(z_rows): (pos, rows), one row per distinct code, ascending, and
    pos, of the shape of codes, the index in rows of each code."""
    nz = len(z_rows)
    used, pos = dense_unique(codes, len(t_rows) * nz)
    return pos.reshape(np.shape(codes)), field.mul_rows(t_rows[used // nz], z_rows[used % nz])


def superclass_u(world, h_idx, coset_points):
    """Levi-averaged class from one Levi element and a lifted orbit coset:
    the union of the L-conjugation orbits of G that the coset meets."""
    reps, orbit = levi_conj_orbits(world)
    hit = np.zeros(reps.size, dtype=bool)
    hit[orbit[int(h_idx) * world.nU + np.asarray(coset_points, dtype=np.int64)]] = True
    return np.flatnonzero(hit[orbit])


# ---------------------------------------------------------------------------
# assembly

def levi_representative_forms(world):
    """The forms the G theory's characters are built from: the least form of
    each L-orbit of Ub-orbits on u* (orbits are numbered by least point, so
    the one of least orbit index), ascending."""
    label, orbits = orbit_partition(world, "ustar", "Ub")
    lams = np.array([orb[0] for orb in orbits], dtype=np.int64)
    least = label[world.action("ustar", "L").images(lams)].min(axis=0)
    return lams[least == np.arange(lams.size)].tolist()


def levi_class_representatives(world):
    """The Levi elements the G theory's classes are built from: the least
    element of each conjugacy class of L, ascending, read off L's character
    table (the zero form's L0 is all of L, so build_u_theory holds it)."""
    return subgroup_table(world, range(world.nL)).classes.reps


def build_u_theory(world, target="G"):
    """Assemble the radical-orbit supercharacter theory for U or for G.

    For G, characters are built for one form per L-orbit of forms
    (levi_representative_forms) and classes for one Levi element per
    conjugacy class of L (levi_class_representatives).  For l in L, the
    characters of l.lam are those of lam transported by conjugation by l,
    and the classes of l h l^-1 are those of h conjugated by l; both are
    unions of L-conjugation orbits of G (L normalizes Ub), so the transport
    fixes them.  Every skipped form or
    Levi element would only repeat what its least representative, met
    earlier in the full ascending loop, already gave: dedup keeps the same
    first labels and the pool interns the same values in the same order.
    """
    if target not in ("U", "G"):
        raise ValidationError("target", "target must be 'U' or 'G'")
    pool = ValuePool(world.field)

    if target == "U":
        # the supercharacter of the radical attached to a form: the smaller
        # orbit size over the larger times the orbit sum, which equals the
        # character induced from the elementary character of U_lam (oracle-checked)
        chars = []
        for orb in orbit_partition(world, "ustar", "Ub")[1]:
            lam = int(orb[0])
            hb = orbit_of(world, "ustar", "Hb", lam)
            ids_local, rows = orbit_sum(world, orb)
            chars.append(SuperChar("zeta[lam=%d]" % lam,
                                   pool.intern(ids_local, rows, Fraction(orb.size, hb.size)),
                                   pool, {"lam": lam, "orbit_size": orb.size,
                                          "sub_orbit_size": hb.size}))
        classes = []
        for orb in orbit_partition(world, "u", "Ub")[1]:
            x = int(orb[0])
            classes.append(SuperClass("K[x=%d]" % x, orb, {"x": x}))
        return SuperTheory("U-on-U", world.nU, 0, chars, classes, pool,
                           {"config": world.spec.config_label(), "target": "U"})

    # the zero form's L0 is all of L, whose character table is needed
    check_chartab_guard(world.nL, world.guards["chartab"])
    forms = levi_representative_forms(world)
    build_forms(world, forms)
    fds = [form_data(world, lam) for lam in forms]
    tables = [subgroup_table(world, fd.L0_ids) for fd in fds]
    # s^-1 r s for s in S and r a class representative of L0, every form in one product
    s_inv = [world.invL[fd.S_ids] for fd in fds]
    reps = [np.asarray(fd.L0_ids)[t.classes.reps] for fd, t in zip(fds, tables)]
    conj = world.conjL(np.concatenate([np.repeat(s, r.size) for s, r in zip(s_inv, reps)]),
                       np.concatenate([np.tile(r, s.size) for s, r in zip(s_inv, reps)]))
    ends = np.cumsum([s.size * r.size for s, r in zip(s_inv, reps)])
    chars = []
    for lam, fd, table, conj_fd in zip(forms, fds, tables, np.split(conj, ends[:-1])):
        sums = s_orbit_sums(fd.L0_ids, table, fd.S_ids, conj_fd.reshape(len(fd.S_ids), -1))
        zeta = zeta_at_conjugates(world, fd)
        for sidx, vals in enumerate(sums):
            theta = lift_to_levi(world, fd.L0_ids, table, vals)
            chars.append(SuperChar(
                "chi[lam=%d,theta=%d]" % (lam, sidx),
                pool.intern(*chi_alpha_u(world, fd, theta, zeta)), pool,
                {"lam": lam, "theta": sidx, "theta_by_l": theta}))
        del zeta            # not held through the next form's orbit sum

    classes = []
    act_u = world.action("u", "Ub")
    for h_idx in levi_class_representatives(world):
        # the cosets depend on h only through u_h: one partition per u_h
        _, u_h_basis = smallest_bimodule(world, world.L[h_idx])
        key = ("quotient_orbits", act_u.label, u_h_basis.shape, u_h_basis.tobytes())
        cosets = world.memo(key, lambda: [
            (omega, read_only(coset))
            for omega, coset in quotient_orbits(act_u, u_h_basis, world.guards["space"])])
        for omega, coset in cosets:
            members = superclass_u(world, h_idx, coset)
            classes.append(SuperClass(
                "K[h=%d,omega=%d]" % (h_idx, omega), members,
                {"h": h_idx, "omega": omega}))
    return SuperTheory("Ub-on-G", world.g_size, world.g_ident, chars, classes, pool,
                       {"config": world.spec.config_label(), "target": "G"})


def lift_to_levi(world, sub_ids, table, vals):
    """A class function of the Levi subgroup on `sub_ids` (one integer
    coefficient row per class of its `table`) over all Levi element ids,
    zero outside it: (ids, rows) from intern_rows, so value ids follow first
    appearance in Levi id order, which is printed output (see chi_alpha_u)."""
    full = np.zeros((world.nL, vals.shape[1]), dtype=vals.dtype)
    full[sub_ids] = vals[table.classes.class_of]
    return intern_rows(full)


def subgroup_table(world, ids):
    """The character table of the Levi subgroup on `ids` and their products
    (`Parabolic.mulL`), memoized per world and subgroup, so that forms and scalar
    Levi subgroups sharing it share one; L's own is built past the chartab guard."""
    ids = tuple(sorted(int(i) for i in ids))

    def build():
        arr = np.array(ids, dtype=np.int64)
        prods = world.mulL(arr[:, None], arr[None, :])
        if not sorted_isin(prods, arr).all():
            raise ValidationError("not-a-group", "subset is not closed under products")
        return irr_characters(TableGroup(ids, np.searchsorted(arr, prods)), world.field,
                              world.guards["chartab"])
    return world.memo(("subgroup_table", ids), build)
