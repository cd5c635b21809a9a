"""Supercharacter theory built from ambient-parabolic orbits on u and its dual.

Orbit representatives are rook placements in the positive roots decorated
with coefficients from {1, delta}; block-submatrix ranks plus the per-block
discriminant signs form a complete orbit invariant, verified exhaustively
against brute-force orbit partitions.  A rook placement also induces a
coarsened block decomposition, whose scalar Levi subgroup indexes the
character side, while Levi elements induce coarsenings indexing the class
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .chartab import irr_characters
from .errors import FalsificationError, ValidationError
from .theory import (
    SuperChar, SuperClass, SuperTheory, ValuePool, dedup_chars, dedup_classes,
    sort_canonical,
)
from .utheory import (
    _memo, counts_to_values, form_data, intern_ids, l_table, orbit_eps_counts,
    orbit_of, u_orbit_partition, ustar_orbit_partition,
)
from .orbits import enumerate_subspace, levi_stabilizer


# ---------------------------------------------------------------------------
# basic pairs

@dataclass(frozen=True)
class BasicPair:
    """A rook placement in the crossing positive roots with special weights."""
    roots: tuple        # tuple of (i, j) labels, canonically ordered
    phi: tuple          # matching weights, each 1 or delta

    def label(self):
        return ",".join("%d:%d*%d" % (i, j, w) for (i, j), w in zip(self.roots, self.phi))


def is_rook_placement(spec, roots):
    """At most one entry of the set together with its mirrors per row/column."""
    rows = []
    cols = []
    for (i, j) in roots:
        pts = [(i, j)]
        if (-j, -i) != (i, j):
            pts.append((-j, -i))
        for (a, b) in pts:
            rows.append(a)
            cols.append(b)
    return len(rows) == len(set(rows)) and len(cols) == len(set(cols))


def enumerate_basic_pairs(spec):
    """All rook placements with all special weight maps, deterministically."""
    roots_u = [(r.i, r.j) for r in spec.roots_u]
    placements = []
    n = len(roots_u)
    for mask in range(1 << n):
        sub = tuple(roots_u[t] for t in range(n) if mask >> t & 1)
        if is_rook_placement(spec, sub):
            placements.append(sub)
    out = []
    for sub in placements:
        # delta is allowed only on (i, -i) roots in the symplectic family,
        # at most once per mirror block pair
        slots = []
        if spec.family == "C":
            for t, (i, j) in enumerate(sub):
                if j == -i:
                    slots.append(t)
        choices = [(1,) * len(sub)]
        for k in range(1, 1 << len(slots)):
            chosen = [slots[t] for t in range(len(slots)) if k >> t & 1]
            blocks = [spec.block_of[sub[t][0]] for t in chosen]
            if len(blocks) != len(set(blocks)):
                continue
            phi = [1] * len(sub)
            for t in chosen:
                phi[t] = spec.delta
            choices.append(tuple(phi))
        for phi in sorted(choices):
            out.append(BasicPair(sub, phi))
    out.sort(key=lambda bp: (len(bp.roots), bp.roots, bp.phi))
    return out


def pair_point_u(world, pair):
    """Packed coordinates of the u element attached to a basic pair."""
    coords = [0] * world.spec.u_dim
    for (i, j), w in zip(pair.roots, pair.phi):
        coords[world.spec.root_index[(i, j)]] = w
    return world.pack_u(coords)


def pair_point_ustar(world, pair):
    """Packed coordinates of the dual form attached to a basic pair."""
    return pair_point_u(world, pair)   # same coordinates in the dual basis


@dataclass(frozen=True)
class PairSignature:
    ranks: tuple        # ((k, m, rank) for all ell >= k > m >= -ell)
    d: tuple            # d_k for k = ell..1


def signature_of_matrix(spec, X):
    """Block-submatrix ranks of an ambient matrix, the rank half of the invariant."""
    entries = []
    for k in range(spec.ell, -spec.ell - 1, -1):
        for m in range(k - 1, -spec.ell - 1, -1):
            rows = spec.segments[k]
            cols = spec.segments[m]
            if rows and cols:
                sub = [[X[spec.pos[i]][spec.pos[j]] for j in cols] for i in rows]
                r = linalg.rank(sub, spec.p)
            else:
                r = 0
            entries.append((k, m, r))
    return tuple(entries)


def union_rank_signature(spec, X):
    """Ranks of the square submatrices over contiguous block unions.

    These are constant along whole orbits (single-block ranks are constant
    only across rook representatives), and for rook matrices they determine
    the per-block ranks by inclusion-exclusion.
    """
    entries = []
    for k in range(spec.ell, -spec.ell - 1, -1):
        for m in range(k - 1, -spec.ell - 1, -1):
            labs = [lab for t in range(k, m - 1, -1) for lab in spec.segments[t]]
            if labs:
                sub = [[X[spec.pos[i]][spec.pos[j]] for j in labs] for i in labs]
                r = linalg.rank(sub, spec.p)
            else:
                r = 0
            entries.append((k, m, r))
    return tuple(entries)


def pair_signature(world, pair):
    """Block ranks plus per-block quadratic discriminant classes.

    In the symplectic family the mirror block I_k x I_-k of an element of u
    carries a symmetric bilinear form; its complete congruence invariant is
    the rank together with the square class of the determinant of the
    nondegenerate part.  On normalized placements (only (i,-i) entries,
    weights in {1, delta}, at most one delta) this reduces to d_k = -1
    exactly when a delta weight is present; computing the square class from
    the matrix extends the invariant correctly to every special pair.  The
    orthogonal families carry alternating forms there, so d_k is always 1.
    """
    spec = world.spec
    X = spec.mat_of_u(world.unpack_u(pair_point_u(world, pair)))
    ranks = signature_of_matrix(spec, X)
    d = []
    squares = {(i * i) % spec.p for i in range(1, spec.p)}
    for k in range(spec.ell, 0, -1):
        dk = 1
        if spec.family == "C":
            labs = spec.segments[k]
            form = [[X[spec.pos[a]][spec.pos[-b]] for b in labs] for a in labs]
            support = [t for t in range(len(labs)) if any(form[t])]
            if support:
                sub = [[form[a][b] for b in support] for a in support]
                dt = linalg.det(sub, spec.p)
                assert dt, "rook form is degenerate on its support"
                dk = 1 if dt in squares else -1
        d.append(dk)
    return PairSignature(ranks, tuple(d))


def signature_classes(world):
    """Group the basic pairs by signature; canonical representative first."""
    def build():
        groups = {}
        for pair in enumerate_basic_pairs(world.spec):
            sig = pair_signature(world, pair)
            groups.setdefault(sig, []).append(pair)
        out = []
        for sig in sorted(groups, key=lambda s: (s.ranks, s.d)):
            out.append((sig, groups[sig]))
        return out
    return _memo(world, "signature_classes", build)


# ---------------------------------------------------------------------------
# orbit classification checks

def classify_g_orbits(world, space):
    """Brute-force ambient-orbit partition versus the signature invariant.

    Returns a dict of check results; raises FalsificationError on mismatch.
    """
    if space == "u":
        point_of = pair_point_u
        orbits = u_orbit_partition(world, "Gb")
    elif space == "ustar":
        point_of = pair_point_ustar
        orbits = ustar_orbit_partition(world, "Gb")
    else:
        raise ValidationError("space", "space must be 'u' or 'ustar'")

    spec = world.spec
    orbit_of = {}
    for idx, orb in enumerate(orbits):
        for pt in orb.points:
            orbit_of[int(pt)] = idx

    pairs = enumerate_basic_pairs(spec)
    sig_by_orbit = {}
    orbit_by_sig = {}
    for pair in pairs:
        pt = point_of(world, pair)
        sig = pair_signature(world, pair)
        oid = orbit_of[pt]
        if oid in sig_by_orbit and sig_by_orbit[oid] != sig:
            raise FalsificationError(
                "two basic pairs with different signatures share an orbit in %s" % space,
                {"space": space, "orbit": oid, "pair": pair.label(),
                 "sig_a": sig_by_orbit[oid], "sig_b": sig})
        sig_by_orbit[oid] = sig
        if sig in orbit_by_sig and orbit_by_sig[sig] != oid:
            raise FalsificationError(
                "two basic pairs with equal signatures lie in different orbits in %s" % space,
                {"space": space, "pair": pair.label(), "orbit_a": orbit_by_sig[sig],
                 "orbit_b": oid})
        orbit_by_sig[sig] = oid

    missing = [idx for idx in range(len(orbits)) if idx not in sig_by_orbit]
    if missing:
        raise FalsificationError(
            "an orbit in %s contains no basic-pair representative" % space,
            {"space": space, "orbits": missing,
             "reps": [int(orbits[i].rep) for i in missing]})
    if len(orbit_by_sig) != len(orbits):
        raise FalsificationError(
            "signature count differs from orbit count in %s" % space,
            {"space": space, "signatures": len(orbit_by_sig), "orbits": len(orbits)})

    if space == "u":
        # union-block ranks are constant along every orbit, point by point
        for idx, orb in enumerate(orbits):
            sigs = {union_rank_signature(spec, spec.mat_of_u(world.unpack_u(int(pt))))
                    for pt in orb.points}
            if len(sigs) != 1:
                raise FalsificationError(
                    "union-block ranks are not constant on an orbit",
                    {"space": space, "orbit": idx, "rep": orb.rep})
    return {"space": space, "orbits": len(orbits), "signatures": len(orbit_by_sig)}


# ---------------------------------------------------------------------------
# merged decompositions

@dataclass(frozen=True)
class MergedDecomposition:
    """A symmetric coarsening of the block decomposition, as index segments."""
    kind: str
    segments: tuple     # tuple of tuples of block indices, descending

    def seg_of_block(self):
        out = {}
        for t, seg in enumerate(self.segments):
            for k in seg:
                out[k] = t
        return out


def _close_segments(ell, merged_sets):
    """Fixpoint closure: interval, then mirror symmetry."""
    comps = {k: {k} for k in range(ell, -ell - 1, -1)}

    def merge(a, b):
        if comps[a] is comps[b]:
            return False
        union = comps[a] | comps[b]
        for k in union:
            comps[k] = union
        return True

    for group in merged_sets:
        group = sorted(group)
        for a, b in zip(group, group[1:]):
            merge(a, b)
    changed = True
    while changed:
        changed = False
        # interval closure: a segment contains everything between its ends
        for k in list(comps):
            lo, hi = min(comps[k]), max(comps[k])
            for t in range(lo, hi + 1):
                if merge(k, t):
                    changed = True
        # mirror closure: the negation of a segment must lie in one segment
        for k in list(comps):
            mirror = sorted(-t for t in comps[k])
            for a, b in zip(mirror, mirror[1:]):
                if merge(a, b):
                    changed = True
    seen = set()
    segs = []
    for k in range(ell, -ell - 1, -1):
        if k in seen:
            continue
        comp = sorted(comps[k], reverse=True)
        seen.update(comp)
        segs.append(tuple(comp))
    return tuple(segs)


def merged_by_roots(spec, roots):
    """Finest symmetric interval coarsening joining each root's block pair."""
    merged = []
    for (i, j) in roots:
        k, m = spec.block_of[i], spec.block_of[j]
        merged.append(range(m, k + 1))
    return MergedDecomposition("roots", _close_segments(spec.ell, merged))


def merged_by_levi(spec, h):
    """Coarsening along maximal runs of blocks where h is one scalar matrix.

    An empty block is transparent: it joins a run only when the same scalar
    value continues on both sides of it, otherwise it stays a (labelless)
    singleton segment, which keeps the coarsening symmetric about zero.
    """
    ell = spec.ell
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

    md = MergedDecomposition("levi", tuple(segs))
    mirror = tuple(tuple(sorted((-t for t in seg), reverse=True)) for seg in reversed(md.segments))
    assert mirror == md.segments, "Levi coarsening must be symmetric about zero"
    return md


def crossing_flags(spec, merged):
    """Per u-root flags: True iff the root crosses the merged segments."""
    seg_of = merged.seg_of_block()
    return [seg_of[r.block_row] != seg_of[r.block_col] for r in spec.roots_u]


def subspace_points(world, flags):
    """Packed points of the coordinate subspace supported on flagged roots."""
    basis = []
    for t, f in enumerate(flags):
        if f:
            vec = [0] * world.spec.u_dim
            vec[t] = 1
            basis.append(tuple(vec))
    return np.unique(world.pack_u_array(
        enumerate_subspace(basis, world.spec.p, world.spec.u_dim)))


def scalar_levi_subgroup(world, merged):
    """Levi elements scalar across every multi-block merged segment."""
    spec = world.spec
    out = []
    for hid, h in enumerate(world.L):
        ok = True
        for seg in merged.segments:
            if len(seg) < 2:
                continue
            labs = [lab for k in seg for lab in spec.segments[k]]
            if not labs:
                continue
            c = h[spec.pos[labs[0]]][spec.pos[labs[0]]]
            for a in labs:
                for b in labs:
                    want = c if a == b else 0
                    if h[spec.pos[a]][spec.pos[b]] != want:
                        ok = False
        if ok:
            out.append(hid)
    return out


# ---------------------------------------------------------------------------
# theory assembly

def g_orbit_of_form(world, pair):
    return orbit_of(world, "ustar", "Gb", pair_point_ustar(world, pair))


def g_orbit_of_point(world, pair):
    return orbit_of(world, "u", "Gb", pair_point_u(world, pair))


def pair_context(world, sig, pair):
    """All data attached to one signature representative pair."""
    spec = world.spec
    merged = merged_by_roots(spec, pair.roots)
    cross = crossing_flags(spec, merged)
    lam = pair_point_ustar(world, pair)
    lam_coords = world.unpack_u(lam)

    # the pair's element lies inside the merged Levi part, its form kills the
    # merged radical part, and so does the whole orbit of the form
    for t, f in enumerate(cross):
        if f and lam_coords[t]:
            raise FalsificationError("form does not vanish on the merged radical piece",
                                     {"pair": pair.label(), "root_index": t})
    orbit_form = g_orbit_of_form(world, pair)
    digs = world.u_digits(orbit_form.points)
    for t, f in enumerate(cross):
        if f and digs[:, t].any():
            raise FalsificationError(
                "a form in the orbit fails to vanish on the merged radical piece",
                {"pair": pair.label(), "root_index": t})

    ld_ids = scalar_levi_subgroup(world, merged)

    # pointwise stabilizer of the orbit must be exactly the scalar subgroup
    stab = levi_stabilizer(world, orbit_form.points, "ustar", "pointwise")
    if stab != sorted(ld_ids):
        raise FalsificationError(
            "scalar Levi subgroup differs from the orbit's pointwise stabilizer",
            {"pair": pair.label(), "scalar": ld_ids, "stabilizer": stab})

    # and it must sit inside the two-sided stabilizer of the extended form
    fd = form_data(world, lam)
    if not set(ld_ids) <= set(fd.L0_ids):
        raise FalsificationError(
            "scalar Levi subgroup is not inside the two-sided form stabilizer",
            {"pair": pair.label()})

    zeta_ids, zeta_vals = counts_to_values(world, orbit_eps_counts(world, orbit_form.points))

    # the orbit sum is constant on cosets of the merged radical subgroup
    ud_ids = subspace_points(world, cross)
    gathered = zeta_ids[world.mulU[:, ud_ids]]
    if not (gathered == zeta_ids[:, None]).all():
        raise FalsificationError(
            "orbit character is not constant on merged-radical cosets",
            {"pair": pair.label()})

    orbit_point = g_orbit_of_point(world, pair)
    return {
        "pair": pair, "sig": sig, "merged": merged, "ld_ids": ld_ids,
        "lam": lam, "orbit_form": orbit_form, "orbit_point": orbit_point,
        "zeta_ids": zeta_ids, "zeta_vals": zeta_vals,
    }


def superclass_g(world, ctx, cl_parent_ids, h_parent):
    """Members of one coarse class: Levi class times orbit preimage times
    the radical of the element-induced coarsening."""
    k_d_ids = ctx["orbit_point"].points      # radical ids; the Springer map is the identity on ids
    merged_h = merged_by_levi(world.spec, world.L[h_parent])
    uh_ids = subspace_points(world, crossing_flags(world.spec, merged_h))
    ku = np.unique(world.mulU[np.ix_(k_d_ids, uh_ids)])
    cl = np.asarray(cl_parent_ids, dtype=np.int64)
    return (cl[:, None] * world.nU + ku[None, :]).ravel()


def chi_alpha_g(world, ctx, theta_by_l):
    """Values of one ambient-orbit supercharacter, as local (ids, values)."""
    scale = Fraction(world.nL, len(ctx["ld_ids"]))
    tvals, tids = [], np.empty(world.nL, dtype=np.int64)
    tindex = {}
    for r, v in enumerate(theta_by_l):
        got = tindex.get(v)
        if got is None:
            got = len(tvals)
            tvals.append(v)
            tindex[v] = got
        tids[r] = got
    zeta_ids, zeta_vals = ctx["zeta_ids"], ctx["zeta_vals"]
    nz = len(zeta_vals)
    codes = (tids[:, None] * nz + zeta_ids[None, :]).ravel()
    uniq, inverse = np.unique(codes, return_inverse=True)
    values = [tvals[int(c) // nz] * zeta_vals[int(c) % nz] * scale for c in uniq]
    return inverse.astype(np.int64), values


def build_g_theory(world, check=True):
    """Assemble the ambient-orbit supercharacter theory on G."""
    pool = ValuePool(world.field)
    ltable = l_table(world)
    sig_classes = signature_classes(world)

    contexts = []
    for sig, pairs in sig_classes:
        contexts.append(pair_context(world, sig, pairs[0]))

    chars = []
    classes = []
    for ctx in contexts:
        pair = ctx["pair"]
        sub = ltable.subgroup(ctx["ld_ids"])
        # the closed character formula needs the scalar Levi subgroup normal
        # and its characters fixed by conjugation from the whole Levi subgroup
        ld_arr = np.array(ctx["ld_ids"], dtype=np.int64)
        conj_ids = world.conjL[:, ld_arr]
        if not np.isin(conj_ids, ld_arr).all():
            raise FalsificationError(
                "scalar Levi subgroup is not normal in the Levi subgroup",
                {"pair": pair.label()})
        table = irr_characters(sub, world.field, world.guards["chartab"])
        pos_of = {g: t for t, g in enumerate(ctx["ld_ids"])}

        for tidx, ch in enumerate(table.chars):
            theta_by_l = []
            for r in range(world.nL):
                t = pos_of.get(r)
                theta_by_l.append(world.field.zero if t is None
                                  else ch[int(table.classes.class_of[t])])
            for rho in range(world.nL):
                for d in ctx["ld_ids"]:
                    if theta_by_l[int(world.conjL[rho, d])] != theta_by_l[d]:
                        raise FalsificationError(
                            "character of the scalar Levi subgroup is moved by "
                            "Levi conjugation",
                            {"pair": pair.label(), "theta": tidx,
                             "rho": rho, "r": int(d)})
            ids_local, values = chi_alpha_g(world, ctx, theta_by_l)
            ids = intern_ids(pool, ids_local, values)
            chars.append(SuperChar(
                "chi[D=%s,theta=%d]" % (pair.label() or "0", tidx),
                ids.astype(np.int32), pool,
                {"roots": list(pair.roots), "phi": list(pair.phi), "theta": tidx,
                 "lam": ctx["lam"], "theta_by_l": theta_by_l,
                 "ld_ids": list(ctx["ld_ids"])}))

        for cls_idx, members in enumerate(table.classes.members):
            h_sub = int(table.classes.reps[cls_idx])
            h_parent = ctx["ld_ids"][h_sub]
            cl_parent = [ctx["ld_ids"][int(x)] for x in members]
            mem = superclass_g(world, ctx, cl_parent, h_parent)
            classes.append(SuperClass(
                "K[h=%d,D=%s]" % (h_parent, pair.label() or "0"), mem,
                {"h": h_parent, "roots": list(pair.roots), "phi": list(pair.phi)}))

    chars = dedup_chars(chars)
    classes = dedup_classes(classes)
    theory = SuperTheory("Gb-on-G", world.g_size, world.g_ident, chars, classes, pool,
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


def radical_factorization_check(world, h_parent):
    """|U| must factor as |V_h| * |U_h| for the Levi-induced coarsening."""
    merged = merged_by_levi(world.spec, world.L[h_parent])
    cross = crossing_flags(world.spec, merged)
    uh = subspace_points(world, cross)
    vh = subspace_points(world, [not f for f in cross])
    if uh.size * vh.size != world.nU:
        raise FalsificationError("radical does not factor through the coarsening",
                                 {"h": h_parent, "uh": int(uh.size), "vh": int(vh.size)})
    return int(vh.size), int(uh.size)
