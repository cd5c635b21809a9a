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
from .chartab import check_chartab_guard
from .errors import FalsificationError, ValidationError
from .groups import first_moved_by_conjugation
from .theory import SuperChar, SuperClass, SuperTheory, ValuePool
from .utheory import (
    build_forms, form_data, lift_to_levi, orbit_of, orbit_partition, orbit_sum, pair_products,
    subgroup_table,
)
from .orbits import _bfs, levi_stabilizers, read_only


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
    """Packed coordinates of the u element attached to a basic pair, and of
    its dual form: the same coordinates in the dual basis."""
    coords = [0] * world.spec.u_dim
    for (i, j), w in zip(pair.roots, pair.phi):
        coords[world.spec.root_index[(i, j)]] = w
    return int(world.pack_u(coords))


@dataclass(frozen=True)
class PairSignature:
    ranks: tuple        # ((k, m, rank) for all ell >= k > m >= -ell)
    d: tuple            # d_k for k = ell..1


def signature_of_matrix(spec, X):
    """Block-submatrix ranks of an ambient matrix, the rank half of the invariant."""
    sl = spec.block_slice
    return tuple((k, m, int(linalg.rank(X[sl[k], sl[m]], spec.p)))
                 for k in range(spec.ell, -spec.ell - 1, -1)
                 for m in range(k - 1, -spec.ell - 1, -1))


def union_ranks(spec, X):
    """Ranks of the square submatrices over contiguous block unions, for a
    stack of matrices: shape (..., unions), one `rank` call per union.

    These are constant along whole orbits (single-block ranks are constant
    only across rook representatives), and for rook matrices they determine
    the per-block ranks by inclusion-exclusion.
    """
    sl = spec.block_slice
    unions = [slice(sl[k].start, sl[m].stop) for k in range(spec.ell, -spec.ell - 1, -1)
              for m in range(k - 1, -spec.ell - 1, -1)]
    return np.stack([linalg.rank(X[..., s, s], spec.p) for s in unions], axis=-1)


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
    Memoized per pair: `signature_classes` and both `classify_g_orbits`
    spaces ask for every pair.
    """
    def build():
        spec = world.spec
        X = spec.mat_of_u(world.u_digits(pair_point_u(world, pair)))
        ranks = signature_of_matrix(spec, X)
        d = []
        squares = {(i * i) % spec.p for i in range(1, spec.p)}
        for k in range(spec.ell, 0, -1):
            dk = 1
            if spec.family == "C":
                labs = spec.segments[k]
                form = X[np.ix_([spec.pos[a] for a in labs], [spec.pos[-b] for b in labs])]
                support = np.flatnonzero(form.any(axis=1))
                if support.size:
                    dt = linalg.det(form[np.ix_(support, support)], spec.p)
                    if not dt:
                        raise FalsificationError("rook form is degenerate on its support",
                                                 {"pair": pair.label(), "block": k})
                    dk = 1 if dt in squares else -1
            d.append(dk)
        return PairSignature(ranks, tuple(d))
    return world.memo(("pair_signature", pair), build)


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
    return world.memo("signature_classes", build)


# ---------------------------------------------------------------------------
# orbit classification checks

def classify_g_orbits(world, space):
    """Brute-force ambient-orbit partition versus the signature invariant.

    Returns a dict of check results; raises FalsificationError on mismatch.
    """
    if space not in ("u", "ustar"):
        raise ValidationError("space", "space must be 'u' or 'ustar'")

    spec = world.spec
    orbit_label, orbits = orbit_partition(world, space, "Gb")

    pairs = enumerate_basic_pairs(spec)
    sig_by_orbit = {}
    orbit_by_sig = {}
    for pair in pairs:
        pt = pair_point_u(world, pair)
        sig = pair_signature(world, pair)
        oid = int(orbit_label[pt])
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
             "reps": [int(orbits[i][0]) for i in missing]})

    if space == "u":
        # union-block ranks are constant along every orbit: every point's
        # ranks against its orbit representative's, the lowest orbit reported
        ranks = union_ranks(spec, spec.mat_of_u(world.u_digits(np.arange(world.nU))))
        reps = np.array([orb[0] for orb in orbits], dtype=np.int64)
        bad = (ranks != ranks[reps[orbit_label]]).any(axis=1)
        if bad.any():
            idx = int(orbit_label[bad].min())
            raise FalsificationError(
                "union-block ranks are not constant on an orbit",
                {"space": space, "orbit": idx, "rep": int(orbits[idx][0])})
    return {"space": space, "orbits": len(orbits), "signatures": len(orbit_by_sig)}


# ---------------------------------------------------------------------------
# merged decompositions

@dataclass(frozen=True)
class MergedDecomposition:
    """A symmetric coarsening of the block decomposition, as index segments."""
    segments: tuple     # tuple of tuples of block indices, descending

    def seg_of_block(self):
        out = {}
        for t, seg in enumerate(self.segments):
            for k in seg:
                out[k] = t
        return out


def _close_segments(ell, spans):
    """Finest coarsening of the blocks ell..-ell into intervals, symmetric
    about zero, with each span (lo, hi) of blocks inside one interval.  Key k
    joins blocks k and k + 1; its mirror image is key -k - 1, and a union of
    joined runs is already closed under both intervals and mirroring."""
    joined = set()
    for lo, hi in spans:
        for k in range(lo, hi):
            joined.update((k, -k - 1))
    segs = [[ell]]
    for k in range(ell - 1, -ell - 1, -1):
        if k in joined:
            segs[-1].append(k)
        else:
            segs.append([k])
    return tuple(tuple(seg) for seg in segs)


def merged_by_roots(spec, roots):
    """Finest symmetric interval coarsening joining each root's block pair."""
    spans = [(spec.block_of[j], spec.block_of[i]) for (i, j) in roots]
    return MergedDecomposition(_close_segments(spec.ell, spans))


def merged_by_levi(spec, h):
    """Coarsening along maximal runs of blocks where h is one scalar matrix.

    Consecutive non-empty blocks with the same scalar join, together with the
    empty blocks between them; an empty block elsewhere stays a singleton.
    The joins must already be symmetric about zero.
    """
    h = np.asarray(h)
    scalar = {}
    for k in range(spec.ell, -spec.ell - 1, -1):
        idx = [spec.pos[lab] for lab in spec.segments[k]]
        if idx:
            block = h[np.ix_(idx, idx)]
            one = (block == block[0, 0] * np.eye(len(idx), dtype=np.int64)).all()
            scalar[k] = int(block[0, 0]) if one else None
    keys = list(scalar)
    spans = [(b, a) for a, b in zip(keys, keys[1:])
             if scalar[a] is not None and scalar[a] == scalar[b]]
    joined = {k for lo, hi in spans for k in range(lo, hi)}
    if joined != {-k - 1 for k in joined}:
        raise FalsificationError("Levi coarsening is not symmetric about zero",
                                 {"spans": [list(span) for span in spans]})
    return MergedDecomposition(_close_segments(spec.ell, spans))


def crossing_flags(spec, merged):
    """Per u-root flags: True iff the root crosses the merged segments."""
    seg_of = merged.seg_of_block()
    return [seg_of[r.block_row] != seg_of[r.block_col] for r in spec.roots_u]


def scalar_levi_subgroup(world, merged):
    """Levi elements scalar across every multi-block merged segment."""
    spec = world.spec
    ok = np.ones(world.nL, dtype=bool)
    for seg in merged.segments:
        idx = [spec.pos[lab] for k in seg for lab in spec.segments[k]]
        if len(seg) < 2 or not idx:
            continue
        block = world.L[:, idx][:, :, idx]
        scalar = block[:, :1, :1] * np.eye(len(idx), dtype=np.int64)
        ok &= (block == scalar).all(axis=(1, 2))
    return np.flatnonzero(ok).tolist()


# ---------------------------------------------------------------------------
# theory assembly

def pair_context(world, pair):
    """All data attached to one signature representative pair."""
    spec = world.spec
    merged = merged_by_roots(spec, pair.roots)
    cross = crossing_flags(spec, merged)
    lam = pair_point_u(world, pair)
    lam_coords = world.u_digits(lam)

    # the pair's element lies inside the merged Levi part, its form kills the
    # merged radical part, and so does the whole orbit of the form
    for t, f in enumerate(cross):
        if f and lam_coords[t]:
            raise FalsificationError("form does not vanish on the merged radical piece",
                                     {"pair": pair.label(), "root_index": t})
    orbit_form = orbit_of(world, "ustar", "Gb", lam)
    digs = world.u_digits(orbit_form)
    for t, f in enumerate(cross):
        if f and digs[:, t].any():
            raise FalsificationError(
                "a form in the orbit fails to vanish on the merged radical piece",
                {"pair": pair.label(), "root_index": t})

    ld_ids = scalar_levi_subgroup(world, merged)

    # pointwise stabilizer of the orbit must be exactly the scalar subgroup;
    # it is read on the orbit's span, the smallest invariant subspace
    # holding the form
    span = world.pack_u(linalg.invariant_span(
        lam_coords, world.action("ustar", "Gb").gen_mats, spec.p)[0])
    stab = levi_stabilizers(world, "ustar", span, [span.size])[0]
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

    zeta_ids, zeta_rows = orbit_sum(world, orbit_form)

    # the orbit sum is constant on cosets of the merged radical subgroup U_D,
    # so under right multiplication by the Cayley images of its root basis
    cols = np.flatnonzero(cross)
    world.generated(np.eye(spec.u_dim)[cols], "U_D", {"pair": pair.label()})
    if (zeta_ids[world.U_times_basis[:, cols]] != zeta_ids[:, None]).any():
        raise FalsificationError(
            "orbit character is not constant on merged-radical cosets",
            {"pair": pair.label()})

    orbit_point = orbit_of(world, "u", "Gb", pair_point_u(world, pair))
    return {
        "pair": pair, "ld_ids": ld_ids, "lam": lam, "orbit_point": orbit_point,
        "zeta_ids": zeta_ids, "zeta_rows": zeta_rows,
    }


def superclass_g(world, ctx, cl_parent_ids, h_parent):
    """Members of one coarse class: Levi class times orbit preimage times
    the radical of the element-induced coarsening."""
    k_d_ids = ctx["orbit_point"]             # radical ids; the Springer map is the identity on ids
    # K_D U_h is K_D closed under right multiplication by generators of U_h,
    # memoized per orbit (its least point) and U_h
    merged_h = merged_by_levi(world.spec, world.L[h_parent])
    cols = np.flatnonzero(crossing_flags(world.spec, merged_h))
    world.generated(np.eye(world.spec.u_dim)[cols], "U_h", {"h": h_parent})
    ku = world.memo(("coset_closure", int(k_d_ids[0]), tuple(cols.tolist())), lambda: read_only(
        _bfs(k_d_ids, lambda pts: world.U_times_basis[np.ix_(pts, cols)], len(cols))))
    cl = np.asarray(cl_parent_ids, dtype=np.int64)
    return (cl[:, None] * world.nU + ku[None, :]).ravel()


def chi_alpha_g(world, ctx, theta):
    """Values of one ambient-orbit supercharacter, as (local ids, integer
    rows, den) for ValuePool.intern; theta is (ids, rows) from lift_to_levi."""
    tids, t_rows = theta
    z_rows = ctx["zeta_rows"]
    codes = (tids[:, None] * len(z_rows) + ctx["zeta_ids"][None, :]).ravel()
    pos, num = pair_products(world.field, codes, t_rows, z_rows)
    return pos, num, Fraction(len(ctx["ld_ids"]), world.nL)


def build_g_theory(world):
    """Assemble the ambient-orbit supercharacter theory on G."""
    # the empty pair's scalar Levi subgroup is all of L, whose character
    # table is needed
    check_chartab_guard(world.nL, world.guards["chartab"])
    pool = ValuePool(world.field)
    sig_classes = signature_classes(world)
    build_forms(world, [pair_point_u(world, pairs[0]) for _, pairs in sig_classes])
    contexts = [pair_context(world, pairs[0]) for _, pairs in sig_classes]

    chars = []
    classes = []
    for ctx in contexts:
        pair = ctx["pair"]
        # the closed character formula needs the scalar Levi subgroup normal
        # and its characters fixed by conjugation from the whole Levi subgroup
        moved = first_moved_by_conjugation(world, np.arange(world.nL), ctx["ld_ids"])
        if moved:
            raise FalsificationError(
                "scalar Levi subgroup is not normal in the Levi subgroup",
                {"pair": pair.label(), "rho": moved[0], "r": moved[1]})
        table = subgroup_table(world, ctx["ld_ids"])

        for tidx, ch in enumerate(table.chars):
            theta = lift_to_levi(world, ctx["ld_ids"], table, ch)
            moved = first_moved_by_conjugation(world, np.arange(world.nL), ctx["ld_ids"],
                                               theta[0])
            if moved:
                raise FalsificationError(
                    "character of the scalar Levi subgroup is moved by "
                    "Levi conjugation",
                    {"pair": pair.label(), "theta": tidx, "rho": moved[0], "r": moved[1]})
            chars.append(SuperChar(
                "chi[D=%s,theta=%d]" % (pair.label() or "0", tidx),
                pool.intern(*chi_alpha_g(world, ctx, theta)), pool,
                {"roots": list(pair.roots), "phi": list(pair.phi), "theta": tidx,
                 "lam": ctx["lam"], "theta_by_l": theta,
                 "ld_ids": list(ctx["ld_ids"])}))

        for cls_idx, members in enumerate(table.classes.members):
            h_sub = int(table.classes.reps[cls_idx])
            h_parent = ctx["ld_ids"][h_sub]
            cl_parent = [ctx["ld_ids"][int(x)] for x in members]
            mem = superclass_g(world, ctx, cl_parent, h_parent)
            classes.append(SuperClass(
                "K[h=%d,D=%s]" % (h_parent, pair.label() or "0"), mem,
                {"h": h_parent, "roots": list(pair.roots), "phi": list(pair.phi)}))

    return SuperTheory("Gb-on-G", world.g_size, world.g_ident, chars, classes, pool,
                       {"config": world.spec.config_label(), "target": "G"})
