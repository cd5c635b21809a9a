"""Orbit machinery for the linear actions used throughout.

Every action here is by invertible linear maps on a finite coordinate space
F_p^dim, given by one (k, dim, dim) stack of generator matrices;
`Parabolic.action` builds and memoizes each action the package uses.  A
point is packed as the little-endian base-p integer of its coordinates, and
`unpack`/`pack` are the one codec for points, radical ids and matrix keys.
Every full orbit partition in the package comes from `partition_by_perms`,
and the ambient groups acting are never enumerated.

Spaces that are enumerated anyway (u and u* under Ub, Hb and Gb) are
partitioned once per world and an orbit is looked up there by label; only
the spaces of forms on Uc, too large to enumerate, are closed from a seed,
the seeds of many forms at once (`orbit_closures`).  Every image of points
is `LinearAction.images`, one stacked product per bounded slice; with the
action of all of L (tag "L") it gives the images of points under every Levi
element, read by `levi_stabilizers` for many point sets at once.  The
preimages of the orbits on a quotient of u are partitioned on u itself
(`quotient_orbits`).

A closure only needs generators of the group acting: an orbit, or a
subspace, that every generator maps into itself is mapped into itself by
every product of generators, and in a finite group those products are the
whole group (an inverse is a power).  So the two-sided closures run on the
simple-root generators of Ub (`subgroup_generators(spec, "Ub-simple")`).

Sets of packed points are sorted int64 arrays: `sorted_unique` and
`sorted_isin` are one sort and one binary search, and `dense_unique` one
presence table for codes below a known bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ResourceGuardError, ValidationError


def unpack(points, p, dim):
    """Little-endian base-p digits of packed points: shape + (dim,)."""
    points = np.asarray(points, dtype=np.int64)
    return points[..., None] // p ** np.arange(dim, dtype=np.int64) % p


def pack(digits, p):
    """Packed points of little-endian base-p digit rows (the last axis),
    each digit taken mod p."""
    digits = np.asarray(digits, dtype=np.int64) % p
    return digits @ p ** np.arange(digits.shape[-1], dtype=np.int64)


@dataclass
class LinearAction:
    """A named generator action on F_p^dim; matrices act on column coords."""
    label: str
    p: int
    dim: int
    gen_mats: np.ndarray                # (k, dim, dim) int64 stack
    _perms: list = field(default=None, init=False, repr=False)

    @property
    def size(self):
        return self.p ** self.dim

    def unpack(self, pts):
        return unpack(pts, self.p, self.dim)

    def pack(self, digits):
        return pack(digits, self.p)

    @property
    def width(self):
        """Entries of the product block per imaged point: k * dim."""
        return self.gen_mats.shape[0] * self.dim

    def images(self, pts):
        """(k, n) images of n points under each of the k generators, the one
        batched image product: a stacked product per slice of at most _BLOCK
        entries, returned without a copy when one slice holds every point."""
        step = _slice(self.width)
        if len(pts) > step:
            return np.concatenate([self.images(pts[lo:lo + step])
                                   for lo in range(0, len(pts), step)], axis=1)
        return self.pack(self.unpack(pts) @ self.gen_mats.transpose(0, 2, 1))

    def full_perms(self, guard):
        """The generators as permutations of the whole space, computed once."""
        if self._perms is None:
            if self.size > guard:
                raise ResourceGuardError("space of size %d exceeds guard %d" % (self.size, guard))
            self._perms = list(self.images(np.arange(self.size)))
        return self._perms


_BLOCK = 1 << 20       # entries of one (k, slice, dim) product block


def _slice(width):
    """Points imaged at once when each costs `width` block entries."""
    return max(1, _BLOCK // max(1, width))


def sorted_unique(a):
    """np.unique(a) for an integer array: one sort and a neighbour comparison."""
    a = np.sort(np.asarray(a).ravel())
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def sorted_isin(needles, sorted_haystack):
    """np.isin(needles, sorted_haystack) for a sorted haystack: one binary search."""
    needles = np.asarray(needles)
    hay = np.asarray(sorted_haystack)
    if not hay.size:
        return np.zeros(needles.shape, dtype=bool)
    return hay[np.searchsorted(hay, needles).clip(max=hay.size - 1)] == needles


def read_only(*arrays):
    """The arrays, made read-only: a memoized array is shared by every
    caller, so one that writes to it raises instead of changing it for the
    others.  Returns the one array, or the tuple of several."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays


def dense_unique(codes, size):
    """np.unique(codes, return_inverse=True) for integer codes in [0, size):
    a presence table and its running count instead of a sort."""
    codes = np.asarray(codes).ravel()
    present = np.zeros(size, dtype=bool)
    present[codes] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[codes]


def _bfs(seeds, images, width, budget=None):
    """Sorted closure of the seed points; images(pts) is one array of the
    generator images of a point array, `width` entries of work per point.
    Each layer's new points are found by binary search in the sorted
    members, so no visited array spans the space, and the frontier is imaged
    in slices of at most _BLOCK entries.  A closure that would pass `budget`
    points raises ResourceGuardError instead."""
    members = sorted_unique(np.asarray(seeds, dtype=np.int64))
    frontier = members
    step = _slice(width)
    while frontier.size:
        found = []
        for lo in range(0, frontier.size, step):
            imgs = images(frontier[lo:lo + step])
            if not imgs.size:
                return members
            cand = sorted_unique(imgs)
            found.append(cand[~sorted_isin(cand, members)])
            if budget is not None and members.size + sum(f.size for f in found) > budget:
                found = [sorted_unique(np.concatenate(found))]
                if members.size + found[0].size > budget:
                    raise ResourceGuardError("orbit closure passed %d points, over the space "
                                             "guard %d" % (members.size + found[0].size, budget))
        frontier = found[0] if len(found) == 1 else sorted_unique(np.concatenate(found))
        members = np.sort(np.concatenate([members, frontier]), kind="stable")
    return members


def orbit_closure(seed, action, budget=None):
    """The orbit of one point under the action's generators, as its sorted
    packed points (see _bfs)."""
    seed = int(seed)
    if not 0 <= seed < action.size:
        raise ValidationError("seed", "seed %d outside space of size %d" % (seed, action.size))
    return _bfs([seed], action.images, action.width, budget)


def orbit_closures(seeds, bounds, action, budget):
    """The orbits of several points under the action's generators, one
    sorted array each, in seed order; bounds[i] bounds the size of orbit i
    (p^dim of an invariant subspace holding the seed).

    Seeds are closed in groups, in order, each group while the sum of its
    bounds stays within `budget`: one _bfs over the tagged keys
    i * size + point, i the seed's place in its group, so the orbits of a
    group share every layer's product and sort.  A seed whose bound alone
    passes the budget is closed alone, under the budget, so the guard fires
    exactly where a closure per seed (orbit_closure) fires.  A generator: a
    caller that stops at a failure closes no later group.
    """
    size = action.size
    room = np.iinfo(np.int64).max // size        # tags that keep a key in int64
    lo = 0
    while lo < len(seeds):
        hi, total = lo + 1, bounds[lo]
        while hi < len(seeds) and hi - lo < room and total + bounds[hi] <= budget:
            total += bounds[hi]
            hi += 1
        tags = np.arange(hi - lo, dtype=np.int64) * size
        # unpack reads only the low dim digits of a key, so the images of a
        # tagged key are those of its point
        members = _bfs(tags + np.asarray(seeds[lo:hi], dtype=np.int64),
                       lambda pts: action.images(pts) + (pts - pts % size), action.width, budget)
        for tag, orbit in zip(tags, np.split(members, np.searchsorted(members, tags[1:]))):
            yield orbit - tag
        lo = hi


def partition_by_perms(n, perms):
    """Orbit partition of {0..n-1} under a list of permutations of it (int
    arrays, each a bijection): (label array, sorted member arrays ordered by
    least member).  Each pass gives every point the least label among itself
    and its images and preimages, then replaces each label by its own label;
    labels stay points of the same orbit, so at the fixpoint every point is
    labelled by its orbit's least member."""
    least = np.arange(n, dtype=np.int64)
    while True:
        new = least.copy()
        for pm in perms:
            np.minimum(new, new[pm], out=new)           # images
            new[pm] = np.minimum(new[pm], new)           # preimages
        new = new[new]
        if np.array_equal(new, least):
            break
        least = new
    label = np.searchsorted(np.flatnonzero(least == np.arange(n)), least)
    order = np.argsort(label, kind="stable")
    return label, np.split(order, np.cumsum(np.bincount(label))[:-1]) if n else []


def partition_orbits(action, guard):
    """The orbit partition of the action's whole space (partition_by_perms)."""
    return partition_by_perms(action.size, action.full_perms(guard))


def levi_stabilizers(world, space, points, sizes, key=None):
    """For sets of points laid end to end in `points`, sizes[i] points in set
    i, the Levi ids l with key(l x) == key(x) for every point x of the set
    (key: an array indexed by point, or None for the point itself), one
    ascending list per set, under world.action(space, "L") (space "u",
    "ustar" or "ucstar").  With key None and a set of basis points, l fixes
    their span pointwise iff its images are the basis points; with key an
    orbit label and one point per set, l fixes the orbit setwise iff it maps
    the point into it (L normalizes Ub, so it permutes Ub's orbits).  Whole
    sets are imaged at once, at most _BLOCK entries unless one needs more."""
    act = world.action(space, "L")
    points = np.asarray(points, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    step = _slice(act.width)
    out = []
    lo = 0
    while lo < len(sizes):
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + step, "right")) - 1)
        pts = points[starts[lo]:starts[hi]]
        imgs = act.images(pts)
        moved = imgs != pts if key is None else key[imgs] != key[pts]
        # moved points of l up to each position; a set fixes l iff none in it
        count = np.concatenate([np.zeros((world.nL, 1), dtype=np.int64),
                                np.cumsum(moved, axis=1)], axis=1)
        ends = starts[lo:hi + 1] - starts[lo]
        fixed = count[:, ends[1:]] == count[:, ends[:-1]]
        out += [np.flatnonzero(col).tolist() for col in fixed.T]
        lo = hi
    return out


# ---------------------------------------------------------------------------
# subspaces and quotients

def enumerate_subspace(basis, p):
    """All points of the row span of a (k, dim) basis, as a (p^k, dim) digit array."""
    basis = np.asarray(basis, dtype=np.int64)
    return unpack(np.arange(p ** len(basis)), p, len(basis)) @ basis % p


def quotient_orbits(action, sub_basis, guard):
    """The preimages in the action's space of the orbits on its quotient by
    an invariant subspace W (rows of `sub_basis`), as (omega, members) in
    ascending omega.  With the translations by a basis of W added to the
    action's generator permutations (`full_perms`, under the space guard),
    one partition gives each preimage directly.  omega labels a preimage by
    its least point of the quotient: the coordinates of a point reduced
    modulo the rref basis of W, packed on the non-pivot columns.
    """
    p = action.p
    basis, pivots = linalg.rref(sub_basis, p, action.dim)
    if not np.array_equal(linalg.invariant_span(basis, action.gen_mats, p)[0], basis):
        raise ValidationError("not-invariant",
                              "subspace is not invariant under the action %r" % action.label)
    digits = action.unpack(np.arange(action.size))
    shifts = [action.pack(digits + b) for b in basis]
    label, members = partition_by_perms(action.size, action.full_perms(guard) + shifts)
    free = [c for c in range(action.dim) if c not in pivots]
    reduced = (digits - digits[:, pivots] @ basis) % p
    point = pack(reduced[:, free], p)
    omega = np.full(len(members), action.size, dtype=np.int64)
    np.minimum.at(omega, label, point)
    return [(int(omega[c]), members[c]) for c in np.argsort(omega, kind="stable")]


def smallest_bimodule(world, h):
    """Smallest two-sidedly invariant subspace moving h's conjugation defect.

    Returns the rref bases of the subspace of Uc and of its intersection
    with u in root coordinates.  The subspace contains h x h^-1 - x for all
    x in Uc and is closed under multiplication by Uc on both sides, which is
    equivalent to invariance under the two-sided unipotent group action.  h
    is a Levi element, an isometry, so h^-1 = h-dagger.
    """
    spec = world.spec
    p = spec.p
    units = spec.units(spec.uc_positions)
    defects = spec.uc_coords(h @ units % p @ spec.dagger(h) - units, check=False)
    # the transposed generators are x -> (1+E)x and x -> x(1+E) on Uc itself;
    # a subspace closed under those is closed under x -> Ex and x -> xE
    mats = world.action("ucstar-twosided", "Ub-simple").gen_mats.transpose(0, 2, 1)
    basis, pivots = linalg.invariant_span(defects, mats, p)

    # the intersection with u is the kernel of v -> v - v[pivots] @ basis
    # (v reduced modulo the span; in rref a pivot column is 0 outside its row)
    # on the u coordinates
    reduce = np.eye(spec.uc_dim, dtype=np.int64)
    reduce[:, pivots] -= basis.T
    kern = linalg.right_kernel(reduce @ spec.u_embed_matrix() % p, p, spec.u_dim)
    return basis, linalg.rref(kern, p, spec.u_dim)[0]
