"""Orbit machinery for the linear actions used throughout.

Every action here is by invertible linear maps on a finite coordinate space
F_p^dim; points are packed little-endian base-p integers.  Every orbit comes
out of a single breadth-first search routine over sorted int64 point
arrays, and the ambient groups acting are never enumerated.

Spaces that are enumerated anyway (u and u* under Ub, Hb and Gb) are
partitioned once per world and an orbit is looked up there by label; only
the spaces of forms on Uc, too large to enumerate, are closed from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ResourceGuardError, ValidationError


@dataclass
class LinearAction:
    """A named generator action on F_p^dim; matrices act on column coords."""
    label: str
    p: int
    dim: int
    gen_mats: list                      # numpy (dim, dim) int64 matrices

    @property
    def size(self):
        return self.p ** self.dim

    def powers(self):
        return np.array([self.p ** t for t in range(self.dim)], dtype=np.int64)

    def unpack(self, pts):
        pts = np.atleast_1d(np.asarray(pts, dtype=np.int64))
        return (pts[:, None] // self.powers()[None, :]) % self.p

    def pack(self, digits):
        return (np.asarray(digits, dtype=np.int64) % self.p) @ self.powers()

    def apply(self, mat, pts):
        return self.pack(self.unpack(pts) @ np.asarray(mat).T)

    def images(self, pts):
        """The images of the points under each generator."""
        digits = self.unpack(pts)
        return [self.pack(digits @ np.asarray(m).T) for m in self.gen_mats]

    def full_perms(self, guard=10 ** 7):
        if self.size > guard:
            raise ResourceGuardError("space of size %d exceeds guard %d" % (self.size, guard))
        return self.images(np.arange(self.size))


@dataclass
class Orbit:
    """A generator-closed point set with a deterministic representative."""
    points: np.ndarray                  # sorted packed points
    rep: int = field(init=False)

    def __post_init__(self):
        self.points = np.unique(np.asarray(self.points, dtype=np.int64))
        self.rep = int(self.points[0])

    @property
    def size(self):
        return int(self.points.size)


def _bfs(seeds, images):
    """Sorted closure of the seed points; images(pts) lists the generator
    images of a point array.  Each layer's new points are found by binary
    search in the sorted members, so no visited array spans the space."""
    members = np.unique(np.asarray(seeds, dtype=np.int64))
    frontier = members
    while frontier.size:
        imgs = images(frontier)
        if not imgs:
            break
        cand = np.unique(np.concatenate(imgs))
        at = np.searchsorted(members, cand).clip(max=members.size - 1)
        frontier = cand[members[at] != cand]
        members = np.sort(np.concatenate([members, frontier]), kind="stable")
    return members


def orbit_closure(seed, action):
    """BFS closure of one point under the action's generators."""
    seed = int(seed)
    if not 0 <= seed < action.size:
        raise ValidationError("seed", "seed %d outside space of size %d" % (seed, action.size))
    return Orbit(_bfs([seed], action.images))


def partition_by_perms(n, perms):
    """Orbit partition of {0..n-1} under a list of permutations (int64 arrays):
    (label array, sorted member arrays ordered by smallest member)."""
    label = np.full(n, -1, dtype=np.int64)
    classes = []
    for start in range(n):
        if label[start] >= 0:
            continue
        members = _bfs([start], lambda pts: [pm[pts] for pm in perms])
        label[members] = len(classes)
        classes.append(members)
    return label, classes


def partition_orbits(action, guard=10 ** 7):
    """Disjoint orbits covering the whole space; sizes sum to p^dim."""
    _, classes = partition_by_perms(action.size, action.full_perms(guard))
    orbits = [Orbit(m) for m in classes]
    total = sum(o.size for o in orbits)
    assert total == action.size, "orbit sizes %d do not cover the space %d" % (total, action.size)
    return orbits


def levi_stabilizer(world, points, space, mode):
    """Ids of the Levi elements fixing a sorted point set, as a set
    ("setwise") or point by point ("pointwise").

    `space` names the action: "ustar" is the dot action on forms over u,
    "ucstar" the coadjoint action on forms over Uc.  Both stabilizers are
    subgroups, the pointwise one inside the setwise one.
    """
    if mode not in ("setwise", "pointwise"):
        raise ValidationError("mode", "mode must be setwise or pointwise")
    if space not in ("ustar", "ucstar"):
        raise ValidationError("space", "space must be 'ustar' or 'ucstar'")
    mats = world.ustar_levi_mats if space == "ustar" else world.ucstar_levi_mats
    act = LinearAction(space, world.spec.p, mats.shape[1], [])
    digits = act.unpack(points)
    out = []
    for hid, m in enumerate(mats):
        img = act.pack(digits @ m.T)
        if mode == "setwise":
            img.sort()
        if np.array_equal(img, points):
            out.append(hid)
    return out


# ---------------------------------------------------------------------------
# subspaces and quotients

def enumerate_subspace(basis, p, dim=None):
    """All points of a row-span subspace, as a (p^k, dim) digit array."""
    if not basis:
        return np.zeros((1, dim if dim is not None else 0), dtype=np.int64)
    k = len(basis)
    dim = len(basis[0])
    count = p ** k
    powers = np.array([p ** t for t in range(k)], dtype=np.int64)
    coeffs = (np.arange(count, dtype=np.int64)[:, None] // powers[None, :]) % p
    return (coeffs @ np.asarray(basis, dtype=np.int64)) % p


class QuotientSpace:
    """Coordinates on V / W for a subspace W given by basis rows."""

    def __init__(self, dim, sub_basis, p):
        self.p = p
        self.dim = dim
        red, pivots = linalg.rref(sub_basis, p) if sub_basis else ([], [])
        self.sub_rref = red
        self.sub_pivots = pivots
        self.free = [c for c in range(dim) if c not in set(pivots)]
        self.qdim = len(self.free)
        self.reduce_mat = np.array(self_reduce_matrix(red, pivots, dim, p), dtype=np.int64)
        self.proj = self.reduce_mat[self.free, :] % p      # (qdim, dim)
        lift = np.zeros((dim, self.qdim), dtype=np.int64)
        for t, c in enumerate(self.free):
            lift[c, t] = 1
        self.lift_mat = lift

    def project_mats(self, mats):
        """Induced action matrices on the quotient (requires invariance)."""
        out = []
        for m in mats:
            out.append((self.proj @ (np.asarray(m, dtype=np.int64) @ self.lift_mat)) % self.p)
        return out

    def invariant_under(self, mats):
        if not self.sub_rref:
            return True
        basis = np.asarray(self.sub_rref, dtype=np.int64)
        for m in mats:
            img = (basis @ np.asarray(m, dtype=np.int64).T) % self.p
            for v in img:
                if any(linalg.reduce_vec(self.sub_rref, self.sub_pivots, v.tolist(), self.p)):
                    return False
        return True

    def action(self, label, base_action):
        if not self.invariant_under(base_action.gen_mats):
            raise ValidationError("not-invariant",
                                  "subspace is not invariant under the action %r" % base_action.label)
        return LinearAction(label, self.p, self.qdim, self.project_mats(base_action.gen_mats))

    def coset_points(self, quotient_pts, base_action):
        """All packed ambient points lying over the given quotient points."""
        sub_pts = enumerate_subspace(self.sub_rref, self.p, self.dim)   # (s, dim)
        qdigits = LinearAction("q", self.p, self.qdim, []).unpack(quotient_pts)  # (m, qdim)
        lifts = (qdigits @ self.lift_mat.T) % self.p               # (m, dim)
        total = (lifts[:, None, :] + sub_pts[None, :, :]) % self.p
        return base_action.pack(total.reshape(-1, self.dim))


def quotient_orbits(base_action, sub_basis, guard=10 ** 7):
    """Orbit partition of the quotient by an invariant subspace."""
    qs = QuotientSpace(base_action.dim, sub_basis, base_action.p)
    qact = qs.action(base_action.label + "/sub", base_action)
    return qs, partition_orbits(qact, guard)


def smallest_bimodule(world, h):
    """Smallest two-sidedly invariant subspace moving h's conjugation defect.

    Returns (basis of the subspace of Uc, basis of its intersection with u in
    root coordinates).  The subspace contains h x h^-1 - x for all x in Uc and
    is closed under multiplication by Uc on both sides, which is equivalent to
    invariance under the two-sided unipotent group action.
    """
    from . import groups as G
    spec = world.spec
    p = spec.p
    hi = G.mat_inv(h, p)
    basis_rows = []
    pivots = []
    queue = []

    def insert(vec, mat):
        nonlocal basis_rows, pivots
        red = linalg.reduce_vec(basis_rows, pivots, vec, p)
        if any(red):
            basis_rows, pivots = linalg.rref(basis_rows + [red], p)
            queue.append(mat)
            return True
        return False

    unit_mats = [spec.E(i, j) for (i, j) in spec.uc_positions]
    for em in unit_mats:
        m = G.mat_sub(G.mat_mul(G.mat_mul(h, em, p), hi, p), em, p)
        insert(spec.uc_coords(m, check=False), m)
    while queue:
        w = queue.pop()
        for em in unit_mats:
            for prod in (G.mat_mul(em, w, p), G.mat_mul(w, em, p)):
                insert(spec.uc_coords(prod, check=False), prod)

    # intersection with u, expressed in root coordinates
    emb = spec.u_embed_matrix()                     # uc_dim rows x u_dim cols
    R = np.array(self_reduce_matrix(basis_rows, pivots, spec.uc_dim, p), dtype=np.int64)
    cond = (R @ np.array(emb, dtype=np.int64)) % p  # maps u coords to quotient residues
    kern = linalg.right_kernel([tuple(r) for r in cond.tolist()], p, spec.u_dim)
    ured, _ = linalg.rref(kern, p) if kern else ([], [])
    return list(basis_rows), list(ured)


def self_reduce_matrix(rref_rows, pivots, dim, p):
    """Matrix of v -> v reduced modulo the rref span (0 iff v in span).

    In rref, pivot columns vanish in every other row, so the reduction is the
    single linear map that clears each pivot coordinate and subtracts the
    matching multiples elsewhere.
    """
    R = [[1 if c == d else 0 for d in range(dim)] for c in range(dim)]
    for row, piv in zip(rref_rows, pivots):
        for c in range(dim):
            R[c][piv] = 0 if c == piv else (-row[c]) % p
    return R
