"""Classical group data over odd prime fields.

Builds a validated group configuration (family B/C/D, rank, prime, symmetric
block decomposition), the signed-index matrix algebra with its dagger
involution, positive roots and the basis of the nilpotent Lie algebra u,
the Levi subgroup L, the unipotent radical U via the Springer (Cayley)
bijection, generator sets for the ambient block groups, the matrices of
their actions on u, u* and forms over Uc, and an indexed "world" object
with Levi and radical products on demand and one memoized action per space
and group that the orbit and character machinery runs on.

Matrices are int64 numpy arrays with entries in [0, p), indexed by array
position; every matrix operation takes one (N, N) matrix or an (n, N, N)
stack alike.  The configuration object translates between signed labels and
positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

import numpy as np

from . import linalg
from .algebra import CycField, is_odd_prime, primitive_root, smallest_nonsquare
from .errors import FalsificationError, ResourceGuardError, ValidationError
from .orbits import (LinearAction, _bfs, _slice, enumerate_subspace, pack, partition_by_perms,
                     read_only, sorted_isin, sorted_unique, unpack)

DEFAULT_GUARDS = {
    "levi": 10 ** 6,      # upper bound on |L|
    "space": 10 ** 7,     # upper bound on enumerated coordinate spaces
    "chartab": 2000,      # largest group handed to the character-table code
}


# ---------------------------------------------------------------------------
# group configuration

@dataclass(frozen=True)
class Root:
    """A positive root (i, j) in signed labels, with its mirror data."""
    i: int
    j: int
    mirror: tuple
    block_row: int
    block_col: int
    eps: int          # sign in E(i,j) + eps * E(mirror); 0 iff self-mirrored
    crossing: bool    # True iff the root lies strictly across block boundaries


class GroupSpec:
    """Validated configuration plus all derived index data.

    Built through build_spec; treat as immutable after construction.
    """

    def __init__(self, family, n, p, blocks, delta=None):
        self.family = family
        self.n = n
        self.p = p
        self.blocks = blocks          # full symmetric tuple (n_ell, ..., n_0, ..., n_-ell)
        self.N = 2 * n + 1 if family == "B" else 2 * n
        self.ell = (len(blocks) - 1) // 2
        if family == "B":
            self.labels = tuple(range(n, -n - 1, -1))
        else:
            self.labels = tuple(list(range(n, 0, -1)) + list(range(-1, -n - 1, -1)))
        self.pos = {lab: idx for idx, lab in enumerate(self.labels)}
        self.delta = smallest_nonsquare(p) if delta is None else delta
        # label -1 sits at the mirrored position of label 1, so the dagger
        # reverses both axes; sign_matrix[a, b] = s_a s_b
        signs = np.array([self.sign(lab) for lab in self.labels], dtype=np.int64)
        self.sign_matrix = signs[:, None] * signs[None, :]

        # consecutive segments I_k, k = ell .. -ell, and their position slices
        segments = {}
        self.block_slice = {}
        cursor = 0
        for off, size in enumerate(blocks):
            k = self.ell - off
            segments[k] = tuple(self.labels[cursor:cursor + size])
            self.block_slice[k] = slice(cursor, cursor + size)
            cursor += size
        self.segments = segments
        self.block_of = {}
        for k, labs in segments.items():
            for lab in labs:
                self.block_of[lab] = k

        self._init_roots()
        self.uc_positions = tuple(
            (i, j) for i in self.labels for j in self.labels
            if self.block_of[i] > self.block_of[j]
        )
        self.uc_dim = len(self.uc_positions)
        self.u_dim = len(self.roots_u)
        self.root_index = {(r.i, r.j): t for t, r in enumerate(self.roots_u)}
        self.uc_rows, self.uc_cols = self.position_arrays(self.uc_positions)
        self.uc_mask = np.zeros((self.N, self.N), dtype=bool)
        self.uc_mask[self.uc_rows, self.uc_cols] = True
        self.u_rows, self.u_cols = self.position_arrays([(r.i, r.j) for r in self.roots_u])
        self.u_basis = np.array([self.root_matrix(r) for r in self.roots_u],
                                dtype=np.int64).reshape(-1, self.N, self.N)

    def position_arrays(self, pairs):
        """Row and column position arrays of signed (i, j) pairs."""
        idx = np.array([(self.pos[i], self.pos[j]) for (i, j) in pairs],
                       dtype=np.int64).reshape(-1, 2)
        return idx[:, 0], idx[:, 1]

    # -- involution ---------------------------------------------------------

    def sign(self, label):
        if self.family == "C":
            return 1 if label > 0 else -1
        return 1

    def dagger(self, X):
        """The involutive antiautomorphism defining the classical group:
        X-dagger[a][b] = s_a s_b X[-b][-a]."""
        flipped = np.swapaxes(np.asarray(X, dtype=np.int64)[..., ::-1, ::-1], -1, -2)
        return self.sign_matrix * flipped % self.p

    def is_isometry(self, X):
        """X-dagger X == 1, elementwise over a stack."""
        prod = self.dagger(X) @ np.asarray(X, dtype=np.int64) % self.p
        return (prod == np.eye(self.N, dtype=np.int64)).all(axis=(-2, -1))

    # -- roots and bases ----------------------------------------------------

    def _positive_root_pairs(self):
        out = []
        for i in self.labels:
            for j in self.labels:
                if i > j and (j > -i or (self.family == "C" and j == -i)):
                    out.append((i, j))
        out.sort(key=lambda ij: (self.pos[ij[0]], self.pos[ij[1]]))
        return out

    def _init_roots(self):
        """The positive roots: E(i,j)-dagger = s_i s_j E(-j,-i), so E(i,j) +
        eps E(-j,-i) is anti-fixed for eps = -s_i s_j, and a self-mirrored
        E(i,j) for eps = 0; one batched check keeps that an invariant."""
        roots = []
        for (i, j) in self._positive_root_pairs():
            mirror = (-j, -i)
            eps = 0 if mirror == (i, j) else -self.sign(i) * self.sign(j)
            crossing = self.block_of[i] > self.block_of[j]
            roots.append(Root(i, j, mirror, self.block_of[i], self.block_of[j], eps, crossing))
        mats = np.array([self.root_matrix(r) for r in roots]).reshape(-1, self.N, self.N)
        if not np.array_equal(self.dagger(mats), -mats % self.p):
            raise RuntimeError("a root matrix is not anti-fixed; the involution is inconsistent")
        self.roots = tuple(roots)
        self.roots_u = tuple(r for r in roots if r.crossing)

    def E(self, i, j):
        """Matrix unit at signed position (i, j)."""
        m = np.zeros((self.N, self.N), dtype=np.int64)
        m[self.pos[i], self.pos[j]] = 1
        return m

    def units(self, positions):
        """(len, N, N) stack of the matrix units at signed positions."""
        rows, cols = self.position_arrays(positions)
        out = np.zeros((len(rows), self.N, self.N), dtype=np.int64)
        out[np.arange(len(rows)), rows, cols] = 1
        return out

    def root_matrix(self, root):
        m = self.E(root.i, root.j)
        if root.eps:
            m = (m + root.eps * self.E(*root.mirror)) % self.p
        return m

    # -- coordinates --------------------------------------------------------

    def u_coords(self, X, check=True):
        """Coordinates of ambient matrices of u in the root basis."""
        X = np.asarray(X, dtype=np.int64) % self.p
        vec = X[..., self.u_rows, self.u_cols]
        if check and not np.array_equal(self.mat_of_u(vec), X):
            raise ValidationError("not-in-u", "matrix is not in the Lie algebra u")
        return vec

    def mat_of_u(self, coords):
        coords = np.asarray(coords, dtype=np.int64)
        flat = coords @ self.u_basis.reshape(self.u_dim, -1) % self.p
        return flat.reshape(coords.shape[:-1] + (self.N, self.N))

    def uc_coords(self, X, check=True):
        X = np.asarray(X, dtype=np.int64) % self.p
        if check and X[..., ~self.uc_mask].any():
            raise ValidationError("not-in-uc", "matrix is not block strictly upper triangular")
        return X[..., self.uc_rows, self.uc_cols]

    def mat_of_uc(self, coords):
        coords = np.asarray(coords, dtype=np.int64)
        out = np.zeros(coords.shape[:-1] + (self.N, self.N), dtype=np.int64)
        out[..., self.uc_rows, self.uc_cols] = coords % self.p
        return out

    def u_embed_matrix(self):
        """Columns express the root basis of u in Uc coordinates."""
        return self.uc_coords(self.u_basis).T

    def hc_positions(self):
        """Positions of the row-restricted ideal: block-crossing with row block >= 0."""
        return tuple(pos for pos in self.uc_positions if self.block_of[pos[0]] >= 0)

    def field_order(self):
        """M = lcm(p, exponent of L): Q(zeta_M) holds every value of both theories."""
        return lcm(self.p, levi_exponent(self.family, self.p, self.blocks))

    def config_label(self):
        return "%s%d-q%d-blocks%s" % (
            self.family, self.n, self.p, "|".join(str(b) for b in self.blocks))


def normalize_blocks(family, blocks):
    blocks = tuple(int(b) for b in blocks)
    if len(blocks) % 2 == 0:
        if family == "B":
            raise ValidationError("middle-parity", "family B requires an explicit odd middle block")
        half = len(blocks) // 2
        blocks = blocks[:half] + (0,) + blocks[half:]
    return blocks


def check_config(family, n, q, blocks, delta):
    """Validate a configuration, building no array: (full blocks, delta or None)."""
    if family not in ("B", "C", "D"):
        raise ValidationError("family", "family must be one of B, C, D, got %r" % (family,))
    if n < 1:
        raise ValidationError("rank", "rank n must be >= 1, got %r" % (n,))
    if q > linalg.STACK_P_MAX:
        # the stacked eliminations over F_q tabulate all q - 1 inverses
        raise ValidationError("q-too-large", "q must be at most %d, got %d"
                              % (linalg.STACK_P_MAX, q))
    if not is_odd_prime(q):
        raise ValidationError("q-not-odd-prime", "q must be an odd prime, got %r" % (q,))
    blocks = normalize_blocks(family, blocks)
    ell = (len(blocks) - 1) // 2
    mid = blocks[ell]
    for k in range(ell):
        if blocks[k] != blocks[-1 - k]:
            raise ValidationError("blocks-asymmetric",
                                  "block sizes must be symmetric about the middle: %r" % (blocks,))
        if blocks[k] <= 0:
            raise ValidationError("block-zero", "side blocks must be positive: %r" % (blocks,))
    if family == "B":
        if mid % 2 == 0 or mid < 1:
            raise ValidationError("middle-parity",
                                  "family B needs an odd middle block >= 1, got %d" % mid)
    else:
        if mid % 2 != 0 or mid < 0:
            raise ValidationError("middle-parity",
                                  "families C and D need an even middle block >= 0, got %d" % mid)
    N = 2 * n + 1 if family == "B" else 2 * n
    if sum(blocks) != N:
        raise ValidationError("blocks-sum",
                              "block sizes sum to %d, expected N=%d" % (sum(blocks), N))
    if ell == 0:
        raise ValidationError("trivial-radical",
                              "a single block %r leaves u = 0 and G = L; give at least "
                              "one side block" % (blocks,))
    if family == "D" and n == 1:
        raise ValidationError("trivial-radical",
                              "type D1 has no roots, so blocks %r leave u = 0 and G = L; "
                              "take n >= 2" % (blocks,))
    if delta is not None:
        given, delta = delta, int(delta) % q
        if delta == 0:
            raise ValidationError("delta-not-nonsquare",
                                  "delta %r is 0 mod %d, not a non-square" % (given, q))
        if delta in {(i * i) % q for i in range(1, q)}:
            raise ValidationError("delta-not-nonsquare", "delta %r is a square mod %d" % (given, q))
    return blocks, delta


def build_spec(family, n, q, blocks, delta=None):
    """Validate a configuration and derive all index data."""
    return GroupSpec(family, n, q, *check_config(family, n, q, blocks, delta))


def levi_exponent(family, p, blocks):
    """The exponent of L over F_p from its full symmetric block sizes: the
    lcm, over GL(n_k, p) for k >= 1 and the middle isometry group, of the
    least power of p that is at least t, the largest unipotent Jordan block,
    and of the orders of the cyclic tori (Carter, Finite Groups of Lie Type):
      GL_n                  t = n       p^i - 1, i <= n
      Sp_2m                 t = 2m      p^i +- 1, i <= m = n_0 // 2
      O_2m+1 = SO x {+-1}   t = 2m + 1  p^i +- 1, i <= m, and 2
      O+_2m                 t = 2m - 1  p^m - 1 and p^i +- 1, i < m (p^m + 1: O-_2m)"""
    sides, mid = blocks[:len(blocks) // 2], blocks[len(blocks) // 2]
    power = 1
    while power < max(sides + (mid - (family == "D"),)):
        power *= p
    return lcm(power, 2 if family == "B" else 1,
               *(p ** i - 1 for n in sides + (mid // 2,) for i in range(1, n + 1)),
               *(p ** i + 1 for i in range(1, mid // 2 + (family != "D"))))


# ---------------------------------------------------------------------------
# Springer map (Cayley transform)

def _neumann(X, c, p):
    """sum_k (c X)^k = (1 - c X)^-1 over a stack of nilpotent N x N matrices,
    where the series stops after N terms."""
    step = c * X % p
    term = step
    total = np.eye(X.shape[-1], dtype=np.int64) + step
    for _ in range(X.shape[-1] - 2):
        term = term @ step % p
        total += term
    return total % p


def cayley(spec, G):
    """Bijection Ub -> Uc, the Cayley map f(1+x) = 2x (x+2)^-1 = x sum_k (-x/2)^k,
    on a stack of block unipotent matrices."""
    p = spec.p
    X = (np.asarray(G, dtype=np.int64) - np.eye(spec.N, dtype=np.int64)) % p
    if X[..., ~spec.uc_mask].any():
        raise ValidationError("not-unipotent", "argument is not block unipotent upper triangular")
    return X @ _neumann(X, (p - 1) // 2, p) % p


def cayley_inv(spec, Y):
    """Inverse Cayley map y -> 1 + (2-y)^-1 2y = 1 + y sum_k (y/2)^k on a stack of Uc."""
    p = spec.p
    Y = np.asarray(Y, dtype=np.int64) % p
    if Y[..., ~spec.uc_mask].any():
        raise ValidationError("not-in-uc", "argument is not in the nilpotent algebra")
    return (np.eye(spec.N, dtype=np.int64) + Y @ _neumann(Y, (p + 1) // 2, p)) % p


# ---------------------------------------------------------------------------
# enumerations

def _all_matrices(n, q):
    """All q^(n^2) n x n matrices over F_q as a stack, in lexicographic entry order."""
    codes = np.arange(q ** (n * n), dtype=np.int64)
    shifts = q ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    return ((codes[:, None] // shifts[None, :]) % q).reshape(-1, n, n)


def enumerate_gl(n, q):
    """All invertible n x n matrices over F_q as a stack, in lexicographic entry order."""
    mats = _all_matrices(n, q)
    return mats[linalg.rank(mats, q) == n]


def enumerate_middle(spec):
    """Elements M of the middle block with M-dagger M = 1 (so M is invertible),
    in lexicographic entry order, tested as one batch of all q^(n0^2) matrices.
    The middle labels are symmetric, so M-dagger[a][b] = s_a s_b M[-b][-a]."""
    n0 = len(spec.segments.get(0, ()))
    if n0 == 0:
        return np.zeros((1, 0, 0), dtype=np.int64)
    q = spec.p
    mats = _all_matrices(n0, q)
    signs = spec.sign_matrix[spec.block_slice[0], spec.block_slice[0]]
    dag = signs * mats[:, ::-1, ::-1].transpose(0, 2, 1)
    keep = ((dag @ mats) % q == np.eye(n0, dtype=np.int64)).all(axis=(1, 2))
    return mats[keep]


def check_levi_bound(blocks, q, guard):
    """Exit 2 before any Levi element is built if |L| may pass the guard: from
    the full symmetric block sizes alone, |GL(n_k, q)| per side block k >= 1
    times |GL(n_0, q)| >= |middle isometries|; past 2^12000 it is not printed."""
    cap = max(guard, 1 << 12000)
    bound = 1
    for size in blocks[:(len(blocks) + 1) // 2]:
        for i in range(size):
            bound *= q ** size - q ** i
            if bound > cap:
                raise ResourceGuardError("Levi bound over 2**12000 exceeds guard %d" % guard)
    if bound > guard:
        raise ResourceGuardError("Levi bound %d exceeds guard %d" % (bound, guard))


def enumerate_levi(spec, guard=None):
    """The full Levi subgroup L as an (nL, N, N) stack, enumerated deterministically.

    Positive-side blocks range over GL(n_k, q); the mirrored block is forced
    by the isometry condition; the middle block is one batched isometry test
    of q^(n0^2) <= 1.79 |GL(n0, q)| matrices, which the guard on |L| bounds.
    The middle block varies fastest, then the sides from I_1 out to I_ell.
    """
    q = spec.p
    check_levi_bound(spec.blocks, q, DEFAULT_GUARDS["levi"] if guard is None else guard)

    def embed(blocks, k):
        out = np.zeros((len(blocks), spec.N, spec.N), dtype=np.int64)
        out[:, spec.block_slice[k], spec.block_slice[k]] = blocks
        return out

    out = np.zeros((1, spec.N, spec.N), dtype=np.int64)
    for k in range(spec.ell, 0, -1):
        a_k = enumerate_gl(len(spec.segments[k]), q)
        inv = linalg.inverse(a_k, q)
        # mirrored block forced: A_{-k} = dagger(A_k^-1), which lives on I_{-k}
        factor = embed(a_k, k) + spec.dagger(embed(inv, k))
        out = (out[:, None] + factor[None]).reshape(-1, spec.N, spec.N)
    out = (out[:, None] + embed(enumerate_middle(spec), 0)[None])
    return _require_isometries(spec, out.reshape(-1, spec.N, spec.N), "Levi element")


def _require_isometries(spec, stack, what):
    bad = np.flatnonzero(~spec.is_isometry(stack))
    if bad.size:
        raise RuntimeError("%s %d is not an isometry" % (what, bad[0]))
    return stack


def subgroup_generators(spec, tag):
    """Generator stacks: 'Ub' and 'Hb' elementary, 'Lb' per-block GL, 'Gb' both
    of the ambient parabolic.

    'Ub-simple' is the simple-root generators of Ub: 1 + E_ij with i and j in
    consecutive non-empty blocks.  They generate Ub (Steinberg, *Lectures on
    Chevalley Groups*): for i, j, k in blocks each above the next, the
    commutator of 1 + a E_ij and 1 + b E_jk is 1 + ab E_ik, so every
    1 + t E_ik is a product of them, and those generate Ub.  An orbit or
    subspace that they map into itself is therefore Ub-invariant.  Hb has
    no such tag: its positions have row blocks >= 0, and the consecutive-block
    ones among them do not generate the rest."""
    one = np.eye(spec.N, dtype=np.int64)
    if tag == "Ub":
        return one + spec.units(spec.uc_positions)
    if tag == "Ub-simple":
        blocks = [spec.segments[k] for k in sorted(spec.segments, reverse=True)
                  if spec.segments[k]]
        return one + spec.units([(i, j) for upper, lower in zip(blocks, blocks[1:])
                                 for i in upper for j in lower])
    if tag == "Hb":
        return one + spec.units(spec.hc_positions())
    if tag == "Lb":
        gens = []
        for k in sorted(spec.segments, reverse=True):
            labs = spec.segments[k]
            if not labs:
                continue
            dil = one.copy()
            dil[spec.pos[labs[0]], spec.pos[labs[0]]] = primitive_root(spec.p)
            gens.append(dil[None])
            gens.append(one + spec.units([(a, b) for a in labs for b in labs if a != b]))
        return np.concatenate(gens)
    if tag == "Gb":
        return np.concatenate([subgroup_generators(spec, "Lb"), subgroup_generators(spec, "Ub")])
    raise ValidationError("tag", "unknown generator tag %r" % (tag,))


# ---------------------------------------------------------------------------
# action matrices (all linear maps given on coordinates); g may be one
# matrix or a stack, giving one (d, d) matrix per element.  Row c of a
# coordinate array below holds the image of basis element c.

def _sandwich(a, mats, b, p):
    """a M b for every matrix M of a stack, per element of the stacks a and b."""
    a = np.asarray(a, dtype=np.int64)[..., None, :, :]
    b = np.asarray(b, dtype=np.int64)[..., None, :, :]
    return (a @ mats % p) @ b % p


def _on_u(spec, imgs):
    """Root coordinates of the images of the root basis under each element;
    an element whose image leaves u falsifies that the group acts on u."""
    vec = spec.u_coords(imgs, check=False)
    off = (spec.mat_of_u(vec) != imgs).any(axis=(-3, -2, -1))
    if off.any():
        raise FalsificationError("a group element does not act on u",
                                 {"element": int(np.argmax(off))})
    return vec


def u_action_matrix(spec, g):
    """Dot action x -> g x g-dagger on u, as a matrix on root coordinates."""
    return np.swapaxes(_on_u(spec, _sandwich(g, spec.u_basis, spec.dagger(g), spec.p)), -1, -2)


def ustar_action_matrix(spec, g):
    """Dot action on forms: (g . lam)(x) = lam(g-dagger x g)."""
    return _on_u(spec, _sandwich(spec.dagger(g), spec.u_basis, g, spec.p))


def ucstar_left_matrix(spec, a):
    """(a Lam)(x) = Lam(x a) on forms over Uc."""
    units = spec.units(spec.uc_positions)
    return spec.uc_coords(units @ np.asarray(a)[..., None, :, :] % spec.p, check=False)


def ucstar_right_matrix(spec, a):
    """(Lam a)(x) = Lam(a x) on forms over Uc."""
    units = spec.units(spec.uc_positions)
    return spec.uc_coords(np.asarray(a)[..., None, :, :] @ units % spec.p, check=False)


def ucstar_ad_matrix(spec, h):
    """Coadjoint action of group elements h on forms over Uc: Lam -> Lam o Ad_(h^-1).
    h is an isometry, so h^-1 = h-dagger."""
    units = spec.units(spec.uc_positions)
    return spec.uc_coords(_sandwich(spec.dagger(h), units, h, spec.p), check=False)


def _ucstar_twosided_matrix(spec, a):
    return np.concatenate([ucstar_left_matrix(spec, a), ucstar_right_matrix(spec, a)])


# the coordinate spaces a group acts on, by the maps giving its matrices
ACTIONS = {
    "u": u_action_matrix,
    "ustar": ustar_action_matrix,
    "ucstar": ucstar_ad_matrix,
    "ucstar-left": ucstar_left_matrix,
    "ucstar-twosided": _ucstar_twosided_matrix,
}


# ---------------------------------------------------------------------------
# the assembled world

class world_table(cached_property):
    """A table of a world computed once, stored in the world's memo under
    its own name, so that a world whose memo is cleared builds it afresh."""

    def __get__(self, world, owner=None):
        if world is None:
            return self
        return world.memo(self.attrname, lambda: self.func(world))


class Parabolic:
    """One configuration: L enumerated by the build, which also checks |U|
    against the space guard; U, index tables and the value field are world
    tables, built on first read.

    L and U are (nL, N, N) and (nU, N, N) int64 stacks.  Elements of G = L U
    are addressed as packed ids r * |U| + u.  Radical element u is the Cayley
    preimage of the point of u with packed coordinates u, so evaluating f
    costs nothing and U is one batched inverse series.  A matrix of U is
    found again by its entries at the root positions of u: packed base p they
    form a key onto 0..nU-1 (unitriangular in the block gap), which
    `_u_of_key` checks.  A matrix of L is found by its entries in the blocks
    I_k, k >= 0.
    """

    def __init__(self, spec, guards=None):
        self.spec = spec
        self.guards = dict(DEFAULT_GUARDS)
        if guards:
            self.guards.update(guards)
        self._memo = {}
        p = spec.p

        self.L = enumerate_levi(spec, self.guards["levi"])
        self.nL = len(self.L)
        self._l_rows, self._l_cols = spec.position_arrays(
            [(i, j) for k in range(spec.ell + 1)
             for i in spec.segments[k] for j in spec.segments[k]])
        if p ** len(self._l_rows) > np.iinfo(np.int64).max:
            raise ResourceGuardError("Levi keys of %d entries overflow int64" % len(self._l_rows))
        # the blocks I_k x I_k, k >= 0, lead the diagonal and fix a Levi element
        self._l_lead = np.ascontiguousarray(self.L[:, :spec.block_slice[0].stop,
                                                   :spec.block_slice[0].stop])
        keys = pack(self.L[:, self._l_rows, self._l_cols], p)
        self._l_order = np.argsort(keys, kind="stable")
        self._l_keys = keys[self._l_order]
        self.idL = int(self.l_ids(np.eye(spec.N, dtype=np.int64)))

        self.nU = p ** spec.u_dim
        if self.nU > self.guards["space"]:
            raise ResourceGuardError("|u| = %d exceeds space guard" % self.nU)

    def memo(self, key, build):
        """The value cached under `key` for this world, from `build()` on
        first use; a `build()` that raises stores nothing.  Every result
        computed once per world is kept here, under these key families:

        - the name of a `world_table` (U, _u_of_key, field, invL,
          U_times_basis, invU, conjUbyL, levi_generator_conjugates,
          g_classes, u_group_classes), and
          "levi_conj_orbits", "levi_parts_of_conjugates", "signature_classes":
          one value per world;
        - ("levi_generators", bytes of Levi ids): `first_moved_by_conjugation`;
        - ("action", space, tag): `action`;
        - ("generated", shape, bytes) of the int64 basis: `generated`;
        - ("orbits", space, tag): `utheory.orbit_partition`;
        - "form_maps": the linear maps of a form that `utheory.FormBatch`
          reads, one matrix per world;
        - ("form_data", lam): `utheory.form_data`, per packed form, filled
          for many forms at once by `utheory.build_forms`;
        - ("orbit_counts", index of a Ub-orbit on u*): its distinct count
          columns, `utheory.ub_orbit_counts`;
        - ("orbit_sum", bytes of the points of a Ub- or Gb-orbit): zeta,
          `utheory.orbit_sum`, summed from the Ub-orbits' count columns;
        - ("subgroup_table", sorted Levi ids): `utheory.subgroup_table`;
        - ("quotient_orbits", action label, shape, bytes) of the rref basis
          of u_h: the superclass cosets of `utheory.build_u_theory`;
        - ("pair_signature", pair): `gtheory.pair_signature`;
        - ("coset_closure", least point of K_D, U_h columns): the K_D U_h
          of `gtheory.superclass_g`;
        - ("theory", "U" | "G" | "Gb"): the theories of `verify.theories`.

        Arrays shared between forms or classes (`generated`, the quotient
        cosets, the coset closures) are read-only."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def memoized(self, key):
        """Whether `memo` holds a value under `key`."""
        return key in self._memo

    def action(self, space, tag):
        """The action on `space` (a key of ACTIONS) of the group generated by
        `subgroup_generators(spec, tag)`, or of every Levi element for tag
        "L", memoized per world."""
        def build():
            gens = self.L if tag == "L" else subgroup_generators(self.spec, tag)
            mats = ACTIONS[space](self.spec, gens)
            return LinearAction("%s:%s" % (space, tag), self.spec.p, mats.shape[-1], mats)
        return self.memo(("action", space, tag), build)

    # -- u-coordinate packing ------------------------------------------------

    def u_digits(self, pts):
        """Root coordinates of packed u points: shape + (u_dim,)."""
        return unpack(pts, self.spec.p, self.spec.u_dim)

    def pack_u(self, coords):
        """Packed u points of root coordinate rows."""
        return pack(coords, self.spec.p)

    # -- matrix -> id lookups ------------------------------------------------

    @world_table
    def U(self):
        spec = self.spec
        return _require_isometries(
            spec, cayley_inv(spec, spec.mat_of_u(self.u_digits(np.arange(self.nU)))),
            "Cayley preimage of u-point")

    @world_table
    def _u_of_key(self):
        spec = self.spec
        out = np.full(self.nU, -1, dtype=np.int64)
        out[pack(self.U[:, spec.u_rows, spec.u_cols], spec.p)] = np.arange(self.nU)
        if (out < 0).any():
            raise RuntimeError("root-entry keys of the radical are not a bijection onto "
                               "0..%d" % (self.nU - 1))
        return out

    def u_ids(self, mats):
        """Radical ids of a matrix or stack; raises on a matrix outside U."""
        spec = self.spec
        mats = np.asarray(mats, dtype=np.int64) % spec.p
        ids = self._u_of_key[pack(mats[..., spec.u_rows, spec.u_cols], spec.p)]
        return _checked(self.U, ids, mats, "U")

    def _l_lookup(self, keys):
        """Levi ids of packed keys of entries (_l_rows, _l_cols); raises on a key
        outside L."""
        at = np.searchsorted(self._l_keys, keys).clip(max=self.nL - 1)
        return self._l_order[_checked(self._l_keys, at, keys, "L")]

    def l_ids(self, mats):
        """Levi ids of a matrix or stack; raises on a matrix outside L."""
        mats = np.asarray(mats, dtype=np.int64) % self.spec.p
        ids = self._l_lookup(pack(mats[..., self._l_rows, self._l_cols], self.spec.p))
        return _checked(self.L, ids, mats, "L")

    # -- products and index tables ------------------------------------------

    def mulL(self, a, b, c=None):
        """Ids of L[a] L[b] (L[c]), elementwise over broadcast Levi id arrays: the
        products of their leading blocks (_l_lead), at most _BLOCK entries at once."""
        factors = [f for f in (a, b, c) if f is not None]
        flat = np.empty((len(factors),) + np.broadcast(*factors).shape, dtype=np.int64)
        for row, f in zip(flat, factors):
            row[...] = f
        ids = flat.reshape(len(factors), -1)
        keys = np.empty(ids.shape[1], dtype=np.int64)
        step = _slice(self._l_lead[0].size)
        for lo in range(0, keys.size, step):
            lead = self._l_lead[ids[:, lo:lo + step]]
            prod = lead[0] @ lead[1]
            if c is not None:
                prod = prod % self.spec.p @ lead[2]
            keys[lo:lo + step] = pack(prod[:, self._l_rows, self._l_cols], self.spec.p)
        return self._l_lookup(keys).reshape(flat.shape[1:])

    def conjL(self, a, b):
        """Ids of L[a] L[b] L[a]^-1, elementwise over broadcast Levi id arrays."""
        return self.mulL(a, b, self.invL[a])

    @world_table
    def field(self):
        """Q(zeta_M), M = spec.field_order()."""
        return CycField(self.spec.field_order())

    @world_table
    def invL(self):
        """Isometries invert by the dagger."""
        return self.l_ids(self.spec.dagger(self.L)).astype(np.int32)

    def mulU(self, a, b):
        """Ids of U[a] U[b], elementwise over broadcast radical id arrays
        (u_ids reduces the products mod p)."""
        return self.u_ids(self.U[np.asarray(a)] @ self.U[np.asarray(b)])

    def generated(self, basis, name, where=None):
        """Sorted radical ids of the Cayley image of the span of `basis` (rows
        of root coordinates) and at, at[i, k] the position among them of
        member i times T[k], T the Cayley images of the rows.  Right
        multiplication by T must keep the set and reach all of it from 1, so
        the set is <T>; else FalsificationError names the subgroup.  Once the
        set is closed, each column of at permutes it, and <T> is the whole set
        iff those permutations have one orbit.  The products are taken at
        most _BLOCK matrix entries per mulU call.

        Memoized per basis, read-only: forms with one annihilator subalgebra
        share its subgroup.  A failure stores nothing, so every failing
        caller reports its own `name` and `where`."""
        where = {"subgroup": name, **(where or {})}
        basis = np.asarray(basis, dtype=np.int64)

        def build():
            members = sorted_unique(self.pack_u(enumerate_subspace(basis, self.spec.p)))
            gens = self.pack_u(basis)
            step = _slice(gens.size * self.spec.N ** 2)
            prods = np.concatenate([self.mulU(members[lo:lo + step, None], gens[None, :])
                                    for lo in range(0, members.size, step)])
            at = np.searchsorted(members, prods).clip(max=members.size - 1)
            if (members[at] != prods).any():
                raise FalsificationError("%s is not closed under products" % name, where)
            if partition_by_perms(members.size, list(at.T))[0].any():
                raise FalsificationError("the Cayley images of a basis do not generate " + name,
                                         where)
            return read_only(members, at)
        return self.memo(("generated", basis.shape, basis.tobytes()), build)

    @world_table
    def U_times_basis(self):
        """(nU, u_dim) ids of U[u] times the Cayley image of root-basis vector t;
        building it checks that these images generate U."""
        return self.generated(np.eye(self.spec.u_dim), "U")[1]

    @world_table
    def invU(self):
        """f(g^-1) = -f(g), and an id is the packed coordinates of f."""
        return self.pack_u(-self.u_digits(np.arange(self.nU))).astype(np.int32)

    @world_table
    def conjUbyL(self):
        """conjUbyL[r, u] = index of L[r] U[u] L[r]^-1: an id packs the coordinates
        of f(U[u]), and f(1+x) = x sum_k (-x/2)^k is a power series in x, so
        f(l v l^-1) = l f(v) l-dagger, the image of u under l acting on u."""
        return self.action("u", "L").images(np.arange(self.nU)).astype(np.int32)

    # -- the group G as packed pair ids --------------------------------------

    @property
    def g_size(self):
        return self.nL * self.nU

    @property
    def g_ident(self):
        return self.idL * self.nU + 0

    def g_matrix(self, gid):
        r, u = divmod(int(gid), self.nU)
        return self.L[r] @ self.U[u] % self.spec.p

    @world_table
    def levi_generator_conjugates(self):
        """Greedy generators s of L and the ids of s x s^-1, a row per s, for all x."""
        gens = np.array(table_generators(np.arange(self.nL), self.idL, self.mulL), dtype=np.int64)
        return gens, self.conjL(gens[:, None], np.arange(self.nL)[None, :])

    def levi_conj_perms(self):
        """The permutations of G's packed ids by conjugation with each Levi
        generator s: r u maps to (s r s^-1)(s u s^-1)."""
        gens, rows = self.levi_generator_conjugates
        return [(row[:, None] * self.nU + self.conjUbyL[s]).ravel() for s, row in zip(gens, rows)]

    @world_table
    def g_classes(self):
        """Conjugacy classes of G: (class_of array, list of member arrays).
        A Levi generator s maps r u to (s r s^-1)(s u s^-1), a radical one v
        to r (r^-1 v r) u v^-1: one batched product per distinct r^-1 v r."""
        self.U_times_basis                # checks that the v generate U
        perms = self.levi_conj_perms()
        ar = np.arange(self.nU)
        for v in self.pack_u(np.eye(self.spec.u_dim)):
            w = self.conjUbyL[self.invL, v]               # r^-1 v r for each r
            right = {x: self.mulU(self.mulU(x, ar), self.invU[v]) for x in sorted_unique(w)}
            perms.append(np.concatenate([r * self.nU + right[x] for r, x in enumerate(w)]))
        return partition_by_perms(self.g_size, perms)

    @world_table
    def u_group_classes(self):
        """Conjugacy classes of the radical U."""
        self.U_times_basis                # checks that the v generate U
        perms = [self.mulU(self.mulU(v, np.arange(self.nU)), self.invU[v])
                 for v in self.pack_u(np.eye(self.spec.u_dim))]
        return partition_by_perms(self.nU, perms)


def _checked(stack, ids, mats, name):
    """ids, after checking that stack[ids] reproduces the looked-up matrices."""
    if not np.array_equal(stack[ids], mats):
        raise ValidationError("not-in-group", "matrix is not an element of %s" % name)
    return ids


def table_generators(elements, ident, mul):
    """Greedy generators of the sorted ids `elements`, mul(a, b) the ids of
    products over broadcast id arrays: each is the least element outside the
    group the previous ones generate (their closure under right
    multiplication), until that group holds all of `elements`."""
    gens = []
    members = np.array([ident], dtype=np.int64)
    while True:
        outside = elements[~sorted_isin(elements, members)]
        if not outside.size:
            return gens
        gens.append(int(outside[0]))
        members = _bfs(np.append(members, gens[-1]),
                       lambda pts: mul(pts[:, None], np.array(gens)[None, :]), len(gens))


def first_moved_by_conjugation(world, acting, points, key=None):
    """The first (s, x) in row-major order over the sorted Levi ids `acting`
    and `points` whose conjugate s x s^-1 leaves `points` or, with `key` (an
    array indexed by Levi id), changes key; or None.  Rows are all of
    `acting` or its greedy generators (`table_generators`, memoized per set):
    an s before the first generator that moves a point lies in the group the
    earlier ones generate, which maps `points` onto itself and keeps `key`."""
    acting = np.asarray(acting, dtype=np.int64)
    points = np.asarray(points, dtype=np.int64)
    code = np.zeros(world.nL, dtype=np.int64) if key is None else 2 * np.asarray(key, np.int64)
    code[points] += 1
    if acting.size == world.nL:
        rows, conj = world.levi_generator_conjugates
        conj = conj[:, points]
    else:
        # finding generators costs a product per closure layer.  Scan against
        # generators on the forms of the normality lemma (2-core x86 host):
        # 256 pairs 0.11-0.13 ms against 0.31-0.44 ms, 2,304 pairs 0.44 ms
        # against 0.41 ms, 9,216 pairs 6.6 ms against 1.8 ms; on C3 q=3
        # blocks 3, scanning its forms of 2,049-4,096 pairs costs 152 ms more
        rows = acting
        if acting.size * points.size > 1 << 11:
            rows = world.memo(("levi_generators", acting.tobytes()), lambda: np.array(
                table_generators(acting, world.idL, world.mulL), dtype=np.int64))
        conj = world.conjL(rows[:, None], points[None, :])
    hit = np.flatnonzero(code[conj] != code[points])
    if not hit.size:
        return None
    return int(rows[hit[0] // points.size]), int(points[hit[0] % points.size])
