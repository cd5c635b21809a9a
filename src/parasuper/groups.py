"""Classical group data over odd prime fields.

Builds a validated group configuration (family B/C/D, rank, prime, symmetric
block decomposition), the signed-index matrix algebra with its dagger
involution, positive roots and the basis of the nilpotent Lie algebra u,
the Levi subgroup L, the unipotent radical U via the Springer (Cayley)
bijection, generator sets for the ambient block groups, and an indexed
"world" object holding the multiplication/conjugation tables that the orbit
and character machinery runs on.

Matrices are immutable tuples of tuples of ints mod p, indexed by array
position; the configuration object translates between signed labels and
positions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import CycField, is_odd_prime, lcm, primitive_root, smallest_nonsquare
from .errors import ResourceGuardError, ValidationError
from .orbits import partition_by_perms

DEFAULT_GUARDS = {
    "levi": 10 ** 6,      # upper bound on |L|
    "space": 10 ** 7,     # upper bound on enumerated coordinate spaces
    "middle": 3,          # largest middle block enumerated by brute force
    "chartab": 2000,      # largest group handed to the character-table code
    "tables": 4096,       # largest radical indexed with dense id tables
}


# ---------------------------------------------------------------------------
# matrix helpers

def identity(N):
    return tuple(tuple(1 if i == j else 0 for j in range(N)) for i in range(N))


def mat_mul(a, b, p):
    N = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(N)) % p for cb in bt) for ra in a
    )


def mat_add(a, b, p):
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b, p):
    return tuple(tuple((x - y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a, p):
    return tuple(tuple((-x) % p for x in ra) for ra in a)


def mat_scale(a, c, p):
    return tuple(tuple((c * x) % p for x in ra) for ra in a)


def mat_inv(a, p):
    return linalg.mat_inv(a, p)


def mat_order(a, p):
    """Multiplicative order of an invertible matrix."""
    N = len(a)
    e = identity(N)
    x = a
    k = 1
    while x != e:
        x = mat_mul(x, a, p)
        k += 1
        if k > p ** (N * N):
            raise RuntimeError("order loop did not terminate")
    return k


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

        # consecutive segments I_k, k = ell .. -ell
        segments = {}
        cursor = 0
        for off, size in enumerate(blocks):
            k = self.ell - off
            segments[k] = tuple(self.labels[cursor:cursor + size])
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
        self.uc_index = {pos: t for t, pos in enumerate(self.uc_positions)}
        self.uc_dim = len(self.uc_positions)
        self.u_dim = len(self.roots_u)
        self.root_index = {(r.i, r.j): t for t, r in enumerate(self.roots_u)}

    # -- involution ---------------------------------------------------------

    def sign(self, label):
        if self.family == "C":
            return 1 if label > 0 else -1
        return 1

    def dagger(self, X):
        """The involutive antiautomorphism defining the classical group."""
        p = self.p
        out = []
        for i in self.labels:
            row = []
            si = self.sign(i)
            for j in self.labels:
                v = X[self.pos[-j]][self.pos[-i]]
                row.append((si * self.sign(j) * v) % p)
            out.append(tuple(row))
        return tuple(out)

    def is_isometry(self, g):
        return mat_mul(self.dagger(g), g, self.p) == identity(self.N)

    # -- roots and bases ----------------------------------------------------

    def _positive_root_pairs(self):
        out = []
        for i in self.labels:
            for j in self.labels:
                if i <= j:
                    continue
                if self.family == "B" and j > -i:
                    out.append((i, j))
                elif self.family == "C" and j >= -i:
                    out.append((i, j))
                elif self.family == "D" and j > -i:
                    out.append((i, j))
        out.sort(key=lambda ij: (self.pos[ij[0]], self.pos[ij[1]]))
        return out

    def _init_roots(self):
        roots = []
        for (i, j) in self._positive_root_pairs():
            mirror = (-j, -i)
            if mirror == (i, j):
                eps = 0
                m = self.E(i, j)
                assert self.dagger(m) == mat_neg(m, self.p), "self-mirrored root not anti-fixed"
            else:
                eps = None
                for cand in (1, -1):
                    m = mat_add(self.E(i, j), mat_scale(self.E(*mirror), cand % self.p, self.p), self.p)
                    if self.dagger(m) == mat_neg(m, self.p):
                        assert eps is None, "ambiguous sign for root %r" % ((i, j),)
                        eps = cand
                if eps is None:
                    raise RuntimeError("no sign solves anti-invariance for root %r; "
                                       "involution is inconsistent" % ((i, j),))
            crossing = self.block_of[i] > self.block_of[j]
            roots.append(Root(i, j, mirror, self.block_of[i], self.block_of[j], eps, crossing))
        self.roots = tuple(roots)
        self.roots_u = tuple(r for r in roots if r.crossing)

    def E(self, i, j):
        """Matrix unit at signed position (i, j)."""
        ri, cj = self.pos[i], self.pos[j]
        return tuple(
            tuple(1 if (a == ri and b == cj) else 0 for b in range(self.N))
            for a in range(self.N)
        )

    def root_matrix(self, root):
        m = self.E(root.i, root.j)
        if root.eps:
            m = mat_add(m, mat_scale(self.E(*root.mirror), root.eps % self.p, self.p), self.p)
        return m

    # -- coordinates --------------------------------------------------------

    def u_coords(self, X, check=True):
        """Coordinates of an ambient matrix of u in the root basis."""
        vec = tuple(X[self.pos[r.i]][self.pos[r.j]] for r in self.roots_u)
        if check:
            if self.mat_of_u(vec) != X:
                raise ValidationError("not-in-u", "matrix is not in the Lie algebra u")
        return vec

    def mat_of_u(self, coords):
        p = self.p
        out = [[0] * self.N for _ in range(self.N)]
        for c, r in zip(coords, self.roots_u):
            if c % p:
                out[self.pos[r.i]][self.pos[r.j]] = c % p
                if r.eps:
                    out[self.pos[r.mirror[0]]][self.pos[r.mirror[1]]] = (c * r.eps) % p
        return tuple(tuple(row) for row in out)

    def uc_coords(self, X, check=True):
        vec = tuple(X[self.pos[i]][self.pos[j]] for (i, j) in self.uc_positions)
        if check and self.mat_of_uc(vec) != X:
            raise ValidationError("not-in-uc", "matrix is not block strictly upper triangular")
        return vec

    def mat_of_uc(self, coords):
        out = [[0] * self.N for _ in range(self.N)]
        for c, (i, j) in zip(coords, self.uc_positions):
            out[self.pos[i]][self.pos[j]] = c % self.p
        return tuple(tuple(row) for row in out)

    def u_embed_matrix(self):
        """Columns express the root basis of u in Uc coordinates."""
        cols = [self.uc_coords(self.root_matrix(r), check=False) for r in self.roots_u]
        return [[cols[t][c] for t in range(self.u_dim)] for c in range(self.uc_dim)]

    def hc_positions(self):
        """Positions of the row-restricted ideal: block-crossing with row block >= 0."""
        return tuple(pos for pos in self.uc_positions if self.block_of[pos[0]] >= 0)

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


def build_spec(family, n, q, blocks, delta=None):
    """Validate a configuration and derive all index data."""
    if family not in ("B", "C", "D"):
        raise ValidationError("family", "family must be one of B, C, D, got %r" % (family,))
    if n < 1:
        raise ValidationError("rank", "rank n must be >= 1, got %r" % (n,))
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
    if delta is not None:
        delta = int(delta) % q
        if delta in {(i * i) % q for i in range(1, q)} or delta == 0:
            raise ValidationError("delta-not-nonsquare", "%r is a square mod %d" % (delta, q))
    return GroupSpec(family, n, q, blocks, delta)


# ---------------------------------------------------------------------------
# Springer map (Cayley transform)

def springer_map(spec, g):
    """Bijection Ub -> Uc, here the Cayley map f(1+x) = 2x (x+2)^(-1)."""
    p = spec.p
    x = mat_sub(g, identity(spec.N), p)
    if spec.mat_of_uc(spec.uc_coords(x, check=False)) != x:
        raise ValidationError("not-unipotent", "argument is not block unipotent upper triangular")
    two = mat_scale(identity(spec.N), 2, p)
    return mat_mul(mat_scale(x, 2, p), mat_inv(mat_add(x, two, p), p), p)


def springer_inv(spec, y):
    """Inverse Cayley map: y in Uc maps to 1 + (2-y)^(-1) 2y in Ub."""
    p = spec.p
    if spec.mat_of_uc(spec.uc_coords(y, check=False)) != y:
        raise ValidationError("not-in-uc", "argument is not in the nilpotent algebra")
    two = mat_scale(identity(spec.N), 2, p)
    x = mat_mul(mat_inv(mat_sub(two, y, p), p), mat_scale(y, 2, p), p)
    return mat_add(identity(spec.N), x, p)


# ---------------------------------------------------------------------------
# enumerations

def gl_order(n, q):
    o = 1
    for i in range(n):
        o *= q ** n - q ** i
    return o


def enumerate_gl(n, q):
    """All invertible n x n matrices over F_q, in lexicographic entry order."""
    out = []
    for entries in itertools.product(range(q), repeat=n * n):
        m = tuple(tuple(entries[r * n:(r + 1) * n]) for r in range(n))
        try:
            linalg.mat_inv(m, q)
        except ValueError:
            continue
        out.append(m)
    return out


def _embed_block(spec, mat, k):
    """Ambient matrix with `mat` at block I_k and identity elsewhere."""
    out = [[1 if i == j else 0 for j in range(spec.N)] for i in range(spec.N)]
    labs = spec.segments[k]
    for a, la in enumerate(labs):
        for b, lb in enumerate(labs):
            out[spec.pos[la]][spec.pos[lb]] = mat[a][b]
    return tuple(tuple(r) for r in out)


def _extract_block(spec, X, k):
    labs = spec.segments[k]
    return tuple(tuple(X[spec.pos[la]][spec.pos[lb]] for lb in labs) for la in labs)


def enumerate_middle(spec, guard_middle):
    """Elements M of the middle block with M-dagger M = 1 (so M is invertible),
    in lexicographic entry order, tested as one batch of all q^(n0^2) matrices.
    The middle labels are symmetric, so M-dagger[a][b] = s_a s_b M[-b][-a]."""
    n0 = len(spec.segments.get(0, ()))
    if n0 == 0:
        return [()]
    if n0 > guard_middle:
        raise ResourceGuardError("middle block size %d exceeds guard %d" % (n0, guard_middle))
    q = spec.p
    codes = np.arange(q ** (n0 * n0), dtype=np.int64)
    shifts = q ** np.arange(n0 * n0 - 1, -1, -1, dtype=np.int64)
    mats = ((codes[:, None] // shifts[None, :]) % q).reshape(-1, n0, n0)
    signs = np.array([spec.sign(lab) for lab in spec.segments[0]], dtype=np.int64)
    dag = signs[:, None] * signs[None, :] * mats[:, ::-1, ::-1].transpose(0, 2, 1)
    keep = ((dag @ mats) % q == np.eye(n0, dtype=np.int64)).all(axis=(1, 2))
    return [tuple(map(tuple, m)) for m in mats[keep].tolist()]


def enumerate_levi(spec, guard=None, guard_middle=None):
    """The full Levi subgroup L, enumerated deterministically.

    Positive-side blocks range over GL(n_k, q); the mirrored block is forced
    by the isometry condition; the middle block is one batched isometry test.
    """
    guard = DEFAULT_GUARDS["levi"] if guard is None else guard
    guard_middle = DEFAULT_GUARDS["middle"] if guard_middle is None else guard_middle
    q = spec.p
    bound = 1
    for k in range(1, spec.ell + 1):
        bound *= gl_order(len(spec.segments[k]), q)
    n0 = len(spec.segments.get(0, ()))
    if n0:
        bound *= gl_order(n0, q)
    if bound > guard:
        raise ResourceGuardError("Levi bound %d exceeds guard %d" % (bound, guard))

    middles = enumerate_middle(spec, guard_middle)
    side_lists = []
    for k in range(spec.ell, 0, -1):
        side_lists.append(enumerate_gl(len(spec.segments[k]), q))
    out = []
    for sides in itertools.product(*side_lists):
        base = [[0] * spec.N for _ in range(spec.N)]
        for idx, k in enumerate(range(spec.ell, 0, -1)):
            a_k = sides[idx]
            labs = spec.segments[k]
            for a, la in enumerate(labs):
                for b, lb in enumerate(labs):
                    base[spec.pos[la]][spec.pos[lb]] = a_k[a][b]
            # mirrored block forced: A_{-k} = dagger(A_k^{-1}) restricted to I_{-k}
            inv_emb = _embed_block(spec, linalg.mat_inv(a_k, q), k)
            forced = _extract_block(spec, spec.dagger(inv_emb), -k)
            labs_m = spec.segments[-k]
            for a, la in enumerate(labs_m):
                for b, lb in enumerate(labs_m):
                    base[spec.pos[la]][spec.pos[lb]] = forced[a][b]
        for mid in middles:
            g = [row[:] for row in base]
            if mid:
                labs = spec.segments[0]
                for a, la in enumerate(labs):
                    for b, lb in enumerate(labs):
                        g[spec.pos[la]][spec.pos[lb]] = mid[a][b]
            gt = tuple(tuple(r) for r in g)
            assert spec.is_isometry(gt), "constructed Levi element is not an isometry"
            out.append(gt)
    return out


def subgroup_generators(spec, tag):
    """Generating sets: 'Ub' and 'Hb' elementary, 'Lb' per-block GL, 'L' the full list."""
    p = spec.p
    one = identity(spec.N)
    if tag == "Ub":
        return [mat_add(one, spec.E(i, j), p) for (i, j) in spec.uc_positions]
    if tag == "Hb":
        return [mat_add(one, spec.E(i, j), p) for (i, j) in spec.hc_positions()]
    if tag == "Lb":
        gens = []
        g0 = primitive_root(p)
        for k in sorted(spec.segments, reverse=True):
            labs = spec.segments[k]
            if not labs:
                continue
            dil = [[1 if i == j else 0 for j in range(spec.N)] for i in range(spec.N)]
            dil[spec.pos[labs[0]]][spec.pos[labs[0]]] = g0
            gens.append(tuple(tuple(r) for r in dil))
            for a in labs:
                for b in labs:
                    if a != b:
                        gens.append(mat_add(one, spec.E(a, b), p))
        return gens
    if tag == "L":
        return enumerate_levi(spec)
    raise ValidationError("tag", "unknown generator tag %r" % (tag,))


def gb_generators(spec):
    """Generators of the ambient parabolic: Levi block GL's plus the radical."""
    return subgroup_generators(spec, "Lb") + subgroup_generators(spec, "Ub")


# ---------------------------------------------------------------------------
# action matrices (all linear maps given on coordinates)

def _map_matrix_u(spec, fn):
    cols = []
    for r in spec.roots_u:
        img = fn(spec.root_matrix(r))
        cols.append(spec.u_coords(img))
    d = spec.u_dim
    return np.array([[cols[c][r] for c in range(d)] for r in range(d)], dtype=np.int64)


def _map_matrix_uc(spec, fn):
    cols = []
    for (i, j) in spec.uc_positions:
        img = fn(spec.E(i, j))
        cols.append(spec.uc_coords(img, check=False))
    d = spec.uc_dim
    return np.array([[cols[c][r] for c in range(d)] for r in range(d)], dtype=np.int64)


def u_action_matrix(spec, g):
    """Dot action x -> g x g-dagger on u, as a matrix on root coordinates."""
    gd = spec.dagger(g)
    return _map_matrix_u(spec, lambda m: mat_mul(mat_mul(g, m, spec.p), gd, spec.p))


def ustar_action_matrix(spec, g):
    """Dot action on forms: (g . lam)(x) = lam(g-dagger x g)."""
    gd = spec.dagger(g)
    m = _map_matrix_u(spec, lambda x: mat_mul(mat_mul(gd, x, spec.p), g, spec.p))
    return m.T.copy()


def ucstar_left_matrix(spec, a):
    """(a Lam)(x) = Lam(x a) on forms over Uc."""
    m = _map_matrix_uc(spec, lambda x: mat_mul(x, a, spec.p))
    return m.T.copy()


def ucstar_right_matrix(spec, a):
    """(Lam a)(x) = Lam(a x) on forms over Uc."""
    m = _map_matrix_uc(spec, lambda x: mat_mul(a, x, spec.p))
    return m.T.copy()


def ucstar_ad_matrix(spec, h):
    """Coadjoint action of h on forms over Uc: Lam -> Lam o Ad_(h^-1)."""
    hi = mat_inv(h, spec.p)
    m = _map_matrix_uc(spec, lambda x: mat_mul(mat_mul(hi, x, spec.p), h, spec.p))
    return m.T.copy()


# ---------------------------------------------------------------------------
# the assembled world

class Parabolic:
    """One fully enumerated configuration: L, U, index tables, value field.

    Elements of G = L U are addressed as packed ids r * |U| + u; the id of a
    radical element doubles as the packed coordinate vector of its Springer
    image, so evaluating f costs nothing.
    """

    def __init__(self, spec, guards=None):
        self.spec = spec
        self.guards = dict(DEFAULT_GUARDS)
        if guards:
            self.guards.update(guards)
        p = spec.p

        self.L = enumerate_levi(spec, self.guards["levi"], self.guards["middle"])
        self.Lindex = {m: i for i, m in enumerate(self.L)}
        self.idL = self.Lindex[identity(spec.N)]
        self.nL = len(self.L)

        self.u_size = p ** spec.u_dim
        if self.u_size > self.guards["space"]:
            raise ResourceGuardError("|u| = %d exceeds space guard" % self.u_size)
        self.u_powers = np.array([p ** t for t in range(spec.u_dim)], dtype=np.int64)
        self.U = [springer_inv(spec, spec.mat_of_u(self.unpack_u(k))) for k in range(self.u_size)]
        for g in self.U:
            if not spec.is_isometry(g):
                raise RuntimeError("Springer preimage of a u-point is not in the group")
        self.Uindex = {m: i for i, m in enumerate(self.U)}
        self.nU = self.u_size

        orders = sorted({mat_order(g, p) for g in self.L})
        exp_l = 1
        for o in orders:
            exp_l = lcm(exp_l, o)
        self.exponent_L = exp_l
        self.field = CycField(lcm(p, exp_l))

    # -- u-coordinate packing ------------------------------------------------

    def unpack_u(self, k):
        p = self.spec.p
        return tuple((k // p ** t) % p for t in range(self.spec.u_dim))

    def pack_u(self, coords):
        p = self.spec.p
        k = 0
        for t, c in enumerate(coords):
            k += (c % p) * p ** t
        return k

    def u_digits(self, pts):
        """Coordinate matrix (len(pts) x u_dim) of packed u points."""
        pts = np.asarray(pts, dtype=np.int64)
        return (pts[:, None] // self.u_powers[None, :]) % self.spec.p

    def pack_u_array(self, digits):
        return (np.asarray(digits, dtype=np.int64) % self.spec.p) @ self.u_powers

    # -- index tables --------------------------------------------------------

    @cached_property
    def mulL(self):
        t = np.empty((self.nL, self.nL), dtype=np.int32)
        for a, ga in enumerate(self.L):
            for b, gb in enumerate(self.L):
                t[a, b] = self.Lindex[mat_mul(ga, gb, self.spec.p)]
        return t

    @cached_property
    def invL(self):
        t = np.empty(self.nL, dtype=np.int32)
        for a in range(self.nL):
            t[a] = int(np.where(self.mulL[a] == self.idL)[0][0])
        return t

    @cached_property
    def conjL(self):
        """conjL[a, b] = index of L[a] L[b] L[a]^-1."""
        m, inv = self.mulL, self.invL
        return np.array(
            [[m[m[a, b], inv[a]] for b in range(self.nL)] for a in range(self.nL)],
            dtype=np.int32)

    @cached_property
    def _U_array(self):
        return np.array(self.U, dtype=np.int64)

    def _keys_to_u_ids(self, keys):
        lookup = self._u_key_lookup
        out = np.array([lookup[int(k)] for k in keys.ravel()], dtype=np.int32)
        return out.reshape(keys.shape)

    @cached_property
    def _u_key_lookup(self):
        p = self.spec.p
        N = self.spec.N
        pw = p ** np.arange(N * N - 1, -1, -1, dtype=np.int64)
        keys = self._U_array.reshape(self.nU, -1) @ pw
        return {int(k): i for i, k in enumerate(keys)}

    def _mat_batch_ids(self, mats):
        """Map an array (m, N, N) of matrices to U ids; raises if any is missing."""
        p = self.spec.p
        N = self.spec.N
        pw = p ** np.arange(N * N - 1, -1, -1, dtype=np.int64)
        keys = mats.reshape(mats.shape[0], -1) @ pw
        return self._keys_to_u_ids(keys)

    @cached_property
    def mulU(self):
        if self.nU > self.guards["tables"]:
            raise ResourceGuardError(
                "radical of size %d exceeds the id-table guard %d"
                % (self.nU, self.guards["tables"]))
        p = self.spec.p
        arr = self._U_array
        t = np.empty((self.nU, self.nU), dtype=np.int32)
        for a in range(self.nU):
            prod = np.matmul(arr[a], arr) % p
            t[a] = self._mat_batch_ids(prod)
        return t

    @cached_property
    def invU(self):
        t = np.empty(self.nU, dtype=np.int32)
        for a in range(self.nU):
            t[a] = int(np.where(self.mulU[a] == 0)[0][0])
        return t

    @cached_property
    def conjUbyL(self):
        """conjUbyL[r, u] = index of L[r] U[u] L[r]^-1."""
        p = self.spec.p
        arr = self._U_array
        t = np.empty((self.nL, self.nU), dtype=np.int32)
        for r, h in enumerate(self.L):
            hn = np.array(h, dtype=np.int64)
            hi = np.array(mat_inv(h, p), dtype=np.int64)
            prod = np.matmul(np.matmul(hn, arr), hi) % p
            t[r] = self._mat_batch_ids(prod)
        return t

    # -- the group G as packed pair ids --------------------------------------

    @property
    def g_size(self):
        return self.nL * self.nU

    @property
    def g_ident(self):
        return self.idL * self.nU + 0

    def g_pairs(self):
        """(r ids, u ids) of every element of G in packed order."""
        r = np.repeat(np.arange(self.nL, dtype=np.int32), self.nU)
        u = np.tile(np.arange(self.nU, dtype=np.int32), self.nL)
        return r, u

    def g_matrix(self, gid):
        r, u = divmod(int(gid), self.nU)
        return mat_mul(self.L[r], self.U[u], self.spec.p)

    def locate(self, g):
        """Split g in G as (r_idx, u_idx), or None if g is not in G."""
        spec = self.spec
        diag = [[0] * spec.N for _ in range(spec.N)]
        for i in spec.labels:
            for j in spec.labels:
                if spec.block_of[i] == spec.block_of[j]:
                    diag[spec.pos[i]][spec.pos[j]] = g[spec.pos[i]][spec.pos[j]]
        r = tuple(tuple(row) for row in diag)
        if r not in self.Lindex:
            return None
        u = mat_mul(mat_inv(r, spec.p), g, spec.p)
        if u not in self.Uindex:
            return None
        return self.Lindex[r], self.Uindex[u]

    def g_conj_perm(self, sr, su):
        """Permutation g -> s g s^-1 of packed G ids, s = (sr, su)."""
        mulL, invL, mulU, cU = self.mulL, self.invL, self.mulU, self.conjUbyL
        rr, uu = self.g_pairs()
        si = int(invL[sr])
        w = int(self.invU[cU[sr, su]])
        t1 = cU[invL[rr], su]
        t2 = mulU[t1, uu]
        a = mulL[sr][rr]
        b = mulU[cU[sr, t2], w]
        r_new = mulL[a, si]
        return r_new.astype(np.int64) * self.nU + b

    @cached_property
    def L_generator_ids(self):
        return table_generators(self.mulL, self.idL)

    @cached_property
    def U_generator_ids(self):
        return table_generators(self.mulU, 0)

    @cached_property
    def g_classes(self):
        """Conjugacy classes of G: (class_of array, list of member arrays)."""
        perms = [self.g_conj_perm(s, 0) for s in self.L_generator_ids]
        perms += [self.g_conj_perm(self.idL, v) for v in self.U_generator_ids]
        return partition_by_perms(self.g_size, perms)

    @cached_property
    def u_group_classes(self):
        """Conjugacy classes of the radical U."""
        perms = []
        ar = np.arange(self.nU, dtype=np.int32)
        for v in self.U_generator_ids:
            perms.append(self.mulU[self.mulU[v, ar], self.invU[v]].astype(np.int64))
        return partition_by_perms(self.nU, perms)

    # -- Levi action matrices -------------------------------------------------

    @cached_property
    def ustar_levi_mats(self):
        """(nL, d, d) stack of the dot action of each Levi element on u*."""
        return np.array([ustar_action_matrix(self.spec, h) for h in self.L], dtype=np.int64)

    @cached_property
    def ucstar_levi_mats(self):
        """(nL, d, d) stack of the coadjoint action of each Levi element on Uc*."""
        return np.array([ucstar_ad_matrix(self.spec, h) for h in self.L], dtype=np.int64)


def table_generators(mul, ident):
    """Greedy generating set of a multiplication-table group."""
    n = mul.shape[0]
    gens = []
    closure = {int(ident)}
    for x in range(n):
        if x in closure:
            continue
        gens.append(x)
        frontier = list(closure | {x})
        closure.add(x)
        while frontier:
            nxt = []
            for a in list(closure):
                for b in frontier:
                    c = int(mul[a, b])
                    if c not in closure:
                        closure.add(c)
                        nxt.append(c)
                    c = int(mul[b, a])
                    if c not in closure:
                        closure.add(c)
                        nxt.append(c)
            frontier = nxt
        if len(closure) == n:
            break
    return gens
