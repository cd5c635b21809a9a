"""Character theory of the small auxiliary groups.

Groups here are indexed multiplication tables (the Levi factor and its
subgroups, never the parabolic itself).  Irreducible characters come from
the homomorphism construction for abelian groups and from Dixon-Burnside
for the rest: the commuting class-sum matrices are simultaneously
diagonalized over a finite field F_ell with ell = 1 mod exponent, and the
eigenvalue data is lifted to exact cyclotomic values via root-of-unity
multiplicities.  Both paths end in tables whose orthogonality relations are
asserted exactly before anything downstream may use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .algebra import is_odd_prime, lcm, primitive_root
from .errors import ValidationError
from .groups import table_generators
from .orbits import partition_by_perms


class TableGroup:
    """A finite group as an element list plus a multiplication table."""

    def __init__(self, elements, mul):
        self.elements = list(elements)
        self.n = len(self.elements)
        self.mul = np.asarray(mul, dtype=np.int32)
        ident = None
        for a in range(self.n):
            if all(int(self.mul[a, b]) == b for b in range(self.n)):
                ident = a
                break
        if ident is None:
            raise ValidationError("not-a-group", "multiplication table has no identity")
        self.ident = ident
        inv = np.full(self.n, -1, dtype=np.int32)
        for a in range(self.n):
            hits = np.where(self.mul[a] == ident)[0]
            if hits.size != 1:
                raise ValidationError("not-a-group", "element %d has no unique inverse" % a)
            inv[a] = hits[0]
        self.inv = inv

    @classmethod
    def from_elements(cls, elements, mul_fn):
        """Build from raw elements and a multiplication function; asserts closure."""
        index = {}
        for i, e in enumerate(elements):
            if e in index:
                raise ValidationError("not-a-group", "duplicate element at %d" % i)
            index[e] = i
        n = len(elements)
        table = np.empty((n, n), dtype=np.int32)
        for a in range(n):
            for b in range(n):
                prod = mul_fn(elements[a], elements[b])
                if prod not in index:
                    raise ValidationError("not-a-group", "product leaves the element list")
                table[a, b] = index[prod]
        return cls(elements, table)

    def subgroup(self, ids):
        """Sub-table on the given element ids; asserts closure."""
        ids = sorted(int(i) for i in ids)
        back = {g: t for t, g in enumerate(ids)}
        n = len(ids)
        table = np.empty((n, n), dtype=np.int32)
        for a in range(n):
            for b in range(n):
                prod = int(self.mul[ids[a], ids[b]])
                if prod not in back:
                    raise ValidationError("not-a-group", "subset is not closed under products")
                table[a, b] = back[prod]
        sub = TableGroup([self.elements[i] for i in ids], table)
        sub.parent_ids = ids
        return sub

    def order_of(self, a):
        x = int(a)
        k = 1
        while x != self.ident:
            x = int(self.mul[x, a])
            k += 1
        return k

    @property
    def exponent(self):
        e = 1
        for a in range(self.n):
            e = lcm(e, self.order_of(a))
        return e

    def is_abelian(self):
        return bool(np.array_equal(self.mul, self.mul.T))

    def generators(self):
        return table_generators(self.mul, self.ident)

    def conj_perm(self, s):
        """Permutation x -> s x s^-1."""
        ar = np.arange(self.n, dtype=np.int32)
        return self.mul[self.mul[s, ar], self.inv[s]].astype(np.int64)

    def power(self, a, k):
        x = self.ident
        for _ in range(k):
            x = int(self.mul[x, a])
        return x


@dataclass
class Classes:
    class_of: np.ndarray
    members: list            # list of sorted member arrays
    reps: list               # minimal member per class
    sizes: list
    inverse_class: list      # class index of rep^-1

    @property
    def k(self):
        return len(self.members)


def conjugacy_classes(group):
    """Partition of a TableGroup into conjugacy classes."""
    perms = [group.conj_perm(s) for s in group.generators()]
    if not perms:
        perms = [np.arange(group.n, dtype=np.int64)]
    class_of, members = partition_by_perms(group.n, perms)
    reps = [int(m[0]) for m in members]
    sizes = [int(m.size) for m in members]
    inverse_class = [int(class_of[group.inv[r]]) for r in reps]
    for s in sizes:
        assert group.n % s == 0, "class size must divide the group order"
    return Classes(class_of, members, reps, sizes, inverse_class)


@dataclass
class CharTable:
    group: TableGroup
    classes: Classes
    chars: list               # list of tuples of Cyc, one value per class
    field: object

    @property
    def degrees(self):
        idc = int(self.classes.class_of[self.group.ident])
        return [c[idc].as_int() for c in self.chars]


def inner_product_classes(classes, group_order, vals1, vals2):
    """(1/|G|) sum over G of v1 * conj(v2), via class sums; exact."""
    field = vals1[0].field
    acc = field.zero
    for c in range(classes.k):
        acc = acc + (vals1[c] * vals2[c].conjugate()).scale(classes.sizes[c])
    return acc.scale(Fraction(1, group_order))


def irr_characters(group, field, guard=2000):
    """Complete irreducible character table with exact cyclotomic values."""
    if group.n > guard:
        raise ValidationError("chartab-guard",
                              "group of order %d exceeds guard %d" % (group.n, guard))
    e = group.exponent
    if field.M % e:
        raise ValidationError("cyc-embed",
                              "field Q(zeta_%d) cannot hold values of exponent %d" % (field.M, e))
    classes = conjugacy_classes(group)
    if group.is_abelian():
        chars = _abelian_characters(group, classes, field)
    else:
        chars = _dixon_characters(group, classes, field)
    table = CharTable(group, classes, chars, field)
    _assert_orthogonality(table)
    return table


def _assert_orthogonality(table):
    classes, chars = table.classes, table.chars
    n = table.group.n
    field = table.field
    k = classes.k
    assert len(chars) == k, "character count %d differs from class count %d" % (len(chars), k)
    for i in range(k):
        for j in range(i, k):
            ip = inner_product_classes(classes, n, chars[i], chars[j])
            want = field.one if i == j else field.zero
            assert ip == want, "row orthogonality fails at (%d, %d): %r" % (i, j, ip)
    for ci in range(k):
        for cj in range(ci, k):
            acc = field.zero
            for ch in chars:
                acc = acc + ch[ci] * ch[cj].conjugate()
            if ci == cj:
                want = field.from_fraction(Fraction(n, classes.sizes[ci]))
            else:
                want = field.zero
            assert acc == want, "column orthogonality fails at (%d, %d)" % (ci, cj)
    assert sum(d * d for d in table.degrees) == n, "degree squares must sum to |G|"


# ---------------------------------------------------------------------------
# abelian groups: extend characters along a chain of cyclic extensions

def _abelian_characters(group, classes, field):
    e = group.exponent
    chars_exp = [{group.ident: 0}]                 # element id -> exponent of zeta_e
    covered = {group.ident}
    for x in range(group.n):
        if x in covered:
            continue
        # order of x modulo the subgroup covered so far
        t = 1
        xt = x
        while xt not in covered:
            xt = int(group.mul[xt, x])
            t += 1
        new_chars = []
        for chi in chars_exp:
            a0 = chi[xt]
            # x^t lies in the subgroup; its character exponent is divisible by t
            assert a0 % t == 0, "character extension is not solvable"
            b0 = a0 // t
            for j in range(t):
                b = (b0 + j * (e // t)) % e
                ext = dict(chi)
                powx = group.ident
                for a in range(1, t):
                    powx = int(group.mul[powx, x])
                    for h, v in chi.items():
                        ext[int(group.mul[powx, h])] = (a * b + v) % e
                new_chars.append(ext)
        chars_exp = new_chars
        newly = set()
        powx = group.ident
        for a in range(1, t):
            powx = int(group.mul[powx, x])
            for h in covered:
                newly.add(int(group.mul[powx, h]))
        covered |= newly
    assert len(covered) == group.n, "generator chain did not cover the group"
    assert len(chars_exp) == group.n, "abelian group must have |G| linear characters"
    out = []
    for chi in chars_exp:
        vals = tuple(field.root_of_unity(e, chi[r]) for r in classes.reps)
        out.append(vals)
    out.sort(key=lambda vals: tuple(v.coeffs for v in vals))
    return out


# ---------------------------------------------------------------------------
# Dixon-Burnside for nonabelian groups

def _next_prime_1_mod(e, floor):
    ell = max(floor, e + 1)
    ell += (1 - ell) % e
    while True:
        if ell > floor and is_odd_prime(ell):
            return ell
        ell += e


def _class_matrices(group, classes):
    """A_j[i, k] = #{(x, y) in C_i x C_j : x y = rep_k}."""
    k = classes.k
    mats = [np.zeros((k, k), dtype=np.int64) for _ in range(k)]
    for kk, z in enumerate(classes.reps):
        for i in range(k):
            for x in classes.members[i]:
                j = int(classes.class_of[group.mul[group.inv[x], z]])
                mats[j][i, kk] += 1
    return mats


def _charpoly_roots(B, ell):
    """Eigenvalues in F_ell of a square matrix over F_ell (all roots lie there)."""
    m = len(B)
    # characteristic polynomial by interpolation on m+1 points
    xs = list(range(m + 1))
    ys = []
    for x in xs:
        M = [[(B[i][j] - (x if i == j else 0)) % ell for j in range(m)] for i in range(m)]
        ys.append(linalg.det(M, ell))
    coeffs = _interpolate(xs, ys, ell)
    roots = [t for t in range(ell) if _poly_eval(coeffs, t, ell) == 0]
    return roots


def _interpolate(xs, ys, ell):
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
        # Lagrange basis polynomial for xs[i]
        num = [1]
        den = 1
        for j in range(n):
            if j == i:
                continue
            num = _poly_mul(num, [(-xs[j]) % ell, 1], ell)
            den = den * (xs[i] - xs[j]) % ell
        f = ys[i] * pow(den, ell - 2, ell) % ell
        for t, c in enumerate(num):
            coeffs[t] = (coeffs[t] + f * c) % ell
    return coeffs


def _poly_mul(a, b, ell):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % ell
    return out


def _poly_eval(coeffs, x, ell):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % ell
    return acc


def _dixon_characters(group, classes, field):
    n = group.n
    k = classes.k
    e = group.exponent
    ell = _next_prime_1_mod(e, 2 * n)
    g0 = primitive_root(ell)
    z = pow(g0, (ell - 1) // e, ell)          # fixed element of order e in F_ell

    mats = _class_matrices(group, classes)
    # simultaneously split F_ell^k into common eigenlines of the class matrices
    spaces = [[tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]]
    for A in mats:
        Alist = A.tolist()
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            B = _restrict(Alist, basis, ell)
            roots = _charpoly_roots(B, ell)
            for t in roots:
                shifted = [[(B[i][j] - (t if i == j else 0)) % ell
                            for j in range(len(B))] for i in range(len(B))]
                kern = linalg.right_kernel(shifted, ell, len(B))
                if kern:
                    sub = [_comb(basis, coeff, ell) for coeff in kern]
                    new_spaces.append(sub)
        spaces = new_spaces
        if all(len(b) == 1 for b in spaces):
            break
    assert all(len(b) == 1 for b in spaces) and len(spaces) == k, \
        "class-sum matrices did not split into %d common eigenlines" % k

    ident_class = int(classes.class_of[group.ident])
    chars = []
    for basis in spaces:
        v = list(basis[0])
        if v[ident_class] % ell == 0:
            raise AssertionError("eigenvector vanishes on the identity class")
        f = pow(v[ident_class], ell - 2, ell)
        omega = [x * f % ell for x in v]
        # 1/deg^2 = (1/n) sum_i omega_i omega_{i*} / |C_i|
        s = 0
        for i in range(k):
            s = (s + omega[i] * omega[classes.inverse_class[i]]
                 * pow(classes.sizes[i], ell - 2, ell)) % ell
        deg_sq = n * pow(s, ell - 2, ell) % ell
        deg = _int_sqrt_exact(deg_sq)
        assert deg * deg == deg_sq, "degree lift failed: %d is not a perfect square" % deg_sq
        chi_mod = [deg * omega[i] * pow(classes.sizes[i], ell - 2, ell) % ell for i in range(k)]
        vals = _lift_character(group, classes, chi_mod, deg, e, z, ell, field)
        chars.append(tuple(vals))
    chars.sort(key=lambda vals: (vals[ident_class].coeffs, tuple(v.coeffs for v in vals)))
    return chars


def _restrict(A, basis, ell):
    imgs = []
    for v in basis:
        img = [sum(A[i][j] * v[j] for j in range(len(v))) % ell for i in range(len(v))]
        coords = linalg.express(basis, img, ell)
        assert coords is not None, "subspace is not invariant"
        imgs.append(coords)
    m = len(basis)
    return [[imgs[c][r] % ell for c in range(m)] for r in range(m)]


def _comb(basis, coeff, ell):
    dim = len(basis[0])
    out = [0] * dim
    for c, v in zip(coeff, basis):
        if c:
            out = [(a + c * b) % ell for a, b in zip(out, v)]
    return tuple(out)


def _int_sqrt_exact(x):
    r = int(x ** 0.5)
    while r * r > x:
        r -= 1
    while (r + 1) * (r + 1) <= x:
        r += 1
    return r


def _lift_character(group, classes, chi_mod, deg, e, z, ell, field):
    """Lift per-class values mod ell to exact sums of roots of unity."""
    vals = []
    for c, rep in enumerate(classes.reps):
        o = group.order_of(rep)
        zo = pow(z, e // o, ell)
        # chi(rep^t) mod ell along the cyclic group generated by rep
        powers = []
        x = group.ident
        for t in range(o):
            powers.append(chi_mod[int(classes.class_of[x])])
            x = int(group.mul[x, rep])
        inv_o = pow(o, ell - 2, ell)
        acc = field.zero
        total = 0
        for j in range(o):
            m_j = 0
            for t in range(o):
                m_j = (m_j + powers[t] * pow(zo, (-j * t) % o, ell)) % ell
            m_j = m_j * inv_o % ell
            assert m_j <= deg, "multiplicity %d exceeds the degree %d" % (m_j, deg)
            total += m_j
            if m_j:
                acc = acc + field.root_of_unity(o, j).scale(m_j)
        assert total == deg, "eigenvalue multiplicities %d must sum to the degree %d" % (total, deg)
        vals.append(acc)
    return vals


# ---------------------------------------------------------------------------
# orbit sums

def s_orbit_sums(parent, sub_ids, table, s_ids):
    """Sum the irreducibles of a normal subgroup over the orbits of a
    conjugation action, one multiplicity-one class function per orbit.

    `parent` is the ambient TableGroup, `sub_ids` the parent ids of the
    subgroup whose CharTable is `table`, and `s_ids` the parent ids of the
    acting overgroup.  Also verifies the permutation-count identity: the
    number of orbit sums equals the number of orbits on conjugacy classes.
    """
    back = {g: t for t, g in enumerate(sub_ids)}
    sset = set(int(s) for s in s_ids)
    for g in sub_ids:
        if int(g) not in sset:
            raise ValidationError("not-normal", "subgroup is not inside the acting group")
    k = table.classes.k
    irr_index = {tuple(ch): i for i, ch in enumerate(table.chars)}

    irr_perms = []
    class_perms = []
    for s in s_ids:
        si = int(parent.inv[s])
        perm_cls = []
        for rep in table.classes.reps:
            moved = int(parent.mul[parent.mul[si, sub_ids[rep]], s])
            if moved not in back:
                raise ValidationError("not-normal",
                                      "conjugation leaves the subgroup; it is not normal")
            perm_cls.append(int(table.classes.class_of[back[moved]]))
        class_perms.append(perm_cls)
        perm_irr = []
        for ch in table.chars:
            moved_vals = tuple(ch[perm_cls[c]] for c in range(k))
            perm_irr.append(irr_index[moved_vals])
        irr_perms.append(perm_irr)

    irr_orbits = partition_by_perms(len(table.chars), [np.array(pm) for pm in irr_perms])[1]
    class_orbits = partition_by_perms(k, [np.array(pm) for pm in class_perms])[1]
    assert len(irr_orbits) == len(class_orbits), \
        "orbit counts on irreducibles (%d) and classes (%d) disagree" % (
            len(irr_orbits), len(class_orbits))

    sums = []
    for orb in irr_orbits:
        vals = table.chars[orb[0]]
        for i in orb[1:]:
            vals = tuple(a + b for a, b in zip(vals, table.chars[i]))
        sums.append(vals)
    sums.sort(key=lambda vals: tuple(v.coeffs for v in vals))
    return sums
