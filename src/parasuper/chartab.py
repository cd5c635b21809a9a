"""Character theory of the small auxiliary groups.

Groups here are indexed multiplication tables (Levi subgroups, read off
their products, never the parabolic itself).  Irreducible characters come from
the homomorphism construction for abelian groups and from Dixon-Schneider
for the rest (J. Dixon, Numer. Math. 10, 1967; G. Schneider, J. Symbolic
Comput. 9, 1990): the commuting class-sum matrices are simultaneously
diagonalized over a finite field F_ell with ell = 1 mod exponent, and the
eigenvalue data is lifted to exact cyclotomic values via root-of-unity
multiplicities.  Irreducible values are sums of roots of unity, so a table
is one int64 array of power-basis coefficients (chars, classes, dim).  Both
paths end in tables whose orthogonality relations are checked exactly, as
two integer Gram matrices, before anything downstream may use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt, lcm

import numpy as np

from . import linalg
from .algebra import integer_gram, next_prime_1_mod, primitive_root, serialize
from .errors import FalsificationError, ValidationError
from .groups import DEFAULT_GUARDS, table_generators
from .orbits import partition_by_perms, sorted_isin, sorted_unique


class TableGroup:
    """A finite group as an element list plus a multiplication table."""

    def __init__(self, elements, mul):
        self.elements = list(elements)
        self.n = len(self.elements)
        self.mul = np.asarray(mul, dtype=np.int32)
        left_ones = np.flatnonzero((self.mul == np.arange(self.n)).all(axis=1))
        if not left_ones.size:
            raise ValidationError("not-a-group", "multiplication table has no identity")
        self.ident = int(left_ones[0])
        hits = self.mul == self.ident
        bad = np.flatnonzero(np.count_nonzero(hits, axis=1) != 1)
        if bad.size:
            raise ValidationError("not-a-group", "element %d has no unique inverse" % bad[0])
        self.inv = hits.argmax(axis=1).astype(np.int32)

    @cached_property
    def orders(self):
        """The order of every element, from one power step for all at once."""
        ar = np.arange(self.n)
        order = np.zeros(self.n, dtype=np.int64)
        x = ar
        for k in range(1, self.n + 1):
            order[(x == self.ident) & (order == 0)] = k
            if order.all():
                return order
            x = self.mul[x, ar]
        raise ValidationError("not-a-group", "an element has no finite order")

    @cached_property
    def exponent(self):
        return lcm(*sorted_unique(self.orders).tolist())

    def is_abelian(self):
        return bool(np.array_equal(self.mul, self.mul.T))


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
    """Partition of a TableGroup into conjugacy classes, x -> s x s^-1 orbits."""
    ar = np.arange(group.n)
    gens = table_generators(ar, group.ident, lambda a, b: group.mul[a, b])
    perms = [group.mul[group.mul[s, ar], group.inv[s]].astype(np.int64) for s in gens]
    class_of, members = partition_by_perms(group.n, perms)
    reps = [int(m[0]) for m in members]
    sizes = [int(m.size) for m in members]
    inverse_class = [int(class_of[group.inv[r]]) for r in reps]
    for c, s in enumerate(sizes):
        if group.n % s:
            raise FalsificationError("class size does not divide the group order",
                                     {"class_rep": reps[c], "size": s, "order": group.n})
    return Classes(class_of, members, reps, sizes, inverse_class)


@dataclass
class CharTable:
    group: TableGroup
    classes: Classes
    chars: np.ndarray         # int64 (chars, classes, dim) power-basis coefficients
    field: object

    @property
    def degrees(self):
        idc = int(self.classes.class_of[self.group.ident])
        return [int(d) for d in self.chars[:, idc, 0]]


def check_chartab_guard(n, guard):
    """Exit 2 before a character table of a group of order n > guard."""
    if n > guard:
        raise ValidationError("chartab-guard", "group of order %d exceeds guard %d" % (n, guard))


def irr_characters(group, field, guard=DEFAULT_GUARDS["chartab"]):
    """Complete irreducible character table with exact cyclotomic values."""
    check_chartab_guard(group.n, guard)
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
    check_orthogonality(table)
    return table


def check_orthogonality(table):
    """Both orthogonality relations, exactly: for irreducibles i, j and
    classes a, b, sum_K |K| chi_i(K) conj(chi_j(K)) = |G| [i = j] and
    sum_chi chi(K_a) conj(chi(K_b)) = |G| / |K_a| [a = b].  At the identity
    class the second says that the degree squares sum to |G|.  A failure
    names the first failing pair (i <= j, or a <= b)."""
    X = table.chars
    sizes = table.classes.sizes
    n, k, field = table.group.n, table.classes.k, table.field
    if len(X) != k:
        raise FalsificationError("character count differs from class count",
                                 {"chars": len(X), "classes": k})
    diag = np.arange(k)
    want = np.zeros((k, k, field.dim), dtype=np.int64)
    want[diag, diag, 0] = n
    _first_mismatch(integer_gram(field, X, X, sizes), want, "rows")
    want[diag, diag, 0] = [n // s for s in sizes]
    Xt = X.transpose(1, 0, 2)
    _first_mismatch(integer_gram(field, Xt, Xt, [1] * len(X)), want, "columns")


def _first_mismatch(gram, want, what):
    bad = np.argwhere(np.triu((gram != want).any(axis=2)))
    if bad.size:
        i, j = bad[0].tolist()
        raise FalsificationError(
            "%s orthogonality fails" % what[:-1],
            {what: [i, j], "sum": serialize(gram[i, j])})


# ---------------------------------------------------------------------------
# abelian groups: extend characters along a chain of cyclic extensions

def _abelian_characters(group, classes, field):
    """Extend characters along a chain H < H<x> < ... of cyclic extensions:
    exps[c, i] is the exponent of zeta_e at elems[i] of character c of H.
    With x^t the first power of x in H, a character of H extends to H<x>
    in t ways, sending x to b + j e/t with t b its exponent at x^t."""
    e = group.exponent
    elems = np.array([group.ident])
    exps = np.zeros((1, 1), dtype=np.int64)
    at = np.full(group.n, -1)
    at[group.ident] = 0
    while (at < 0).any():
        x = int(np.argmax(at < 0))
        powers = [group.ident, x]
        while at[group.mul[powers[-1], x]] < 0:
            powers.append(int(group.mul[powers[-1], x]))
        t = len(powers)
        a0 = exps[:, at[group.mul[powers[-1], x]]]
        if (a0 % t).any():
            raise FalsificationError("character extension is not solvable",
                                     {"element": x, "order_mod_subgroup": t})
        b = (a0[:, None] // t + np.arange(t) * (e // t)) % e       # (chars, t)
        exps = (np.arange(t)[:, None] * b[:, :, None, None] + exps[:, None, None]) % e
        exps = exps.reshape(b.size, -1)
        elems = group.mul[np.array(powers)[:, None], elems].ravel()
        at[elems] = np.arange(elems.size)
    if len(exps) != group.n:
        raise FalsificationError("abelian group does not have |G| linear characters",
                                 {"characters": len(exps), "order": group.n})
    return _sorted_rows(field.pow_rows[(field.M // e) * exps[:, at[classes.reps]]])


def _sorted_rows(X, lead=None):
    """Rows of a table in ascending lexicographic order of their coefficients,
    led by the coefficients at class `lead` when one is given."""
    keys = [row.tolist() if lead is None else (row[lead].tolist(), row.tolist()) for row in X]
    return X[sorted(range(len(X)), key=keys.__getitem__)]


# ---------------------------------------------------------------------------
# Dixon-Schneider for nonabelian groups

def _class_matrices(group, classes):
    """A[j][i, k] = #{(x, y) in C_i x C_j : x y = rep_k}, as one int64 array
    (j, i, k): every x with every class rep z meets y = x^-1 z once."""
    k = classes.k
    x = np.arange(group.n)
    j = classes.class_of[group.mul[group.inv[x][:, None], np.asarray(classes.reps)]]
    mats = np.zeros((k, k, k), dtype=np.int64)
    np.add.at(mats, (j, classes.class_of[x][:, None], np.arange(k)), 1)
    return mats


def _charpoly_roots(B, ell):
    """Eigenvalues in F_ell of a square matrix over F_ell, ascending: the
    zeros of det(t I - B) = t^m + c_1 t^(m-1) + ... + c_m over all of F_ell,
    found by one Horner pass.  The coefficients come from the
    Faddeev-LeVerrier recursion M_k = B M_(k-1) + c_(k-1) I,
    c_k = -tr(B M_k) / k, which divides only by k <= m < ell.  Entries are
    reduced below ell, so each product of two m x m matrices stays below
    m ell^2 < 2^63 (checked in _dixon_characters, with m <= |G|)."""
    B = np.asarray(B, dtype=np.int64)
    m = len(B)
    eye = np.eye(m, dtype=np.int64)
    coeffs = [1]
    BM = np.zeros_like(B)
    for k in range(1, m + 1):
        BM = B @ ((BM + coeffs[-1] * eye) % ell) % ell
        coeffs.append(-int(np.trace(BM)) * pow(k, ell - 2, ell) % ell)
    t = np.arange(ell, dtype=np.int64)
    acc = np.zeros(ell, dtype=np.int64)
    for c in coeffs:
        acc = (acc * t + c) % ell
    return np.flatnonzero(acc == 0).tolist()


def _common_eigenlines(mats, ell):
    """Split F_ell^k into the common eigenlines of the class matrices.

    Each eigenspace is an rref basis (rows, pivot columns).  For an invariant
    space the coordinates of A v are the image read at the pivot columns, so
    the restriction of A is one gather, and a nonzero residue of that
    expansion shows a space that A does not map into itself.  Returns one
    spanning vector per line, in order of the class matrices' eigenvalues."""
    k = len(mats)
    spaces = [(np.eye(k, dtype=np.int64), list(range(k)))]
    for A in mats:
        new_spaces = []
        for V, piv in spaces:
            if len(V) == 1:
                new_spaces.append((V, piv))
                continue
            W = V @ A.T % ell                  # row c is A v_c
            coords = W[:, piv]
            if ((coords @ V - W) % ell).any():
                raise RuntimeError("eigenspace is not invariant under a class-sum matrix")
            B = coords.T
            eye = np.eye(len(B), dtype=np.int64)
            if (B == B[0, 0] * eye).all():
                # A acts on the space as a scalar: it is one eigenspace
                new_spaces.append((V, piv))
                continue
            for t in _charpoly_roots(B, ell):
                kern = linalg.right_kernel(B - t * eye, ell, len(B))
                if len(kern):
                    new_spaces.append(linalg.rref(kern @ V % ell, ell))
        spaces = new_spaces
        if all(len(V) == 1 for V, _ in spaces):
            break
    if len(spaces) != k or any(len(V) != 1 for V, _ in spaces):
        raise FalsificationError("class-sum matrices do not split into common eigenlines",
                                 {"eigenspace_dims": [len(V) for V, _ in spaces], "classes": k})
    return np.concatenate([V for V, _ in spaces])


def _dixon_characters(group, classes, field):
    n = group.n
    e = group.exponent
    ell = next_prime_1_mod(e, 2 * n)
    g0 = primitive_root(ell)
    z = pow(g0, (ell - 1) // e, ell)          # fixed element of order e in F_ell
    if n * ell * ell >= 2 ** 63:
        # every int64 product sum below is over at most |G| terms under ell^2
        raise ValidationError("chartab-guard",
                              "group of order %d needs F_%d, too large for int64" % (n, ell))

    V = _common_eigenlines(_class_matrices(group, classes), ell)
    ident_class = int(classes.class_of[group.ident])
    vanish = np.flatnonzero(V[:, ident_class] == 0)
    if vanish.size:
        raise FalsificationError("eigenvector vanishes on the identity class",
                                 {"eigenvector": V[vanish[0]].tolist(), "ell": ell})

    def inv_mod(a):
        return np.array([pow(int(x), ell - 2, ell) for x in a], dtype=np.int64)

    # one row per character: omega = v / v[1], and 1/deg^2 = (1/n) sum_i
    # omega_i omega_{i*} / |C_i|, then chi_i = deg omega_i / |C_i|
    omega = V * inv_mod(V[:, ident_class])[:, None] % ell
    inv_sizes = inv_mod(classes.sizes)
    s = (omega * omega[:, classes.inverse_class] % ell * inv_sizes).sum(axis=1) % ell
    deg_sq = n * inv_mod(s) % ell
    deg = np.array([isqrt(int(d)) for d in deg_sq], dtype=np.int64)
    bad = np.flatnonzero(deg * deg != deg_sq)
    if bad.size:
        raise FalsificationError("degree lift is not a perfect square",
                                 {"degree_squared": int(deg_sq[bad[0]]), "ell": ell})
    chi_mod = deg[:, None] * omega % ell * inv_sizes % ell
    return _sorted_rows(_lift_characters(group, classes, chi_mod, deg, e, z, ell, field),
                        ident_class)


def _lift_characters(group, classes, chi_mod, deg, e, z, ell, field):
    """Lift per-class values mod ell to exact sums of roots of unity, all
    characters at once: at a class whose rep g has order o the value is
    sum_j m_j zeta_o^j, where m_j = (1/o) sum_t chi(g^t) zo^(-j t) and zo
    is the element of order o in F_ell matching zeta_o.  Returns the table
    as an int64 array (chars, classes, dim)."""
    reps = np.asarray(classes.reps)
    orders = group.orders[reps]
    powers = [np.full(reps.size, group.ident)]         # row t: rep^t
    for _ in range(int(orders.max()) - 1):
        powers.append(group.mul[powers[-1], reps])
    powers = np.array(powers)
    table = np.empty(chi_mod.shape + (field.dim,), dtype=np.int64)
    for c, o in enumerate(orders.tolist()):
        zo = pow(z, e // o, ell)
        jt = np.arange(o)
        zo_pows = np.array([pow(zo, x, ell) for x in range(o)], dtype=np.int64)
        chi_pows = chi_mod[:, classes.class_of[powers[:o, c]]]       # chi(g^t)
        mult = chi_pows @ zo_pows[-np.outer(jt, jt) % o] % ell * pow(o, ell - 2, ell) % ell
        bad = np.flatnonzero(mult.sum(axis=1) != deg)
        if bad.size:
            raise FalsificationError(
                "eigenvalue multiplicities do not sum to the degree",
                {"class_rep": int(reps[c]), "multiplicities": mult[bad[0]].tolist(),
                 "degree": int(deg[bad[0]])})
        table[:, c] = mult @ field.pow_rows[(field.M // o) * jt]
    return table


# ---------------------------------------------------------------------------
# orbit sums

def s_orbit_sums(sub_ids, table, s_ids, conj):
    """Sum the irreducibles of a normal subgroup over the orbits of a
    conjugation action, one multiplicity-one class function per orbit.

    In an ambient group, `sub_ids` are the sorted ids of the subgroup whose
    CharTable is `table`, `s_ids` those of the acting overgroup, and conj[i, c]
    that of s^-1 r s, s = s_ids[i], r = sub_ids[table.classes.reps[c]].  Also
    checks that there are as many orbit sums as orbits on classes.  Returns one
    int64 coefficient row per class of `table` for each orbit, as an array
    (orbits, classes, dim) in ascending lexicographic order.
    """
    sub_ids = np.asarray(sub_ids, dtype=np.int64)
    if not sorted_isin(sub_ids, np.sort(np.asarray(s_ids, dtype=np.int64))).all():
        raise ValidationError("not-normal", "subgroup is not inside the acting group")
    X = table.chars
    irr_index = {row.tobytes(): i for i, row in enumerate(X)}

    irr_perms = []
    class_perms = []
    for s, row in zip(s_ids, np.asarray(conj, dtype=np.int64)):
        if not sorted_isin(row, sub_ids).all():
            raise ValidationError("not-normal",
                                  "conjugation leaves the subgroup; it is not normal")
        perm_cls = table.classes.class_of[np.searchsorted(sub_ids, row)]
        class_perms.append(perm_cls)
        perm_irr = [irr_index.get(row.tobytes(), -1) for row in X[:, perm_cls]]
        if -1 in perm_irr:
            raise FalsificationError("conjugation does not permute the irreducibles",
                                     {"s": int(s), "char": perm_irr.index(-1)})
        irr_perms.append(np.array(perm_irr, dtype=np.int64))

    irr_orbits = partition_by_perms(len(X), irr_perms)[1]
    class_orbits = partition_by_perms(table.classes.k, class_perms)[1]
    if len(irr_orbits) != len(class_orbits):
        raise FalsificationError(
            "orbit counts on irreducibles and on classes disagree",
            {"irreducible_orbits": len(irr_orbits), "class_orbits": len(class_orbits)})
    return _sorted_rows(np.array([X[orb].sum(axis=0) for orb in irr_orbits]))
