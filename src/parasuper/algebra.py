"""Exact arithmetic: odd prime fields, rationals, and cyclotomic fields Q(zeta_M).

Every character value in this package is an element of one fixed cyclotomic
field per configuration, held in canonical form: a coefficient vector of
rationals over the power basis zeta^0, ..., zeta^(phi(M)-1), reduced modulo
the M-th cyclotomic polynomial.  Equality of values is coefficient-wise
equality, so all downstream checks (orthogonality, constancy) are exact.

Rationals are fractions.Fraction, normalized to plain int when integral so
that hashing and comparison stay cheap.

`Cyc` is the boundary form, for values that are interned, printed or
reported.  Class functions (character tables, orbit sums, the Levi-averaged
products) are integer coefficient rows from the start, and bulk arithmetic
(products, inner products, induction) runs on such rows over one common
denominator: `mul_rows` multiplies and `integer_gram` is the one inner
product.  `from_rows` makes the `Cyc` values that enter a value pool or a
report; `rows` turns a pool's values back into one numerator matrix, its
only use.  Each picks int64 when an explicit bound shows that no
intermediate can overflow, and exact Python integers (object dtype)
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .errors import ValidationError


def is_odd_prime(q):
    if q < 3 or q % 2 == 0:
        return False
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def smallest_nonsquare(p):
    squares = {(i * i) % p for i in range(1, p)}
    for t in range(2, p):
        if t not in squares:
            return t
    raise ValueError("no non-square mod %d" % p)


def primitive_root(p):
    """Smallest primitive root of F_p (p an odd prime)."""
    order = p - 1
    factors = set()
    n, d = order, 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for g in range(2, p):
        if all(pow(g, order // f, p) != 1 for f in factors):
            return g
    raise ValueError("no primitive root mod %d" % p)


def _poly_divmod_int(num, den):
    # exact division of integer polynomials, den monic; coefficients ascending
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num[len(den) - 1:]):
        raise RuntimeError("polynomial division left a high remainder: %r" % (num,))
    return out, num[: len(den) - 1]


_CYCLO_CACHE = {}


def cyclotomic_poly(M):
    """Coefficients (ascending) of the M-th cyclotomic polynomial."""
    if M in _CYCLO_CACHE:
        return _CYCLO_CACHE[M]
    poly = [-1] + [0] * (M - 1) + [1]  # x^M - 1
    for d in range(1, M):
        if M % d == 0:
            phi_d = cyclotomic_poly(d)
            poly, rem = _poly_divmod_int(poly, phi_d)
            if any(rem):
                raise RuntimeError("x^%d - 1 is not divisible by the %d-th cyclotomic "
                                   "polynomial" % (M, d))
    _CYCLO_CACHE[M] = tuple(poly)
    return _CYCLO_CACHE[M]


def _num(x):
    """Canonicalize a rational: Fraction with denominator 1 becomes int."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return x
    return int(x)


class CycField:
    """The cyclotomic field Q(zeta_M), with reduction tables precomputed."""

    def __init__(self, M):
        if M < 2:
            raise ValidationError("cyc-order", "cyclotomic order must be >= 2, got %r" % (M,))
        self.M = M
        poly = cyclotomic_poly(M)
        self.dim = len(poly) - 1
        # rows[k] = integer coefficient vector of zeta^k in the power basis
        upto = max(M, 2 * self.dim - 1)
        rows = []
        for k in range(upto + 1):
            if k < self.dim:
                row = [0] * self.dim
                row[k] = 1
            else:
                prev = rows[k - 1]
                row = [0] + list(prev[:-1])
                top = prev[-1]
                if top:
                    row = [c - top * poly[i] for i, c in enumerate(row)]
            rows.append(row)
        self._pow = [tuple(r) for r in rows]
        self.zero = Cyc(self, (0,) * self.dim)
        self.one = Cyc(self, self._pow[0])

    def __repr__(self):
        return "CycField(%d)" % self.M

    @cached_property
    def pow_rows(self):
        """int64 array whose row k is zeta^k in the power basis."""
        return np.array(self._pow, dtype=np.int64)

    @cached_property
    def conj_tensor(self):
        """int64 (dim, dim, dim): [c, d] is zeta^c * conj(zeta^d) = zeta^(c - d)."""
        c = np.arange(self.dim)
        return self.pow_rows[(c[:, None] - c[None, :]) % self.M]

    @cached_property
    def mul_tensor(self):
        """int64 (dim, dim, dim): [c, d] is zeta^c * zeta^d = zeta^(c + d)."""
        c = np.arange(self.dim)
        return self.pow_rows[c[:, None] + c[None, :]]

    def rows(self, values):
        """Values as integer coefficient rows over one common denominator:
        (num, den) with values[i] == num[i] / den, num of shape (len, dim)."""
        den = lcm(1, *(c.denominator for v in values for c in v.coeffs))
        num = [[int(c * den) for c in v.coeffs] for v in values]
        big = max((abs(c) for row in num for c in row), default=0)
        return np.array(num, dtype=int_dtype(big)).reshape(len(values), self.dim), den

    def from_rows(self, num, den=1):
        """Inverse of rows: one canonical value per row of num / den, for a
        positive rational den.  Each entry is reduced by one vectorised gcd,
        and a Fraction is built only where the reduced denominator is not 1."""
        num, den = np.asarray(num), Fraction(den)
        if den.denominator != 1:
            m = den.denominator
            num = num.astype(int_dtype(max(absmax(num) * m, m))) * m
        den = den.numerator
        if den == 1:
            return [Cyc(self, tuple(row)) for row in num.tolist()]
        if num.dtype == object or den >= 2 ** 62:
            num = num.astype(object)
            g = _object_gcd(num, den)
        else:
            g = np.gcd(num, den)
        out = []
        for nrow, drow in zip((num // g).tolist(), (den // g).tolist()):
            out.append(Cyc(self, tuple(a if b == 1 else Fraction(a, b)
                                       for a, b in zip(nrow, drow))))
        return out

    def mul_rows(self, A, B):
        """Row-wise products of two (n, dim) integer coefficient arrays, exact."""
        A, B = np.asarray(A), np.asarray(B)
        red = self.mul_tensor
        amax, bmax = absmax(A), absmax(B)
        dtype = int_dtype(max(amax, bmax, amax * bmax * absmax(red) * self.dim ** 2))
        outer = A.astype(dtype)[:, :, None] * B.astype(dtype)[:, None, :]
        d2 = self.dim * self.dim
        return outer.reshape(len(A), d2) @ red.reshape(d2, self.dim).astype(dtype)

    def zeta_pow(self, k):
        """zeta_M^k as a canonical field element."""
        return Cyc(self, self._pow[k % self.M])

    def root_of_unity(self, order, k):
        """zeta_order^k embedded in this field (order must divide M)."""
        if self.M % order:
            raise ValidationError("cyc-embed", "order %d does not divide M=%d" % (order, self.M))
        return self.zeta_pow((self.M // order) * (k % order))

    def eps_rows(self, p):
        """The values eps(0), ..., eps(p - 1) of the fixed nontrivial character
        of (F_p, +), eps(t) = zeta_p^t, as integer coefficient rows (p must
        divide M)."""
        if self.M % p:
            raise ValidationError("cyc-embed", "order %d does not divide M=%d" % (p, self.M))
        return self.pow_rows[(self.M // p) * np.arange(p)]

    def from_coeffs(self, coeffs):
        coeffs = tuple(_num(Fraction(c)) for c in coeffs)
        if len(coeffs) != self.dim:
            raise ValidationError(
                "cyc-coeffs", "expected %d coefficients, got %d" % (self.dim, len(coeffs)))
        return Cyc(self, coeffs)

    def from_int(self, n):
        return Cyc(self, (int(n),) + (0,) * (self.dim - 1))

    def from_fraction(self, q):
        return Cyc(self, (_num(Fraction(q)),) + (0,) * (self.dim - 1))

    def parse(self, strings):
        """Inverse of Cyc.serialize: list of 'num' or 'num/den' strings."""
        vals = []
        for s in strings:
            if "/" in s:
                a, b = s.split("/")
                vals.append(Fraction(int(a), int(b)))
            else:
                vals.append(int(s))
        return self.from_coeffs(vals)


class Cyc:
    """Immutable element of a CycField in canonical coefficient form."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)
        self._hash = None

    def _check(self, other):
        if self.field is not other.field and self.field.M != other.field.M:
            raise ValidationError("cyc-mismatch", "elements of Q(zeta_%d) and Q(zeta_%d) cannot mix"
                                  % (self.field.M, other.field.M))

    def __add__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        self._check(other)
        return Cyc(self.field, tuple(_num(a + b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        self._check(other)
        return Cyc(self.field, tuple(_num(a - b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Cyc(self.field, tuple(_num(-a) for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        self._check(other)
        d = self.field.dim
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[:d])
        pow_rows = self.field._pow
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = pow_rows[k]
                for i in range(d):
                    if row[i]:
                        out[i] += c * row[i]
        return Cyc(self.field, tuple(_num(v) for v in out))

    __rmul__ = __mul__

    def scale(self, q):
        if q == 1:
            return self
        return Cyc(self.field, tuple(_num(a * q) for a in self.coeffs))

    def conjugate(self):
        """Complex conjugation: zeta maps to zeta^(-1)."""
        d = self.field.dim
        M = self.field.M
        out = [0] * d
        pow_rows = self.field._pow
        for k, a in enumerate(self.coeffs):
            if a:
                row = pow_rows[(M - k) % M]
                for i in range(d):
                    if row[i]:
                        out[i] += a * row[i]
        return Cyc(self.field, tuple(_num(v) for v in out))

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValidationError("cyc-not-rational", "value %r is not rational" % (self,))
        return Fraction(self.coeffs[0])

    def as_int(self):
        q = self.as_fraction()
        if q.denominator != 1:
            raise ValidationError("cyc-not-integer", "value %r is not an integer" % (self,))
        return int(q)

    def serialize(self):
        out = []
        for c in self.coeffs:
            f = Fraction(c)
            if f.denominator == 1:
                out.append(str(f.numerator))
            else:
                out.append("%d/%d" % (f.numerator, f.denominator))
        return out

    def __eq__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.field.M == other.field.M and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.M, self.coeffs))
        return self._hash

    def __repr__(self):
        return "Cyc(M=%d, %s)" % (self.field.M, list(self.coeffs))


_object_gcd = np.frompyfunc(gcd, 2, 1)


def absmax(a):
    """Largest absolute entry of an integer array as a Python int (0 if empty)."""
    a = np.asarray(a)
    return int(np.abs(a).max()) if a.size else 0


def int_dtype(bound):
    """int64 when `bound` caps every intermediate below 2**62, else object."""
    return np.int64 if bound < 2 ** 62 else object


def _gram_dtype(field, A, B, w):
    """The dtype of integer_gram(field, A, B, w), by its overflow bound."""
    amax, bmax, wsum = absmax(A), absmax(B), sum(abs(int(x)) for x in w.tolist())
    return int_dtype(max(amax, bmax, wsum,
                         wsum * amax * bmax * absmax(field.conj_tensor) * field.dim ** 2))


def integer_gram(field, A, B, weights, upper=False):
    """G[a, b, :] = power-basis coefficients of sum_K w_K A[a, K] conj(B[b, K]).

    A (na, k, dim) and B (nb, k, dim) are integer coefficient arrays and
    `weights` k integers.  The result is exact: int64 when the bound
    sum|w| max|A| max|B| max|red| dim^2 shows no overflow, object dtype
    otherwise.  Rows over denominators dA and dB give the weighted
    inner products G / (dA dB).  With `upper`, only the entries with
    a <= b are sure to be computed (the others may be left zero): all that
    a Gram of one array with itself needs.
    """
    red = field.conj_tensor
    dim = field.dim
    A, B = np.asarray(A), np.asarray(B)
    w = np.asarray(weights)
    dtype = _gram_dtype(field, A, B, w)
    na, k, nb = A.shape[0], A.shape[1], B.shape[0]
    A2 = A.astype(dtype).reshape(na, k * dim)
    # Bc[b, K, c, e] = w_K * (coefficient e of zeta^c conj(B[b, K])); then
    # G[a, b, e] = sum over (K, c) of A[a, K, c] Bc[b, K, c, e], one matrix
    # product per chunk of b (einsum: numpy's integer matmul has no BLAS and
    # runs about 2x slower)
    Bw = B.astype(dtype) * w.astype(dtype)[None, :, None]
    red = red.astype(dtype)
    out = np.zeros((na, nb, dim), dtype=dtype)
    chunk = max(1, 2 ** 19 // max(1, k * dim * dim))
    if upper:
        # chunk b finely: chunk [start, stop) needs only the rows a < stop
        chunk = min(chunk, max(8, -(-nb // 8)))
    for start in range(0, nb, chunk):
        stop = min(nb, start + chunk)
        rows = stop if upper else na
        Bc = np.tensordot(Bw[start:stop], red, axes=([2], [1]))
        Bt = Bc.transpose(1, 2, 0, 3).reshape(k * dim, (stop - start) * dim)
        out[:rows, start:stop] = np.einsum("ij,jk->ik", A2[:rows], Bt).reshape(
            rows, stop - start, dim)
    return out


def integer_norms(field, A, weights):
    """N[a] = integer_gram(field, A, A, weights)[a, a] for every a, in the same
    dtype, without the off-diagonal entries: P[a, c, d] = sum_K w_K A[a, K, c]
    A[a, K, d], then N[a, e] = sum over (c, d) of P[a, c, d] red[c, d, e]."""
    A = np.asarray(A)
    w = np.asarray(weights)
    dtype = _gram_dtype(field, A, A, w)
    A = A.astype(dtype)
    P = np.einsum("akc,akd->acd", A, A * w.astype(dtype)[None, :, None])
    return np.tensordot(P, field.conj_tensor.astype(dtype), axes=([1, 2], [0, 1]))
