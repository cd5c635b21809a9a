"""Exact arithmetic: odd prime fields, rationals, and cyclotomic fields Q(zeta_M).

Every character value in this package is an element of one fixed cyclotomic
field per configuration, held as an integer coefficient row over the power
basis zeta^0, ..., zeta^(phi(M)-1), reduced modulo the M-th cyclotomic
polynomial, and a positive denominator.  A value is canonical when the
denominator is coprime to the row (`CycField.reduce_rows`); equality of
canonical values is equality of (row, den) pairs, so all downstream checks
(orthogonality, constancy) are exact, and `serialize` is the one place a
value turns into text.

Class functions (character tables, orbit sums, the Levi-averaged products)
are integer coefficient rows from the start, and bulk arithmetic (products,
inner products, induction) runs on such rows over one common denominator:
`mul_rows` multiplies and `integer_gram` is the one inner product.  Each
picks int64 when an explicit bound shows that no intermediate can overflow,
and exact Python integers (object dtype) otherwise.

`integer_gram` works by evaluation.  For a prime ell = 1 (mod M),
Z[zeta_M]/ell is F_ell^phi(M): a coefficient row maps to its values at the
phi(M) embeddings zeta -> g^j (g of order M in F_ell, j a unit mod M), and
there conj(x) becomes the value at -j.  Each embedding's Gram is then one
(na, k) by (k, nb) product of residues, and the inverse of the evaluation
matrix reads the coefficients back.  The moduli (`CycField.moduli`) are
primes in (2^27, 2^28), built at a field's first Gram and kept, as many as
make their product exceed twice the bound

    beta = rho sum_K |w_K| alpha_K beta_K,

where alpha_K = max_a sum_c |A[a, K, c]|, beta_K is the same for B and rho
is the largest coefficient of a power zeta^(c - d): every coefficient of
the Gram lies in [-beta, beta], so the residues determine it by the Chinese
remainder theorem.  The result is int64 when beta < 2^62 and object dtype
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, prod

import numpy as np

from .errors import ValidationError


# no odd composite below _SPRP_LIMIT is a strong probable prime to every
# prime base up to 41 (J. Sorenson and J. Webster, Math. Comp. 86, 2017)
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_LIMIT = 3317044064679887385961981


def is_odd_prime(q):
    """Whether q is an odd prime, exactly, by the strong probable-prime test
    to _SPRP_BASES; an odd q >= _SPRP_LIMIT, past its proof, is a ValueError."""
    if q < 3 or q % 2 == 0:
        return False
    if q >= _SPRP_LIMIT:
        raise ValueError("is_odd_prime is exact only below %d, got %d" % (_SPRP_LIMIT, q))
    if q in _SPRP_BASES:
        return True
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _SPRP_BASES:
        x = pow(b, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def smallest_nonsquare(p):
    squares = {(i * i) % p for i in range(1, p)}
    for t in range(2, p):
        if t not in squares:
            return t
    raise ValueError("no non-square mod %d" % p)


def prime_factors(n):
    """The distinct prime factors of n >= 1, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def primitive_root(p):
    """Smallest primitive root of F_p (p an odd prime)."""
    order = p - 1
    factors = prime_factors(order)
    for g in range(2, p):
        if all(pow(g, order // f, p) != 1 for f in factors):
            return g
    raise ValueError("no primitive root mod %d" % p)


def next_prime_1_mod(e, floor):
    """The smallest odd prime ell > floor with ell = 1 (mod e)."""
    ell = max(floor, e + 1)
    ell += (1 - ell) % e
    while True:
        if ell > floor and is_odd_prime(ell):
            return ell
        ell += e


def _poly_div_exact(num, den):
    """num / den for integer polynomials (coefficients ascending), den monic;
    a nonzero remainder is a RuntimeError."""
    num, out = list(num), [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k] = c = num[k + len(den) - 1]
        if c:
            num[k:k + len(den)] = [a - c * d for a, d in zip(num[k:k + len(den)], den)]
    if any(num):
        raise RuntimeError("polynomial division left a remainder: %r" % (num,))
    return out


def cyclotomic_poly(M):
    """Coefficients (ascending) of the M-th cyclotomic polynomial, from the
    squarefree kernel rad(M) of M: Phi_1(x) = x - 1, Phi_nr(x) =
    Phi_n(x^r) / Phi_n(x) for each prime r of M (r does not divide n), and
    Phi_M(x) = Phi_rad(M)(x^(M / rad(M)))."""
    poly, rad = [-1, 1], 1
    for r in prime_factors(M):
        spread = [0 if k % r else poly[k // r] for k in range(r * len(poly) - r + 1)]
        poly, rad = _poly_div_exact(spread, poly), rad * r
    s = M // rad
    return tuple(0 if k % s else poly[k // s] for k in range(s * len(poly) - s + 1))


class CycField:
    """The cyclotomic field Q(zeta_M); its reduction tables are built on first use."""

    def __init__(self, M):
        if M < 2:
            raise ValidationError("cyc-order", "cyclotomic order must be >= 2, got %r" % (M,))
        self.M = M
        self.poly = cyclotomic_poly(M)
        self.dim = len(self.poly) - 1
        self._moduli = []            # Gram moduli, built by the first Gram

    def __repr__(self):
        return "CycField(%d)" % self.M

    @cached_property
    def pow_rows(self):
        """int64 array whose row k is zeta^k in the power basis, for k up to
        max(M, 2 dim - 1): zeta^k is zeta zeta^(k - 1) reduced mod Phi_M."""
        rows = np.eye(self.dim, dtype=np.int64).tolist()
        for _ in range(self.dim, max(self.M, 2 * self.dim - 1) + 1):
            prev = rows[-1]
            rows.append([c - prev[-1] * a for c, a in zip([0] + prev[:-1], self.poly)])
        return np.array(rows, dtype=np.int64)

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

    @cached_property
    def units(self):
        """The units j of Z/M, ascending: the embeddings zeta -> zeta^j."""
        return np.array([j for j in range(1, self.M + 1) if gcd(j, self.M) == 1])

    def moduli(self, bound):
        """The first Gram moduli (ell, E, Einv), at least one, whose primes
        multiply to more than 2 bound, built on first use and kept.  Each
        ell = 1 (mod M) is a prime in (_ELL_FLOOR, _ELL_CAP), E[c, i] = x_i^c
        evaluates a coefficient row at the embedding zeta -> x_i = g^j_i of
        the i-th unit j_i, g of order M, and Einv = E^-1 mod ell by Lagrange
        interpolation at the x_i, the roots of Phi_M mod ell: its row i is
        Phi_M(t) / ((t - x_i) Phi_M'(x_i)), 1 at x_i and 0 at the other nodes."""
        count, P = 0, 1
        while not count or P <= 2 * bound:
            if count == len(self._moduli):
                floor = self._moduli[-1][0] if self._moduli else _ELL_FLOOR
                self._moduli.append(self._modulus(next_prime_1_mod(self.M, floor)))
            P *= self._moduli[count][0]
            count += 1
        return self._moduli[:count]

    def _modulus(self, ell):
        if ell >= _ELL_CAP:
            raise ValueError("no prime = 1 mod %d below 2^28 is left" % self.M)
        g = pow(primitive_root(ell), (ell - 1) // self.M, ell)
        powers = np.array([pow(g, t, ell) for t in range(self.M)], dtype=np.int64)
        E = powers[np.arange(self.dim)[:, None] * self.units[None, :] % self.M]
        # one Horner pass at every node x: quot[k] holds the coefficients of
        # t^(dim - 1 - k) in Phi_M(t) / (t - x), rem is Phi_M(x), deriv Phi_M'(x)
        x = powers[self.units]
        quot, rem, deriv = [], np.ones_like(x), np.zeros_like(x)
        for a in self.poly[-2::-1]:
            quot.append(rem)
            deriv, rem = (deriv * x + rem) % ell, (rem * x + a) % ell
        if rem.any() or not deriv.all():
            raise RuntimeError("the evaluation matrix of Q(zeta_%d) is singular mod %d"
                               % (self.M, ell))
        return ell, E, np.array(quot[::-1]).T * [[pow(int(d), -1, ell)] for d in deriv] % ell

    def reduce_rows(self, num, den):
        """The canonical pairs of the values num[i] / den, for an integer
        array num of shape (n, dim) and a positive rational den: (rows,
        dens) with rows[i] / dens[i] == num[i] / den, dens[i] > 0 and
        gcd(dens[i], *rows[i]) == 1, by one vectorised gcd."""
        num, den = np.asarray(num), Fraction(den)
        if den.denominator != 1:
            m = den.denominator
            num = num.astype(int_dtype(max(absmax(num) * m, m))) * m
        den = den.numerator
        if den == 1:
            return num, np.ones(len(num), dtype=np.int64)
        if num.dtype == object or den >= 2 ** 62:
            num = num.astype(object)
            g = _object_gcd(_object_gcd.reduce(num, axis=1), den)
        else:
            g = np.gcd(np.gcd.reduce(num, axis=1), den)
        return num // g[:, None], den // g

    def mul_rows(self, A, B):
        """Row-wise products of two (n, dim) integer coefficient arrays, exact."""
        A, B = np.asarray(A), np.asarray(B)
        red = self.mul_tensor
        amax, bmax = absmax(A), absmax(B)
        dtype = int_dtype(max(amax, bmax, amax * bmax * absmax(red) * self.dim ** 2))
        outer = A.astype(dtype)[:, :, None] * B.astype(dtype)[:, None, :]
        d2 = self.dim * self.dim
        return outer.reshape(len(A), d2) @ red.reshape(d2, self.dim).astype(dtype)

    def eps_rows(self, p):
        """The values eps(0), ..., eps(p - 1) of the fixed nontrivial character
        of (F_p, +), eps(t) = zeta_p^t, as integer coefficient rows (p must
        divide M)."""
        if self.M % p:
            raise ValidationError("cyc-embed", "order %d does not divide M=%d" % (p, self.M))
        return self.pow_rows[(self.M // p) * np.arange(p)]


def serialize(row, den=1):
    """The text of the value row / den: per coefficient "n", or "n/d" in
    lowest terms with d > 1.  The one place a value becomes text."""
    if den == 1:
        return [str(int(c)) for c in row]
    return [str(Fraction(int(c), den)) for c in row]


_object_gcd = np.frompyfunc(gcd, 2, 1)


def absmax(a):
    """Largest absolute entry of an integer array as a Python int (0 if empty)."""
    a = np.asarray(a)
    return int(np.abs(a).max()) if a.size else 0


def int_dtype(bound):
    """int64 when `bound` caps every intermediate below 2**62, else object."""
    return np.int64 if bound < 2 ** 62 else object


# Gram moduli are primes below _ELL_CAP = 2^28: a product of two residues is
# below 2^56, and a sum of _TERMS = 128 of them stays below 2^63
_ELL_FLOOR, _ELL_CAP = 2 ** 27, 2 ** 28
_TERMS = 2 ** 63 // _ELL_CAP ** 2


def _dot_mod(X, Y, ell):
    """Z[..., i, j] = sum_c X[..., i, c] Y[..., j, c] mod ell for residues
    below _ELL_CAP, summing _TERMS products at a time so that no partial sum
    reaches 2^63.  (einsum: numpy's integer matmul has no BLAS and runs
    slower on these shapes.)"""
    out = np.einsum("...ic,...jc->...ij", X[..., :_TERMS], Y[..., :_TERMS]) % ell
    for s in range(_TERMS, X.shape[-1], _TERMS):
        part = np.einsum("...ic,...jc->...ij", X[..., s:s + _TERMS], Y[..., s:s + _TERMS])
        out = (out + part % ell) % ell
    return out


def _evaluate(A, ell, E):
    """A (n, k, dim) at every embedding mod ell: (embedding, n, k) residues."""
    R = (A % ell).astype(np.int64).reshape(-1, A.shape[2])
    return _dot_mod(E.T, R, ell).reshape((E.shape[1],) + A.shape[:2])


def _abs_row_sums(A):
    """alpha[K] = max over a of sum over c of |A[a, K, c]|, as Python ints."""
    dtype = int_dtype(absmax(A) * A.shape[2])
    return np.abs(A).astype(dtype).sum(axis=2).max(axis=0, initial=0).tolist()


def _crt(residues, ells, dtype):
    """The integers x with |x| < prod(ells) / 2 and x = r (mod ell) for each
    residue array r and its modulus, by Garner's mixed radix: every digit
    is computed in int64 from residues below _ELL_CAP, and only the last
    Horner pass runs in the dtype of prod(ells).  May overwrite the residues."""
    digits = residues[:1]
    for r, ell in zip(residues[1:], ells[1:]):
        t, radix = np.zeros_like(r), 1
        for d, m in zip(reversed(digits), reversed(ells[:len(digits)])):
            t = (t * m + d) % ell
            radix = radix * m % ell
        digits.append((r - t) * pow(radix, -1, ell) % ell)
    P = prod(ells)
    x = digits[-1].astype(int_dtype(P), copy=False)
    for d, m in zip(reversed(digits[:-1]), reversed(ells[:-1])):
        x = x * m + d
    x[x > P // 2] -= P
    return x.astype(dtype, copy=False)


def gram_bound(field, A, B, weights):
    """rho sum_K |w_K| alpha_K beta_K, a cap on every coefficient of
    integer_gram(field, A, B, weights) (see the module docstring)."""
    A, B = np.asarray(A), np.asarray(B)
    return absmax(field.conj_tensor) * sum(
        abs(int(x)) * a * b for x, a, b in zip(weights, _abs_row_sums(A), _abs_row_sums(B)))


def _evaluated_gram(field, A, B, weights, diagonal):
    """integer_gram (or, with `diagonal`, its diagonal alone) by evaluation
    at the embeddings of the field modulo each of field.moduli(bound)."""
    A, B = np.asarray(A), np.asarray(B)
    w = [int(x) for x in np.asarray(weights).tolist()]
    bound = gram_bound(field, A, B, w)
    units = field.units
    neg = np.searchsorted(units, (field.M - units) % field.M)   # index of -j
    # a Gram of one array with itself needs one embedding of each pair {j, -j}
    half = A is B
    at = np.flatnonzero(2 * units <= field.M) if half else np.arange(len(units))
    moduli = field.moduli(bound)
    residues = []
    for ell, E, Einv in moduli:
        Ah = _evaluate(A, ell, E)
        Bh = Ah if half else _evaluate(B, ell, E)
        left = Ah[at] * np.array([x % ell for x in w], dtype=np.int64) % ell
        right = Bh[neg[at]]
        if diagonal:
            part = (left * right % ell).sum(axis=-1) % ell          # (at, a)
        else:
            part = _dot_mod(left, right, ell)                     # (at, a, b)
        Gh = np.empty((len(units),) + part.shape[1:], dtype=np.int64)
        Gh[at] = part
        if half:
            Gh[neg[at]] = part if diagonal else part.transpose(0, 2, 1)
        coeffs = _dot_mod(Gh.reshape(len(units), -1).T, Einv.T, ell)
        residues.append(coeffs.reshape(part.shape[1:] + (field.dim,)))
    return _crt(residues, [m[0] for m in moduli], int_dtype(bound))


def integer_gram(field, A, B, weights):
    """G[a, b, :] = power-basis coefficients of sum_K w_K A[a, K] conj(B[b, K]).

    A (na, k, dim) and B (nb, k, dim) are integer coefficient arrays and
    `weights` k integers.  The result is exact: int64 when the bound of the
    module docstring is below 2^62, object dtype otherwise.  Rows over
    denominators dA and dB give the weighted inner products G / (dA dB).
    For `A is B` only one embedding of each conjugate pair is computed.
    """
    return _evaluated_gram(field, A, B, weights, diagonal=False)


def integer_norms(field, A, weights):
    """N[a] = integer_gram(field, A, A, weights)[a, a] for every a, in the
    same dtype, without the off-diagonal entries."""
    return _evaluated_gram(field, A, A, weights, diagonal=True)
