"""Exact arithmetic in Q(zeta_M) for the tests, sharing no code with the
package: a value is a tuple of rational coefficients over the power basis
1, zeta, ..., zeta^(phi(M) - 1), and every sum, product and conjugate is
reduced modulo the M-th cyclotomic polynomial, by sympy's remainders of
the powers of zeta.  It is the reference the package's integer rows are
checked against: `Cyclo.rows` reads rows over a denominator, `pair` gives
the canonical (row, den) pair of a value pool and `text` the printed
coefficients."""

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np
import sympy


def _q(x):
    """An exact rational: ints stay ints (they compare and hash as equal
    Fractions do, and cost less), anything else integral becomes an int."""
    return x if isinstance(x, (int, Fraction)) else int(x)


@lru_cache(maxsize=None)
def powers(M):
    """Row k is zeta^k in the power basis, for 0 <= k < M: the remainder of
    x^k modulo the M-th cyclotomic polynomial, by sympy."""
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(M, x), x)
    out = []
    for k in range(M):
        rem = sympy.Poly(x ** k, x).rem(phi).all_coeffs()[::-1]
        out.append(tuple(int(c) for c in rem) + (0,) * (phi.degree() - len(rem)))
    return out


def numerators(values):
    """(num, den): the values as integer coefficient rows over their least
    common denominator, num of shape (len(values), dim)."""
    den = lcm(*(c.denominator for v in values for c in v.coeffs))
    num = [[int(c * den) for c in v.coeffs] for v in values]
    return np.array(num).reshape(len(values), len(powers(values[0].M)[0])), den


class Cyclo:
    """An element of Q(zeta_M), immutable and hashable."""

    __slots__ = ("M", "coeffs")

    def __init__(self, M, poly=()):
        """The value of sum_k poly[k] zeta^k, for rationals poly[k]."""
        rows = powers(M)
        c = [0] * len(rows[0])
        for k, a in enumerate(map(_q, poly)):
            if a:
                for i, r in enumerate(rows[k % M]):
                    if r:
                        c[i] += a * r
        self.M, self.coeffs = M, tuple(c)

    @classmethod
    def zeta(cls, M, k=1):
        return cls(M, [0] * (k % M) + [1])

    @classmethod
    def rows(cls, M, rows, den=1):
        """One value per row of integer coefficients, each over den."""
        den = _q(den)
        return [cls(M, [c if den == 1 else Fraction(c) / den for c in map(_q, row)])
                for row in rows]

    def _lift(self, other):
        return other if isinstance(other, Cyclo) else Cyclo(self.M, [other])

    def __add__(self, other):
        other = self._lift(other)
        return Cyclo(self.M, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.M, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        other = self._lift(other)
        conv = [0] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                conv[i + j] += a * b
        return Cyclo(self.M, conv)

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation: zeta^k goes to zeta^(M - k)."""
        poly = [0] * self.M
        for k, a in enumerate(self.coeffs):
            poly[-k % self.M] += a
        return Cyclo(self.M, poly)

    def rational(self):
        if any(self.coeffs[1:]):
            raise ValueError("%r is not rational" % (self,))
        return self.coeffs[0]

    def pair(self):
        """(row, den): integer coefficients over the least positive den."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return tuple(int(c * den) for c in self.coeffs), den

    def text(self):
        return [str(c) for c in self.coeffs]

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (self.M, self.coeffs) == (other.M, other.coeffs)

    def __hash__(self):
        return hash((self.M, self.coeffs))

    def __repr__(self):
        return "Cyclo(%d, %s)" % (self.M, self.text())
