"""Field and cyclotomic arithmetic: exactness, canonical form, round trips."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parasuper.algebra import (
    Cyc, CycField, cyclotomic_poly, integer_gram, integer_norms, is_odd_prime, primitive_root,
    smallest_nonsquare,
)
from parasuper.errors import ValidationError

FIELDS = {M: CycField(M) for M in (12, 20, 42)}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_field_axioms_by_exhaustion(p):
    els = range(p)
    for a in els:
        assert (a + 0) % p == a and (a * 1) % p == a
        for b in els:
            assert (a + b) % p == (b + a) % p
            assert (a * b) % p == (b * a) % p
            for c in els:
                assert ((a + b) + c) % p == (a + (b + c)) % p
                assert ((a * b) * c) % p == (a * (b * c)) % p
                assert (a * (b + c)) % p == (a * b + a * c) % p


def test_is_odd_prime():
    assert [q for q in range(2, 30) if is_odd_prime(q)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_smallest_nonsquare():
    assert smallest_nonsquare(3) == 2
    assert smallest_nonsquare(5) == 2
    assert smallest_nonsquare(7) == 3


def test_primitive_root():
    for p in (3, 5, 7, 11):
        g = primitive_root(p)
        assert sorted(pow(g, k, p) for k in range(p - 1)) == list(range(1, p))


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_additive_inverse_and_unity_roots():
    F = CycField(5)
    x = F.zeta_pow(1) + F.zeta_pow(3)
    assert (x + (-x)).is_zero()
    # zeta * zeta^(p-1) = 1 via reduction
    assert F.zeta_pow(1) * F.zeta_pow(4) == F.one
    # 1 + zeta + ... + zeta^(p-1) = 0
    s = F.zero
    for k in range(5):
        s = s + F.zeta_pow(k)
    assert s.is_zero()


def test_additive_character_properties():
    for p, M in ((3, 3), (5, 5), (3, 6)):
        F = CycField(M)
        eps = F.from_rows(F.eps_rows(p))
        assert eps[0] == F.one
        assert eps[1] != F.one
        total = F.zero
        for t in range(p):
            total = total + eps[t]
        assert total.is_zero()
        for s in range(p):
            for t in range(p):
                assert eps[s] * eps[t] == eps[(s + t) % p]
        assert eps[1] * eps[p - 1] == F.one
    with pytest.raises(ValidationError):
        CycField(4).eps_rows(3)


def test_conjugation():
    F = CycField(5)
    assert F.one.conjugate() == F.one
    z = F.zeta_pow(1)
    assert z.conjugate() == F.zeta_pow(4)
    a = F.zeta_pow(1) + F.zeta_pow(2)
    assert a.conjugate().conjugate() == a
    # oracle: (z + z^2)(z^4 + z^3) = z^5 + z^4 + z^6 + z^5 = 2 + z^4 + z
    got = a * a.conjugate()
    want = F.from_int(2) + F.zeta_pow(4) + F.zeta_pow(1)
    assert got == want


def test_conjugate_product_is_rational_for_norm_sums():
    F = CycField(12)
    vals = [F.zeta_pow(k) + F.from_int(k) for k in range(12)]
    total = F.zero
    for v in vals:
        total = total + v * v.conjugate()
    # a full Galois-orbit style sum has rational norm total
    assert total.conjugate() == total


def test_mixed_field_rejected():
    a = CycField(3).one
    b = CycField(5).one
    with pytest.raises(ValidationError):
        _ = a + b


def test_canonical_equality_and_hash():
    F = CycField(7)
    x = F.zeta_pow(2) + F.zeta_pow(2)
    y = F.zeta_pow(2).scale(2)
    assert x == y and hash(x) == hash(y)


def test_scale_fraction():
    F = CycField(3)
    v = F.zeta_pow(1).scale(Fraction(2, 3))
    assert v.coeffs == (0, Fraction(2, 3))


def test_serialize_round_trip():
    random.seed(7)
    for M in (3, 5, 12, 20):
        F = CycField(M)
        for _ in range(25):
            coeffs = [Fraction(random.randrange(-9, 10), random.randrange(1, 7))
                      for _ in range(F.dim)]
            v = F.from_coeffs(coeffs)
            assert F.parse(v.serialize()) == v
    # denominator-1 entries serialize without the slash
    F = CycField(3)
    assert (F.one + F.zeta_pow(1).scale(Fraction(1, 2))).serialize() == ["1", "1/2"]


def test_rationality_and_int_extraction():
    F = CycField(5)
    assert F.from_int(4).as_int() == 4
    assert not F.zeta_pow(1).is_rational()
    with pytest.raises(ValidationError):
        F.zeta_pow(1).as_int()


def test_ring_axioms_randomized():
    random.seed(13)
    for M in (5, 12, 20):
        F = CycField(M)

        def rand():
            return F.from_coeffs([Fraction(random.randrange(-6, 7),
                                           random.randrange(1, 5))
                                  for _ in range(F.dim)])

        for _ in range(30):
            a, b, c = rand(), rand(), rand()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert a * F.one == a and a + F.zero == a


def test_embedded_roots_of_unity():
    F = CycField(20)
    z4 = F.root_of_unity(4, 1)
    assert z4 * z4 == F.root_of_unity(4, 2)
    prod = F.one
    for _ in range(4):
        prod = prod * z4
    assert prod == F.one
    with pytest.raises(ValidationError):
        F.root_of_unity(3, 1)


def cyc_values(F, lo=-9, hi=9, dens=(1, 2, 3)):
    return st.builds(
        lambda cs: F.from_coeffs(cs),
        st.lists(st.builds(Fraction, st.integers(lo, hi), st.sampled_from(dens)),
                 min_size=F.dim, max_size=F.dim))


@st.composite
def field_triples(draw):
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    return F, draw(cyc_values(F)), draw(cyc_values(F)), draw(cyc_values(F))


@settings(max_examples=60, deadline=None)
@given(field_triples())
def test_field_axioms_hypothesis(triple):
    F, a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    # conjugation is an involutive field automorphism
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert F.one.conjugate() == F.one


@st.composite
def gram_inputs(draw, big=False):
    """(field, A, B, weights); with big=True the first entry of A and of B
    exceeds 2**64 and every weight is positive, so no int64 can hold a sum."""
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    k = draw(st.integers(1, 4))
    bound = 2 ** 70 if big else 50
    entries = st.integers(-bound, bound)

    def stack(n):
        out = draw(st.lists(st.lists(st.lists(entries, min_size=F.dim, max_size=F.dim),
                                     min_size=k, max_size=k), min_size=n, max_size=n))
        if big:
            out[0][0][0] = draw(st.integers(2 ** 64, 2 ** 70))
        return out
    A = stack(draw(st.integers(1, 3)))
    B = stack(draw(st.integers(1, 3)))
    weights = draw(st.lists(st.integers(int(big), 40), min_size=k, max_size=k))
    return F, A, B, weights


def textbook_gram(F, A, B, weights):
    """sum_K w_K a(K) conj(b(K)), one Cyc product at a time."""
    out = {}
    for a, rows_a in enumerate(A):
        for b, rows_b in enumerate(B):
            acc = F.zero
            for w, x, y in zip(weights, rows_a, rows_b):
                acc = acc + (F.from_coeffs(x) * F.from_coeffs(y).conjugate()).scale(w)
            out[a, b] = acc
    return out


@settings(max_examples=40, deadline=None)
@given(gram_inputs())
def test_integer_gram_is_the_textbook_sum(inputs):
    F, A, B, weights = inputs
    gram = integer_gram(F, np.array(A), np.array(B), weights)
    assert gram.dtype == np.int64
    for (a, b), want in textbook_gram(F, A, B, weights).items():
        assert F.from_rows(gram[a, b][None])[0] == want


@settings(max_examples=15, deadline=None)
@given(gram_inputs(big=True))
def test_integer_gram_object_fallback(inputs):
    # entries above 2**64 cannot be held in int64; the bound must send the
    # sum to exact Python integers, with the same result as the textbook sum
    F, A, B, weights = inputs
    gram = integer_gram(F, np.array(A, dtype=object), np.array(B, dtype=object), weights)
    assert gram.dtype == object
    for (a, b), want in textbook_gram(F, A, B, weights).items():
        assert F.from_rows(gram[a, b][None])[0] == want


@pytest.mark.parametrize("n", [1, 8, 9, 17, 70])
def test_upper_gram_is_the_upper_triangle_of_the_full_gram(n):
    # with upper=True the Gram of one array with itself is computed in
    # column chunks on the rows a <= b only (several chunks from n = 9 on);
    # every entry it leaves out is zero
    F = FIELDS[sorted(FIELDS)[-1]]
    rng = np.random.default_rng(n)
    A = rng.integers(-9, 10, size=(n, 6, F.dim))
    weights = rng.integers(1, 30, size=6)
    full, upper = integer_gram(F, A, A, weights), integer_gram(F, A, A, weights, upper=True)
    assert upper.dtype == full.dtype
    a, b = np.triu_indices(n)
    assert np.array_equal(upper[a, b], full[a, b])
    a, b = np.tril_indices(n, -1)
    assert ((upper[a, b] == full[a, b]) | (upper[a, b] == 0)).all()


@settings(max_examples=40, deadline=None)
@given(st.one_of(gram_inputs(), gram_inputs(big=True)))
def test_integer_norms_are_the_gram_diagonal(inputs):
    # the same values and the same dtype as the full gram's diagonal, on the
    # int64 path and on the object path (entries above 2**64)
    F, A, _, weights = inputs
    A = np.array(A)
    gram = integer_gram(F, A, A, weights)
    norms = integer_norms(F, A, weights)
    diag = np.arange(len(A))
    assert norms.dtype == gram.dtype and norms.shape == (len(A), F.dim)
    assert (norms == gram[diag, diag]).all()


@st.composite
def from_rows_inputs(draw, big=False):
    """(field, rows, den): small int64 rows, or object rows with one entry
    above 2**63; den an integer or a rational with a denominator to fold in."""
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    bound = 2 ** 70 if big else 10 ** 6
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=F.dim, max_size=F.dim),
                         min_size=1, max_size=4))
    if big:
        rows[0][0] = draw(st.integers(2 ** 63, 2 ** 70)) * draw(st.sampled_from([1, -1]))
    den = draw(st.integers(1, 2 ** 70 if big else 10 ** 4))
    if draw(st.booleans()):
        den = Fraction(den, draw(st.integers(1, 50)))
    return F, rows, den


def _assert_from_rows_reference(F, got, rows, den):
    assert got == [F.from_coeffs([Fraction(c) / den for c in row]) for row in rows]
    # canonical form: integral coefficients are plain ints, the rest
    # Fractions in lowest terms, so hashes and printed values agree
    for v in got:
        for c in v.coeffs:
            assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


@settings(max_examples=60, deadline=None)
@given(from_rows_inputs())
def test_from_rows_reduces_like_fractions(inputs):
    F, rows, den = inputs
    _assert_from_rows_reference(F, F.from_rows(np.array(rows, dtype=np.int64), den), rows, den)


@settings(max_examples=30, deadline=None)
@given(from_rows_inputs(big=True))
def test_from_rows_object_rows(inputs):
    F, rows, den = inputs
    _assert_from_rows_reference(F, F.from_rows(np.array(rows, dtype=object), den), rows, den)
