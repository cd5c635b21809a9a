"""Field and cyclotomic arithmetic: exactness, canonical form, printed values."""

import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from cyclo import Cyclo
from hypothesis import given, settings, strategies as st

from parasuper.algebra import (
    _SPRP_LIMIT, CycField, absmax, cyclotomic_poly, gram_bound, int_dtype, integer_gram, integer_norms,
    is_odd_prime, primitive_root, serialize, smallest_nonsquare,
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


def by_trial_division(q):
    return q > 2 and q % 2 == 1 and all(q % d for d in range(3, isqrt(q) + 1, 2))


@pytest.mark.parametrize("start", [0, 2 ** 27, 2 ** 28 - 3000])
def test_is_odd_prime_is_trial_division(start):
    assert [q for q in range(start, start + 3000) if is_odd_prime(q)] == [
        q for q in range(start, start + 3000) if by_trial_division(q)]


@pytest.mark.parametrize("q, prime", [
    (2047, False),                          # strong pseudoprime to base 2
    (3215031751, False),                    # ... to the bases 2, 3, 5, 7
    (3825123056546413051, False),           # ... to the prime bases up to 31
    (318665857834031151167461, False),      # ... to the prime bases up to 37
    (2 ** 61 - 1, True),
    (2 ** 31 - 1, True),
    (134217757, True),                      # the first prime = 1 mod 2 past 2^27
])
def test_is_odd_prime_on_strong_pseudoprimes(q, prime):
    assert is_odd_prime(q) is prime


def test_is_odd_prime_refuses_an_odd_q_past_the_proved_limit():
    # the strong probable-prime test is exact only below _SPRP_LIMIT, and
    # check_config turns every q past 2^16 away before asking
    assert is_odd_prime(_SPRP_LIMIT + 1) is False
    with pytest.raises(ValueError, match="exact only below"):
        is_odd_prime(2 ** 89 - 1)


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


def test_additive_character_properties():
    for p, M in ((3, 3), (5, 5), (3, 6)):
        F = CycField(M)
        one, zero = Cyclo(M, [1]), Cyclo(M)
        eps = Cyclo.rows(M, F.eps_rows(p))
        assert eps[0] == one
        assert eps[1] != one
        total = zero
        for t in range(p):
            total = total + eps[t]
        assert total == zero
        for s in range(p):
            for t in range(p):
                assert eps[s] * eps[t] == eps[(s + t) % p]
        assert eps[1] * eps[p - 1] == one
    with pytest.raises(ValidationError):
        CycField(4).eps_rows(3)


def zeta(F, k):
    """zeta^k as a one-row integer array, from the field's power rows."""
    return F.pow_rows[[k % F.M]]


def conj_rows(F, A):
    """Row-wise conjugates: zeta^d goes to zeta^(-d), read off the field's
    conjugation tensor, whose [0, d] is zeta^(0 - d)."""
    return np.asarray(A) @ F.conj_tensor[0]


def test_additive_inverse_and_unity_roots():
    F = CycField(5)
    x = zeta(F, 1) + zeta(F, 3)
    assert not (x + (-x)).any()
    # zeta * zeta^(p-1) = 1 via reduction
    assert (F.mul_rows(zeta(F, 1), zeta(F, 4)) == zeta(F, 0)).all()
    # 1 + zeta + ... + zeta^(p-1) = 0
    assert not F.pow_rows[:5].sum(axis=0).any()


def test_conjugation():
    F = CycField(5)
    one = zeta(F, 0)
    assert (conj_rows(F, one) == one).all()
    assert (conj_rows(F, zeta(F, 1)) == zeta(F, 4)).all()
    a = zeta(F, 1) + zeta(F, 2)
    assert (conj_rows(F, conj_rows(F, a)) == a).all()
    # oracle: (z + z^2)(z^4 + z^3) = z^5 + z^4 + z^6 + z^5 = 2 + z^4 + z
    got = F.mul_rows(a, conj_rows(F, a))
    assert (got == 2 * one + zeta(F, 4) + zeta(F, 1)).all()
    assert Cyclo(F.M, got[0]) == Cyclo(F.M, a[0]) * Cyclo(F.M, a[0]).conj()


def test_conjugate_product_is_rational_for_norm_sums():
    F = CycField(12)
    vals = np.concatenate([zeta(F, k) + k * zeta(F, 0) for k in range(12)])
    total = F.mul_rows(vals, conj_rows(F, vals)).sum(axis=0)
    # a full Galois-orbit style sum has rational norm total
    assert (conj_rows(F, total) == total).all()
    assert (integer_norms(F, vals[None], [1] * 12)[0] == total).all()


def test_canonical_equality_and_hash():
    # zeta^2 + zeta^2 over 1 and 4 zeta^2 over 2 are one canonical pair
    F = CycField(7)
    pairs = []
    for num, den in ((zeta(F, 2) + zeta(F, 2), 1), (4 * zeta(F, 2), 2)):
        rows, dens = F.reduce_rows(num, den)
        pairs.append((tuple(rows[0].tolist()), int(dens[0])))
    x, y = pairs
    assert x == y and hash(x) == hash(y)
    assert x == Cyclo(F.M, [0, 0, 2]).pair()


def test_scale_fraction():
    # zeta over the rational den 3/2 is 2/3 zeta
    F = CycField(3)
    rows, dens = F.reduce_rows(zeta(F, 1), Fraction(3, 2))
    assert (rows.tolist(), dens.tolist()) == ([[0, 2]], [3])
    assert serialize(rows[0], int(dens[0])) == ["0", "2/3"]


def test_serialize_round_trip():
    # a canonical pair prints the value's coefficients, and the text reads
    # back as the same Fractions
    random.seed(7)
    for M in (3, 5, 12, 20):
        F = CycField(M)
        for _ in range(25):
            coeffs = [Fraction(random.randrange(-9, 10), random.randrange(1, 7))
                      for _ in range(F.dim)]
            value = Cyclo(M, coeffs)
            row, den = value.pair()
            rows, dens = F.reduce_rows(np.array([row]), den)
            text = serialize(rows[0], int(dens[0]))
            assert text == value.text()
            assert [Fraction(s) for s in text] == coeffs
    # denominator-1 entries serialize without the slash
    F = CycField(3)
    rows, dens = F.reduce_rows(np.array([[2, 1]]), 2)
    assert serialize(rows[0], int(dens[0])) == ["1", "1/2"]


def random_rows(F, n, lo=-6, hi=6):
    return np.array([[random.randint(lo, hi) for _ in range(F.dim)] for _ in range(n)])


def test_ring_axioms_randomized():
    random.seed(13)
    for M in (5, 12, 20):
        F = CycField(M)
        one = np.repeat(zeta(F, 0), 30, axis=0)
        a, b, c = random_rows(F, 30), random_rows(F, 30), random_rows(F, 30)
        mul = F.mul_rows
        assert (mul(a, b) == mul(b, a)).all()
        assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
        assert (mul(a, b + c) == mul(a, b) + mul(a, c)).all()
        assert (conj_rows(F, mul(a, b)) == mul(conj_rows(F, a), conj_rows(F, b))).all()
        assert (mul(a, one) == a).all()
        for x, y, xy in zip(a, b, mul(a, b)):
            assert Cyclo(M, xy) == Cyclo(M, x) * Cyclo(M, y)


def test_embedded_roots_of_unity():
    # zeta_4 = zeta_20^5 inside Q(zeta_20); eps_rows(4) reads its powers
    F = CycField(20)
    z4 = zeta(F, 5)
    assert (F.mul_rows(z4, z4) == zeta(F, 10)).all()
    prod = zeta(F, 0)
    for _ in range(4):
        prod = F.mul_rows(prod, z4)
    assert (prod == zeta(F, 0)).all()
    assert (F.eps_rows(4)[1] == z4[0]).all()
    with pytest.raises(ValidationError):
        F.eps_rows(3)


@st.composite
def field_triples(draw):
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rows = st.lists(st.lists(st.integers(-9, 9), min_size=F.dim, max_size=F.dim),
                    min_size=3, max_size=3)
    a, b, c = np.array(draw(rows))[:, None, :]
    return F, a, b, c


@settings(max_examples=60, deadline=None)
@given(field_triples())
def test_field_axioms_hypothesis(triple):
    F, a, b, c = triple
    mul = F.mul_rows
    assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
    assert (mul(a, b + c) == mul(a, b) + mul(a, c)).all()
    assert Cyclo(F.M, mul(a, b)[0]) == Cyclo(F.M, a[0]) * Cyclo(F.M, b[0])
    # conjugation is an involutive field automorphism
    assert (conj_rows(F, conj_rows(F, a)) == a).all()
    assert (conj_rows(F, a + b) == conj_rows(F, a) + conj_rows(F, b)).all()
    assert (conj_rows(F, mul(a, b)) == mul(conj_rows(F, a), conj_rows(F, b))).all()
    assert Cyclo(F.M, conj_rows(F, a)[0]) == Cyclo(F.M, a[0]).conj()


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
    """sum_K w_K a(K) conj(b(K)), one product at a time in the tests' own
    cyclotomic arithmetic."""
    out = {}
    for a, rows_a in enumerate(A):
        for b, rows_b in enumerate(B):
            acc = Cyclo(F.M)
            for w, x, y in zip(weights, rows_a, rows_b):
                acc = acc + Cyclo(F.M, x) * Cyclo(F.M, y).conj() * w
            out[a, b] = acc
    return out


@settings(max_examples=40, deadline=None)
@given(gram_inputs())
def test_integer_gram_is_the_textbook_sum(inputs):
    F, A, B, weights = inputs
    gram = integer_gram(F, np.array(A), np.array(B), weights)
    assert gram.dtype == np.int64
    for (a, b), want in textbook_gram(F, A, B, weights).items():
        assert Cyclo(F.M, gram[a, b]) == want


@settings(max_examples=15, deadline=None)
@given(gram_inputs(big=True))
def test_integer_gram_object_fallback(inputs):
    # entries above 2**64 cannot be held in int64; the bound must send the
    # sum to exact Python integers, with the same result as the textbook sum
    F, A, B, weights = inputs
    gram = integer_gram(F, np.array(A, dtype=object), np.array(B, dtype=object), weights)
    assert gram.dtype == object
    for (a, b), want in textbook_gram(F, A, B, weights).items():
        assert Cyclo(F.M, gram[a, b]) == want


def einsum_gram(F, A, B, weights):
    """The Gram by expansion: conj(B[b, K]) times zeta^c, for every c, read
    off the (dim, dim, dim) conjugation tensor, then one product over (K, c)
    with A; int64 under the bound sum|w| max|A| max|B| max|red| dim^2."""
    red, dim = F.conj_tensor, F.dim
    A, B, w = np.asarray(A), np.asarray(B), np.asarray(weights)
    amax, bmax, wsum = absmax(A), absmax(B), sum(abs(int(x)) for x in w.tolist())
    dtype = int_dtype(max(amax, bmax, wsum, wsum * amax * bmax * absmax(red) * dim ** 2))
    na, k, nb = A.shape[0], A.shape[1], B.shape[0]
    Bc = np.tensordot(B.astype(dtype) * w.astype(dtype)[None, :, None], red.astype(dtype),
                      axes=([2], [1]))
    Bt = Bc.transpose(1, 2, 0, 3).reshape(k * dim, nb * dim)
    return np.einsum("ij,jk->ik", A.astype(dtype).reshape(na, k * dim), Bt).reshape(na, nb, dim)


GRAM_FIELDS = {M: CycField(M) for M in (2, 3, 4, 12, 20, 120)}

# scale -> (entry bound, forced entry, k range, number of primes the bound
# needs): the forced entry A[0, 0, 0] = B[0, 0, 0] with w_0 >= 1 puts the
# bound at or above its square, every modulus is a prime in (2^27, 2^28),
# and k above 128 takes more than one K-chunk
GRAM_SCALES = {
    "one-prime": (3, 3, (1, 6), (1, 1)),
    "two-primes": (2 ** 14, 2 ** 14, (1, 6), (2, 2)),
    "three-primes": (2 ** 28, 2 ** 28, (1, 6), (3, 9)),
    "object": (2 ** 70, 2 ** 66, (1, 4), (5, 9)),
    "long": (3, 3, (129, 300), (1, 2)),
}


@st.composite
def scaled_gram_inputs(draw, scale):
    """(field, A, B, weights) at one of GRAM_SCALES; the entries come from a
    drawn seed, so a long k costs one draw."""
    bound, forced, (kmin, kmax), _ = GRAM_SCALES[scale]
    F = GRAM_FIELDS[draw(st.sampled_from(sorted(GRAM_FIELDS)))]
    k, na, nb = draw(st.integers(kmin, kmax)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def stack(n):
        out = np.array([rng.randint(-bound, bound) for _ in range(n * k * F.dim)],
                       dtype=object).reshape(n, k, F.dim)
        out[0, 0, 0] = forced
        return out if bound > 2 ** 62 else out.astype(np.int64)
    weights = [rng.randint(1, 40)] + [rng.randint(0, 40) for _ in range(k - 1)]
    return F, stack(na), stack(nb), weights


@pytest.mark.parametrize("scale", sorted(GRAM_SCALES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_evaluated_gram_is_the_einsum_gram(scale, data):
    # one prime, several, and exact Python integers: the same coefficients as
    # the einsum Gram, which the bound caps, in the dtype the bound picks
    F, A, B, weights = data.draw(scaled_gram_inputs(scale))
    bound = gram_bound(F, A, B, weights)
    lo, hi = GRAM_SCALES[scale][3]
    assert lo <= len(F.moduli(bound)) <= hi
    want = einsum_gram(F, A, B, weights)
    assert absmax(want) <= bound
    for X, Y in ((A, B), (A, A), (B, B)):
        got = integer_gram(F, X, Y, weights)
        assert got.dtype == int_dtype(gram_bound(F, X, Y, weights))
        assert (got == einsum_gram(F, X, Y, weights)).all()
    diag = np.arange(len(A))
    assert (integer_norms(F, A, weights) == einsum_gram(F, A, A, weights)[diag, diag]).all()


@pytest.mark.parametrize("n", [1, 8, 9, 17, 70])
def test_gram_of_one_array_is_hermitian(n):
    # A with itself evaluates one embedding of each pair {j, -j} and
    # transposes for the other: the same Gram as from a copy of A, and
    # G[b, a] = conj(G[a, b]); for M = 2 the one embedding is its own pair
    rng = np.random.default_rng(n)
    for F in GRAM_FIELDS.values():
        A = rng.integers(-9, 10, size=(n, 6, F.dim))
        weights = rng.integers(1, 30, size=6)
        gram = integer_gram(F, A, A, weights)
        assert (gram == integer_gram(F, A, A.copy(), weights)).all()
        values = Cyclo.rows(F.M, gram.reshape(-1, F.dim))
        for a in range(n):
            for b in range(n):
                assert values[b * n + a] == values[a * n + b].conj()


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
def reduce_rows_inputs(draw, big=False):
    """(field, rows, den, k): small int64 rows, or object rows with one entry
    above 2**63, some entries and maybe a whole row zero; den an integer or
    a rational with a denominator to fold in, as chi_alpha_u's
    orbit-size ratio; k a factor that leaves every value as it is when it
    multiplies both the rows and den."""
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    bound = 2 ** 70 if big else 10 ** 6
    entries = st.one_of(st.just(0), st.integers(-bound, bound))
    rows = draw(st.lists(st.lists(entries, min_size=F.dim, max_size=F.dim),
                         min_size=1, max_size=4))
    if big:
        rows[0][0] = draw(st.integers(2 ** 63, 2 ** 70)) * draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        rows.append([0] * F.dim)
    den = draw(st.integers(1, 2 ** 70 if big else 10 ** 4))
    if draw(st.booleans()):
        den = Fraction(den, draw(st.integers(1, 50)))
    return F, rows, den, draw(st.integers(1, 6))


def fraction_text(f):
    """A coefficient's text: n, or n/d in lowest terms with d > 1."""
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def _assert_reduce_rows_reference(F, rows, den, k, dtype):
    # reduce_rows against Fraction arithmetic: each pair is canonical and
    # has the row's value, two pairs are equal exactly when their values
    # are (a row times k over den times k is the same value), and serialize
    # prints each coefficient of a pair, or of the unreduced row over den,
    # as n or n/d in lowest terms
    num = np.array(rows, dtype=dtype)
    pairs = []
    for scaled, d in ((num, den), (num * k, den * k)):
        got, dens = F.reduce_rows(scaled, d)
        pairs += [(tuple(r), e) for r, e in zip(got.tolist(), dens.tolist())]
    want = [tuple(Fraction(c) / den for c in row) for row in rows] * 2
    for (row, d), value in zip(pairs, want):
        assert type(d) is int and d > 0 and gcd(d, *row) == 1
        assert all(type(c) is int for c in row)
        assert tuple(Fraction(c, d) for c in row) == value
        assert serialize(row, d) == [fraction_text(c) for c in value]
    for row, value in zip(rows, want):
        assert serialize(row, den) == [fraction_text(c) for c in value]
    assert [[a == b for b in pairs] for a in pairs] == [[x == y for y in want] for x in want]


@settings(max_examples=60, deadline=None)
@given(reduce_rows_inputs())
def test_reduce_rows_is_fraction_arithmetic(inputs):
    _assert_reduce_rows_reference(*inputs, np.int64)


@settings(max_examples=30, deadline=None)
@given(reduce_rows_inputs(big=True))
def test_reduce_rows_object_rows(inputs):
    _assert_reduce_rows_reference(*inputs, object)


def test_serialize_prints_lowest_terms():
    assert serialize((2, -3, 0), 1) == ["2", "-3", "0"]
    assert serialize((2, 1), 2) == ["1", "1/2"]
    assert serialize((4, -6), Fraction(8, 3)) == ["3/2", "-9/4"]
