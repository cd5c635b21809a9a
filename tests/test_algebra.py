"""Field and cyclotomic arithmetic: exactness, canonical form, round trips."""

import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parasuper.algebra import (
    _SPRP_LIMIT, Cyc, CycField, absmax, cyclotomic_poly, gram_bound, int_dtype, integer_gram, integer_norms,
    is_odd_prime, primitive_root, smallest_nonsquare,
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
        values = F.from_rows(gram.reshape(-1, F.dim))
        for a in range(n):
            for b in range(n):
                assert values[b * n + a] == values[a * n + b].conjugate()


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
