"""Exact linear algebra over small prime fields, against brute-force row spaces."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parasuper import linalg


def row_space(rows, p):
    """Every vector of the row span, by enumerating all coefficient vectors."""
    rows = np.asarray(rows, dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(p), repeat=len(rows))),
                      dtype=np.int64).reshape(p ** len(rows), len(rows))
    return {tuple(v) for v in (coeffs @ rows % p).tolist()}


def all_vectors(n, p):
    return np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64).reshape(-1, n)


@st.composite
def matrices(draw):
    """(p, an r x c matrix over F_p) with p in {3, 5}, r <= 5 and 1 <= c <= 5."""
    p = draw(st.sampled_from([3, 5]))
    r, c = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c))
    return p, np.array(cells, dtype=np.int64).reshape(r, c)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_rref_is_the_canonical_basis_of_the_row_space(pa, data):
    p, a = pa
    n = a.shape[1]
    red, piv = linalg.rref(a, p, n)
    assert red.dtype == np.int64 and red.shape == (len(piv), n)
    assert row_space(red, p) == row_space(a, p)
    assert len(row_space(red, p)) == p ** len(piv)
    assert piv == sorted(piv) and np.array_equal(red[:, piv], np.eye(len(piv)))
    assert all(not red[i, :c].any() for i, c in enumerate(piv))
    # another generating set: equal arrays exactly when the spans are equal
    k = data.draw(st.integers(0, 5))
    cells = data.draw(st.lists(st.integers(0, p - 1), min_size=k * len(a), max_size=k * len(a)))
    b = np.array(cells, dtype=np.int64).reshape(k, len(a)) @ a % p
    same = row_space(b, p) == row_space(a, p)
    assert np.array_equal(linalg.rref(b, p, n)[0], red) == same


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_right_kernel_is_the_full_solution_set(pa):
    p, a = pa
    n = a.shape[1]
    kern = linalg.right_kernel(a, p, n)
    rank = len(linalg.rref(a, p, n)[1])
    assert kern.dtype == np.int64 and kern.shape == (n - rank, n)
    xs = all_vectors(n, p)
    solutions = {tuple(x) for x in xs[~(xs @ a.T % p).any(axis=1)].tolist()}
    assert row_space(kern, p) == solutions


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(1, 4), st.integers(0, 5), st.integers(0, 5),
       st.data())
def test_rank_of_a_stack_counts_each_row_space(p, s, r, c, data):
    cells = data.draw(st.lists(st.integers(0, p - 1), min_size=s * r * c, max_size=s * r * c))
    mats = np.array(cells, dtype=np.int64).reshape(s, r, c)
    got = linalg.rank(mats, p)
    assert got.shape == (s,)
    for m, k in zip(mats, got):
        assert p ** int(k) == len(row_space(m, p))
    assert np.array_equal(linalg.rank(mats.reshape(1, s, r, c), p), got[None])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(1, 5), st.data())
def test_inverse_times_the_matrix_is_the_identity(p, n, data):
    cells = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    a = np.array(cells, dtype=np.int64).reshape(n, n)
    if len(row_space(a, p)) < p ** n:
        with pytest.raises(ValueError, match="singular"):
            linalg.inverse(a, p)
        assert linalg.det(a, p) == 0
    else:
        inv = linalg.inverse(a, p)
        assert inv.dtype == np.int64
        assert np.array_equal(inv @ a % p, np.eye(n))


def inverse_by_rref(a, p):
    """One matrix inverted by row-reducing [A | I], or None if singular."""
    n = len(a)
    red, pivots = linalg.rref(np.hstack([a, np.eye(n, dtype=np.int64)]), p)
    return red[:n, n:] if pivots[:n] == list(range(n)) else None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(0, 5), st.integers(1, 4), st.booleans(),
       st.data())
def test_inverse_of_a_stack_is_the_inverse_of_each_matrix(p, s, n, singular, data):
    cells = data.draw(st.lists(st.integers(0, p - 1), min_size=s * n * n, max_size=s * n * n))
    mats = np.array(cells, dtype=np.int64).reshape(s, n, n)
    if singular and s:
        # one matrix gets a row that is a multiple of another, or zero
        k, r = data.draw(st.integers(0, s - 1)), data.draw(st.integers(0, n - 1))
        mats[k, r] = data.draw(st.integers(0, p - 1)) * mats[k, r - 1] % p if n > 1 else 0
    want = [inverse_by_rref(m, p) for m in mats]
    if any(w is None for w in want):
        with pytest.raises(ValueError, match="singular mod %d" % p):
            linalg.inverse(mats, p)
        return
    got = linalg.inverse(mats, p)
    assert got.dtype == np.int64 and got.shape == (s, n, n)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(linalg.inverse(mats.reshape(1, s, n, n), p), got[None])


@st.composite
def stacks(draw):
    """(p, an (s, r, c) stack over F_p) with p in {3, 5, 7}; the stack may be
    empty, all zero, or made of full-rank matrices (a random matrix with
    the identity in its first columns)."""
    p = draw(st.sampled_from([3, 5, 7]))
    s, r, c = draw(st.integers(0, 4)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["random", "zero", "full-rank"]))
    cells = draw(st.lists(st.integers(0, p - 1), min_size=s * r * c, max_size=s * r * c))
    mats = np.array(cells, dtype=np.int64).reshape(s, r, c)
    if kind == "zero":
        mats[:] = 0
    elif kind == "full-rank":
        k = min(r, c)
        mats[:, :k, :k] = np.eye(k, dtype=np.int64)
        mats[:, k:, :] = 0
    return p, mats


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_stack_elimination_is_rref_and_right_kernel_of_each_matrix(pm):
    p, mats = pm
    s, r, c = mats.shape
    red, pivots = linalg.rref_stack(mats, p)
    kern = linalg.right_kernel_stack(mats, p)
    assert red.dtype == kern.dtype == np.int64
    assert red.shape == (s, r, c) and pivots.shape == (s, c) and kern.shape == (s, c, c)
    for m, got, piv, ker in zip(mats, red, pivots, kern):
        want, want_piv = linalg.rref(m, p, c)
        k = len(want_piv)
        assert np.array_equal(got[:k], want) and not got[k:].any()
        assert np.flatnonzero(piv).tolist() == want_piv
        assert np.array_equal(ker[:c - k], linalg.right_kernel(m, p, c)) and not ker[c - k:].any()
    assert np.array_equal(linalg.rank(mats, p), pivots.sum(axis=1))
    lead = linalg.rref_stack(mats.reshape(1, s, r, c), p)
    assert np.array_equal(lead[0], red[None]) and np.array_equal(lead[1], pivots[None])
    assert np.array_equal(linalg.right_kernel_stack(mats.reshape(1, s, r, c), p), kern[None])


@pytest.mark.parametrize("routine", [linalg.rank, linalg.rref_stack, linalg.right_kernel_stack,
                                     linalg.inverse])
def test_stacked_routines_refuse_a_large_prime(routine):
    # the stacked elimination tabulates all p - 1 inverses; past 2^16 it
    # refuses before the table and points to rref, and the world's small
    # primes still agree with rref matrix by matrix
    mats = np.array([[[1, 2], [3, 4]], [[2, 0], [0, 1]]])
    with pytest.raises(ValueError, match="rref"):
        routine(mats, 65537)
    for p in (3, 5, 7):
        red, pivots = linalg.rref_stack(mats, p)
        for m, got, piv in zip(mats, red, pivots):
            want, want_piv = linalg.rref(m, p)
            assert np.array_equal(got[:len(want)], want)
            assert np.flatnonzero(piv).tolist() == want_piv


def test_rref_and_rank():
    rows = np.array([(1, 2, 0), (2, 4, 0), (0, 1, 1)])
    red, piv = linalg.rref(rows, 3)
    assert piv == [0, 1] and red.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert linalg.rank(rows, 3) == 2
    empty, piv = linalg.rref(np.zeros((0, 4), dtype=np.int64), 3)
    assert empty.shape == (0, 4) and piv == []
    assert linalg.right_kernel(empty, 3, 4).tolist() == np.eye(4, dtype=int).tolist()


def test_invariant_span_returns_an_rref_array():
    # the shift x -> (x_2, x_3, 0) closes e_3 into the whole space
    shift = np.array([[[0, 1, 0], [0, 0, 1], [0, 0, 0]]])
    rows, piv = linalg.invariant_span(np.array([0, 0, 1]), shift, 5)
    assert np.array_equal(rows, np.eye(3)) and piv == [0, 1, 2]
    rows, piv = linalg.invariant_span(np.array([1, 0, 0]), shift, 5)
    assert rows.tolist() == [[1, 0, 0]] and piv == [0]
    rows, piv = linalg.invariant_span(np.zeros(3, dtype=np.int64), shift, 5)
    assert rows.shape == (0, 3) and piv == []


def invariant_span_by_rows(vecs, mats, p):
    """Reference: the row-by-row invariant span, each candidate batch reduced
    against one basis row at a time and the result put in rref at the end."""
    mats = np.asarray(mats, dtype=np.int64)
    rows, pivots = [], []
    cand = np.array(vecs, dtype=np.int64, ndmin=2) % p
    done = 0
    while True:
        for row, piv in zip(rows, pivots):
            cand = (cand - cand[:, piv, None] * row) % p
        cand = cand[cand.any(axis=1)]
        if cand.size:
            piv = int(np.flatnonzero(cand[0])[0])
            rows.append(cand[0] * pow(int(cand[0, piv]), p - 2, p) % p)
            pivots.append(piv)
        elif done < len(rows):
            cand = mats @ rows[done] % p
            done += 1
        else:
            return linalg.rref(rows, p, mats.shape[-1])


@st.composite
def span_problems(draw):
    """(p, seed rows, matrix stack) over F_3 or F_5: up to 3 seed rows of
    width 1..5, zero rows included, and 0..3 matrices, singular or not."""
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(1, 5))
    k, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    cells = st.integers(0, p - 1) | st.just(0)
    vecs = draw(st.lists(cells, min_size=k * n, max_size=k * n))
    mats = draw(st.lists(cells, min_size=m * n * n, max_size=m * n * n))
    return (p, np.array(vecs, dtype=np.int64).reshape(k, n),
            np.array(mats, dtype=np.int64).reshape(m, n, n))


@settings(max_examples=150, deadline=None)
@given(span_problems())
def test_invariant_span_is_the_row_by_row_span(problem):
    p, vecs, mats = problem
    got, piv = linalg.invariant_span(vecs, mats, p)
    want, want_piv = invariant_span_by_rows(vecs, mats, p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want) and piv == want_piv
    assert all(isinstance(c, int) for c in piv)


@pytest.mark.parametrize("vecs, mats", [
    (np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3, 3), dtype=np.int64)),
    (np.array([[0, 2, 1]]), np.zeros((0, 3, 3), dtype=np.int64)),
    (np.zeros((0, 3), dtype=np.int64), np.eye(3, dtype=np.int64)[None]),
    (np.array([1, 1, 0]), np.array([[[1, 1, 0], [1, 1, 0], [0, 0, 0]]])),
])
def test_invariant_span_edge_cases_match_the_row_by_row_span(vecs, mats):
    # zero vectors, an empty matrix stack, no vectors, a singular matrix
    for p in (3, 5):
        got, piv = linalg.invariant_span(vecs, mats, p)
        want, want_piv = invariant_span_by_rows(vecs, mats, p)
        assert np.array_equal(got, want) and got.shape == want.shape and piv == want_piv


def test_det_multiplicative():
    random.seed(11)
    p = 7
    for _ in range(30):
        a = np.array([[random.randrange(p) for _ in range(3)] for _ in range(3)])
        b = np.array([[random.randrange(p) for _ in range(3)] for _ in range(3)])
        assert linalg.det(a @ b, p) == linalg.det(a, p) * linalg.det(b, p) % p
