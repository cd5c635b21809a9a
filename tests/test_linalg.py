"""Exact linear algebra over small prime fields."""

import itertools
import random

from parasuper import linalg


def test_rref_and_rank():
    rows = [(1, 2, 0), (2, 4, 0), (0, 1, 1)]
    red, piv = linalg.rref(rows, 3)
    assert piv == [0, 1]
    assert linalg.rank(rows, 3) == 2


def test_right_kernel_exhaustive():
    p = 3
    rows = [(1, 1, 1), (0, 1, 2)]
    kern = linalg.right_kernel(rows, p, 3)
    sols = {tuple(v) for v in itertools.product(range(p), repeat=3)
            if all(sum(r[i] * v[i] for i in range(3)) % p == 0 for r in rows)}
    spanned = set()
    for coeffs in itertools.product(range(p), repeat=len(kern)):
        vec = [0, 0, 0]
        for c, b in zip(coeffs, kern):
            vec = [(x + c * y) % p for x, y in zip(vec, b)]
        spanned.add(tuple(vec))
    assert spanned == sols


def test_solve_and_inverse():
    random.seed(3)
    p = 5
    for _ in range(40):
        a = [[random.randrange(p) for _ in range(3)] for _ in range(3)]
        try:
            inv = linalg.inverse(a, p)
        except ValueError:
            assert linalg.det(a, p) == 0
            continue
        prod = [[sum(a[i][k] * inv[k][j] for k in range(3)) % p for j in range(3)]
                for i in range(3)]
        assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_det_multiplicative():
    random.seed(11)
    p = 7
    for _ in range(30):
        a = [[random.randrange(p) for _ in range(3)] for _ in range(3)]
        b = [[random.randrange(p) for _ in range(3)] for _ in range(3)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(3)) % p for j in range(3)]
              for i in range(3)]
        assert linalg.det(ab, p) == linalg.det(a, p) * linalg.det(b, p) % p


def test_intersect():
    p = 3
    a = [(1, 0, 0), (0, 1, 0)]
    b = [(0, 1, 0), (0, 0, 1)]
    inter = linalg.intersect(a, b, p)
    assert inter == [(0, 1, 0)]
    assert linalg.intersect(a, [], p) == []


def test_in_span_and_reduce():
    p = 5
    red, piv = linalg.rref([(1, 2, 3), (0, 1, 4)], p)
    assert linalg.in_span(red, piv, (1, 3, 2), p)
    assert not linalg.in_span(red, piv, (0, 0, 1), p)

