"""Dense exact linear algebra over prime fields.

Vectors are tuples/lists of ints in [0, m); matrices are lists of row
vectors.  Everything is exact arithmetic mod a prime m; no floats.
"""

from __future__ import annotations

import numpy as np


def rref(rows, m):
    """Row-reduce over F_m.  Returns (reduced_rows, pivot_columns).

    Zero rows are dropped; reduced rows have leading entry 1 and zeros
    above and below each pivot.
    """
    work = [list(int(x) % m for x in r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    out = []
    row_idx = 0
    for col in range(ncols):
        piv = None
        for r in range(row_idx, len(work)):
            if work[r][col] % m:
                piv = r
                break
        if piv is None:
            continue
        work[row_idx], work[piv] = work[piv], work[row_idx]
        inv = pow(work[row_idx][col], m - 2, m)
        work[row_idx] = [(v * inv) % m for v in work[row_idx]]
        for r in range(len(work)):
            if r != row_idx and work[r][col] % m:
                f = work[r][col]
                work[r] = [(a - f * b) % m for a, b in zip(work[r], work[row_idx])]
        pivots.append(col)
        row_idx += 1
        if row_idx == len(work):
            break
    for r in range(row_idx):
        out.append(tuple(work[r]))
    return out, pivots


def rank(rows, m):
    return len(rref(rows, m)[1])


def reduce_vec(rref_rows, pivots, v, m):
    """Reduce v against an rref basis; result is 0 iff v is in the span."""
    w = [int(x) % m for x in v]
    for row, p in zip(rref_rows, pivots):
        f = w[p]
        if f:
            w = [(a - f * b) % m for a, b in zip(w, row)]
    return w


def in_span(rref_rows, pivots, v, m):
    return not any(reduce_vec(rref_rows, pivots, v, m))


def invariant_span(vecs, mats, m):
    """Smallest subspace that contains the vectors and is mapped into itself
    by every matrix (acting on column vectors), as rref (rows, pivots).

    A vector that leaves the span so far joins it, reduced against the
    earlier rows, and its images under all matrices are reduced in one array.
    """
    mats = np.asarray(mats, dtype=np.int64)
    rows, pivots = [], []
    cand = np.array(vecs, dtype=np.int64, ndmin=2) % m
    done = 0
    while True:
        for row, piv in zip(rows, pivots):
            cand = (cand - cand[:, piv, None] * row) % m
        cand = cand[cand.any(axis=1)]
        if cand.size:
            piv = int(np.flatnonzero(cand[0])[0])
            rows.append(cand[0] * pow(int(cand[0, piv]), m - 2, m) % m)
            pivots.append(piv)
        elif done < len(rows):
            cand = mats @ rows[done] % m
            done += 1
        else:
            return rref(rows, m)


def right_kernel(rows, m, ncols=None):
    """Basis of {x : A x = 0} where the rows of A are linear conditions."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows, m) if rows else ([], [])
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, p in zip(red, pivots):
            vec[p] = (-row[free]) % m
        basis.append(tuple(vec))
    return basis


def intersect(basis_a, basis_b, m):
    """Basis of the intersection of two row-span subspaces."""
    if not basis_a or not basis_b:
        return []
    na, nb = len(basis_a), len(basis_b)
    ncols = len(basis_a[0])
    # kernel of [A^T | -B^T] gives coefficient pairs with equal combinations
    rows = []
    for c in range(ncols):
        rows.append([basis_a[i][c] for i in range(na)] + [(-basis_b[j][c]) % m for j in range(nb)])
    combined = right_kernel(rows, m, na + nb)
    vecs = []
    for coeff in combined:
        v = [0] * ncols
        for i in range(na):
            if coeff[i]:
                v = [(a + coeff[i] * b) % m for a, b in zip(v, basis_a[i])]
        vecs.append(tuple(v))
    red, _ = rref(vecs, m) if vecs else ([], [])
    return list(red)


def det(a, m):
    """Determinant of a square matrix over F_m."""
    work = [[int(x) % m for x in row] for row in a]
    n = len(work)
    out = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            out = -out % m
        out = out * work[col][col] % m
        inv = pow(work[col][col], m - 2, m)
        for r in range(col + 1, n):
            f = work[r][col] * inv % m
            if f:
                work[r] = [(a_ - f * b_) % m for a_, b_ in zip(work[r], work[col])]
    return out % m


def inverse(a, m):
    """Inverse of a square matrix over F_m; raises ValueError if singular."""
    n = len(a)
    aug = [list(a[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    red, pivots = rref(aug, m)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod %d" % m)
    return tuple(tuple(row[n:]) for row in red[:n])
