"""Dense exact linear algebra over prime fields.

Vectors and matrices are int64 arrays; every result has entries in [0, p).
A subspace is its rref basis, a (rank, n) array, with the list of its pivot
columns.  Everything is exact arithmetic mod a prime p; no floats.

The stacked routines (rank, rref_stack, right_kernel_stack, inverse) are
for the world's small p: they tabulate all p - 1 inverses and take
p <= STACK_P_MAX.  `rref` and `right_kernel` work one system on Python
ints, for any p.
"""

from __future__ import annotations

import numpy as np


def rref(rows, p, ncols=None):
    """Row-reduce over F_p: (reduced rows as a (rank, n) array, pivot columns).

    Zero rows are dropped; reduced rows have leading entry 1 and zeros
    above and below each pivot, so the result depends on the span alone.
    `ncols` gives n for an empty set of rows.  One system is eliminated on
    Python ints: the systems here are small and many, and a column-by-column
    elimination in numpy was slower on them.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[-1] if ncols is None else ncols
    work = (rows % p).reshape(-1, n).tolist() if rows.size else []
    pivots = []
    row_idx = 0
    for col in range(n):
        if row_idx == len(work):
            break
        piv = next((r for r in range(row_idx, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[row_idx], work[piv] = work[piv], work[row_idx]
        inv = pow(work[row_idx][col], p - 2, p)
        work[row_idx] = [(v * inv) % p for v in work[row_idx]]
        for r in range(len(work)):
            if r != row_idx and work[r][col]:
                f = work[r][col]
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[row_idx])]
        pivots.append(col)
        row_idx += 1
    return np.array(work[:row_idx], dtype=np.int64).reshape(row_idx, n), pivots


STACK_P_MAX = 2 ** 16


def _eliminate(a, p):
    """Row-reduce every matrix of an (F, r, c) stack in place to its rref;
    returns the (F, c) mask of pivot columns.  At each column every matrix
    with a nonzero entry at or below its next pivot row swaps the first such
    row up, scales it to a leading 1 and clears the column in every other
    row (Gauss-Jordan).  Raises ValueError for p > STACK_P_MAX, whose table
    of inverses would be too large: such a system goes to `rref`."""
    if p > STACK_P_MAX:
        raise ValueError("stacked elimination tabulates the inverses mod p and takes "
                         "p <= 2^16, not %d: use rref one system at a time" % p)
    rows, cols = a.shape[1:]
    rk = np.zeros(len(a), dtype=np.int64)
    pivots = np.zeros((len(a), cols), dtype=bool)
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    at = np.arange(rows)
    for col in range(cols):
        cand = (a[:, :, col] != 0) & (at >= rk[:, None])
        m = np.flatnonzero(cand.any(axis=1))
        if not m.size:
            continue
        piv, top = cand[m].argmax(axis=1), rk[m]
        row = a[m, piv]
        a[m, piv] = a[m, top]
        row = row * inv[row[:, col]][:, None] % p
        a[m, top] = row
        f = a[m, :, col] * (at != top[:, None])
        a[m] = (a[m] - f[:, :, None] * row[:, None, :]) % p
        rk[m] += 1
        pivots[m, col] = True
    return pivots


def _stack(mats, p):
    """mats mod p as a fresh (F, r, c) int64 stack, and its leading shape."""
    a = np.array(mats, dtype=np.int64) % p
    lead = a.shape[:-2]
    return a.reshape((int(np.prod(lead)),) + a.shape[-2:]), lead


def rank(mats, p):
    """Rank of every matrix of an (..., r, c) stack, as an array of shape (...),
    from one Gauss-Jordan elimination of the whole stack (_eliminate)."""
    a, lead = _stack(mats, p)
    return _eliminate(a, p).sum(axis=1).reshape(lead)


def rref_stack(mats, p):
    """rref of every matrix of an (..., r, c) stack, from one Gauss-Jordan
    elimination of the whole stack: (reduced, pivots), `reduced` of the
    stack's shape with each matrix's rref rows on top and zero rows below,
    `pivots` the (..., c) mask of its pivot columns.  Matrix by matrix this
    is rref(mats[f], p): its rows are reduced[f, :rank] and its pivot
    columns np.flatnonzero(pivots[f])."""
    a, lead = _stack(mats, p)
    pivots = _eliminate(a, p)
    return a.reshape(lead + a.shape[1:]), pivots.reshape(lead + pivots.shape[1:])


def right_kernel_stack(mats, p):
    """right_kernel of every matrix of an (..., r, c) stack, as an
    (..., c, c) stack: matrix f's first c - rank rows are
    right_kernel(mats[f], p, c) and the rest are zero.

    With R the rref and P the 0/1 matrix sending row i to the i-th pivot
    column, row j of I - R^T P is e_j minus R[i, j] at each pivot column,
    the kernel vector of free column j, and zero when j is a pivot column;
    the rows are then taken free columns first, each group ascending.
    """
    red, lead = _stack(mats, p)
    pivots = _eliminate(red, p)
    rows, cols = red.shape[1:]
    row_of = np.cumsum(pivots, axis=1) - 1                 # row of each pivot column
    place = (pivots[:, None, :] & (row_of[:, None, :] == np.arange(rows)[:, None])).astype(np.int64)
    kern = (np.eye(cols, dtype=np.int64) - red.transpose(0, 2, 1) @ place) % p
    order = np.argsort(pivots, axis=1, kind="stable")
    kern = np.take_along_axis(kern, order[:, :, None], axis=1)
    return kern.reshape(lead + (cols, cols))


def invariant_span(vecs, mats, p):
    """Smallest subspace that contains the vectors (rows) and is mapped into
    itself by every matrix (acting on column vectors), as rref (rows, pivots).

    The rows found so far are kept reduced: each is 1 at its own pivot
    column and 0 at the others, so a batch of candidates is reduced against
    all of them by one product.  A candidate that leaves the span joins it
    and its pivot is cleared from the earlier rows; the images of each row
    under all matrices are the next batch.  A row only changes by multiples
    of rows added after it, whose images are taken later, so by induction
    from the last row the span is invariant.  The rows sorted by pivot are
    the rref.
    """
    mats = np.asarray(mats, dtype=np.int64)
    n = mats.shape[-1]
    rows = np.zeros((0, n), dtype=np.int64)
    pivots = []
    cand = np.asarray(vecs, dtype=np.int64).reshape(-1, n) % p
    done = 0
    while True:
        cand = (cand - cand[:, pivots] @ rows) % p
        cand = cand[cand.any(axis=1)]
        if cand.size:
            piv = int(np.flatnonzero(cand[0])[0])
            row = cand[0] * pow(int(cand[0, piv]), p - 2, p) % p
            rows = np.concatenate([(rows - rows[:, piv, None] * row) % p, row[None]])
            pivots.append(piv)
        elif done < len(rows):
            cand = mats @ rows[done] % p
            done += 1
        else:
            order = np.argsort(pivots)
            return rows[order], [pivots[k] for k in order]


def right_kernel(rows, p, ncols):
    """Basis of {x : A x = 0}, the rows of A linear conditions on F_p^ncols:
    an (ncols - rank, ncols) array, row j the solution that is 1 at the j-th
    free column and 0 at the others."""
    red, pivots = rref(rows, p, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -red[:, free].T % p
    return basis


def det(a, p):
    """Determinant of a square matrix over F_p."""
    work = (np.asarray(a, dtype=np.int64) % p).tolist()
    n = len(work)
    out = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            out = -out % p
        out = out * work[col][col] % p
        inv = pow(work[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = work[r][col] * inv % p
            if f:
                work[r] = [(a_ - f * b_) % p for a_, b_ in zip(work[r], work[col])]
    return out


def inverse(mats, p):
    """Inverse of every matrix of an (..., n, n) stack over F_p, from one
    rref_stack of [A | I]: A is invertible iff its n columns are all pivots,
    and then the rref is [I | A^-1]; else raises ValueError."""
    a = np.asarray(mats, dtype=np.int64)
    n = a.shape[-1]
    red, pivots = rref_stack(np.concatenate(
        [a, np.broadcast_to(np.eye(n, dtype=np.int64), a.shape)], axis=-1), p)
    if not pivots[..., :n].all():
        raise ValueError("matrix is singular mod %d" % p)
    return red[..., n:]
