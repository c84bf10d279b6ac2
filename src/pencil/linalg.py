"""Exact nullspace of the integer matrices of the crack-admissibility rank decisions.

A matrix, a nonempty list of rows of `int`s, is reduced by fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968, with the rows above
each pivot cleared as well): every entry stays an integer, each division by
the previous pivot is exact, and at the end the matrix is d times its RREF,
with d the last pivot.  `Fraction`s are made only for the kernel returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["rational_kernel"]


def _fraction_free_rref(m: list[list[int]]) -> tuple[int, list[int]]:
    """Reduce the integer matrix m in place to d * RREF(m); return (d, pivot columns).

    After each pivot p, every other row i becomes (p row_i - m[i][c] row_pivot) / d
    with d the pivot before it (1 at first).  By induction the matrix is then p
    times the partial Gauss-Jordan form whose pivots are 1, and p is the
    determinant of the pivot rows and columns met so far, so by Cramer's rule the
    division is exact.  A row with a zero in the pivot column is scaled by p / d
    all the same; the pivot row itself is left as it is.
    """
    nrows = len(m)
    d = 1
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        row = m[r]
        p = row[c]
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // d for a, b in zip(m[i], row)]
        d = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return d, pivots


def rational_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace {v : M v = 0}, each vector with one free coordinate set to 1.

    An entry that is not an `int` raises `TypeError`: on a `Fraction` the
    elimination's floor division would not be exact.
    """
    if any(type(v) is not int for row in rows for v in row):
        raise TypeError("rational_kernel takes rows of int entries")
    m = list(rows)
    d, pivots = _fraction_free_rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][fc], d)
        basis.append(tuple(v))
    return basis
