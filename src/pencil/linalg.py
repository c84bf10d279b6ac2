"""Exact row reduction and nullspace computation for rational matrices.

A matrix is a list of rows of exact rationals (`int` or `Fraction`, or
anything `Fraction` accepts).  Each row is first scaled by the lcm of its
entries' denominators, which leaves its row space, and so the reduced
row-echelon form, as it is.  The integer matrix is then reduced by
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968, with
the rows above each pivot cleared as well): every entry stays an integer,
each step's division by the previous pivot is exact, and at the end the
matrix is d times its RREF, with d the last pivot.  `Fraction`s are made
only for the entries returned.  Used for the exact crack-admissibility rank
decisions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

__all__ = ["rational_rref", "rational_kernel"]


def _ratio(value) -> tuple[int, int]:
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.as_integer_ratio()


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators: integer rows with the same RREF."""
    out = []
    for row in rows:
        ratios = [_ratio(v) for v in row]
        scale = lcm(*(den for _, den in ratios))
        out.append([num * (scale // den) for num, den in ratios])
    return out


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


def rational_rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form and pivot column indices, exactly."""
    if not rows:
        return [], []
    m = _integer_rows(rows)
    d, pivots = _fraction_free_rref(m)
    return [[Fraction(a, d) for a in row] for row in m], pivots


def rational_kernel(rows: Sequence[Sequence[Fraction]], ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace {v : M v = 0}.

    Each basis vector has a single free coordinate set to 1, which makes the
    result deterministic for a given matrix.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for a matrix with no rows")
        ncols = len(rows[0])
    if not rows:
        return [
            tuple(Fraction(int(i == j)) for i in range(ncols)) for j in range(ncols)
        ]
    m = _integer_rows(rows)
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
