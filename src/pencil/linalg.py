"""Exact row reduction and nullspace computation for rational matrices.

Matrices are lists of rows of `Fraction` entries.  Used for the exact
crack-admissibility rank decisions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["rational_rref", "rational_kernel"]


def rational_rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form and pivot column indices, exactly."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


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
    rref, pivots = rational_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis
