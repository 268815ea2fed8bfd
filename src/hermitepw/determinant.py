"""Exact determinants of integer-polynomial matrices.

``det`` is Bareiss fraction-free elimination over Z[x] at every order:
every intermediate entry is a minor of the original matrix, and the
division at each step is exact polynomial division by the previous
pivot.  The first step's divisor is the constant 1, so that step does
not divide.  Pivots are chosen as the lowest-degree nonzero entry of the
current column to slow intermediate degree growth.
"""

from __future__ import annotations

from .polys import IntPoly

__all__ = ["det", "DimensionError"]


class DimensionError(ValueError):
    """Raised for non-square (or ragged) determinant input."""


def _check_square(rows):
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DimensionError(f"matrix is not square: {n} rows, row of length {len(r)}")
    return n


def det(rows):
    """Determinant by fraction-free (Bareiss) elimination over Z[x]."""
    n = _check_square(rows)
    if n == 0:
        return IntPoly.const(1)
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        pivot_row = None
        best = None
        for i in range(k, n):
            e = m[i][k]
            if not e.is_zero() and (best is None or e.degree < best):
                best = e.degree
                pivot_row = i
        if pivot_row is None:
            return IntPoly()
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        piv = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                e = piv * row_i[j] - lead * row_k[j]
                row_i[j] = e if prev is None else e.divexact(prev)
        prev = piv
    d = m[n - 1][n - 1]
    return d if sign > 0 else -d


# perfbench/checks.py calls the determinant by this older name.
det_bareiss = det
