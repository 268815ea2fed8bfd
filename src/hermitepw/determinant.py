"""Exact determinants of integer-polynomial matrices.

``det`` is Bareiss fraction-free elimination over Z[x] (Bareiss 1968) at
every order: every intermediate entry is a minor of the original matrix,
and the division at each step is exact polynomial division by the
previous pivot.  The first step's divisor is the constant 1, so that step
does not divide.  Pivots are chosen as the lowest-degree nonzero entry of
the current column, first row on ties, to slow intermediate degree growth.

The elimination runs on plain coefficient lists, not on ``IntPoly``
objects: the entries are unwrapped once on entry, and each update
``(piv * a - lead * b) / prev`` accumulates its two products into one list
(``IntPoly.mul_coeffs``, the dispatch behind ``IntPoly.__mul__``), trims it
in place and divides it by ``prev`` with ``IntPoly.divexact_coeffs``, the
division loop behind ``IntPoly.divmod``.  That division raises
``InexactDivisionError`` on a fractional quotient coefficient or a
nonzero remainder, so a broken invariant never passes silently.  One
``IntPoly`` is built on exit.
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
    if n == 1:
        return rows[0][0]
    mul, divexact = IntPoly.mul_coeffs, IntPoly.divexact_coeffs
    m = [[e.coeffs for e in r] for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        pivot_row = None
        best = 0
        for i in range(k, n):
            size = len(m[i][k])
            if size and (pivot_row is None or size < best):
                best = size
                pivot_row = i
        if pivot_row is None:
            return IntPoly()
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        row_k = m[k]
        piv = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                a, b = row_i[j], row_k[j]
                e = mul(piv, a) if a else []
                if lead and b:
                    t = mul(lead, b)
                    if len(t) > len(e):
                        e.extend([0] * (len(t) - len(e)))
                    for idx, c in enumerate(t):
                        e[idx] -= c
                    while e and not e[-1]:
                        e.pop()
                row_i[j] = divexact(e, prev) if prev and e else e
        prev = piv
    d = m[n - 1][n - 1]
    return IntPoly(d) if sign > 0 else IntPoly([-c for c in d])


# perfbench/checks.py calls the determinant by this older name.
det_bareiss = det
