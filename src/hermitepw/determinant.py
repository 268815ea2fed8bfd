"""Exact determinants of integer-polynomial matrices.

``det`` is Bareiss fraction-free elimination over Z[x] (Bareiss 1968) at
every order: every intermediate entry is a minor of the original matrix,
and the division at each step is exact polynomial division by the
previous pivot.  The first step's divisor is the constant 1, so that step
does not divide.  Pivots are chosen as the lowest-degree nonzero entry of
the current column, first row on ties, to slow intermediate degree growth.

The elimination runs on plain coefficient lists, not on ``IntPoly``
objects, through the list kernels of ``polys``: the entries are unwrapped
once on entry and one ``IntPoly`` is built on exit.  Each update
``(piv * a - lead * b) / prev`` is ``piv * a`` (``polys._scale`` for a
constant pivot, else ``polys._mac``), plus ``-lead * b`` accumulated by
``polys._mac`` over the nonzero ``(index, coefficient)`` pairs of both
factors, trimmed in place and divided by ``prev`` with ``polys._divexact``.
The pairs of the pivot and of every pivot-row entry are built once per
step, those of ``-lead`` once per row.

When the pivot row is zero right of the pivot, every update of the step is
``piv * a / prev``: it only rescales the rest of the matrix.  The step is
skipped and ``prev`` kept, which is Bareiss on the matrix without the
pivot's row and column (Laplace along that row), and the result is scaled
at the end by the product of the skipped pivots over the product of their
kept divisors, in one exact division.  Every division raises
``InexactDivisionError`` on a fractional quotient coefficient or a nonzero
remainder, so a broken invariant never passes silently.
"""

from __future__ import annotations

from . import polys
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
    pairs, scale, mac = polys._pairs, polys._scale, polys._mac
    divexact, mul = polys._divexact, polys._mul
    m = [[e.coeffs for e in r] for r in rows]
    sign = 1
    prev = None
    # products of the pivots and of the divisors of the skipped steps
    num = den = None
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
        right = [pairs(b) for b in row_k[k + 1:]]
        if not any(right):
            # every update is piv * a / prev: skip the step, keep prev and
            # scale the result by piv / prev at the end
            num = piv if num is None else mul(num, piv)
            if prev is not None:
                den = prev if den is None else mul(den, prev)
            continue
        const_piv = piv[0] if len(piv) == 1 else None
        piv_pairs = pairs(piv)
        for i in range(k + 1, n):
            row_i = m[i]
            lead = [(d, -c) for d, c in pairs(row_i[k])]
            width = len(row_i[k]) - 1
            for j, bp in enumerate(right, k + 1):
                a = row_i[j]
                if not a:
                    e = []
                elif const_piv is not None:
                    e = scale(a, const_piv)
                else:
                    e = [0] * (len(piv) + len(a) - 1)
                    mac(e, piv_pairs, pairs(a))
                if lead and bp:
                    size = width + len(row_k[j])
                    if size > len(e):
                        e.extend([0] * (size - len(e)))
                    mac(e, lead, bp)
                    while e and not e[-1]:
                        e.pop()
                row_i[j] = divexact(e, prev) if prev is not None and e else e
        prev = piv
    d = m[n - 1][n - 1]
    if num is not None and d:
        d = mul(d, num)
        if den is not None:
            d = divexact(d, den)
    return IntPoly(d) if sign > 0 else IntPoly([-c for c in d])


# perfbench/checks.py calls the determinant by this older name.
det_bareiss = det
