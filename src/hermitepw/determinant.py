"""Exact determinants of integer-polynomial matrices.

``det`` works on plain coefficient lists through the list kernels of
``polys``: the entries are unwrapped once on entry and one ``IntPoly`` is
built on exit.

First, Laplace expansion along sparse rows.  A row whose only nonzero
entry e sits at column p gives det = (-1)^(i+p) e det(minor), with no
arithmetic (the zero-operation case).  A row with a constant entry c at
column p and at most ``_CLEAR_BOUND`` other nonzero entries b_j is brought
to that case by the column operations col_j <- c col_j - b_j col_p, each
of which multiplies the determinant by c.  The pseudo-Wronskian rows
D^j P_n = 2^j n!/(n-j)! P_{n-j} are zero right of column n and constant
there, so their rows of small n are expanded wherever those n fall.  The
sparsest row goes first, until none qualifies; the expanded entries and
the column multipliers are applied at the end, by one product and one
exact division.  The bound is measured: on the matrices of one shift_sweep
pass (seeds 7, 11, 13; 2-CPU host, CPython 3.11) ``det`` took 42-51 ms
with a bound of 2, against 43-55 ms with 1, 44-60 ms with 3, 56-73 ms
with lone entries only and 73-83 ms with no bound.

Then Bareiss fraction-free elimination over Z[x] (Bareiss 1968) of what
is left: every intermediate entry is a minor, and each step divides
exactly by the previous pivot (the first step not at all).  The pivot is
the lowest-degree nonzero entry of the current column, first row on ties,
to slow degree growth.  Each update ``(piv * a - lead * b) / prev`` is
``piv * a`` (``polys._scale`` for a constant pivot, else ``polys._mac``)
plus ``-lead * b`` by ``polys._mac`` over the nonzero
``(index, coefficient)`` pairs, trimmed in place and divided by ``prev``
with ``polys._divexact``; the pairs of the pivot row are built once per
step, those of ``-lead`` once per row.

Every division raises ``InexactDivisionError`` on a fractional quotient
coefficient or a nonzero remainder, so a broken invariant, such as a wrong
column multiplier, never passes silently.
"""

from __future__ import annotations

from . import polys
from .polys import IntPoly

__all__ = ["det", "DimensionError"]

# Most nonzero entries besides its constant that a row may hold to be
# cleared and expanded before elimination (see the module docstring).
_CLEAR_BOUND = 2


class DimensionError(ValueError):
    """Raised for non-square (or ragged) determinant input."""


def _check_square(rows):
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DimensionError(f"matrix is not square: {n} rows, row of length {len(r)}")
    return n


def _pick_row(m, counts):
    """(count, i, p) for the row i to expand along, with count nonzero
    entries and its pivot at column p, or None when no row qualifies.

    The sparsest qualifying row is taken, the first on ties: a lone entry,
    else the constant of least absolute value in a row of at most
    ``_CLEAR_BOUND`` other nonzero entries.
    """
    best = None
    for i, count in enumerate(counts):
        if count > _CLEAR_BOUND + 1 or (best is not None and count >= best[0]):
            continue
        row = m[i]
        if count == 1:
            return 1, i, next(j for j, e in enumerate(row) if e)
        consts = [j for j, e in enumerate(row) if len(e) == 1]
        if consts:
            best = count, i, min(consts, key=lambda j: abs(row[j][0]))
    return best


def _clear(m, counts, row, p):
    """The column operations col_j <- c col_j - b_j col_p on m, in place,
    for each other nonzero entry b_j of ``row`` (taken out of m), whose
    constant c sits at column p; ``counts`` follows the nonzero entries of
    each row.  Returns the product of the multipliers, c per operation."""
    pairs, scale, mac = polys._pairs, polys._scale, polys._mac
    c = row[p][0]
    col = [pairs(r[p]) for r in m]
    product = 1
    for j, b in enumerate(row):
        if not b or j == p:
            continue
        neg_b = [(d, -x) for d, x in pairs(b)]
        for k, (r, e) in enumerate(zip(m, col)):
            a = scale(r[j], c)
            if e:
                size = len(b) + e[-1][0]
                if size > len(a):
                    a.extend([0] * (size - len(a)))
                mac(a, neg_b, e)
                while a and not a[-1]:
                    a.pop()
                counts[k] += bool(a) - bool(r[j])
            r[j] = a
        product *= c
    return product


def _expand_sparse_rows(m):
    """Laplace expansion of m, in place, along the rows of ``_pick_row``
    (module docstring): (sign, num, den) with
    det(m before) = sign * num * det(m after) / den, where num is the
    product of the expanded entries, a coefficient list, and den that of
    the column multipliers; None when a row of m is zero."""
    sign, num, den = 1, [1], 1
    counts = [sum(map(bool, r)) for r in m]  # nonzero entries per row
    while len(m) > 1:
        if 0 in counts:
            return None
        pick = _pick_row(m, counts)
        if pick is None:
            break
        count, i, p = pick
        row = m.pop(i)
        del counts[i]
        if (i + p) & 1:
            sign = -sign
        if count > 1:
            den *= _clear(m, counts, row, p)
        num = polys._mul(num, row[p])
        for k, r in enumerate(m):
            counts[k] -= bool(r[p])
            del r[p]
    return sign, num, den


def _bareiss(m):
    """(sign, d): the determinant of m, of order >= 1, is sign * d, by
    Bareiss elimination in place on coefficient lists (module docstring)."""
    n = len(m)
    pairs, scale, mac = polys._pairs, polys._scale, polys._mac
    divexact = polys._divexact
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
            return 1, []
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        row_k = m[k]
        piv = row_k[k]
        right = [pairs(b) for b in row_k[k + 1:]]
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
    return sign, m[n - 1][n - 1]


def det(rows):
    """Determinant by Laplace expansion along sparse rows, then Bareiss
    fraction-free elimination over Z[x] of what is left."""
    n = _check_square(rows)
    if n == 0:
        return IntPoly.const(1)
    if n == 1:
        return rows[0][0]
    m = [[e.coeffs for e in r] for r in rows]
    expanded = _expand_sparse_rows(m)
    if expanded is None:
        return IntPoly()
    sign, num, den = expanded
    s, d = _bareiss(m)
    sign *= s
    if d:
        d = polys._divexact(polys._mul(d, num), [den])
    return IntPoly(d) if sign > 0 else IntPoly([-c for c in d])


# perfbench/checks.py calls the determinant by this older name.
det_bareiss = det
