"""The minimal-order problem: which shift of a diagram has the smallest
Frobenius symbol, hence the smallest pseudo-Wronskian determinant.

Girth as a function of the origin shift is a +-1 walk:
g(k) = girth(M - k) = i_k + j_k in bent-diagram coordinates, rising by 1
through holes and falling by 1 through filled boxes.  Valleys of the walk
(k-1 filled, k empty) are the inside corners of the Ferrers diagram plus
the two degenerate corners, and every minimal-girth origin is a valley.
Below min(Z \\ M) the walk only falls and past max(M) it only rises, so
every valley lies in [min(Z \\ M), max(M) + 1].

Valleys and level sets come from one sparse walk, ``MayaDiagram.walk``:
g at the points next to an entry of s or t and at the origin, where
membership can change, and straight in between.  ``_valleys`` reads the
valleys off it and ``girth_level_set`` finds at most one point of a level
on each straight stretch, so both cost O(|s| + |t|) however far apart the
entries lie, and no window of integers is walked.
``minimal_girth_of_diagram`` is the one minimal-girth search of a labelled
diagram: ``hermite.pseudo_wronskian`` evaluates at its smallest origin,
``hermite.min_order_at`` checks a claimed origin against it, and
``xhermite`` places each exceptional Hermite member with it.
``minimal_girth`` reads the same valleys of the standard diagram of a
partition for the minimal girth, its origins and the corner inventory,
cross-checked against the corner-distance formula; the CLI's ``minorder``
prints that inventory.

How the minimal girth r and its origins change when one element is
inserted is the paper's insertion theorem, ``min_order_after_insert``:
cases (a)-(d) on the corner labels k_r and k_{r+1} (the largest valley at
each level).  Its origins come from the full level sets L_v =
``girth_level_set``, not from the valleys alone: after an insertion, walk
points that merely pass through a level can become valleys.  It is a
result of the paper, checked against a search of M u {new}; production
places a member by that search, which is the definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .maya import MayaDiagram, Partition

__all__ = [
    "girth_level_set",
    "CornerReport",
    "minimal_girth",
    "minimal_girth_of_diagram",
    "InsideCorners",
    "inside_corners",
    "DurfeeSymbol",
    "durfee_symbol",
    "InsertReport",
    "min_order_after_insert",
]


def _valleys(m: MayaDiagram):
    """[(k, girth(M - k))] for every valley k (k - 1 in M, k not in M),
    ascending: the points of ``MayaDiagram.walk`` outside M that end a
    stretch of elements, where below the first point every integer is one."""
    out, before = [], True
    for k, g, here in m.walk():
        if before and not here:
            out.append((k, g))
        before = here
    return out


def girth_level_set(m: MayaDiagram, r: int):
    """All k with girth(M - k) = r, ascending.  The walk is straight from
    each point to the next, so each stretch holds at most one such k; below
    the first point it falls by 1 per step, and from the last point on it
    rises by 1 per step."""
    walk = m.walk()
    (k0, g0, _), (kn, gn, _) = walk[0], walk[-1]
    out = [k0 - (r - g0)] if r > g0 else []
    for (k, g, here), (end, _, _) in zip(walk, walk[1:]):
        d = g - r if here else r - g
        if 0 <= d < end - k:
            out.append(k + d)
    return out + ([kn + r - gn] if r >= gn else [])


def minimal_girth_of_diagram(m: MayaDiagram):
    """(minimal girth, ascending list of all minimal-girth origins), from
    the valleys alone."""
    valleys = _valleys(m)
    r = min(g for _, g in valleys)
    return r, [k for k, g in valleys if g == r]


@dataclass(frozen=True)
class CornerReport:
    """Minimal girth plus the full corner inventory of a diagram."""

    r: int
    origins: tuple            # ascending minimal-girth origins
    corners: tuple            # all (k, girth) valley pairs, ascending in k


def minimal_girth(lam: Partition) -> CornerReport:
    """Minimal girth of the unlabelled diagram of a partition.

    Cross-checked internally against min over j of lambda_{j+1} + j, the
    corner-distance formula (j = 0..length).
    """
    # every minimal-girth origin is a valley, so the valleys give r, its
    # origins and the corners
    corners = tuple(_valleys(MayaDiagram.from_partition(lam)))
    r = min(g for _, g in corners)
    formula = min(lam.part(j + 1) + j for j in range(lam.length + 1))
    if r != formula:
        raise ArithmeticError(f"minimal girth {r} of {lam} disagrees with the "
                              f"corner-distance formula {formula}")
    origins = tuple(k for k, g in corners if g == r)
    return CornerReport(r, origins, corners)


@dataclass(frozen=True)
class InsideCorners:
    strict: tuple      # (i, j) cells with both neighbours inside
    degenerate: tuple  # (lambda_1, 0) and (0, length)


def inside_corners(lam: Partition) -> InsideCorners:
    """Inside corners of the Ferrers diagram, degenerate endpoints separate."""
    ell = lam.length
    strict = tuple((lam.part(j + 1), j) for j in range(1, ell)
                   if lam.part(j) > lam.part(j + 1))
    degenerate = ((lam.part(1), 0), (0, ell))
    return InsideCorners(strict, degenerate)


@dataclass(frozen=True)
class DurfeeSymbol:
    """Rectangle decomposition [mu | nu]_{p x q} at a corner origin."""

    mu: Partition
    nu: Partition
    p: int
    q: int

    def __str__(self):
        mu = ",".join(str(v) for v in self.mu.parts)
        nu = ",".join(str(v) for v in self.nu.parts)
        return f"[{mu} | {nu}]_{{{self.p}x{self.q}}}"

    def to_json(self):
        return {"mu": self.mu.to_json(), "nu": self.nu.to_json(),
                "p": self.p, "q": self.q}


def _staircase(values):
    """mu_i = v_i - (count - i) for 1-based i over a descending tuple."""
    n = len(values)
    return Partition(tuple(v - (n - i) for i, v in enumerate(values, start=1)
                           if v - (n - i) > 0))


def durfee_symbol(m: MayaDiagram) -> DurfeeSymbol:
    """Durfee symbol of a diagram whose origin sits at a corner.

    Requires a filled box just below the origin and a hole at it
    (s and t entries all positive), covering the degenerate corners when
    either side is empty.  Accounting: p*q + |mu| + |nu| = partition size.
    """
    if 0 in m.s or 0 in m.t:
        raise ValueError("origin is not at a corner of the Ferrers diagram")
    p, q = len(m.s), len(m.t)
    mu = _staircase(m.s)
    nu = _staircase(m.t)
    total = m.partition().size
    if p * q + mu.size + nu.size != total:
        raise ArithmeticError(f"Durfee symbol [{mu} | {nu}]_{{{p}x{q}}} of {m} "
                              f"does not account for size {total}")
    return DurfeeSymbol(mu, nu, p, q)


@dataclass(frozen=True)
class InsertReport:
    case: str          # one of 'a', 'b', 'c', 'd'
    r: int             # minimal girth after insertion
    origins: tuple     # ascending minimal-girth origins after insertion


def _levels(m: MayaDiagram):
    """(r, k_r, k_{r+1}, L_r, L_{r+1}, L_{r+2}): the inputs of the insertion
    theorem for M, with r its minimal girth, L_v its girth level sets and
    k_v the largest valley in L_v (None when L_v has none)."""
    r, _ = minimal_girth_of_diagram(m)
    sets = [girth_level_set(m, v) for v in (r, r + 1, r + 2)]
    k_r, k_r1 = (max((k for k in level if (k - 1) in m and k not in m), default=None)
                 for level in sets[:2])
    return (r, k_r, k_r1, *sets)


def min_order_after_insert(m: MayaDiagram, new: int) -> InsertReport:
    """Minimal girth and origins of M u {new}, from the theorem inputs of
    M, by cases on the position of ``new`` against the corner
    labels; agrees with a search of M u {new}:
      (a) new < k_r:              r-1, origins {k in L_r : k > new}
      (b) new = k_r:              r,   origins {new+1} u {k in L_{r+1} : k > new}
      (c) k_r < new < k_{r+1}:    r,   origins {k in L_{r+1} : k > new}
      (d) otherwise:              r+1, origins L_r u {k in L_{r+2} : k > new}
    """
    if new in m:
        raise ValueError(f"{new} is already in the diagram")
    r, k_r, k_r1, l_r, l_r1, l_r2 = _levels(m)
    if new < k_r:
        return InsertReport("a", r - 1, tuple(k for k in l_r if k > new))
    if new == k_r:
        return InsertReport("b", r, tuple(sorted({new + 1} | {k for k in l_r1 if k > new})))
    if k_r1 is not None and new < k_r1:
        return InsertReport("c", r, tuple(k for k in l_r1 if k > new))
    return InsertReport("d", r + 1, tuple(sorted({*l_r, *(k for k in l_r2 if k > new)})))
