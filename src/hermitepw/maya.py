"""Maya diagrams, partitions and the bijections between them.

A Maya diagram is a set M of integers containing all sufficiently
negative integers and finitely many non-negative ones.  It is stored by
its Frobenius symbol: the descending list ``s`` of hole distances below
the origin and the descending list ``t`` of filled positions at or above
the origin.  The infinite set itself is never materialized; membership
and all derived data come straight from the two finite lists.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

__all__ = [
    "Partition",
    "MayaDiagram",
    "BentPoint",
    "partitions_of",
    "rim",
]


@dataclass(frozen=True)
class Partition:
    """Non-increasing tuple of positive integers; () is the empty partition."""

    parts: tuple = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be non-increasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def length(self):
        return len(self.parts)

    @property
    def size(self):
        return sum(self.parts)

    def part(self, i):
        """1-based part access; zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self):
        if not self.parts:
            return Partition()
        out = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                out[j] += 1
        return Partition(tuple(out))

    def ferrers(self):
        """The down-closed cell set {(i, j) : 1 <= i <= parts[j-1]}."""
        return frozenset((i, j) for j, p in enumerate(self.parts, start=1)
                         for i in range(1, p + 1))

    def is_even(self):
        """True when the length is even and parts pair up equal."""
        ps = self.parts
        return len(ps) % 2 == 0 and all(ps[2 * i] == ps[2 * i + 1] for i in range(len(ps) // 2))

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __iter__(self):
        return iter(self.parts)

    @classmethod
    def parse(cls, text):
        text = text.strip().strip("()").strip()
        if not text:
            return cls()
        return cls(tuple(int(p) for p in text.split(",")))

    def to_json(self):
        return list(self.parts)


def rim(p: Partition):
    """Cells (i, j) of the Ferrers diagram whose diagonal successor is absent."""
    f = p.ferrers()
    return frozenset(c for c in f if (c[0] + 1, c[1] + 1) not in f)


def partitions_of(n) -> Iterator[Partition]:
    """All partitions of n, lexicographically descending."""
    if n == 0:
        yield Partition()
        return

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for parts in gen(n, n):
        yield Partition(parts)


class BentPoint(NamedTuple):
    """Lattice point of the bent (two-dimensional) rendering of a diagram."""

    n: int
    holes_below: int       # number of holes strictly below n
    filled_at_or_above: int


def _descending(values):
    vals = tuple(int(v) for v in values)
    if any(v < 0 for v in vals):
        raise ValueError(f"Frobenius entries must be non-negative: {vals}")
    if any(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)):
        raise ValueError(f"Frobenius entries must be strictly decreasing: {vals}")
    return vals


@dataclass(frozen=True)
class MayaDiagram:
    """Labelled Maya diagram stored as its Frobenius symbol (s | t)."""

    s: tuple = ()   # hole distances below the origin, strictly decreasing
    t: tuple = ()   # filled positions at or above the origin, strictly decreasing

    def __post_init__(self):
        object.__setattr__(self, "s", _descending(self.s))
        object.__setattr__(self, "t", _descending(self.t))

    # -- construction ---------------------------------------------------

    @classmethod
    def from_sets(cls, filled_nonneg):
        """No holes below the origin; filled at the given positions >= 0."""
        return cls((), tuple(sorted(filled_nonneg, reverse=True)))

    @classmethod
    def _of(cls, s, t):
        """The diagram (s | t) of two tuples known to be strictly
        decreasing and non-negative, without the checks of the public
        constructor, which receives outside input."""
        m = object.__new__(cls)
        object.__setattr__(m, "s", s)
        object.__setattr__(m, "t", t)
        return m

    @classmethod
    def from_partition(cls, p: Partition):
        """Standard-form diagram of a partition: m_i = lambda_i + length - i."""
        ell = p.length
        return cls._of((), tuple([part + ell - i for i, part in enumerate(p.parts, 1)]))

    # -- membership and enumeration -------------------------------------

    def __contains__(self, m):
        m = int(m)
        if m >= 0:
            return m in self.t
        return (-m - 1) not in self.s

    @property
    def girth(self):
        return len(self.s) + len(self.t)

    def min_hole(self):
        """min(Z \\ M): the smallest integer not in the diagram."""
        if self.s:
            return -self.s[0] - 1
        h = 0
        filled = set(self.t)
        while h in filled:
            h += 1
        return h

    def max_element(self):
        """max(M): largest element (negative when t is empty)."""
        if self.t:
            return self.t[0]
        holes = set(-v - 1 for v in self.s)
        m = -1
        while m in holes:
            m -= 1
        return m

    def elements_down_to(self, stop) -> Iterator[int]:
        """Elements of M in decreasing order, while >= stop."""
        for v in self.t:
            if v < stop:
                return
            yield v
        holes = set(-v - 1 for v in self.s)
        m = -1
        while m >= stop:
            if m not in holes:
                yield m
            m -= 1

    def holes(self):
        """Holes below max(0, max_element + 1), ascending.

        Together with the ray [max(0, max_element + 1), oo) this is the
        complete complement of the diagram.
        """
        out = [-v - 1 for v in self.s]
        top = self.max_element()
        filled = set(self.t)
        out.extend(j for j in range(0, top) if j not in filled)
        return out

    def _hole_ray_start(self):
        return max(0, self.max_element() + 1)

    # -- shifts ----------------------------------------------------------

    def shift(self, k):
        """The diagram M + k.

        For k > 0 each t moves up by k, each m in [-k, 0) crosses the
        origin to m + k and is an element there when -m-1 is not in s, and
        the holes of s at or above k stay below it; k < 0 is the mirror
        image with s and t exchanged.  Both tuples are built descending, so
        the result skips the checks of the public constructor.
        """
        k = int(k)
        if k == 0:
            return self
        s, t = self.s, self.t
        if k > 0:
            new_t = tuple([v + k for v in t] + [k - 1 - d for d in range(k) if d not in s])
            new_s = tuple([v - k for v in s if v >= k])
        else:
            j = -k
            new_s = tuple([v + j for v in s] + [j - 1 - d for d in range(j) if d not in t])
            new_t = tuple([v - j for v in t if v >= j])
        return MayaDiagram._of(new_s, new_t)

    def standardize(self):
        """Return (D, k) with D = M - k in standard form and k = min(Z \\ M)."""
        k = self.min_hole()
        return self.shift(-k), k

    # -- bent diagram -----------------------------------------------------

    def bent_point(self, n):
        n = int(n)
        holes = self.holes()
        holes_below = bisect.bisect_left(holes, n) + max(0, n - self._hole_ray_start())
        filled_above = sum(1 for v in self.t if v >= n)
        if n < 0:
            holes_set = set(-v - 1 for v in self.s)
            filled_above += sum(1 for m in range(n, 0) if m not in holes_set)
        return BentPoint(n, holes_below, filled_above)

    def girth_walk(self, lo, hi):
        """[girth(M - k) for k in lo..hi], in one pass over the window.

        girth(M - k) counts the holes below k and the elements at or above
        k, so the walk falls by 1 through each element and rises by 1
        through each hole.
        """
        if lo > hi:
            raise ValueError("empty window")
        filled, holes = set(self.t), set(-v - 1 for v in self.s)
        if lo >= 0:
            g = len(self.s) + sum(1 for v in self.t if v >= lo) \
                + sum(1 for j in range(lo) if j not in filled)
        else:
            g = len(self.t) + sum(1 for h in holes if h < lo) \
                + sum(1 for m in range(lo, 0) if m not in holes)
        out = [g]
        for k in range(lo, hi):
            g += -1 if (k in filled if k >= 0 else k not in holes) else 1
            out.append(g)
        return out

    def partition(self) -> Partition:
        """The partition of the unlabelled diagram (shift invariant)."""
        holes = self.holes()
        if not holes:
            return Partition()
        lowest = holes[0]
        parts = []
        for m in self.elements_down_to(lowest + 1):
            lam = bisect.bisect_left(holes, m)
            if lam == 0:
                break
            parts.append(lam)
        return Partition(tuple(parts))

    # -- formatting --------------------------------------------------------

    def __str__(self):
        left = ",".join(str(v) for v in self.s)
        right = ",".join(str(v) for v in self.t)
        return f"({left} | {right})"

    @classmethod
    def parse(cls, text):
        """Accepts 's1,s2,...|t1,t2,...', either entry order, optional parens."""
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        if "|" not in body:
            raise ValueError(f"expected 's1,s2,...|t1,t2,...': {text!r}")
        left, right = body.split("|", 1)

        def side(chunk):
            chunk = chunk.strip()
            if not chunk:
                return ()
            vals = [int(v) for v in re.split(r"\s*,\s*", chunk)]
            if len(set(vals)) != len(vals):
                raise ValueError(f"duplicate Frobenius entries in {text!r}")
            return tuple(sorted(vals, reverse=True))

        return cls(side(left), side(right))

    # -- element flips ------------------------------------------------------

    def add(self, m):
        m = int(m)
        if m in self:
            raise ValueError(f"{m} already present")
        if m >= 0:
            return MayaDiagram(self.s, tuple(sorted(self.t + (m,), reverse=True)))
        return MayaDiagram(tuple(v for v in self.s if v != -m - 1), self.t)

    def remove(self, m):
        m = int(m)
        if m not in self:
            raise ValueError(f"{m} not present")
        if m >= 0:
            return MayaDiagram(self.s, tuple(v for v in self.t if v != m))
        return MayaDiagram(tuple(sorted(self.s + (-m - 1,), reverse=True)), self.t)
