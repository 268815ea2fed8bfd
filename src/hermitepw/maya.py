"""Maya diagrams, partitions and the bijections between them.

A Maya diagram is a set M of integers containing all sufficiently
negative integers and finitely many non-negative ones.  It is stored by
its Frobenius symbol: the descending list ``s`` of hole distances below
the origin and the descending list ``t`` of filled positions at or above
the origin.  The infinite set itself is never materialized, not even a
window of it: membership comes straight from the two finite lists, and the
partition, the bent points and the extreme hole and element come from the
sparse girth walk ``MayaDiagram.walk``, whose cost follows |s| + |t| and not
the distance between the entries.
"""

from __future__ import annotations

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
        """min(Z \\ M): the first point of the walk outside the diagram."""
        return next(k for k, _, here in self.walk() if not here)

    def walk(self):
        """The girth walk g(k) = girth(M - k) at the points where membership
        can change: [(k, g(k), k in M)], ascending.

        g(k) counts the holes below k and the elements at or above k, so it
        falls by 1 through each element and rises by 1 through each hole.
        Membership changes only at a hole -v-1 (v in s), at an element of t,
        one past either, or at the origin, so the walk is straight from each
        point to the next.  Below the first point every integer is an
        element, and from the last point on every integer is a hole.  The
        cost is O(|s| + |t|) steps and one sort of as many points, however
        far apart the entries lie.
        """
        holes, filled = {-v - 1 for v in self.s}, set(self.t)
        points = sorted({0, *holes, *filled, *(h + 1 for h in holes), *(v + 1 for v in filled)})
        g, prev, here, out = len(self.t) - len(self.s) - points[0], points[0], True, []
        for k in points:
            g += prev - k if here else k - prev
            here = k in filled if k >= 0 else k not in holes
            out.append((k, g, here))
            prev = k
        return out

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
        """The bent point at n, from g(n) on the walk: holes_below +
        filled_at_or_above = g(n), and filled_at_or_above - holes_below =
        |t| - |s| - n."""
        n = int(n)
        c = len(self.t) - len(self.s) - n
        g = c   # below the first point of the walk no hole lies
        for k, g_k, here in self.walk():
            if k > n:
                break
            g = g_k + (k - n if here else n - k)
        return BentPoint(n, (g - c) // 2, (g + c) // 2)

    def partition(self) -> Partition:
        """The partition of the unlabelled diagram (shift invariant).

        Each element above the lowest hole gives the part "holes below it",
        so each run of elements on the walk, from an element point to the
        next point, gives that many equal parts.
        """
        walk, parts = self.walk(), []
        for (k, g, here), (end, _, _) in zip(walk, walk[1:]):
            holes_below = (g - len(self.t) + len(self.s) + k) // 2
            if here and holes_below:
                parts += [holes_below] * (end - k)
        return Partition(tuple(reversed(parts)))

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
