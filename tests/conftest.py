import random

import pytest
from hypothesis import strategies as st

from hermitepw.determinant import det
from hermitepw.hermite import hermite_poly
from hermitepw.maya import MayaDiagram, Partition, partitions_of
from hermitepw.polys import IntPoly
from hermitepw.xhermite import XHermiteFamily


def eval_at(p, x):
    """p(x) at an exact point (int or Fraction), by Horner's rule."""
    out = 0
    for c in reversed(p.coeffs):
        out = out * x + c
    return out


def poly_from_json(obj):
    """The IntPoly of an ``IntPoly.to_json`` object."""
    return IntPoly(int(c) for c in obj["coeffs"])


def wronskian(polys):
    """Classical Wronskian determinant of the given polynomials, in order,
    from derivative chains: the definition, which shares no row
    construction with the library."""
    n = len(polys)
    rows = []
    for p in polys:
        row = [p]
        for _ in range(n - 1):
            p = p.derivative()
            row.append(p)
        rows.append(row)
    return det(rows)


def hermite_wronskian(indices):
    """Wronskian of H_i for the given index sequence, in the order given."""
    return wronskian([hermite_poly(i) for i in indices])


def max_element(m):
    """max(M): largest element (negative when t is empty)."""
    if m.t:
        return m.t[0]
    holes = set(-v - 1 for v in m.s)
    k = -1
    while k in holes:
        k -= 1
    return k


def all_partitions_up_to(n):
    for k in range(n + 1):
        yield from partitions_of(k)


def admissible_degrees(lam, count):
    """The first ``count`` admissible degrees of the family of lam."""
    fam = XHermiteFamily(lam)
    out, n = [], 0
    while len(out) < count:
        if fam.is_admissible(n):
            out.append(n)
        n += 1
    return out


def split_window(m, lo, hi):
    """(holes, elements) of m in [lo, hi), each ascending, by testing every
    integer: the dense oracle of the sparse girth walk."""
    window = range(lo, hi)
    return [k for k in window if k not in m], [k for k in window if k in m]


def walk_at(m, k):
    """(g(k), k in m) read off the sparse walk of m: from the last point at
    or below k the walk is straight, falling through elements and rising
    through holes, and below the first point every integer is an element."""
    walk = m.walk()
    (k0, g0, _), here = walk[0], True
    for point in walk:
        if point[0] > k:
            break
        k0, g0, here = point
    return g0 + (k0 - k if here else k - k0), here


def random_diagram(rng, max_girth=6, max_val=12):
    p = rng.randint(0, max_girth)
    q = rng.randint(0, max_girth - p)
    s = tuple(sorted(rng.sample(range(max_val), p), reverse=True))
    t = tuple(sorted(rng.sample(range(max_val), q), reverse=True))
    return MayaDiagram(s, t)


def random_partition(rng, max_size):
    n = rng.randint(0, max_size)
    parts = []
    while n > 0:
        p = rng.randint(1, n)
        parts.append(p)
        n -= p
    return Partition(tuple(sorted(parts, reverse=True)))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def frobenius_sides(max_len=4, max_val=10):
    return st.lists(st.integers(min_value=0, max_value=max_val),
                    max_size=max_len, unique=True).map(
        lambda vs: tuple(sorted(vs, reverse=True)))


diagrams = st.builds(MayaDiagram, frobenius_sides(), frobenius_sides())

int_polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=6).map(IntPoly)

nonzero_polys = int_polys.filter(lambda p: not p.is_zero())

partitions = st.lists(st.integers(min_value=1, max_value=8), max_size=6).map(
    lambda vs: Partition(tuple(sorted(vs, reverse=True))))
