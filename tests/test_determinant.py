import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermitepw.polys as polys
from hermitepw.determinant import DimensionError, det
from hermitepw.hermite import pseudo_wronskian_matrix
from hermitepw.maya import MayaDiagram
from hermitepw.polys import IntPoly

from conftest import random_partition

small_poly = st.lists(st.integers(min_value=-9, max_value=9), max_size=4).map(IntPoly)
# About half the entries are the zero polynomial, so zero pivots, row swaps
# and singular matrices are common.
sparse_poly = st.one_of(
    st.just(IntPoly()),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4).map(IntPoly))


def matrix(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def cofactor(rows):
    """Determinant by cofactor expansion along the first row: the
    independent oracle for ``det``."""
    n = len(rows)
    if n == 0:
        return IntPoly.const(1)
    if n == 1:
        return rows[0][0]
    out = IntPoly()
    for j, a in enumerate(rows[0]):
        if a.is_zero():
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = a * cofactor(minor)
        out = out - term if j % 2 else out + term
    return out


def bareiss_intpoly(rows):
    """Bareiss elimination on ``IntPoly`` objects, each update built from
    ``IntPoly`` products, a difference and ``divexact``: the oracle for
    ``det`` at orders the cofactor expansion cannot reach."""
    n = len(rows)
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


def raised_pseudo_wronskian_matrices(seed, per_order, orders=range(6, 15)):
    """Defining matrices of random partitions of size 10-30 at raised
    origins, per_order of each order in orders: the shift_sweep range."""
    rng = random.Random(seed)
    found = {n: [] for n in orders}
    while any(len(v) < per_order for v in found.values()):
        lam = random_partition(rng, 30)
        if lam.size < 10:
            continue
        rows = pseudo_wronskian_matrix(MayaDiagram.from_partition(lam).shift(-rng.randint(-8, 16)))
        same = found.get(len(rows))
        if same is not None and len(same) < per_order:
            same.append(rows)
    return [rows for n in orders for rows in found[n]]


def test_empty_matrix_is_one():
    assert det([]) == IntPoly((1,))


def test_diagonal_product():
    z = IntPoly()
    a, b, c = IntPoly((1, 1)), IntPoly((2,)), IntPoly((0, 0, 3))
    rows = [[a, z, z], [z, b, z], [z, z, c]]
    assert det(rows) == a * b * c


def test_non_square_raises():
    with pytest.raises(DimensionError):
        det([[IntPoly((1,))], [IntPoly((1,)), IntPoly((2,))]])
    with pytest.raises(DimensionError):
        det([[IntPoly((1,)), IntPoly((2,))]])


def test_known_mixed_example():
    # det [[4x^2-2, 8x], [8x^3+12x, 16x^4+48x^2+12]]
    rows = [[IntPoly((-2, 0, 4)), IntPoly((0, 8))],
            [IntPoly((0, 12, 0, 8)), IntPoly((12, 0, 48, 0, 16))]]
    expected = (IntPoly((-2, 0, 4)) * IntPoly((12, 0, 48, 0, 16))
                - IntPoly((0, 8)) * IntPoly((0, 12, 0, 8)))
    assert det(rows) == expected
    assert expected.degree == 6


_Z, _1, _X = IntPoly(), IntPoly((1,)), IntPoly((0, 1))


@given(st.integers(min_value=0, max_value=5).flatmap(lambda n: matrix(n, sparse_poly)))
@example([])
@example([[_Z, _1, _X], [_X, _Z, _1], [_1, _X, _Z]])                # swap at step 0
@example([[_1, _X, _1], [_X, _X * _X, _Z], [_Z, _1, _X]])           # zero pivot at step 1
@example([[_X, _1, _Z], [_1, _X, _1], [_X + _1, _X + _1, _1]])      # singular, no zero entry
@settings(max_examples=300)
def test_bareiss_matches_cofactor(rows):
    assert det(rows) == cofactor(rows)


def test_bareiss_matches_cofactor_4x4_degree6():
    rng = random.Random(424242)
    for _ in range(25):
        rows = [[IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(0, 7))])
                 for _ in range(4)] for _ in range(4)]
        assert det(rows) == cofactor(rows)


def test_bareiss_matches_cofactor_5x5():
    rng = random.Random(99)
    for _ in range(6):
        rows = [[IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))])
                 for _ in range(5)] for _ in range(5)]
        assert det(rows) == cofactor(rows)


@given(matrix(4, small_poly), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_row_swap_negates(rows, i, j):
    if i == j:
        return
    swapped = [r[:] for r in rows]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert det(swapped) == -det(rows)


@given(matrix(4, small_poly), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40)
def test_repeated_row_vanishes(rows, i, j):
    if i == j:
        return
    rows = [r[:] for r in rows]
    rows[j] = rows[i][:]
    assert det(rows).is_zero()


def test_zero_column_short_circuits():
    z = IntPoly()
    one = IntPoly((1,))
    rows = [[z, one, one], [z, one, z], [z, z, one], ]
    assert det(rows).is_zero()
    rows4 = [[z, one, one, one]] + [[z] * 4] * 3
    assert det(rows4).is_zero()


def test_order_one_returns_its_entry():
    p = IntPoly((3, 0, -2))
    assert det([[p]]) is p


def test_fused_matches_intpoly_bareiss_on_pseudo_wronskians():
    for rows in raised_pseudo_wronskian_matrices(2024, 3):
        assert det(rows) == bareiss_intpoly(rows)


def test_fused_matches_intpoly_bareiss_on_zero_heavy_integer_matrices():
    # constants, about two thirds of them zero: zero pivots, row swaps and
    # singular matrices at orders the cofactor oracle does not reach
    rng = random.Random(77)
    for n in range(6, 13):
        for _ in range(6):
            rows = [[IntPoly.const(rng.randint(-9, 9) if rng.random() < 0.35 else 0)
                     for _ in range(n)] for _ in range(n)]
            assert det(rows) == bareiss_intpoly(rows)


def test_fused_matches_intpoly_bareiss_on_zero_heavy_polynomial_matrices():
    rng = random.Random(78)
    for n in range(6, 10):
        for _ in range(4):
            rows = [[IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
                     if rng.random() < 0.4 else IntPoly() for _ in range(n)] for _ in range(n)]
            assert det(rows) == bareiss_intpoly(rows)


def test_builds_one_intpoly_on_exit(monkeypatch):
    # the elimination runs on coefficient lists: no IntPoly between entry
    # and exit, and so no IntPoly.__mul__ or divmod either
    rows, = raised_pseudo_wronskian_matrices(5, 1, orders=[12])
    built = []
    init = IntPoly.__init__
    monkeypatch.setattr(IntPoly, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    d = det(rows)
    assert len(built) == 1
    monkeypatch.undo()
    assert d == bareiss_intpoly(rows)


def test_shares_the_list_kernels_of_intpoly(monkeypatch):
    # one multiply dispatch and one division loop: det reaches the same
    # list-level helpers as IntPoly.__mul__, divmod and divexact
    calls = []
    for name in ("_mul_schoolbook", "_divmod"):
        real = getattr(polys, name)
        monkeypatch.setattr(polys, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    x1, x2 = IntPoly((1, 1)), IntPoly((2, 0, 1))
    assert (x1 * x2).divexact(x2) == x1
    assert (x1 * x2).divmod(x1)[0] == x2
    assert calls == ["_mul_schoolbook", "_divmod", "_mul_schoolbook", "_divmod"]
    calls.clear()
    rows = [[x1, x2, _1], [x2, _1, x1], [_1, x1, x2]]
    d = det(rows)
    assert set(calls) == {"_mul_schoolbook", "_divmod"}
    assert d == cofactor(rows)


def test_pivot_is_lowest_degree_entry(monkeypatch):
    # the determinant does not depend on the pivot, only the intermediate
    # degrees do; the first exact division is by the first pivot, so its
    # divisor shows which entry was chosen
    X = IntPoly((0, 1))
    cubic, const, linear = X ** 3 + 1, IntPoly.const(3), X - 2
    rows = [[cubic, X, IntPoly.const(2)],
            [const, X * X, X + 1],
            [linear, IntPoly.const(5), X * X + X]]
    divisors = []
    divexact = IntPoly.divexact_coeffs
    monkeypatch.setattr(IntPoly, "divexact_coeffs",
                        staticmethod(lambda a, b: divisors.append(tuple(b)) or divexact(a, b)))
    d = det(rows)
    assert divisors and divisors[0] == const.coeffs
    monkeypatch.undo()
    assert d == cofactor(rows)
