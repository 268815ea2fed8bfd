import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermitepw.determinant import DimensionError, det
from hermitepw.polys import IntPoly

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
