import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermitepw
import hermitepw.polys as polys
from hermitepw.determinant import DimensionError, det
from hermitepw.hermite import pseudo_wronskian_matrix
from hermitepw.maya import MayaDiagram
from hermitepw.polys import InexactDivisionError, IntPoly

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
    # one multiply-accumulate loop, one scalar product and one division
    # loop: det reaches the same list-level helpers as IntPoly.__mul__,
    # divmod and divexact
    calls = []
    for name in ("_scale", "_mac", "_divmod"):
        real = getattr(polys, name)
        monkeypatch.setattr(polys, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    x1, x2 = IntPoly((1, 1)), IntPoly((2, 0, 1))
    assert (x1 * x2).divexact(x2) == x1
    assert (x1 * x2).divmod(x1)[0] == x2
    assert calls == ["_mac", "_divmod", "_mac", "_divmod"]
    calls.clear()
    assert (IntPoly.const(3) * x2).divexact(IntPoly.const(3)) == x2
    assert calls == ["_scale", "_divmod"]
    calls.clear()
    # a constant pivot at step 0, a polynomial one at step 1
    rows = [[x1, x2, _1], [x2, _1, x1], [_1, x1, x2]]
    d = det(rows)
    assert set(calls) == {"_scale", "_mac", "_divmod"}
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
    divexact = polys._divexact
    monkeypatch.setattr(polys, "_divexact", lambda a, b: divisors.append(tuple(b)) or divexact(a, b))
    d = det(rows)
    assert divisors and divisors[0] == const.coeffs
    monkeypatch.undo()
    assert d == cofactor(rows)


# Matrices whose pivot row at some step has nothing right of the pivot, so
# that det skips the step and divides once at the end.  Each name says
# where the skips fall and what divisor (prev) they keep; with each matrix
# go the (pivot, prev) of its skipped steps, in order.
_C = IntPoly.const
SKIPPED_STEPS = {
    "first": ([[_C(2), _Z, _Z], [_X, _X + _1, _1], [_1, _X, _X * _X]],
              [((2,), None)]),
    "consecutive_units": ([[_1, _Z, _Z, _Z], [_X, -_1, _Z, _Z], [_X * _X, _X, _C(3), _Z],
                           [_X, _1, _X, _X * _X + _1]],
                          [((1,), None), ((-1,), None), ((3,), None)]),
    "last_prev_2": ([[_C(2), _X, _1], [_Z, _C(3), _Z], [_X, _X * _X, _X + _1]],
                    [((6,), (2,))]),
    "last_prev_1_minus_x": ([[_1 - _X, _X, _1], [_Z, _C(5), _Z], [_X * _X, _X ** 3, _X + _1]],
                            [((5, -5), (1, -1))]),
    "middle_prev_1_minus_x": ([[_1 - _X, _X, _1, _X * _X], [_Z, -_1, _Z, _Z],
                               [_X * _X, _X ** 3, _X + _1, _1], [_X, _1 - _X, _C(2), _X]],
                              [((-1, 1), (1, -1))]),
    "two_after_a_step": ([[_C(2), _X, _1, _X], [_Z, _C(3), _Z, _Z], [_Z, _Z, -_1, _Z],
                          [_X, _X * _X, _X + _1, _1]],
                         [((6,), (2,)), ((-2,), (2,))]),
}


@pytest.mark.parametrize("name", SKIPPED_STEPS)
def test_skipped_steps_match_the_oracles(name):
    rows, _ = SKIPPED_STEPS[name]
    assert det(rows) == cofactor(rows) == bareiss_intpoly(rows)


@pytest.mark.parametrize("name", SKIPPED_STEPS)
def test_each_example_skips_where_its_name_says(name, monkeypatch):
    # det calls polys._mul only to gather the skipped pivots and prevs and
    # to scale d by the pivots at the end; the one final division, when some
    # skip kept a prev, is by the product of the prevs
    rows, skips = SKIPPED_STEPS[name]
    pivots = prevs = IntPoly.const(1)
    for piv, prev in skips:
        pivots = pivots * IntPoly(piv)
        prevs = prevs * IntPoly(prev or (1,))
    calls, divisors = [], []
    mul, divexact = polys._mul, polys._divexact
    monkeypatch.setattr(polys, "_mul", lambda a, b: calls.append(tuple(b)) or mul(a, b))
    monkeypatch.setattr(polys, "_divexact", lambda a, b: divisors.append(tuple(b)) or divexact(a, b))
    det(rows)
    assert calls[-1] == pivots.coeffs
    if any(prev for _, prev in skips):
        assert divisors[-1] == prevs.coeffs


# One skip that keeps a constant prev, one that keeps a polynomial one.
DEFERRED = ("last_prev_2", "last_prev_1_minus_x")


def _off_by_one(mul):
    """polys._mul with one added to the constant term of every product."""
    def wrong(a, b):
        out = mul(a, b)
        out[0] += 1
        return out
    return wrong


@pytest.mark.parametrize("name", DEFERRED)
def test_deferred_division_fails_loudly(name, monkeypatch):
    # det multiplies only the skipped pivots and prevs with polys._mul: a
    # wrong product makes the one division at the end inexact, and it
    # raises instead of returning a truncated quotient
    monkeypatch.setattr(polys, "_mul", _off_by_one(polys._mul))
    with pytest.raises(InexactDivisionError):
        det(SKIPPED_STEPS[name][0])


def test_deferred_division_fails_loudly_under_optimize():
    # python -O strips assert statements; the final division must still raise
    matrices = [[[e.coeffs for e in r] for r in SKIPPED_STEPS[name][0]] for name in DEFERRED]
    code = (
        "from hermitepw import polys\n"
        "from hermitepw.determinant import det\n"
        "from hermitepw.polys import InexactDivisionError, IntPoly\n"
        "mul = polys._mul\n"
        "def wrong(a, b):\n"
        "    out = mul(a, b)\n"
        "    out[0] += 1\n"
        "    return out\n"
        "polys._mul = wrong\n"
        f"for m in {matrices!r}:\n"
        "    try:\n"
        "        det([[IntPoly(e) for e in r] for r in m])\n"
        "    except InexactDivisionError:\n"
        "        continue\n"
        "    raise SystemExit(f'{m} passed')\n")
    src = Path(hermitepw.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# Entries of one parity, x^p times a polynomial in x^2, as in the defining
# matrices; pivots 1, -1 and non-unit constants, and polynomials with
# leading coefficient -1.
parity_poly = st.tuples(st.integers(min_value=0, max_value=1),
                        st.lists(st.integers(min_value=-9, max_value=9), max_size=3)).map(
    lambda pc: IntPoly([0] * pc[0] + [c for v in pc[1] for c in (v, 0)]))
pivot_poly = st.one_of(
    st.sampled_from([1, -1, 2, -3, 6]).map(IntPoly.const),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=2).map(lambda cs: IntPoly(cs + [-1])))


@st.composite
def skip_heavy_matrices(draw, max_order=7):
    """Matrices in which chosen rows are zero right of their diagonal entry,
    a pivot-like entry; some of them are zero left of it too, so that they
    stay so through elimination and are skipped when they become the pivot
    row, at whatever step that is."""
    n = draw(st.integers(min_value=2, max_value=max_order))
    entry = st.one_of(sparse_poly, parity_poly)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for i in draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)):
        rows[i][i] = draw(pivot_poly)
        rows[i][i + 1:] = [IntPoly()] * (n - 1 - i)
        if draw(st.booleans()):
            rows[i][:i] = [IntPoly()] * i
    return rows


@given(skip_heavy_matrices())
@settings(max_examples=250, deadline=None)
def test_skipped_steps_match_the_oracles_at_random(rows):
    # the cofactor expansion up to order 5, the IntPoly Bareiss above it
    assert det(rows) == (cofactor(rows) if len(rows) <= 5 else bareiss_intpoly(rows))


# Order-14 defining matrices: t-heavy (twelve t rows, most of them small-t
# rows, zero right of their diagonal) and s-heavy (twelve s rows, whose
# entries are never zero).
HEAVY_DIAGRAMS = {
    "t_heavy": MayaDiagram((5, 2), (19, 14, 11, 9, 7, 6, 5, 4, 3, 2, 1, 0)),
    "s_heavy": MayaDiagram((19, 14, 11, 9, 7, 6, 5, 4, 3, 2, 1, 0), (5, 2)),
}


@pytest.mark.parametrize("name", HEAVY_DIAGRAMS)
def test_heavy_order_14_pseudo_wronskians_match_intpoly_bareiss(name, monkeypatch):
    rows = pseudo_wronskian_matrix(HEAVY_DIAGRAMS[name])
    assert len(rows) == 14
    products = []
    mul = polys._mul
    monkeypatch.setattr(polys, "_mul", lambda a, b: products.append(1) or mul(a, b))
    d = det(rows)
    monkeypatch.undo()
    if name == "t_heavy":
        # its small-t rows are skipped steps
        assert products
    assert d == bareiss_intpoly(rows)
