import os
import random
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermitepw
import hermitepw.determinant as determinant
import hermitepw.polys as polys
from hermitepw.determinant import DimensionError, det
from hermitepw.hermite import _derivative_row, _hermite_h, _hermite_th, pseudo_wronskian_matrix
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
_C = IntPoly.const


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


def test_zero_row_short_circuits(monkeypatch):
    # a zero row, given or left by clearing, ends det before any elimination
    monkeypatch.setattr(determinant, "_bareiss", None)
    dense = [_X + _1, _X * _X, _C(2) * _X + _1, _X - _1]
    assert det([dense, [_Z] * 4, dense[::-1], [_X] * 4]).is_zero()
    # row 1 is x times row 0, and zero once row 0 is cleared
    assert det([[_C(2), _X, _Z], [_C(2) * _X, _X * _X, _Z], [_X + _1, _X * _X, _X]]).is_zero()


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
    # degrees do; no entry is constant and no row is a lone entry, so the
    # expansion leaves the matrix whole, and the first exact division of
    # the elimination is by its first pivot, which shows the entry chosen
    X = IntPoly((0, 1))
    cubic, quadratic, linear = X ** 3 + 1, X * X + 3, X - 2
    rows = [[cubic, X, X + 2],
            [quadratic, X * X, X + 1],
            [linear, X * X - 5, X * X + X]]
    picks, divisors = [], []
    pick, divexact = determinant._pick_row, polys._divexact
    monkeypatch.setattr(determinant, "_pick_row", lambda m, c: picks.append(pick(m, c)) or picks[-1])
    monkeypatch.setattr(polys, "_divexact", lambda a, b: divisors.append(tuple(b)) or divexact(a, b))
    d = det(rows)
    assert picks == [None]
    assert divisors and divisors[0] == linear.coeffs
    monkeypatch.undo()
    assert d == cofactor(rows)


def test_expansion_takes_the_sparsest_row():
    # of the rows that qualify, the one of fewest nonzero entries; in it
    # the constant of least absolute value
    X = IntPoly((0, 1))
    rows = [[_C(3), X, _C(-2), _Z],
            [X, _C(5), _Z, _Z],
            [X, X * X, X + 1, _1],
            [_C(7), _C(2), _X, X + 2]]
    m = [[e.coeffs for e in r] for r in rows]
    counts = [sum(map(bool, r)) for r in m]
    assert counts == [3, 2, 4, 4]
    assert determinant._pick_row(m, counts) == (2, 1, 1)
    assert determinant._pick_row(m[:1], counts[:1]) == (3, 0, 2)
    # rows of more than three nonzero entries do not qualify
    assert determinant._pick_row(m[2:], counts[2:]) is None
    # a lone entry qualifies whatever its degree
    m[1][1] = ()
    counts[1] = 1
    assert determinant._pick_row(m, counts) == (1, 1, 0)


# Matrices with sparse rows.  Each is named after the step at which an
# elimination would find its pivot row zero right of the pivot, and the
# divisor that step would keep; det expands along such rows instead.  With
# each matrix go its expansions in order, as (nonzero entries of the row,
# row, column, expanded entry, product of the multipliers of the row's
# column operations), row and column counted in the matrix left then.
SKIPPED_STEPS = {
    "first": ([[_C(2), _Z, _Z], [_X, _X + _1, _1], [_1, _X, _X * _X]],
              [(1, 0, 0, (2,), 1), (2, 0, 1, (1,), 1)]),
    "consecutive_units": ([[_1, _Z, _Z, _Z], [_X, -_1, _Z, _Z], [_X * _X, _X, _C(3), _Z],
                           [_X, _1, _X, _X * _X + _1]],
                          [(1, 0, 0, (1,), 1), (1, 0, 0, (-1,), 1), (1, 0, 0, (3,), 1)]),
    "last_prev_2": ([[_C(2), _X, _1], [_Z, _C(3), _Z], [_X, _X * _X, _X + _1]],
                    [(1, 1, 1, (3,), 1), (2, 0, 1, (1,), 1)]),
    "last_prev_1_minus_x": ([[_1 - _X, _X, _1], [_Z, _C(5), _Z], [_X * _X, _X ** 3, _X + _1]],
                            [(1, 1, 1, (5,), 1), (2, 0, 1, (1,), 1)]),
    "middle_prev_1_minus_x": ([[_1 - _X, _X, _1, _X * _X], [_Z, -_1, _Z, _Z],
                               [_X * _X, _X ** 3, _X + _1, _1], [_X, _1 - _X, _C(2), _X]],
                              [(1, 1, 1, (-1,), 1), (3, 0, 1, (1,), 1)]),
    "two_after_a_step": ([[_C(2), _X, _1, _X], [_Z, _C(3), _Z, _Z], [_Z, _Z, -_1, _Z],
                          [_X, _X * _X, _X + _1, _1]],
                         [(1, 1, 1, (3,), 1), (1, 1, 1, (-1,), 1), (2, 0, 0, (2,), 2)]),
}


def _record_expansions(monkeypatch):
    """Spy on det's expansion pass: the list it fills holds one
    (count, row, column, entry, multiplier product) per expansion."""
    record = []
    pick, clear = determinant._pick_row, determinant._clear

    def spy_pick(m, counts):
        found = pick(m, counts)
        if found is not None:
            count, i, p = found
            record.append([count, i, p, tuple(m[i][p]), 1])
        return found

    def spy_clear(m, counts, row, p):
        record[-1][4] = clear(m, counts, row, p)
        return record[-1][4]

    monkeypatch.setattr(determinant, "_pick_row", spy_pick)
    monkeypatch.setattr(determinant, "_clear", spy_clear)
    return record


@pytest.mark.parametrize("name", SKIPPED_STEPS)
def test_skipped_steps_match_the_oracles(name):
    rows, _ = SKIPPED_STEPS[name]
    assert det(rows) == cofactor(rows) == bareiss_intpoly(rows)


@pytest.mark.parametrize("name", SKIPPED_STEPS)
def test_each_example_skips_where_its_name_says(name, monkeypatch):
    # the expansions fall where the record says; at the end det multiplies
    # by the product of the expanded entries and makes one division, by the
    # product of the column multipliers
    rows, expansions = SKIPPED_STEPS[name]
    record = _record_expansions(monkeypatch)
    entries, multipliers = IntPoly.const(1), 1
    for _, _, _, entry, product in expansions:
        entries, multipliers = entries * IntPoly(entry), multipliers * product
    calls, divisors = [], []
    mul, divexact = polys._mul, polys._divexact
    monkeypatch.setattr(polys, "_mul", lambda a, b: calls.append(tuple(b)) or mul(a, b))
    monkeypatch.setattr(polys, "_divexact", lambda a, b: divisors.append(tuple(b)) or divexact(a, b))
    d = det(rows)
    assert [tuple(r) for r in record] == expansions
    assert calls[-1] == entries.coeffs
    assert divisors[-1] == (multipliers,)
    monkeypatch.undo()
    assert d == cofactor(rows)


# Examples with column operations, whose multipliers the final division
# must remove.
DEFERRED = ("last_prev_2", "last_prev_1_minus_x")


def _off_by_one(clear):
    """determinant._clear reporting one more than its multiplier product."""
    return lambda m, counts, row, p: clear(m, counts, row, p) + 1


@pytest.mark.parametrize("name", DEFERRED)
def test_deferred_division_fails_loudly(name, monkeypatch):
    # a wrong column multiplier makes the one division at the end inexact,
    # and it raises instead of returning a truncated quotient
    monkeypatch.setattr(determinant, "_clear", _off_by_one(determinant._clear))
    with pytest.raises(InexactDivisionError):
        det(SKIPPED_STEPS[name][0])


def test_deferred_division_fails_loudly_under_optimize():
    # python -O strips assert statements; the final division must still raise
    matrices = [[[e.coeffs for e in r] for r in SKIPPED_STEPS[name][0]] for name in DEFERRED]
    code = (
        "from hermitepw import determinant\n"
        "from hermitepw.determinant import det\n"
        "from hermitepw.polys import InexactDivisionError, IntPoly\n"
        "clear = determinant._clear\n"
        "determinant._clear = lambda m, counts, row, p: clear(m, counts, row, p) + 1\n"
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
    a pivot-like entry; some of them are zero left of it too, lone entries
    that det expands along at once, and the others may become lone or
    clearable as other rows are expanded."""
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


def _oracle(rows):
    """The cofactor expansion up to order 5, the IntPoly Bareiss above it."""
    return cofactor(rows) if len(rows) <= 5 else bareiss_intpoly(rows)


@st.composite
def gapped_derivative_matrices(draw, max_order=9):
    """[D^j P_i] for P = H or th over n indices below n + gaps, with 0-3 of
    the indices under the largest left out, rows in a drawn order: the
    small indices that det expands need not run 0, 1, 2, ..."""
    n = draw(st.integers(min_value=1, max_value=max_order))
    gaps = draw(st.integers(min_value=0, max_value=3))
    missing = draw(st.sets(st.integers(min_value=0, max_value=n + gaps - 2),
                           min_size=gaps, max_size=gaps)) if gaps else set()
    indices = draw(st.permutations([i for i in range(n + gaps) if i not in missing]))
    family = draw(st.sampled_from([_hermite_h, _hermite_th]))
    return [_derivative_row(family, i, n) for i in indices]


@given(gapped_derivative_matrices())
@example([_derivative_row(_hermite_h, i, 6) for i in (0, 2, 3, 5, 8, 9)])
@example([_derivative_row(_hermite_th, i, 5) for i in (7, 4, 1, 0, 2)])
@settings(max_examples=150, deadline=None)
def test_gapped_derivative_rows_match_the_oracles(rows):
    assert det(rows) == _oracle(rows)


mixed_diagrams = st.builds(
    MayaDiagram,
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4, unique=True)
    .map(lambda vs: tuple(sorted(vs, reverse=True))),
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4, unique=True)
    .map(lambda vs: tuple(sorted(vs, reverse=True))))


@given(mixed_diagrams)
@example(MayaDiagram((5, 2), (7, 3, 1)))
@settings(max_examples=120, deadline=None)
def test_mixed_defining_matrices_match_the_oracles(m):
    # th rows above, D^j H_t rows below: both s and t nonempty
    rows = pseudo_wronskian_matrix(m)
    assert det(rows) == _oracle(rows)


nonzero_poly = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4).map(
    IntPoly).filter(bool)


@st.composite
def sparse_row_matrices(draw, max_order=7):
    """Matrices with rows of a constant pivot, 1, -1 or another negative or
    positive integer, and 0-3 other nonzero entries, so some rows qualify
    for clearing and some do not; sometimes one row is zero, or a multiple
    of a sparse row, which becomes zero once that row is cleared."""
    n = draw(st.integers(min_value=2, max_value=max_order))
    entry = st.one_of(sparse_poly, parity_poly)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    sparse = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)))
    for i in sparse:
        cols = draw(st.permutations(range(n)))
        rows[i] = [IntPoly()] * n
        rows[i][cols[0]] = _C(draw(st.sampled_from([1, -1, 2, -2, -3, 6])))
        for j in cols[1:1 + draw(st.integers(min_value=0, max_value=3))]:
            rows[i][j] = draw(nonzero_poly)
    kind = draw(st.sampled_from(["none", "zero_row", "multiple"]))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    if kind == "zero_row":
        rows[k] = [IntPoly()] * n
    elif kind == "multiple":
        i = draw(st.sampled_from(sparse))
        if i != k:
            q = draw(nonzero_poly)
            rows[k] = [q * e for e in rows[i]]
    return rows


@given(sparse_row_matrices())
@example([[_C(2), _X, _Z], [_C(2) * _X, _X * _X, _Z], [_1, _1, _X]])   # zero once row 0 is cleared
@example([[_C(-3), _X, _Z], [_X, _Z, _C(-1)], [_1, _X * _X, _X]])
@example([[_1, _Z, _Z], [_Z, _Z, _Z], [_X, _1, _X]])                   # zero row
@settings(max_examples=250, deadline=None)
def test_cleared_rows_match_the_oracles(rows):
    assert det(rows) == _oracle(rows)


# Order-14 defining matrices: t-heavy (twelve t rows, most of them small-t
# rows, zero right of their diagonal) and s-heavy (twelve s rows, whose
# entries are never zero).
HEAVY_DIAGRAMS = {
    "t_heavy": MayaDiagram((5, 2), (19, 14, 11, 9, 7, 6, 5, 4, 3, 2, 1, 0)),
    "s_heavy": MayaDiagram((19, 14, 11, 9, 7, 6, 5, 4, 3, 2, 1, 0), (5, 2)),
}


def _entry(t):
    """D^t H_t = 2^t t!, the constant of the row of H_t."""
    return 2 ** t * factorial(t)


# The expansions of each, as in SKIPPED_STEPS: the t-heavy matrix loses its
# rows H_0..H_7 as lone entries, then H_9 and H_11 by one and two column
# operations; the s-heavy one only its row H_2, by two.
HEAVY_EXPANSIONS = {
    "t_heavy": [(1, 2, 0, (_entry(t),), 1) for t in range(8)]
    + [(2, 2, 1, (_entry(9),), _entry(9)), (3, 2, 2, (_entry(11),), _entry(11) ** 2)],
    "s_heavy": [(3, 12, 2, (8,), 64)],
}


@pytest.mark.parametrize("name", HEAVY_DIAGRAMS)
def test_heavy_order_14_pseudo_wronskians_match_intpoly_bareiss(name, monkeypatch):
    rows = pseudo_wronskian_matrix(HEAVY_DIAGRAMS[name])
    assert len(rows) == 14
    record = _record_expansions(monkeypatch)
    d = det(rows)
    monkeypatch.undo()
    assert [tuple(r) for r in record] == HEAVY_EXPANSIONS[name]
    assert d == bareiss_intpoly(rows)
