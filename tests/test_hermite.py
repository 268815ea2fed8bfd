import sys
import threading
from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermitepw.determinant import det
from hermitepw.hermite import (
    EquivalenceFactor,
    _hermite_h,
    _hermite_th,
    _cofactors,
    _derivative_row,
    _direct_pseudo_wronskian,
    _minimal_determinant,
    conj_hermite_poly,
    conjugate_wronskian_identity,
    darboux_step,
    equivalence_factor,
    hermite_poly,
    hirota,
    min_order_at,
    pseudo_wronskian,
    pseudo_wronskian_matrix,
    pseudo_wronskian_with,
    pure_conjugate_wronskian,
    one_step_shift_check,
    verify_equivalence,
)
from hermitepw.maya import MayaDiagram, Partition
from hermitepw.minorder import minimal_girth_of_diagram
from hermitepw.polys import IntPoly
from hermitepw.xhermite import XHermiteFamily, eigen_check, exceptional_hermite

from conftest import (
    all_partitions_up_to,
    diagrams,
    frobenius_sides,
    hermite_wronskian,
    max_element,
    random_diagram,
    split_window,
    wronskian,
)
from test_determinant import bareiss_intpoly

X = IntPoly((0, 1))


def _recurrence_oracle(n_max, sign):
    """[P_0..P_{n_max}] from P_{n+1} = 2x P_n + sign 2n P_{n-1}: H_n for
    sign = -1, th_n for sign = +1."""
    seq = [(1,), (0, 2)]
    while len(seq) <= n_max:
        c = sign * 2 * (len(seq) - 1)
        nxt = [0] + [2 * a for a in seq[-1]]
        for i, b in enumerate(seq[-2]):
            nxt[i] += c * b
        seq.append(tuple(nxt))
    return [IntPoly(c) for c in seq[:n_max + 1]]


@st.composite
def s_only_diagrams(draw):
    """The standard diagram of a partition of size <= 15, at an origin from
    its largest element + 1 (girth: the first part) up to girth 14."""
    parts, left = [], draw(st.integers(min_value=0, max_value=15))
    while left:
        parts.append(draw(st.integers(min_value=1, max_value=min(left, 14, *parts[-1:]))))
        left -= parts[-1]
    m = MayaDiagram.from_partition(Partition(tuple(parts)))
    base = max_element(m) + 1
    top = base + 14 - m.shift(-base).girth
    return m.shift(-draw(st.integers(min_value=base, max_value=top)))


class TestHermiteFamilies:
    def test_first_values(self):
        assert hermite_poly(0) == IntPoly((1,))
        assert hermite_poly(2) == IntPoly((-2, 0, 4))
        assert conj_hermite_poly(2) == IntPoly((2, 0, 4))
        assert conj_hermite_poly(5) == IntPoly((0, 120, 0, 160, 0, 32))

    def test_degree_and_leading(self):
        for n in range(25):
            for p in (hermite_poly(n), conj_hermite_poly(n)):
                assert p.degree == n and p.leading == 2 ** n
        assert all(c >= 0 for c in conj_hermite_poly(17).coeffs)

    def test_differential_equations(self):
        for n in range(31):
            h = hermite_poly(n)
            assert (h.derivative(2) - 2 * X * h.derivative() + 2 * n * h).is_zero()
            th = conj_hermite_poly(n)
            assert (th.derivative(2) + 2 * X * th.derivative() - 2 * n * th).is_zero()

    def test_derivative_identities(self):
        assert hermite_poly(5).derivative() == 10 * hermite_poly(4)
        assert conj_hermite_poly(5).derivative() == 10 * conj_hermite_poly(4)

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=23))
    @example(9, 5)      # below n + 1
    @example(9, 10)     # at n + 1
    @example(9, 14)     # above n + 1: zero entries past D^n
    @example(0, 3)
    def test_derivative_shortcut(self, n, width):
        # D^j P_n = 2^j n!/(n-j)! P_{n-j}, zero for j > n, for P = H and th;
        # the memo's rows are immutable tuples of exactly ``width`` entries
        for family, poly in ((_hermite_h, hermite_poly), (_hermite_th, conj_hermite_poly)):
            row = _derivative_row(family, n, width)
            assert type(row) is tuple
            assert row == tuple(poly(n).derivative(j) for j in range(width))

    def test_row_built_only_to_its_width(self):
        # a row of width w reads P_n .. P_{n-w+1} and no lower index, so its
        # memo entry holds w entries however large n is
        calls = []

        def family(k):
            calls.append(k)
            return _hermite_h(k)

        try:
            row = _derivative_row(family, 300, 3)
            assert calls == [300, 299, 298]
            assert row == tuple(hermite_poly(300).derivative(j) for j in range(3))
            assert _derivative_row(family, 300, 3) is row
            assert calls == [300, 299, 298]
        finally:
            _derivative_row.cache_clear()

    def test_det_leaves_memoised_rows_unchanged(self):
        # det and the cofactors' column slicing work on copies, so every
        # memoised row comes out of them as it went in
        _derivative_row.cache_clear()
        _cofactors.cache_clear()
        b, s_only = MayaDiagram.parse("3|6,4,1,0"), MayaDiagram.parse("7,4,2,1,0|")
        keys = [(_hermite_h, t, w) for t in b.t for w in (b.girth, b.girth + 1)]
        keys += [(_hermite_th, v, s_only.girth) for v in s_only.s]
        rows = {key: _derivative_row(*key) for key in keys}
        before = {key: [e.coeffs for e in row] for key, row in rows.items()}
        det(pseudo_wronskian_matrix(b))
        _cofactors(b)
        pseudo_wronskian_with(b, 2)
        pure_conjugate_wronskian(s_only)
        for (family, n, w), row in rows.items():
            assert _derivative_row(family, n, w) is row
            assert [e.coeffs for e in row] == before[family, n, w]
            poly = hermite_poly if family is _hermite_h else conj_hermite_poly
            assert row == tuple(poly(n).derivative(j) for j in range(w))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            hermite_poly(-1)
        with pytest.raises(ValueError):
            conj_hermite_poly(-2)

    @pytest.mark.parametrize("sign", [-1, +1], ids=["H", "th"])
    def test_matches_recurrence(self, sign):
        family = hermite_poly if sign < 0 else conj_hermite_poly
        (_hermite_h if sign < 0 else _hermite_th).cache_clear()
        _derivative_row.cache_clear()
        for n, want in enumerate(_recurrence_oracle(400, sign)):
            assert family(n) == want, n

    def test_memo_concurrent_calls(self):
        _hermite_h.cache_clear()
        _hermite_th.cache_clear()
        _derivative_row.cache_clear()
        results = []

        def worker():
            results.append((hermite_poly(80), conj_hermite_poly(80),
                            _derivative_row(_hermite_h, 80, 12),
                            _derivative_row(_hermite_th, 80, 12)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(r == results[0] for r in results)
        h, th = _recurrence_oracle(80, -1)[80], _recurrence_oracle(80, +1)[80]
        assert results[0] == (h, th, tuple(h.derivative(j) for j in range(12)),
                              tuple(th.derivative(j) for j in range(12)))

    def test_memo_is_bounded(self):
        # an unbounded memo would keep every index ever requested
        bounds = {memo.cache_info().maxsize for memo in (_hermite_h, _hermite_th)}
        assert bounds == {128}

    @pytest.mark.parametrize("n", list(range(41)) + list(range(301, 306)))
    def test_closed_form(self, n):
        # H_n = n! sum_m (-1)^m (2x)^(n-2m) / (m! (n-2m)!); th_n drops the sign
        h = [0] * (n + 1)
        th = [0] * (n + 1)
        for m in range(n // 2 + 1):
            c = factorial(n) * 2 ** (n - 2 * m) // (factorial(m) * factorial(n - 2 * m))
            h[n - 2 * m] = (-1) ** m * c
            th[n - 2 * m] = c
        assert hermite_poly(n) == IntPoly(h)
        assert conj_hermite_poly(n) == IntPoly(th)


class TestPseudoWronskian:
    def test_empty(self):
        assert pseudo_wronskian(MayaDiagram.parse("|")) == IntPoly((1,))

    def test_pure_hermite_block(self):
        m = MayaDiagram.parse("|6,3,2,1")
        assert pseudo_wronskian(m) == hermite_wronskian([1, 2, 3, 6])

    def test_matrix_layout(self):
        rows = pseudo_wronskian_matrix(MayaDiagram.parse("5,2|1"))
        assert rows[0] == [conj_hermite_poly(5), conj_hermite_poly(6), conj_hermite_poly(7)]
        assert rows[1] == [conj_hermite_poly(2), conj_hermite_poly(3), conj_hermite_poly(4)]
        assert rows[2][0] == hermite_poly(1)
        assert rows[2][2].is_zero()

    def test_known_small_determinant(self):
        got = pseudo_wronskian(MayaDiagram.parse("2|2"))
        assert got == IntPoly((0, 40, 0, 0, 0, -32))  # -8x(4x^4 - 5)

    def test_degree_is_partition_size(self, rng):
        for _ in range(40):
            m = random_diagram(rng, max_girth=5, max_val=9)
            assert pseudo_wronskian(m).degree == m.partition().size

    @given(st.builds(MayaDiagram, frobenius_sides(3, 8), frobenius_sides(3, 8)))
    @settings(max_examples=60, deadline=None)
    def test_definite_parity(self, m):
        # the O family's integral rescaling at t/sqrt3 rests on this
        h = pseudo_wronskian(m)
        assert h.parity() == h.degree % 2

    @given(diagrams, st.integers(min_value=-8, max_value=8))
    @example(MayaDiagram(), 0)
    @example(MayaDiagram((6, 3, 1), ()), 0)
    @example(MayaDiagram((), (7, 4, 2, 1)), 0)
    @example(MayaDiagram((), (7, 4, 2, 1)), 5)
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_bareiss(self, m, k):
        # the minimal-order path against the defining determinant
        m = m.shift(k)
        assert pseudo_wronskian(m) == det(pseudo_wronskian_matrix(m))

    @given(diagrams, st.integers(min_value=-6, max_value=6))
    def test_minimal_origin(self, m, j):
        # the smallest minimal-girth origin, even when m is already minimal,
        # so every shift of m reaches the same minimal diagram
        r, origins = minimal_girth_of_diagram(m)
        k = origins[0]
        assert m.shift(-k).girth == r
        assert all(m.shift(-i).girth > r for i in range(m.min_hole() - 1, k))
        k_j = minimal_girth_of_diagram(m.shift(j))[1][0]
        assert m.shift(j).shift(-k_j) == m.shift(-k)

    def test_memo_keyed_by_minimal_diagram(self):
        m = MayaDiagram.from_partition(Partition((2, 2, 1, 1)))
        _minimal_determinant.cache_clear()
        _derivative_row.cache_clear()
        pseudo_wronskian(m)
        pseudo_wronskian(m.shift(-6))   # the minimal form of m
        info = _minimal_determinant.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_memo_key_is_smallest_origin(self):
        # (4,4,3,1,1) is minimal at origins 3 and 9; the memo holds the
        # form at the smaller one
        m = MayaDiagram.from_partition(Partition((4, 4, 3, 1, 1)))
        _minimal_determinant.cache_clear()
        _derivative_row.cache_clear()
        pseudo_wronskian(m.shift(5))
        _minimal_determinant(m.shift(-3))
        assert _minimal_determinant.cache_info().hits == 1

    def test_inexact_rescale_raises(self, monkeypatch):
        import hermitepw.hermite as hermite

        m = MayaDiagram.from_partition(Partition((2, 2, 1, 1)))
        monkeypatch.setattr(hermite, "equivalence_factor",
                            lambda m, k: EquivalenceFactor(k, 1, 7))
        with pytest.raises(ArithmeticError):
            pseudo_wronskian(m)

    def test_wronskian_degree_formula(self):
        for lam in all_partitions_up_to(7):
            m = MayaDiagram.from_partition(lam)
            ell = lam.length
            assert sum(m.t) - ell * (ell - 1) // 2 == lam.size

    def test_pure_conjugate(self):
        # pseudo_wronskian reads s-only diagrams through the same rows, so
        # the definition is the reference
        for text in ("5,2|", "6,3,1|", "4|", "3,1,0|"):
            m = MayaDiagram.parse(text)
            assert pure_conjugate_wronskian(m) == det(pseudo_wronskian_matrix(m))
            assert pure_conjugate_wronskian(m) == wronskian(
                [conj_hermite_poly(s) for s in m.s])
        with pytest.raises(ValueError):
            pure_conjugate_wronskian(MayaDiagram.parse("5|1"))

    @given(s_only_diagrams())
    @example(MayaDiagram())
    @example(MayaDiagram((0,), ()))
    # a raised origin of shift_sweep seed 7: (4,4,3,2,1,1,1,1,1,1,1) at 25
    @example(MayaDiagram((24, 16, 14, 12, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0), ()))
    @settings(max_examples=40, deadline=None)
    def test_s_only_matches_defining_bareiss(self, m):
        assert not m.t
        assert _direct_pseudo_wronskian(m) == bareiss_intpoly(pseudo_wronskian_matrix(m))

    def test_min_order_at_searches_once(self, monkeypatch):
        # (4,4,3,1,1) is minimal at origins 3 and 9: a claim of 9 is checked
        # and rescaled from 3 by the same search
        import hermitepw.hermite as hermite

        m = MayaDiagram.from_partition(Partition((4, 4, 3, 1, 1)))
        real, calls = hermite.minimal_girth_of_diagram, []
        monkeypatch.setattr(hermite, "minimal_girth_of_diagram",
                            lambda d: calls.append(d) or real(d))
        _minimal_determinant.cache_clear()
        _derivative_row.cache_clear()
        form = min_order_at(m, 9, 4)
        assert calls == [m]
        assert (form.origin, form.order, form.diagram) == (9, 4, m.shift(-9))
        assert form.scalar == equivalence_factor(m, 9).ratio
        assert form.poly == det(pseudo_wronskian_matrix(form.diagram))
        assert _minimal_determinant.cache_info().misses == 1


@st.composite
def inserted_rows(draw):
    """(B, t): a partition of size <= 12, its standard diagram shifted by k
    in [-4, 6], and t >= 0 not in B, from below, between or above B's
    elements."""
    total, parts = draw(st.integers(min_value=0, max_value=12)), []
    while total:
        parts.append(draw(st.integers(min_value=1, max_value=total)))
        total -= parts[-1]
    k = draw(st.integers(min_value=-4, max_value=6))
    b = MayaDiagram.from_partition(Partition(tuple(sorted(parts, reverse=True)))).shift(-k)
    top = b.t[0] + 3 if b.t else 3
    return b, draw(st.sampled_from([t for t in range(top) if t not in b]))


class TestInsertedRow:
    @given(inserted_rows())
    @example((MayaDiagram(), 0))
    @example((MayaDiagram(), 5))
    @example((MayaDiagram((), (5, 4, 2, 1)), 0))     # below
    @example((MayaDiagram((), (5, 4, 2, 1)), 3))     # between
    @example((MayaDiagram((), (5, 4, 2, 1)), 8))     # above
    @example((MayaDiagram((1,), (3, 2)), 1))         # t < |B|: the j > t cut
    @example((MayaDiagram((4, 3), ()), 0))
    @settings(max_examples=120, deadline=None)
    def test_matches_defining_determinant(self, case):
        b, t = case
        assert pseudo_wronskian_with(b, t) == det(pseudo_wronskian_matrix(b.add(t)))

    def test_cofactors_memoised_per_base(self):
        b = MayaDiagram.parse("2|5,1")
        _cofactors.cache_clear()
        _derivative_row.cache_clear()
        for t in (0, 3, 4, 40, 300):
            pseudo_wronskian_with(b, t)
        info = _cofactors.cache_info()
        assert (info.misses, info.hits) == (1, 4)
        assert info.maxsize == 16

    @pytest.mark.parametrize("t", [-1, 5])
    def test_rejects_negative_or_present_row(self, t):
        with pytest.raises(ValueError):
            pseudo_wronskian_with(MayaDiagram.parse("2|5,1"), t)


def _equivalence_factor_oracle(m, k):
    """(eps_product, gamma_product) straight from the window definitions,
    with the holes below and the elements above rebuilt for every i."""
    if k == 0:
        return 1, 1
    if k < 0:
        eps, gamma = _equivalence_factor_oracle(m.shift(-k), -k)
        return gamma, eps
    lowest, top = m.min_hole(), max_element(m)

    def holes_below(i):
        return split_window(m, lowest, i)[0]

    def elements_above(i):
        return split_window(m, i + 1, top + 1)[1]

    eps_prod = 1
    for i in (i for i in range(k) if i in m):
        term = (-1) ** len(holes_below(i))
        for e in elements_above(i):
            term *= 2 * e - 2 * i
        eps_prod *= term
    gamma_prod = 1
    for i in (i for i in range(k) if i not in m):
        term = (-1) ** len(elements_above(i))
        for h in holes_below(i):
            term *= 2 * h - 2 * i
        gamma_prod *= term
    return eps_prod, gamma_prod


@st.composite
def raised_checks(draw):
    """(M, k) for verify_equivalence: the standard diagram of a partition
    of size <= 12, with one side at a minimal-girth origin and the other
    raised to a girth up to 14 at its highest origin (s-heavy) or its
    lowest (t-heavy), either way round."""
    total, parts = draw(st.integers(min_value=1, max_value=12)), []
    while total:
        parts.append(draw(st.integers(min_value=1, max_value=total)))
        total -= parts[-1]
    std = MayaDiagram.from_partition(Partition(tuple(sorted(parts, reverse=True))))
    r, origins = minimal_girth_of_diagram(std)
    low = draw(st.sampled_from(origins))
    g = draw(st.integers(min_value=r + 1, max_value=14))
    at_g = [k for k in range(std.min_hole() - 14, max_element(std) + 16)
            if std.shift(-k).girth == g]
    high = draw(st.sampled_from([max(at_g), min(at_g)]))
    a, b = draw(st.sampled_from([(low, high), (high, low)]))
    return std.shift(-a), b - a


class TestEquivalence:
    @given(diagrams, st.integers(min_value=-12, max_value=12))
    def test_factor_matches_window_oracle(self, m, k):
        fac = equivalence_factor(m, k)
        assert (fac.eps_product, fac.gamma_product) == _equivalence_factor_oracle(m, k)

    def test_factor_structure(self):
        m = MayaDiagram.from_partition(Partition((2, 2, 1, 1)))
        fac = equivalence_factor(m, 6)
        assert fac.ratio == Fraction(fac.eps_product, fac.gamma_product) == -768

    def test_identity_direction(self):
        # the big-coefficient pure Wronskian sits on the plain side:
        # H_M = ratio * H_{M-k}
        m = MayaDiagram.from_partition(Partition((2, 2, 1, 1)))
        assert det(pseudo_wronskian_matrix(m)) == -768 * pseudo_wronskian(m.shift(-6))

    def test_k_zero_and_negative(self):
        m = MayaDiagram.parse("5,2,1|2,1")
        assert equivalence_factor(m, 0).ratio == 1
        std, _ = m.standardize()
        down = equivalence_factor(std, 6)
        up = equivalence_factor(m, -6)
        assert up.ratio == 1 / down.ratio

    def test_golden_constants(self):
        m = MayaDiagram.from_partition(Partition((4, 4, 3, 1, 1)))
        assert verify_equivalence(m, 6).constant == -483840
        assert verify_equivalence(m, 3).constant == -1935360
        m2 = MayaDiagram.from_partition(Partition((4, 4, 1, 1)))
        assert verify_equivalence(m2, 3).constant == 19200

    def test_report_json(self):
        m = MayaDiagram.from_partition(Partition((2, 2, 1, 1)))
        blob = verify_equivalence(m, 6).to_json()
        assert blob == {"M": "( | 5,4,2,1)", "k": 6, "constant": "-768",
                        "match": True, "lhs_degree": 6}

    def test_random_diagrams_match(self, rng):
        for _ in range(60):
            m = random_diagram(rng, max_girth=5, max_val=9)
            k = rng.randint(-6, 6)
            rep = verify_equivalence(m, k)
            assert rep.match, (m, k)
            assert rep.constant != 0

    def test_every_diagram_reduces_to_pure_wronskian(self, rng):
        # standardize + the window products express any of these
        # determinants as an explicit rational multiple of a plain
        # Wronskian of Hermite polynomials
        for _ in range(40):
            m = random_diagram(rng, max_girth=5, max_val=9)
            std, k = m.standardize()
            assert std.s == ()
            r = equivalence_factor(m, k).ratio
            lhs = det(pseudo_wronskian_matrix(m)) * r.denominator
            rhs = r.numerator * pseudo_wronskian(std)
            assert lhs == rhs, (m, k)
            assert pseudo_wronskian(std) == hermite_wronskian(sorted(std.t))

    def test_step_constants_compose_to_factor(self, rng):
        # walking the origin down one step at a time reproduces the
        # aggregate ratio exactly
        for _ in range(30):
            m = random_diagram(rng, max_girth=4, max_val=8)
            k = rng.randint(1, 6)
            total = Fraction(1)
            cur = m
            for _ in range(k):
                if 0 in cur:
                    ok, c = one_step_shift_check(cur, "down")
                    assert ok
                    total *= c
                else:
                    nxt = cur.shift(-1)
                    ok, c = one_step_shift_check(nxt, "up")
                    assert ok
                    total /= c
                cur = cur.shift(-1)
            assert total == equivalence_factor(m, k).ratio, (m, k)

    @pytest.mark.parametrize("corrupt", [
        lambda f: replace(f, eps_product=-f.eps_product),
        lambda f: replace(f, gamma_product=3 * f.gamma_product),
    ], ids=["sign", "scale"])
    def test_s_only_check_catches_wrong_factor(self, monkeypatch, corrupt):
        # the Wronskian rows of s-only diagrams leave the check as strict as
        # the defining determinants: a wrong factor is a mismatch
        import hermitepw.hermite as hermite

        cases = [(MayaDiagram.parse(text), k)
                 for text, k in (("5,3,1|", 2), ("6,3,1,0|", 3), ("|5,3,1", 6))]
        for m, k in cases:
            assert not m.shift(-k).t
            assert verify_equivalence(m, k).match
        # with the memo warm, so that the sides at their smallest origin
        # are read from it
        for m, k in cases:
            pseudo_wronskian(m)
            pseudo_wronskian(m.shift(-k))
        hits = _minimal_determinant.cache_info().hits
        real = hermite.equivalence_factor
        monkeypatch.setattr(hermite, "equivalence_factor", lambda m, k: corrupt(real(m, k)))
        for m, k in cases:
            assert not verify_equivalence(m, k).match, (m, k)
        assert _minimal_determinant.cache_info().hits > hits

    def test_smallest_origin_side_read_from_memo(self, monkeypatch):
        # (4,4,3,1,1) is minimal at origins 3 and 9: only the side at 3 is
        # read through the memo, whichever side of the check it is
        import hermitepw.hermite as hermite

        m = MayaDiagram.from_partition(Partition((4, 4, 3, 1, 1)))
        small = m.shift(-3)
        reads, real = [], hermite._minimal_determinant
        monkeypatch.setattr(hermite, "_minimal_determinant",
                            lambda d: reads.append(d) or real(d))
        for origin, k in ((3, -5), (3, 8), (9, -6), (-2, 5)):
            reads.clear()
            assert verify_equivalence(m.shift(-origin), k).match
            assert reads == [small], (origin, k)
        reads.clear()
        assert verify_equivalence(m.shift(-9), 5).match
        assert reads == []

    def test_raised_side_stays_out_of_the_memo(self):
        m = MayaDiagram.from_partition(Partition((4, 4, 3, 1, 1)))
        _minimal_determinant.cache_clear()
        _derivative_row.cache_clear()
        pseudo_wronskian(m)
        size = _minimal_determinant.cache_info().currsize
        for origin, k in ((3, -5), (3, 8), (9, 6), (-2, 12)):
            assert verify_equivalence(m.shift(-origin), k).match
        info = _minimal_determinant.cache_info()
        assert info.currsize == size == 1
        assert info.hits == 2

    @given(raised_checks())
    @example((MayaDiagram((), (13, 1)), 13))          # order 2 against 13, s-heavy
    @example((MayaDiagram((), (6, 5, 3, 1)), -10))    # order 4 against 14, t-only
    @settings(max_examples=30, deadline=None)
    def test_reports_match_the_defining_oracle(self, case):
        # both report polynomials are the direct determinants of their own
        # diagrams, memo read or not
        m, k = case
        rep = verify_equivalence(m, k)
        assert rep.match
        assert rep.h_m == bareiss_intpoly(pseudo_wronskian_matrix(m))
        assert rep.h_shifted == bareiss_intpoly(pseudo_wronskian_matrix(m.shift(-k)))


class TestOneStepShifts:
    def test_down_requires_filled_origin(self):
        with pytest.raises(ValueError):
            one_step_shift_check(MayaDiagram.parse("|1"), "down")

    def test_up_requires_hole_below(self):
        with pytest.raises(ValueError):
            one_step_shift_check(MayaDiagram.parse("|1"), "up")
        with pytest.raises(ValueError):
            one_step_shift_check(MayaDiagram.parse("|"), "bogus")

    def test_trivial_down(self):
        ok, c = one_step_shift_check(MayaDiagram.parse("|0"), "down")
        assert ok and c == 1

    def test_known_down_constant(self):
        ok, c = one_step_shift_check(MayaDiagram.parse("|3,0"), "down")
        assert ok and c == 6

    def test_random_cases(self, rng):
        down = up = 0
        while down < 50 or up < 50:
            m = random_diagram(rng, max_girth=4, max_val=8)
            if 0 in m and down < 50:
                ok, _ = one_step_shift_check(m, "down")
                assert ok, m
                down += 1
            if -1 not in m and up < 50:
                ok, _ = one_step_shift_check(m, "up")
                assert ok, m
                up += 1

    @pytest.mark.parametrize("off", [-1, 3])
    def test_s_only_check_catches_wrong_constant(self, monkeypatch, off):
        # both sides are s-only; scaling the shifted side by off is the
        # check run with the constant off * c, which must fail
        import hermitepw.hermite as hermite

        m = MayaDiagram.parse("6,3,1,0|")
        other = m.shift(1)
        assert not m.t and not other.t
        assert one_step_shift_check(m, "up")[0]
        real = hermite._direct_pseudo_wronskian
        monkeypatch.setattr(hermite, "_direct_pseudo_wronskian",
                            lambda d: off * real(d) if d == other else real(d))
        assert not one_step_shift_check(m, "up")[0]


class TestConjugateIdentity:
    def test_specific_constants(self):
        ok, c, _, _ = conjugate_wronskian_identity(Partition((3, 1, 1, 1)))
        assert ok and c == 48
        ok, c, _, _ = conjugate_wronskian_identity(Partition((3, 3, 3, 3, 3)))
        assert ok and c == 18432
        ok, c, lhs, rhs = conjugate_wronskian_identity(Partition((1,)))
        assert ok and c == 1 and lhs == rhs == IntPoly((0, 2))

    def test_all_small_partitions(self):
        for lam in all_partitions_up_to(8):
            ok, c, lhs, rhs = conjugate_wronskian_identity(lam)
            assert ok, lam
            assert lhs * c.denominator == rhs * c.numerator

    def test_empty_partition_compares_both_sides(self, monkeypatch):
        # both sides are the empty diagram; doubling the second one read
        # must fail the check, so it is computed, not assumed
        import hermitepw.hermite as hermite

        ok, c, lhs, rhs = conjugate_wronskian_identity(Partition())
        assert ok and c == 1 and lhs == rhs == 1
        real, reads = hermite._direct_side, []

        def doubled_second(m, smallest):
            reads.append(m)
            return 2 * real(m, smallest) if len(reads) == 2 else real(m, smallest)

        monkeypatch.setattr(hermite, "_direct_side", doubled_second)
        ok, _, _, _ = conjugate_wronskian_identity(Partition())
        assert not ok and reads == [MayaDiagram(), MayaDiagram()]

    def test_sides_match_derivative_chain_oracle(self):
        # lhs = Wr[H_m] and rhs = Wr[th_m'] over the ascending standard
        # indices of lam and of its conjugate, each by derivative chains
        for lam in all_partitions_up_to(8):
            _, _, lhs, rhs = conjugate_wronskian_identity(lam)
            conj = MayaDiagram.from_partition(lam.conjugate())
            assert lhs == hermite_wronskian(sorted(MayaDiagram.from_partition(lam).t)), lam
            assert rhs == wronskian([conj_hermite_poly(i) for i in sorted(conj.t)]), lam

    def test_self_conjugate_constant_unity_scale(self):
        # a self-conjugate partition relates two equal-order Wronskians
        ok, c, lhs, rhs = conjugate_wronskian_identity(Partition((2, 1)))
        assert ok
        assert lhs.degree == rhs.degree


def test_wronskian_of_single_function():
    assert wronskian([hermite_poly(7)]) == hermite_poly(7)


def test_mixed_triple_identity():
    d1 = hermite_wronskian([1, 2, 3, 6])
    d2 = wronskian([conj_hermite_poly(i) for i in (1, 2, 6)])
    d3 = det([[hermite_poly(2), hermite_poly(2).derivative()],
              [conj_hermite_poly(3), conj_hermite_poly(4)]])
    assert d1 == 48 * d2 == 7680 * d3


# -- Darboux steps -----------------------------------------------------------


def hirota_products(f, g, eps, c=0):
    """Oracle of ``hermite.hirota``: B_eps(f, g) - c f g from the defining
    formula (f'' + 2 eps x f') g - 2 f' g' + (g'' - 2 eps x g') f, as five
    IntPoly products and one more for c f g."""
    fp, gp = f.derivative(), g.derivative()
    x2 = IntPoly((0, 2 * eps))
    return ((fp.derivative() + x2 * fp) * g - 2 * fp * gp
            + (gp.derivative() - x2 * gp) * f - c * (f * g))


hirota_polys = st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                        max_size=12).map(IntPoly)


class TestHirota:
    @given(hirota_polys, hirota_polys, st.sampled_from((1, -1)),
           st.integers(min_value=-10 ** 4, max_value=10 ** 4))
    @example(IntPoly(), hermite_poly(4), 1, 3)                  # zero f
    @example(hermite_poly(4), IntPoly(), -1, 3)                 # zero g
    @example(IntPoly((5,)), hermite_poly(3), -1, -7)            # constant f
    @example(hermite_poly(5), IntPoly((-3,)), 1, 11)            # constant g
    @example(IntPoly((1, 2)), hermite_poly(9), 1, 0)            # g longer than f
    @example(X ** 7, conj_hermite_poly(2), -1, 4)               # one term against a band
    @settings(max_examples=200, deadline=None)
    def test_matches_product_oracle(self, f, g, eps, c):
        assert hirota(f, g, eps, c) == hirota_products(f, g, eps, c)

    def test_c_defaults_to_zero(self):
        f, g = hermite_poly(6), conj_hermite_poly(3)
        assert hirota(f, g, 1) == hirota(f, g, 1, 0) == hirota_products(f, g, 1)

    def test_eigen_residual_at_high_degree(self):
        # the xh_ladder shape: a 1.4 kbit member of degree > 300 against a short W
        lam = Partition((2, 1))
        n = next(n for n in range(302, 320) if XHermiteFamily(lam).is_admissible(n))
        y = exceptional_hermite(lam, n)
        w = pseudo_wronskian(MayaDiagram.from_partition(lam))
        c = 2 * (lam.size - n)
        assert hirota(y, w, -1, c).is_zero()
        assert hirota_products(y, w, -1, c).is_zero()

    @pytest.mark.parametrize("delta", [-2, 2])
    def test_wrong_constant_leaves_residual(self, delta):
        lam = Partition((2, 2, 1, 1))
        y = exceptional_hermite(lam, 5)
        w = pseudo_wronskian(MayaDiagram.from_partition(lam))
        c = 2 * (lam.size - 5)
        assert hirota(y, w, -1, c).is_zero()
        assert hirota(y, w, -1, c + delta) == -delta * (y * w)
        m = MayaDiagram.from_partition(Partition((2, 1)))
        step = darboux_step(m, 6)
        tau, tau2 = pseudo_wronskian(m), pseudo_wronskian(m.add(6))
        assert hirota(tau2, tau, step.eps, step.constant).is_zero()
        assert not hirota(tau2, tau, step.eps, step.constant + delta).is_zero()

    @pytest.mark.parametrize("delta", [-2, 2])
    def test_wrong_constant_makes_checks_raise(self, monkeypatch, delta):
        import hermitepw.hermite as hermite
        import hermitepw.xhermite as xhermite

        real = hermite.hirota

        def shifted(f, g, eps, c=0):
            return real(f, g, eps, c + delta)

        monkeypatch.setattr(hermite, "hirota", shifted)
        monkeypatch.setattr(xhermite, "hirota", shifted)
        with pytest.raises(ArithmeticError):
            eigen_check(Partition((2, 2, 1, 1)), 5)
        with pytest.raises(ArithmeticError):
            darboux_step(MayaDiagram.from_partition(Partition((2, 1))), 6)
