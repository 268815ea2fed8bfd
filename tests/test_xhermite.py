import pytest

from hermitepw.determinant import det
from hermitepw.hermite import (
    _minimal_determinant,
    conj_hermite_poly,
    hermite_poly,
    hermite_wronskian,
    pseudo_wronskian,
    pseudo_wronskian_matrix,
    wronskian,
)
from hermitepw.maya import MayaDiagram, Partition, all_partitions_up_to
from hermitepw.polys import IntPoly, RatFunc
from hermitepw.xhermite import (
    XHermiteFamily,
    apply_T_lambda,
    eigen_check,
    exceptional_hermite,
    insertion_sign,
    min_order_form,
    weight_and_norm_check,
)

from conftest import random_partition


class TestFamilyBookkeeping:
    def test_admissible_set(self):
        fam = XHermiteFamily(Partition((2, 2, 1, 1)))
        assert fam.excluded_degrees() == [0, 1, 3, 4, 6, 7]
        assert fam.admissible_degrees(5) == [2, 5, 8, 9, 10]

    def test_admissible_set_other(self):
        fam = XHermiteFamily(Partition((4, 4, 1, 1)))
        assert fam.admissible_degrees(6) == [6, 9, 10, 11, 14, 15]

    def test_codimension(self):
        for lam in all_partitions_up_to(8):
            fam = XHermiteFamily(lam)
            excl = fam.excluded_degrees()
            assert len(excl) == lam.size
            assert sorted(excl) == excl
            assert all(not fam.is_admissible(n) for n in excl)

    def test_empty_partition_is_classical(self):
        fam = XHermiteFamily(Partition())
        assert fam.admissible_degrees(4) == [0, 1, 2, 3]
        assert exceptional_hermite(Partition(), 6) == hermite_poly(6)


class TestConstruction:
    def test_degree_matches_label(self):
        for lam in all_partitions_up_to(8):
            fam = XHermiteFamily(lam)
            for n in fam.admissible_degrees(6):
                if n > 25:
                    break
                assert exceptional_hermite(lam, n).degree == n

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            exceptional_hermite(Partition((2, 2, 1, 1)), 3)
        with pytest.raises(ValueError):
            exceptional_hermite(Partition((1,)), 1)

    def test_pseudo_wronskian_link_with_sign(self, rng):
        for _ in range(60):
            lam = random_partition(rng, 8)
            fam = XHermiteFamily(lam)
            n = rng.choice(fam.admissible_degrees(8))
            enlarged = fam.diagram.add(fam.insertion_position(n))
            sign = insertion_sign(lam, n)
            assert exceptional_hermite(lam, n) == \
                sign * det(pseudo_wronskian_matrix(enlarged))

    @pytest.mark.parametrize("parts", [(2, 2, 1, 1), (4, 4, 1, 1), (2, 1), (3, 1, 1)])
    def test_matches_defining_wronskian(self, parts):
        # the minimal-order path against the Wronskian that defines P_n
        lam = Partition(parts)
        fam = XHermiteFamily(lam)
        high = next(n for n in range(301, 400) if fam.is_admissible(n))
        for n in fam.admissible_degrees(30) + [high]:
            indices = sorted(fam.diagram.t) + [fam.insertion_position(n)]
            assert exceptional_hermite(lam, n) == hermite_wronskian(indices), n

    def test_sign_both_values_occur(self):
        # single-row family: insertion below the top element flips the sign
        assert insertion_sign(Partition((1,)), 0) == -1
        assert insertion_sign(Partition((1,)), 2) == 1

    def test_sign_of_inadmissible_degree_raises(self):
        # position 1 of (2,1) is filled: no family member has degree 2
        with pytest.raises(ValueError):
            insertion_sign(Partition((2, 1)), 2)


class TestEigen:
    def test_classical_case(self):
        rep = eigen_check(Partition(), 4)
        assert rep.eigenvalue == -8 and rep.shifted_index == 0
        assert rep.residual.is_zero()

    def test_operator_on_constants(self):
        assert apply_T_lambda(Partition(), IntPoly((1,))).is_zero()
        t = apply_T_lambda(Partition(), hermite_poly(3))
        assert t == RatFunc(-6 * hermite_poly(3))

    def test_single_box(self):
        for n in (2, 3, 4):
            rep = eigen_check(Partition((1,)), n)
            assert rep.eigenvalue == 2 * (1 - n)
            assert rep.shifted_index == 1

    def test_slope_minus_two(self):
        lam = Partition((2, 2, 1, 1))
        fam = XHermiteFamily(lam)
        degs = fam.admissible_degrees(4)
        vals = [eigen_check(lam, n).eigenvalue for n in degs]
        for n1, n2, v1, v2 in zip(degs, degs[1:], vals, vals[1:]):
            assert v2 - v1 == -2 * (n2 - n1)

    def test_index_equals_partition_size(self):
        for lam in (Partition((2, 2, 1, 1)), Partition((4, 4, 1, 1)),
                    Partition((3, 1)), Partition()):
            for n in XHermiteFamily(lam).admissible_degrees(4):
                assert eigen_check(lam, n).shifted_index == lam.size

    @pytest.mark.parametrize("corrupt", [lambda y: y + 1, lambda y: IntPoly((0, 1)) * y],
                             ids=["plus_one", "times_x"])
    def test_non_eigenfunction_raises(self, monkeypatch, corrupt):
        import hermitepw.xhermite as xhermite

        real = xhermite.exceptional_hermite
        monkeypatch.setattr(xhermite, "exceptional_hermite",
                            lambda lam, n: corrupt(real(lam, n)))
        with pytest.raises(ArithmeticError):
            eigen_check(Partition((2, 2, 1, 1)), 5)


class TestMinOrderForm:
    def test_reproduces_polynomial(self):
        for lam in (Partition((2, 2, 1, 1)), Partition((4, 4, 1, 1)), Partition((3, 2))):
            fam = XHermiteFamily(lam)
            for n in fam.admissible_degrees(6):
                form = min_order_form(lam, n)
                assert form.scalar.denominator == 1
                assert exceptional_hermite(lam, n) == form.scalar.numerator * form.poly
                assert form.diagram.girth == form.order

    def test_small_member_is_single_conjugate(self):
        lam = Partition((2, 2, 1, 1))
        form = min_order_form(lam, 2)
        assert form.order == 1 and form.origin == 6
        assert form.poly == conj_hermite_poly(2)
        assert form.scalar == 2 ** 12 * 720

    def test_shares_memo_with_exceptional_hermite(self):
        # for (2,1) the min_order_form origin is often not the one
        # pseudo_wronskian reduces to, yet both reach the same minimal diagram
        lam = Partition((2, 1))
        fam = XHermiteFamily(lam)
        high = next(n for n in range(304, 320) if fam.is_admissible(n))
        for n in (6, high):
            exceptional_hermite(lam, n)
            misses = _minimal_determinant.cache_info().misses
            min_order_form(lam, n)
            assert _minimal_determinant.cache_info().misses == misses, n

    def test_rejects_non_minimal_origin(self, monkeypatch):
        # P_8 of (2,2,1,1) has minimal order 2 at origin 7; origin -3 has
        # girth 8, so a claim of (8, -3) is consistent but not minimal
        import hermitepw.xhermite as xhermite

        monkeypatch.setattr(xhermite, "xhermite_min_origin", lambda lam, n: (8, -3))
        with pytest.raises(ArithmeticError, match="minimal girth 2"):
            min_order_form(Partition((2, 2, 1, 1)), 8)

    def test_json(self):
        blob = min_order_form(Partition((2, 2, 1, 1)), 8).to_json()
        assert blob["order"] == 2 and blob["origin"] == 7


class TestGoldenConstants:
    def test_first_family(self):
        lam = Partition((2, 2, 1, 1))
        th = conj_hermite_poly
        assert exceptional_hermite(lam, 2) == 2 ** 12 * 720 * th(2)
        assert exceptional_hermite(lam, 5) == 2 ** 12 * 72 * th(5)
        d8 = det([[th(6), th(7)], [th(3), th(4)]])
        assert exceptional_hermite(lam, 8) == -(2 ** 9) * 24 * 40 * d8

    def test_first_family_general_degree(self):
        lam = Partition((2, 2, 1, 1))
        for n in range(9, 21):
            k_n = -(2 ** 9) * 24 * (n - 3) * (n - 4) * (n - 6) * (n - 7)
            small = pseudo_wronskian(MayaDiagram.parse(f"5,2|{n - 8}"))
            assert exceptional_hermite(lam, n) == k_n * small, n

    def test_second_family(self):
        lam = Partition((4, 4, 1, 1))
        th = conj_hermite_poly
        assert exceptional_hermite(lam, 6) == 2 ** 14 * 9 * 7 * 25 * wronskian(
            [hermite_poly(3), hermite_poly(4)])
        d9 = det([[th(2), th(3), th(4)], [th(3), th(4), th(5)], [th(7), th(8), th(9)]])
        assert exceptional_hermite(lam, 9) == 2 ** 11 * 45 * d9
        d10 = det([[th(2), th(3), th(4)], [th(4), th(5), th(6)], [th(7), th(8), th(9)]])
        assert exceptional_hermite(lam, 10) == 2 ** 11 * 45 * d10
        d11 = det([[th(3), th(4), th(5)], [th(4), th(5), th(6)], [th(7), th(8), th(9)]])
        assert exceptional_hermite(lam, 11) == 2 ** 11 * 75 * d11

    def test_second_family_general_degree(self):
        lam = Partition((4, 4, 1, 1))
        for n in range(14, 21):
            k_n = -(2 ** 10) * 75 * (n - 7) * (n - 8)
            small = pseudo_wronskian(MayaDiagram.parse(f"2|{n - 9},4,3"))
            assert exceptional_hermite(lam, n) == k_n * small, n


class TestNorms:
    def test_classical_norm(self):
        rep = weight_and_norm_check(Partition(), 3, 3)
        assert rep.ok and rep.rel_error <= 1e-10

    def test_even_partition_norms(self):
        lam = Partition((1, 1))
        fam = XHermiteFamily(lam)
        degs = fam.admissible_degrees(2)
        for n in degs:
            assert weight_and_norm_check(lam, n, n).ok
        assert weight_and_norm_check(lam, degs[0], degs[1]).ok
        # same parity, so the quadrature runs and must come out near zero
        rep = weight_and_norm_check(lam, 0, 4)
        assert rep.ok and rep.integral != "0.0"

    def test_opposite_parity_skips_quadrature(self, monkeypatch):
        from hermitepw.xhermite import _mp_context

        def boom(*args, **kwargs):
            raise RuntimeError("quadrature ran")

        monkeypatch.setattr(_mp_context(), "quad", boom)
        rep = weight_and_norm_check(Partition((2, 2, 1, 1)), 2, 5)
        assert (rep.integral, rep.expected, rep.rel_error, rep.ok) == ("0.0", "0.0", 0.0, True)
        with pytest.raises(RuntimeError, match="quadrature ran"):
            weight_and_norm_check(Partition((2, 2, 1, 1)), 2, 8)

    def test_integrand_matches_mpf_horner(self):
        # the oracle is the integrand as it was evaluated before the exact
        # dyadic kernel: mpf Horner, rounding at every step
        from hermitepw.xhermite import _mp_context, _tail_cutoff, _weighted_ratio

        mp = _mp_context()

        def horner(p, x):
            out = mp.mpf(0)
            for c in reversed(p.coeffs):
                out = out * x + c
            return out

        lam = Partition((2, 2, 1, 1))
        w = pseudo_wronskian(MayaDiagram.from_partition(lam))
        for n in (2, 5):
            pn = exceptional_hermite(lam, n)
            new = _weighted_ratio(pn * pn, w * w, mp)
            old = lambda x: horner(pn, x) ** 2 * mp.exp(-x * x) / horner(w, x) ** 2
            nodes = []
            mp.quad(lambda x: nodes.append(x) or new(x), [0, _tail_cutoff(2 * n + 2 * w.degree)])
            assert len(nodes) > 1000
            points = nodes + [mp.mpf(0), mp.mpf(2), mp.mpf(-3), mp.mpf(1) / 3, mp.mpf(14)]
            for x in points:
                assert abs(new(x) - old(x)) <= abs(old(x)) * mp.ldexp(1, 8 - mp.prec), (n, x)

    def test_mixed_parity_integrand_raises(self, monkeypatch):
        # a mixed-parity member has parity None on both sides of the pair,
        # so it passes the opposite-parity shortcut; its square is not
        # even, and the half-line quadrature would be wrong for it
        import hermitepw.xhermite as xh

        def boom(*args, **kwargs):
            raise RuntimeError("quadrature ran")

        mixed = IntPoly((1, 1, 0, 1))
        assert mixed.parity() is None
        monkeypatch.setattr(xh, "exceptional_hermite", lambda lam, n: mixed)
        monkeypatch.setattr(xh._mp_context(), "quad", boom)
        with pytest.raises(ArithmeticError, match="not even"):
            weight_and_norm_check(Partition((2, 2, 1, 1)), 2, 2)
        with pytest.raises(ArithmeticError, match="not even"):
            weight_and_norm_check(Partition((2, 2, 1, 1)), 2, 5)

    def test_global_precision_untouched(self):
        import mpmath

        lam = Partition((1, 1))
        old = mpmath.mp.dps
        try:
            mpmath.mp.dps = 15
            rep = weight_and_norm_check(lam, 0, 0)
            assert mpmath.mp.dps == 15
            mpmath.mp.dps = 30
            assert weight_and_norm_check(lam, 0, 0) == rep
        finally:
            mpmath.mp.dps = old
        assert rep.ok

    def test_odd_partition_rejected(self):
        with pytest.raises(ValueError):
            weight_and_norm_check(Partition((2, 1)), 2, 2)
