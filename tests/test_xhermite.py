import dataclasses
import math
import random
from fractions import Fraction

import pytest

import hermitepw.xhermite as xhermite
from hermitepw.determinant import det
from hermitepw.hermite import (
    _cofactors,
    _minimal_determinant,
    conj_hermite_poly,
    hermite_poly,
    min_order_at,
    pseudo_wronskian,
    pseudo_wronskian_matrix,
)
from hermitepw.maya import MayaDiagram, Partition
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

import norm_oracle
from conftest import (
    admissible_degrees,
    all_partitions_up_to,
    hermite_wronskian,
    random_partition,
    wronskian,
)


class TestFamilyBookkeeping:
    def test_admissible_set(self):
        fam = XHermiteFamily(Partition((2, 2, 1, 1)))
        assert [n for n in range(8) if not fam.is_admissible(n)] == [0, 1, 3, 4, 6, 7]
        assert admissible_degrees(fam.lam, 5) == [2, 5, 8, 9, 10]

    def test_admissible_set_other(self):
        fam = XHermiteFamily(Partition((4, 4, 1, 1)))
        assert admissible_degrees(fam.lam, 6) == [6, 9, 10, 11, 14, 15]

    def test_codimension(self):
        # the excluded degrees number size(lam); the largest is
        # size + lam_1 - 1, so every degree from 2 size on is admissible
        for lam in all_partitions_up_to(8):
            fam = XHermiteFamily(lam)
            top = 2 * lam.size
            assert sum(not fam.is_admissible(n) for n in range(top)) == lam.size, lam
            assert all(fam.is_admissible(n) for n in range(top, top + 12)), lam

    def test_empty_partition_is_classical(self):
        assert admissible_degrees(Partition(), 4) == [0, 1, 2, 3]
        assert exceptional_hermite(Partition(), 6) == hermite_poly(6)


class TestConstruction:
    def test_degree_matches_label(self):
        for lam in all_partitions_up_to(8):
            for n in admissible_degrees(lam, 6):
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
            n = rng.choice(admissible_degrees(lam, 8))
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
        for n in admissible_degrees(lam, 30) + [high]:
            indices = sorted(fam.diagram.t) + [fam.insertion_position(n)]
            assert exceptional_hermite(lam, n) == hermite_wronskian(indices), n

    @pytest.mark.parametrize("parts", [(), (1,), (2, 1), (3, 1, 1), (2, 2, 1, 1),
                                       (4, 4, 1, 1), (3, 2)])
    def test_sweep_matches_enlarged_determinant(self, parts):
        # both branches of the member record, the inserted-row expansion
        # and the low members, against the defining determinant of the
        # enlarged diagram at its own order
        lam = Partition(parts)
        fam = XHermiteFamily(lam)
        high = [n for n in range(301, 360) if fam.is_admissible(n)][:3]
        for n in [n for n in range(81) if fam.is_admissible(n)] + high:
            enlarged = fam.diagram.add(fam.insertion_position(n))
            poly = exceptional_hermite(lam, n)
            assert poly == insertion_sign(lam, n) * det(pseudo_wronskian_matrix(enlarged)), n
            form = min_order_form(lam, n)
            assert form.scalar.denominator == 1 and poly == form.scalar.numerator * form.poly, n

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
        degs = admissible_degrees(lam, 4)
        vals = [eigen_check(lam, n).eigenvalue for n in degs]
        for n1, n2, v1, v2 in zip(degs, degs[1:], vals, vals[1:]):
            assert v2 - v1 == -2 * (n2 - n1)

    def test_index_equals_partition_size(self):
        for lam in (Partition((2, 2, 1, 1)), Partition((4, 4, 1, 1)),
                    Partition((3, 1)), Partition()):
            for n in admissible_degrees(lam, 4):
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


def _memo_misses():
    return {name: memo.cache_info().misses for name, memo in (
        ("_member", xhermite._member), ("_family", xhermite._family),
        ("_minimal_determinant", _minimal_determinant), ("_cofactors", _cofactors))}


@pytest.fixture
def clear_memos():
    """For tests that corrupt an input the xhermite memos cache: start with
    them empty, and leave no corrupted entry behind."""
    memos = (xhermite._family, xhermite._member)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


class TestMemos:
    # exceptional_hermite and min_order_form read the one member record;
    # the standard diagram and W sit on the one family record
    @pytest.mark.parametrize("memo", [xhermite._family, xhermite._member],
                             ids=["_family", "exceptional_hermite"])
    def test_fixed_bound(self, memo):
        assert memo.cache_info().maxsize == 16

    def test_family_diagram_built_once(self):
        fam = XHermiteFamily(Partition((2, 2, 1, 1)))
        assert fam.diagram is fam.diagram
        assert fam.diagram == MayaDiagram.from_partition(fam.lam)
        assert xhermite._family(fam.lam) is xhermite._family(Partition((2, 2, 1, 1)))
        assert fam.weight is fam.weight
        assert fam.weight == pseudo_wronskian(fam.diagram)

    def test_norm_check_shares_the_weight(self):
        lam = Partition((2, 2, 1, 1))
        xhermite._family(lam).weight
        exceptional_hermite(lam, 2)
        before = _memo_misses()
        assert weight_and_norm_check(lam, 2, 2).ok
        assert _memo_misses() == before

    def test_eigen_residual_recomputed_every_call(self, monkeypatch):
        # the memos hold P_n and W, never a verdict
        calls = []
        real = xhermite.hirota
        monkeypatch.setattr(xhermite, "hirota", lambda *a: calls.append(1) or real(*a))
        lam = Partition((2, 2, 1, 1))
        for _ in range(3):
            assert eigen_check(lam, 8).residual.is_zero()
        assert len(calls) == 3

    def test_corrupted_weight_raises(self, monkeypatch, clear_memos):
        # W comes from its memo: a wrong W, built after the memo was
        # emptied, fails the eigen check and the norm certificate
        lam = Partition((2, 2, 1, 1))
        standard = MayaDiagram.from_partition(lam)
        real = xhermite.pseudo_wronskian
        monkeypatch.setattr(xhermite, "pseudo_wronskian",
                            lambda d: real(d) * IntPoly((1, 0, 1)) if d == standard else real(d))
        with pytest.raises(ArithmeticError):
            eigen_check(lam, 5)
        with pytest.raises(ArithmeticError, match="not a multiple"):
            weight_and_norm_check(lam, 2, 2)


def test_member_above_corners_reuses_its_cofactors(monkeypatch, clear_memos):
    # above the corners every member of a family has the same base diagram,
    # so once one is built a new one costs the one minimal-girth search that
    # places it, no determinant and no call of the insertion theorem; the
    # rest of the request reads the record
    import hermitepw.hermite as hermite
    import hermitepw.minorder as minorder

    lam = Partition((2, 1))
    fam = XHermiteFamily(lam)
    first, second = [n for n in range(301, 320) if fam.is_admissible(n)][:2]
    eigen_check(lam, first)
    min_order_form(lam, first)
    counts = {"det": 0, "search": 0, "theorem": 0}

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(hermite, "det", counting("det", hermite.det))
    monkeypatch.setattr(minorder, "min_order_after_insert",
                        counting("theorem", minorder.min_order_after_insert))
    search = counting("search", minorder.minimal_girth_of_diagram)
    for module in (minorder, hermite, xhermite):
        monkeypatch.setattr(module, "minimal_girth_of_diagram", search)
    exceptional_hermite(lam, second)
    assert counts == {"det": 0, "search": 1, "theorem": 0}
    min_order_form(lam, second)
    eigen_check(lam, second)
    assert counts == {"det": 0, "search": 1, "theorem": 0}


@pytest.mark.parametrize("n", [3, -1])
def test_inadmissible_degree_raises_before_any_search(monkeypatch, clear_memos, n):
    # the degree is rejected before the family's diagram or the member's
    # origin is searched for, or any determinant is taken, from empty memos
    import hermitepw.hermite as hermite
    import hermitepw.minorder as minorder

    calls = []
    real_search, real_det = minorder.minimal_girth_of_diagram, hermite.det
    for module in (minorder, hermite, xhermite):
        monkeypatch.setattr(module, "minimal_girth_of_diagram",
                            lambda d: calls.append(d) or real_search(d))
    monkeypatch.setattr(hermite, "det", lambda rows: calls.append(rows) or real_det(rows))
    lam = Partition((2, 2, 1, 1))
    for reader in (exceptional_hermite, min_order_form):
        with pytest.raises(ValueError, match=f"degree {n} is not admissible"):
            reader(lam, n)
    assert calls == []


@pytest.mark.parametrize("n", [3, 5])
def test_member_below_corners_searches_once(monkeypatch, clear_memos, n):
    # P_3 and P_5 of (2,1) insert below their minimal origin: the search
    # that places the member also gives the origin to rescale from
    import hermitepw.hermite as hermite
    import hermitepw.minorder as minorder

    lam = Partition((2, 1))
    fam = xhermite._family(lam)
    assert fam.insertion_position(n) < fam.placement(n)[3]
    fam.weight
    real, calls = minorder.minimal_girth_of_diagram, []
    for module in (minorder, hermite, xhermite):
        monkeypatch.setattr(module, "minimal_girth_of_diagram",
                            lambda d: calls.append(d) or real(d))
    exceptional_hermite(lam, n)
    assert len(calls) == 1


def test_both_member_branches_build_the_determinant_record():
    # every admissible n <= 20 of every partition of size <= 6: the record
    # of min_order_form, whether the inserted-row expansion or the shifted
    # determinant built it, equals the one min_order_at builds from the
    # enlarged diagram at the same origin, its scalar times the insertion
    # sign
    branches = {"expansion": 0, "determinant": 0}
    for lam in all_partitions_up_to(6):
        fam = XHermiteFamily(lam)
        for n in (n for n in range(21) if fam.is_admissible(n)):
            form = min_order_form(lam, n)
            pos = fam.insertion_position(n)
            branches["expansion" if pos >= form.origin else "determinant"] += 1
            expected = min_order_at(fam.diagram.add(pos), form.origin, form.order)
            assert form == dataclasses.replace(
                expected, scalar=insertion_sign(lam, n) * expected.scalar), (lam, n)
    assert all(branches.values()), branches


class TestMinOrderForm:
    def test_reproduces_polynomial(self):
        for lam in (Partition((2, 2, 1, 1)), Partition((4, 4, 1, 1)), Partition((3, 2))):
            for n in admissible_degrees(lam, 6):
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
        # exceptional_hermite builds the member's whole record, so the rest
        # of an xh request adds no miss to any memo, whether P_n came from
        # the shifted diagram (n = 3, inserted below the origin) or from the
        # inserted-row expansion (n = 6 and above 300); W belongs to the
        # family, so only the family's first request builds it.
        lam = Partition((2, 1))
        fam = XHermiteFamily(lam)
        high = next(n for n in range(304, 320) if fam.is_admissible(n))
        xhermite._family(lam).weight
        for n in (3, 6, high):
            exceptional_hermite(lam, n)
            misses = _memo_misses()
            eigen_check(lam, n)
            min_order_form(lam, n)
            assert _memo_misses() == misses, n

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


def _mpf_horner(mp, p, x):
    out = mp.mpf(0)
    for c in reversed(p.coeffs):
        out = out * x + c
    return out


def _boom(*args, **kwargs):
    raise RuntimeError("certificate built")


def _spy_certificates(monkeypatch):
    """The constants c that ``_norm_constant`` returns, in call order."""
    seen = []
    real = xhermite._norm_constant
    monkeypatch.setattr(xhermite, "_norm_constant",
                        lambda num, w: seen.append(real(num, w)) or seen[-1])
    return seen


def _rejected(lam, n, m):
    """A check that raises or fails rejects; only ok=True accepts."""
    try:
        return not weight_and_norm_check(lam, n, m).ok
    except ArithmeticError:
        return True


def _L(a, w):
    """L(A) = A' W - A W' - 2x A W, whose image integrates to zero against
    e^(-x^2) / W^2."""
    return a.derivative() * w - a * w.derivative() - IntPoly((0, 2)) * a * w


# sqrt(pi) to 60 significant digits
SQRT_PI_60 = "1.77245385090551602729816748334114518279754945612238712821381"

# Even partitions whose first admissible degrees the certificate must match
# Crum's closed form on, off the diagonal (c = 0) included
EVEN_FAMILIES = [(), (1, 1), (2, 2), (2, 2, 1, 1), (3, 3), (3, 3, 1, 1), (4, 4, 2, 2),
                 (8, 8, 1, 1), (2, 2, 2, 2), (6, 6, 3, 3, 1, 1)]


class TestNorms:
    def test_classical_norm(self):
        rep = weight_and_norm_check(Partition(), 3, 3)
        assert rep.ok and rep.rel_error <= 1e-10
        # the norm of H_3 is 2^3 3! sqrt(pi)
        assert rep.c == rep.expected_c == 48

    def test_even_partition_norms(self, monkeypatch):
        lam = Partition((1, 1))
        degs = admissible_degrees(lam, 2)
        for n in degs:
            assert weight_and_norm_check(lam, n, n).ok
        assert weight_and_norm_check(lam, degs[0], degs[1]).ok
        # same parity, so the certificate runs and gives exactly zero
        seen = _spy_certificates(monkeypatch)
        rep = weight_and_norm_check(lam, 0, 4)
        assert seen == [0]
        assert rep.ok and (rep.integral, rep.expected, rep.rel_error) == ("0.0", "0.0", 0.0)
        assert rep.c == rep.expected_c == 0

    @pytest.mark.parametrize("parts", EVEN_FAMILIES)
    def test_certificate_is_the_closed_form(self, monkeypatch, parts):
        lam = Partition(parts)
        fam = XHermiteFamily(lam)
        degs = admissible_degrees(lam, 6)
        seen = _spy_certificates(monkeypatch)
        for n in degs:
            for m in degs:
                if (n - m) % 2 == 0:
                    rep = weight_and_norm_check(lam, n, m)
                    assert rep.ok, (parts, n, m)
                    assert seen[-1] == (xhermite._norm_scale(fam, n) if n == m else 0)
                    assert rep.c == rep.expected_c == seen[-1]

    @pytest.mark.parametrize("parts", [(), (1, 1), (2, 2, 1, 1), (2, 1), (3, 1, 1)])
    def test_remainder_of_image_is_exact(self, parts):
        # the remainder of L(A) + R, deg R <= deg W, is R, whatever A is
        rng = random.Random(sum(parts) + 17)
        w = pseudo_wronskian(MayaDiagram.from_partition(Partition(parts)))
        d = w.degree
        for _ in range(20):
            a = IntPoly(tuple(rng.randint(-50, 50) for _ in range(rng.randint(0, 12))))
            r = [rng.randint(-50, 50) for _ in range(d + 1)]
            got, s = xhermite._hermite_remainder(_L(a, w) + IntPoly(tuple(r)), w)
            assert s > 0 and got == [s * c for c in r], (parts, a, r)

    @pytest.mark.parametrize("parts", [(), (1, 1), (2, 2, 1, 1), (2, 1), (3, 1, 1)])
    def test_remainder_matches_fraction_reduction(self, parts):
        # an arbitrary integer polynomial is L(A) + R with A in Q[x]: the
        # integer reduction and its scale give the R that the same
        # reduction over Q gives
        rng = random.Random(sum(parts) + 29)
        w = pseudo_wronskian(MayaDiagram.from_partition(Partition(parts)))
        d = w.degree
        for _ in range(20):
            p = IntPoly(tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 24))))
            r = [Fraction(c) for c in p.coeffs] + [Fraction(0)] * (d + 1)
            for k in range(p.degree, d, -1):
                t = r[k] / (-2 * w.leading)
                step = _L(IntPoly((0,) * (k - d - 1) + (1,)), w)
                r = [c - t * l for c, l in zip(r, step.coeffs + (0,) * len(r))]
            got, s = xhermite._hermite_remainder(p, w)
            assert not any(r[d + 1:])
            assert [Fraction(c, s) for c in got] == r[:d + 1], (parts, p)

    def test_flipped_step_leaves_a_term(self, monkeypatch):
        # a step of the wrong sign doubles the term it should cancel
        real = xhermite._subtract_L
        monkeypatch.setattr(xhermite, "_subtract_L", lambda r, i, t, wp: real(r, i, -t, wp))
        w = xhermite._family(Partition((2, 2, 1, 1))).weight
        with pytest.raises(ArithmeticError, match="above deg W"):
            xhermite._hermite_remainder(w * w, w)

    def test_carried_scale_enters_the_constant(self):
        # lead(W) = 3, so g = -6 divides only some leading terms and the
        # two reductions carry different scales
        w = IntPoly((1, 0, 3))
        for k in range(1, 7):
            num = k * w * w + _L(IntPoly((0, 0, 0, 1)), w)
            assert xhermite._norm_constant(num, w) == k, k

    def test_remainder_off_the_multiple_raises(self):
        # a product whose remainder has the right leading term but is not
        # a multiple of the remainder of W^2 leaves no constant c
        lam = Partition((2, 2, 1, 1))
        w = xhermite._family(lam).weight
        scale = xhermite._norm_scale(XHermiteFamily(lam), 5)
        assert xhermite._norm_constant(scale * w * w, w) == scale
        with pytest.raises(ArithmeticError, match="not a multiple"):
            xhermite._norm_constant(scale * w * w + 1, w)

    def test_opposite_parity_builds_no_certificate(self, monkeypatch):
        monkeypatch.setattr(xhermite, "_norm_constant", _boom)
        rep = weight_and_norm_check(Partition((2, 2, 1, 1)), 2, 5)
        assert (rep.integral, rep.expected, rep.rel_error, rep.ok) == ("0.0", "0.0", 0.0, True)
        assert rep.c == rep.expected_c == 0
        with pytest.raises(RuntimeError, match="certificate built"):
            weight_and_norm_check(Partition((2, 2, 1, 1)), 2, 8)

    def test_real_zero_raises_before_certificate(self, monkeypatch):
        # Sturm's count runs first: a W with a real zero never reaches the
        # reduction, where the integral would not exist
        lam = Partition((2, 2, 1, 1))
        fam = XHermiteFamily(lam)
        fam.__dict__["weight"] = fam.weight * IntPoly((-1, 0, 1))
        monkeypatch.setattr(xhermite, "_family", lambda lam: fam)
        monkeypatch.setattr(xhermite, "_norm_constant", _boom)
        with pytest.raises(ArithmeticError, match="real zero"):
            weight_and_norm_check(lam, 2, 2)

    def test_wrong_closed_form_fails(self, monkeypatch):
        # a wrong Crum scale is reported exactly, against the right c
        lam = Partition((2, 2, 1, 1))
        real = xhermite._norm_scale
        for wrong in (lambda fam, n: real(fam, n) + 1, lambda fam, n: 2 * real(fam, n),
                      lambda fam, n: -real(fam, n)):
            monkeypatch.setattr(xhermite, "_norm_scale", wrong)
            rep = weight_and_norm_check(lam, 5, 5)
            assert not rep.ok and rep.rel_error > 0
            assert rep.c == 3072 and rep.expected_c == wrong(XHermiteFamily(lam), 5)

    def test_wrong_constant_fails(self, monkeypatch):
        # a wrong certificate constant c is reported exactly, against the
        # right closed form
        lam = Partition((2, 2, 1, 1))
        real = xhermite._norm_constant
        for wrong in (lambda c: c + Fraction(1, 2), lambda c: 2 * c, lambda c: -c):
            monkeypatch.setattr(xhermite, "_norm_constant",
                                lambda num, w: wrong(real(num, w)))
            rep = weight_and_norm_check(lam, 5, 5)
            assert not rep.ok and rep.rel_error > 0
            assert rep.c == wrong(Fraction(3072)) and rep.expected_c == 3072

    def test_scaled_member_fails(self, monkeypatch):
        lam = Partition((2, 2, 1, 1))
        real = xhermite.exceptional_hermite
        monkeypatch.setattr(xhermite, "exceptional_hermite", lambda lam, n: 2 * real(lam, n))
        rep = weight_and_norm_check(lam, 8, 8)
        assert not rep.ok and rep.rel_error == 3.0
        assert rep.c == 4 * rep.expected_c == 4 * 29491200

    @pytest.mark.parametrize("n, m", [(8, 8), (2, 8), (5, 9)])
    def test_perturbed_member_fails(self, monkeypatch, n, m):
        # one coefficient of P_n moved by one, parity kept
        lam = Partition((2, 2, 1, 1))
        real = xhermite.exceptional_hermite

        def perturbed(lam, k):
            p = real(lam, k)
            return p + IntPoly((0,) * (k - 2) + (1,)) if k == n else p

        monkeypatch.setattr(xhermite, "exceptional_hermite", perturbed)
        assert _rejected(lam, n, m)

    def test_flipped_reduction_step_fails(self, monkeypatch):
        # a sign flipped in any one step of the reduction is caught
        lam = Partition((2, 2, 1, 1))
        real, calls = xhermite._subtract_L, []
        monkeypatch.setattr(xhermite, "_subtract_L",
                            lambda r, i, t, wp: calls.append(i) or real(r, i, t, wp))
        assert weight_and_norm_check(lam, 8, 8).ok
        steps = len(calls)
        assert steps >= 6
        for flip in range(steps):
            count = iter(range(steps))

            def mutant(r, i, t, wp):
                return real(r, i, -t if next(count) == flip else t, wp)

            monkeypatch.setattr(xhermite, "_subtract_L", mutant)
            assert _rejected(lam, 8, 8), flip

    def test_integrand_matches_mpf_horner(self):
        # the oracle is the integrand as the mpmath path evaluated it: mpf
        # Horner, rounding at every step, here at three times the working
        # precision.  Each node value of the trapezoid oracle is within one
        # unit of 2^-B, and each level sum, Gaussian weights included,
        # within two units per node.
        mpmath = pytest.importorskip("mpmath")
        from hermitepw.xhermite import _NORM_BITS

        mp = mpmath.MPContext()
        mp.prec = 3 * _NORM_BITS
        lam = Partition((2, 2, 1, 1))
        w = pseudo_wronskian(MayaDiagram.from_partition(lam))
        for n in (2, 5):
            pn = exceptional_hermite(lam, n)
            num, den = pn * pn, w * w
            numq, denq = IntPoly(num.coeffs[::2]), IntPoly(den.coeffs[::2])
            L = norm_oracle.tail_cutoff(2 * n + 2 * w.degree)

            def scaled(x):
                return mp.ldexp(_mpf_horner(mp, num, x) / _mpf_horner(mp, den, x), _NORM_BITS)

            for j in (0, 1, 3):
                for k in range(0, (L << j) + 1):
                    x = mp.ldexp(k, -j)
                    assert abs(norm_oracle.ratio_at(numq, denq, k, j) - scaled(x)) <= 1, (n, j, k)
            for j, step in ((0, 1), (3, 2)):
                nodes = [mp.ldexp(k, -j) for k in range(1, (L << j) + 1, step)]
                terms = [scaled(x) * mp.exp(-x * x) for x in nodes]
                total, size = norm_oracle.level_sum(numq, denq, L, j, step)
                assert abs(total - mp.fsum(terms)) <= 2 * len(nodes), (n, j)
                assert abs(size - mp.fsum(abs(t) for t in terms)) <= 2 * len(nodes), (n, j)

    def test_mixed_parity_integrand_raises(self, monkeypatch):
        # a mixed-parity member has parity None on both sides of the pair,
        # so it passes the opposite-parity shortcut; its square is not
        # even, and it raises before any certificate is built
        mixed = IntPoly((1, 1, 0, 1))
        assert mixed.parity() is None
        monkeypatch.setattr(xhermite, "exceptional_hermite", lambda lam, n: mixed)
        monkeypatch.setattr(xhermite, "_norm_constant", _boom)
        with pytest.raises(ArithmeticError, match="not even"):
            weight_and_norm_check(Partition((2, 2, 1, 1)), 2, 2)
        with pytest.raises(ArithmeticError, match="not even"):
            weight_and_norm_check(Partition((2, 2, 1, 1)), 2, 5)

    @staticmethod
    def _quadrature_agrees(monkeypatch, lam, n, m, quadrature):
        """The certificate's c sqrt(pi) against a quadrature of the same
        integrand, within 10^-45 of the diagonal norm at n."""
        seen = _spy_certificates(monkeypatch)
        assert weight_and_norm_check(lam, n, m).ok
        w = xhermite._family(lam).weight
        value = quadrature(exceptional_hermite(lam, n), exceptional_hermite(lam, m), w)
        sqrt_pi = Fraction(SQRT_PI_60)
        norm = abs(xhermite._norm_scale(XHermiteFamily(lam), n)) * sqrt_pi
        return abs(value - seen[-1] * sqrt_pi) <= norm * Fraction(1, 10 ** 45)

    @pytest.mark.parametrize("parts", [(), (1, 1), (2, 2), (2, 2, 1, 1), (4, 4, 2, 2),
                                       (8, 8, 1, 1)])
    def test_integral_matches_tanh_sinh(self, monkeypatch, parts):
        # the differential test: the certificate's c sqrt(pi) equals the
        # trapezoid oracle and mpmath's tanh-sinh at 60 digits on the same
        # [0, L], split at 2 and 4 so it resolves the integrand near the
        # complex zeros of W
        lam = Partition(parts)
        degs = admissible_degrees(lam, 3)
        pairs = [(degs[0], degs[0]), (degs[0], degs[2])]
        for n, m in pairs:
            assert self._quadrature_agrees(monkeypatch, lam, n, m, norm_oracle.norm_integral)
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.MPContext()
        mp.dps = 60

        def tanh_sinh(pn, pm, w):
            num, den = pn * pm, w * w
            L = norm_oracle.tail_cutoff(pn.degree + pm.degree + 2 * max(w.degree, 1))
            ref = 2 * mp.quad(lambda x: _mpf_horner(mp, num, x) * mp.exp(-x * x)
                              / _mpf_horner(mp, den, x), [0, 2, 4, L])
            sign, man, exp, _ = ref._mpf_
            return (-1) ** sign * Fraction(man) * Fraction(2) ** exp

        for n, m in pairs:
            assert self._quadrature_agrees(monkeypatch, lam, n, m, tanh_sinh)

    def test_sqrt_pi_pinned(self):
        from hermitepw.xhermite import _NORM_BITS, _sqrt_pi

        value = Fraction(_sqrt_pi(), 1 << _NORM_BITS)
        assert abs(value - Fraction(SQRT_PI_60)) < Fraction(1, 10 ** 59)

    def test_quadrature_scale_does_not_cancel(self, monkeypatch):
        # sqrt(pi) in the comparison is computed apart from the quadrature,
        # so an oracle off by a constant factor disagrees with the
        # certificate; were sqrt(pi) taken from the quadrature, the factor
        # would cancel out of the comparison
        lam = Partition((2, 2, 1, 1))

        def doubled(pn, pm, w):
            return 2 * norm_oracle.norm_integral(pn, pm, w)

        assert self._quadrature_agrees(monkeypatch, lam, 2, 2, norm_oracle.norm_integral)
        assert not self._quadrature_agrees(monkeypatch, lam, 2, 2, doubled)

    def test_level_cap_raises(self, monkeypatch):
        # an unconverged oracle sum is an error, never a result
        monkeypatch.setattr(norm_oracle, "MAX_LEVEL", 1)
        lam = Partition((1, 1))
        p0 = exceptional_hermite(lam, 0)
        with pytest.raises(ArithmeticError, match="did not reach 50 digits"):
            norm_oracle.norm_integral(p0, p0, xhermite._family(lam).weight)

    def test_high_degree_keeps_precision(self):
        # H_40^2 grows like x^80; the certificate is exact at any degree.
        # The pinned string is mpmath tanh-sinh's at 50 digits.
        rep = weight_and_norm_check(Partition(), 40, 40)
        assert rep.ok and rep.rel_error < 1e-50
        assert rep.c == rep.expected_c == 2 ** 40 * math.factorial(40)
        assert rep.integral == rep.expected == "1.5900831340592726055e+60"

    def test_report_format_matches_nstr(self):
        # the report strings keep mpmath.nstr(x, 20)'s layout, on both
        # notation boundaries and across the carry of a rounding 9...9.
        # The mantissas stay away from exact ties in the 21st digit, where
        # nstr reads digits truncated near the 26th and can round down.
        mpmath = pytest.importorskip("mpmath")
        from hermitepw.xhermite import _nstr

        mp = mpmath.MPContext()
        mp.dps = 50
        mantissas = ["1", "1.5", "2.7182818284590452353602874713527",
                     "9.8765432109876543210987654321", "9.99999999999999999996",
                     "9.99999999999999999994", "1.00000000000000000005001"]
        for e in range(-60, 26):
            for mant in mantissas:
                x = mp.mpf(f"{mant}e{e}")
                for v in (x, -x):
                    sign, man, exp, _ = v._mpf_
                    exact = (-1) ** sign * Fraction(man) * Fraction(2) ** exp
                    assert _nstr(exact) == mp.nstr(v, 20), v
        assert _nstr(Fraction(0)) == mp.nstr(mp.mpf(0), 20) == "0.0"

    def test_global_precision_untouched(self):
        mpmath = pytest.importorskip("mpmath")

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
