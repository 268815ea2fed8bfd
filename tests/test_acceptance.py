"""Acceptance gate: every criterion pinned at its stated tolerance.

All checks are exact (integer/rational identities), the orthogonality
criterion included: the norms are certified by Hermite reduction, and the
trapezoid oracle of the tests must reach a 1e-10 relative tolerance against
them.  Each test prints one [PASS] line; any failure surfaces as an
ordinary assertion error.
"""

import random
import time
from fractions import Fraction

from hermitepw.determinant import det
from hermitepw.hermite import (
    conj_hermite_poly,
    hermite_poly,
    hermite_wronskian,
    pseudo_wronskian,
    pseudo_wronskian_matrix,
    verify_equivalence,
    wronskian,
)
from hermitepw.maya import MayaDiagram, Partition
from hermitepw.minorder import (
    durfee_symbol,
    min_order_after_insert,
    minimal_girth,
    minimal_girth_of_diagram,
)
from hermitepw.painleve import (
    min_order_gh,
    min_order_o,
    piv_catalog,
    piv_solution_gh,
    piv_solution_o,
    verify_piv,
)
from hermitepw.xhermite import NORM_DPS, XHermiteFamily, eigen_check, \
    exceptional_hermite, weight_and_norm_check

from conftest import (
    admissible_degrees,
    all_partitions_up_to,
    random_diagram,
    random_partition,
    split_window,
)
from norm_oracle import NORM_TOLERANCE, norm_integral

_PROPERTY_BUDGET = 300.0
_property_times = []


def _passed(name):
    print(f"[PASS] {name}")


def test_criterion_1_mixed_triple_identity():
    t0 = time.perf_counter()
    d1 = hermite_wronskian([1, 2, 3, 6])
    d2 = wronskian([conj_hermite_poly(i) for i in (1, 2, 6)])
    d3 = det([[hermite_poly(2), hermite_poly(2).derivative()],
              [conj_hermite_poly(3), conj_hermite_poly(4)]])
    # the three determinants stand in the exact ratios 1 : 1/48 : 1/7680
    assert d1 == 48 * d2
    assert d1 == 7680 * d3
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1, elapsed
    _passed(f"criterion 1: triple determinant ratios 1 : 1/48 : 1/7680 "
            f"({elapsed * 1000:.1f} ms)")


def test_criterion_2_five_box_constants():
    t0 = time.perf_counter()
    lam = Partition((4, 4, 3, 1, 1))
    std = MayaDiagram.from_partition(lam)
    girth5 = std.shift(-6)          # Frobenius (5,2,1 | 2,1)
    girth4 = std.shift(-3)          # Frobenius (2 | 5,4,2)
    assert girth5 == MayaDiagram.parse("5,2,1|2,1")
    assert girth4 == MayaDiagram.parse("2|5,4,2")

    h_std, h5, h4 = (det(pseudo_wronskian_matrix(m)) for m in (std, girth5, girth4))
    # direct determinants: one unlabelled diagram, three proportional forms
    assert h_std == -483840 * h5
    assert h_std == -1935360 * h4

    # the same constants from the window products, no determinants involved
    r6 = verify_equivalence(std, 6)
    r3 = verify_equivalence(std, 3)
    assert r6.match and r6.constant == -483840
    assert r3.match and r3.constant == -1935360
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5, elapsed
    _passed(f"criterion 2: shift constants -483840 / -1935360, determinants "
            f"and window products agree ({elapsed * 1000:.1f} ms)")


def test_criterion_3_four_box_constants():
    m1 = MayaDiagram.from_partition(Partition((2, 2, 1, 1)))
    assert pseudo_wronskian(m1) == hermite_wronskian([1, 2, 4, 5])
    assert det(pseudo_wronskian_matrix(m1)) == \
        -(2 ** 5) * 24 * pseudo_wronskian(m1.shift(-6))
    assert verify_equivalence(m1, 6).constant == -768

    m2 = MayaDiagram.from_partition(Partition((4, 4, 1, 1)))
    assert pseudo_wronskian(m2) == hermite_wronskian([1, 2, 6, 7])
    assert det(pseudo_wronskian_matrix(m2)) == \
        2 ** 5 * 600 * pseudo_wronskian(m2.shift(-3))
    assert verify_equivalence(m2, 3).constant == 19200
    _passed("criterion 3: four-box constants -768 and 19200")


def test_criterion_4_exceptional_golden_set():
    th = conj_hermite_poly
    lam1 = Partition((2, 2, 1, 1))
    # every constant below is pinned by an independent symbolic computation
    assert exceptional_hermite(lam1, 2) == 2 ** 12 * 720 * th(2)
    assert exceptional_hermite(lam1, 5) == 2 ** 12 * 72 * th(5)
    d8 = det([[th(6), th(7)], [th(3), th(4)]])
    assert exceptional_hermite(lam1, 8) == -(2 ** 9) * 24 * 40 * d8
    for n in range(9, 21):
        k_n = -(2 ** 9) * 24 * (n - 3) * (n - 4) * (n - 6) * (n - 7)
        small = pseudo_wronskian(MayaDiagram.parse(f"5,2|{n - 8}"))
        assert exceptional_hermite(lam1, n) == k_n * small, n

    lam2 = Partition((4, 4, 1, 1))
    assert exceptional_hermite(lam2, 6) == \
        2 ** 14 * 9 * 7 * 25 * wronskian([hermite_poly(3), hermite_poly(4)])
    d9 = det([[th(2), th(3), th(4)], [th(3), th(4), th(5)], [th(7), th(8), th(9)]])
    assert exceptional_hermite(lam2, 9) == 2 ** 11 * 9 * 5 * d9
    d10 = det([[th(2), th(3), th(4)], [th(4), th(5), th(6)], [th(7), th(8), th(9)]])
    assert exceptional_hermite(lam2, 10) == 2 ** 11 * 9 * 5 * d10
    # sign matches the ascending row order written here
    d11 = det([[th(3), th(4), th(5)], [th(4), th(5), th(6)], [th(7), th(8), th(9)]])
    assert exceptional_hermite(lam2, 11) == 2 ** 11 * 3 * 25 * d11
    # general-degree members, all at origin 3
    for n in range(14, 21):
        k_n = -(2 ** 10) * 75 * (n - 7) * (n - 8)
        small = pseudo_wronskian(MayaDiagram.parse(f"2|{n - 9},4,3"))
        assert exceptional_hermite(lam2, n) == k_n * small, n
    _passed("criterion 4: exceptional golden set, all displays, K_n at n = 9..20")


def test_criterion_5_minimal_orders():
    rep = minimal_girth(Partition((2, 2, 1, 1)))
    assert (rep.r, rep.origins) == (2, (6,))
    rep = minimal_girth(Partition((4, 4, 1, 1)))
    assert (rep.r, rep.origins) == (3, (3,))

    assert min_order_gh(3, 5).order == 3
    spec_o = min_order_o(3, 5)
    assert spec_o.order == 5 and spec_o.origin == 9
    d = durfee_symbol(spec_o.diagram)
    assert (d.mu, d.nu, d.p, d.q) == (Partition((6, 4, 2)), Partition((4, 2)), 3, 2)
    assert str(d) == "[6,4,2 | 4,2]_{3x2}"
    _passed("criterion 5: minimal orders (2,6), (3,3), gh:3, o:5 with "
            "Durfee symbol [6,4,2 | 4,2]_{3x2}")


def test_criterion_6_piv_golden_set():
    t0 = time.perf_counter()
    golden = [
        (piv_solution_gh(2, 4, 1), Fraction(-11), Fraction(-8)),
        (piv_solution_gh(2, 4, 2), Fraction(7), Fraction(-32)),
        (piv_solution_gh(2, 4, 3), Fraction(1), Fraction(-72)),
        (piv_solution_o(1, 2, 1), Fraction(3), Fraction(-32, 9)),
        (piv_solution_o(1, 2, 2), Fraction(-1), Fraction(-128, 9)),
        (piv_solution_o(1, 2, 3), Fraction(-5), Fraction(-32, 9)),
    ]
    for sol, a, b in golden:
        assert (sol.a, sol.b) == (a, b), (sol.family, sol.params, sol.branch)
        rep = verify_piv(sol)
        assert rep.ok and rep.residual.is_zero(), (sol.family, sol.params, sol.branch)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, elapsed
    _passed(f"criterion 6: six golden rational solutions verified exactly "
            f"({elapsed * 1000:.0f} ms)")


def test_criterion_7a_random_shift_identities():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    for _ in range(200):
        m = random_diagram(rng, max_girth=6, max_val=12)
        k = rng.randint(-8, 8)
        rep = verify_equivalence(m, k)
        assert rep.match, (m, k)
    elapsed = time.perf_counter() - t0
    _property_times.append(elapsed)
    _passed(f"criterion 7a: shift identity on 200 random diagrams, girth <= 6, "
            f"|k| <= 8 ({elapsed:.2f} s)")


def test_criterion_7b_minimal_girth_exhaustive():
    t0 = time.perf_counter()
    for lam in all_partitions_up_to(12):
        m = MayaDiagram.from_partition(lam)
        lo, hi = m.min_hole() - 1, m.max_element() + 2
        vals = {k: m.shift(-k).girth for k in range(lo, hi + 1)}
        r = min(vals.values())
        origins = [k for k in range(lo, hi + 1) if vals[k] == r]
        rep = minimal_girth(lam)
        assert (rep.r, list(rep.origins)) == (r, origins), lam
    elapsed = time.perf_counter() - t0
    _property_times.append(elapsed)
    _passed(f"criterion 7b: minimal girth equals brute-force window minimum "
            f"for all partitions of size <= 12 ({elapsed:.2f} s)")


def test_criterion_7c_insertion_cases():
    t0 = time.perf_counter()
    rng = random.Random(574)
    for _ in range(500):
        lam = random_partition(rng, 12)
        m = MayaDiagram.from_partition(lam).shift(rng.randint(-5, 5))
        # every hole below max(0, max(M) + 1) and the next four
        choices = split_window(m, m.min_hole(), max(0, m.max_element() + 1) + 4)[0]
        new = rng.choice(choices)
        rep = min_order_after_insert(m, new)
        r, origins = minimal_girth_of_diagram(m.add(new))
        assert (rep.r, list(rep.origins)) == (r, origins), (m, new)
    elapsed = time.perf_counter() - t0
    _property_times.append(elapsed)
    _passed(f"criterion 7c: incremental insertion cases match recomputation "
            f"on 500 random pairs ({elapsed:.2f} s)")


def test_criterion_7d_eigen_sweep():
    t0 = time.perf_counter()
    checks = 0
    for lam in all_partitions_up_to(6):
        fam = XHermiteFamily(lam)
        seen = {}
        for n in range(21):
            if not fam.is_admissible(n):
                continue
            rep = eigen_check(lam, n)
            assert rep.residual.is_zero()
            seen[n] = rep.eigenvalue
            checks += 1
        degs = sorted(seen)
        for n1, n2 in zip(degs, degs[1:]):
            assert seen[n2] - seen[n1] == -2 * (n2 - n1), (lam, n1, n2)
        assert {n + seen[n] / 2 for n in degs} == {lam.size}, lam
    elapsed = time.perf_counter() - t0
    _property_times.append(elapsed)
    _passed(f"criterion 7d: {checks} eigen relations, residual zero, slope -2, "
            f"all partitions of size <= 6, n <= 20 ({elapsed:.2f} s)")


def test_criterion_7e_piv_catalog():
    t0 = time.perf_counter()
    entries = piv_catalog(4)
    assert entries
    for sol, rep in entries:
        assert rep.ok and rep.residual.is_zero(), (sol.family, sol.params, sol.branch)
    elapsed = time.perf_counter() - t0
    _property_times.append(elapsed)
    _passed(f"criterion 7e: catalog of {len(entries)} solutions with parameters "
            f"<= 4, all residuals identically zero ({elapsed:.2f} s)")


def test_criterion_7_total_budget():
    total = sum(_property_times)
    assert len(_property_times) == 5, "property parts must all have run"
    assert total < _PROPERTY_BUDGET, total
    _passed(f"criterion 7: property suite total {total:.2f} s < {_PROPERTY_BUDGET:.0f} s")


def test_criterion_8_orthogonality_certificate():
    # the oracle's tolerance and the report's digits are pinned here
    assert (NORM_TOLERANCE, NORM_DPS) == (1e-10, 50)
    t0 = time.perf_counter()
    for lam in (Partition((1, 1)), Partition((2, 2))):
        degs = admissible_degrees(lam, 4)
        w = XHermiteFamily(lam).weight
        # the certificate is exact, and the trapezoid oracle reaches the
        # tolerance against it, on and off the diagonal
        for n, m in [(n, n) for n in degs] + [(degs[0], degs[2])]:
            rep = weight_and_norm_check(lam, n, m)
            assert rep.ok and rep.rel_error == 0.0, (lam, n, m, rep)
            quad = norm_integral(exceptional_hermite(lam, n), exceptional_hermite(lam, m), w)
            norm = Fraction(weight_and_norm_check(lam, n, n).expected)
            assert abs(quad - Fraction(rep.expected)) <= NORM_TOLERANCE * norm, (lam, n, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed
    _passed(f"criterion 8: exact norm certificates and orthogonality, trapezoid "
            f"oracle within relative error 1e-10 ({elapsed:.2f} s)")


# Diagonal norms of the first four admissible degrees: (integral, expected)
# exactly as the full-line mpf-Horner quadrature printed them.  They must
# not move when the integrand's evaluation or interval changes.
_PINNED_NORMS = {
    (1, 1): {
        0: ("14.179630807244128218", "14.179630807244128218"),
        3: ("680.62227874771815448", "680.62227874771815448"),
        4: ("16334.934689945235708", "16334.934689945235708"),
        5: ("326698.69379890471415", "326698.69379890471415"),
    },
    (2, 2): {
        2: ("42.538892421732384655", "42.538892421732384655"),
        3: ("28.359261614488256437", "28.359261614488256437"),
        6: ("5444.9782299817452359", "5444.9782299817452359"),
        7: ("163349.34689945235708", "163349.34689945235708"),
    },
    (2, 2, 1, 1): {
        2: ("1134.3704645795302575", "1134.3704645795302575"),
        5: ("5444.9782299817452359", "5444.9782299817452359"),
        8: ("52271791.007824754264", "52271791.007824754264"),
        9: ("3293122833.4929595186", "3293122833.4929595186"),
    },
}


def test_norm_strings_pinned():
    for parts, pinned in _PINNED_NORMS.items():
        lam = Partition(parts)
        degs = admissible_degrees(lam, 4)
        assert degs == list(pinned), (parts, degs)
        for n in degs:
            rep = weight_and_norm_check(lam, n, n)
            assert (rep.integral, rep.expected) == pinned[n], (parts, n, rep)
            assert rep.ok
        # off the diagonal the integral is rounding noise: only its verdict holds
        for a, b in ((degs[0], degs[2]), (degs[1], degs[3])):
            assert (a - b) % 2 == 0, (parts, a, b)
            assert weight_and_norm_check(lam, a, b).ok, (parts, a, b)
