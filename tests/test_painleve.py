from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
import itertools
import math
from math import lcm
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermitepw.determinant as determinant
import hermitepw.polys as polys
from hermitepw.determinant import det
import hermitepw.hermite as hermite
from hermitepw.hermite import darboux_step, min_order_at, pseudo_wronskian, pseudo_wronskian_matrix
from hermitepw.maya import MayaDiagram
from hermitepw.minorder import minimal_girth_of_diagram
import hermitepw.painleve as painleve
from hermitepw.painleve import (
    PivSolution,
    _log_ratio,
    gh_maya,
    min_order_gh,
    min_order_o,
    o_maya,
    piv_catalog,
    piv_solution_gh,
    piv_solution_o,
    three_cycle,
    verify_piv,
)
from hermitepw.polys import InexactDivisionError, IntPoly, RatFunc

from ratfield import Rat, at_t_over_sqrt3, log_diff

T = IntPoly((0, 1))


@dataclass(frozen=True)
class RationalPotential:
    """x^2 + log_part + offset with log_part = -2 (log H_M)'': the rational
    extension of the harmonic oscillator, whose Darboux steps
    chain_step_oracle searches for."""

    log_part: Rat
    offset: int

    def as_ratfunc(self) -> Rat:
        return Rat(IntPoly((0, 0, 1))) + self.log_part + Rat.of(self.offset)


def potential(m: MayaDiagram) -> RationalPotential:
    h = pseudo_wronskian(m)
    log_part = -2 * Rat(h).log_derivative().derivative()
    return RationalPotential(log_part, 2 * (len(m.t) - len(m.s)))


class TestDiagramFamilies:
    def test_gh(self):
        assert gh_maya(2, 5).t == (6, 5, 4, 3, 2)
        assert gh_maya(7, 0) == MayaDiagram.parse("|")
        assert gh_maya(0, 3).standardize() == (MayaDiagram.parse("|"), 3)

    def test_o(self):
        assert o_maya(2, 5).t == (14, 11, 8, 5, 4, 2, 1)
        assert o_maya(0, 0) == MayaDiagram.parse("|")
        assert o_maya(1, 2).t == (5, 2, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            gh_maya(-1, 2)
        with pytest.raises(ValueError):
            o_maya(0, -3)


class TestThreeCycle:
    def test_gh_cycle(self):
        chain = three_cycle("gh", (2, 4))
        assert chain.shift == 1
        assert chain.diagrams[0] == gh_maya(2, 4)
        assert chain.diagrams[1] == gh_maya(2, 5)
        assert chain.diagrams[3] == gh_maya(2, 4).shift(1)
        assert chain.flips == (6, 0, 2)

    def test_o_cycle(self):
        chain = three_cycle("o", (1, 2))
        assert chain.shift == 3
        assert chain.diagrams[0] == o_maya(1, 2)
        assert chain.diagrams[3] == o_maya(1, 2).shift(3)

    def test_degenerate_gh(self):
        # GH(m, 0) takes the one GH flip rule, so its chain leaves the
        # empty partition and reaches GH(5, 1), up to translation
        chain = three_cycle("gh", (5, 0))
        assert chain.flips == (5, 0, 5)
        assert gh_maya(5, 1).standardize()[0] in [d.standardize()[0] for d in chain.diagrams]

    def test_every_seed_closes(self):
        # MayaChain checks that the three flips close up to translation
        for family, p1, p2 in itertools.product(("gh", "o"), range(13), range(13)):
            chain = three_cycle(family, (p1, p2))
            expected = (p1 + p2, 0, p1) if family == "gh" else (3 * p1 + 1, 3 * p2 + 2, 0)
            assert chain.flips == expected
            assert chain.diagrams[3] == chain.diagrams[0].shift(chain.shift)

    def test_negative_parameters_rejected(self):
        for family in ("gh", "o"):
            with pytest.raises(ValueError, match="non-negative"):
                three_cycle(family, (2, -1))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            three_cycle("xyz", (1, 1))

    def test_potential_shift_along_cycle(self):
        for family, params in (("gh", (2, 4)), ("o", (1, 2)), ("gh", (1, 3))):
            chain = three_cycle(family, params)
            u1 = potential(chain.diagrams[0])
            u4 = potential(chain.diagrams[3])
            assert u4.log_part == u1.log_part
            assert u4.offset == u1.offset + 2 * chain.shift


class TestPotential:
    def test_bare_oscillator(self):
        pot = potential(MayaDiagram.parse("|"))
        assert pot.log_part.is_zero() and pot.offset == 0
        assert pot.as_ratfunc() == Rat(IntPoly((0, 0, 1)))

    def test_single_level(self):
        pot = potential(gh_maya(1, 1))
        assert pot.offset == 2
        assert pot.log_part == Rat(IntPoly((2,)), IntPoly((0, 0, 1)))

    def test_offset_example(self):
        m = MayaDiagram.parse("|1")   # -1 in M
        shifted = m.shift(1)
        assert potential(shifted).offset - potential(m).offset == 2

    def test_shift_rule(self, rng):
        from conftest import random_diagram
        for _ in range(25):
            m = random_diagram(rng, max_girth=4, max_val=7)
            k = rng.randint(-4, 4)
            u, v = potential(m), potential(m.shift(k))
            assert v.log_part == u.log_part
            assert v.offset == u.offset + 2 * k


def chain_step_oracle(m, flip):
    """One flip as a Darboux step, found by search over rational functions.

    Tries f = sigma*x + (log(H_M'/H_M))' for sigma = +-1, solves
    f' + f^2 = U_M - lam for a constant lam, and requires
    -f' + f^2 = U_M' - lam to hold identically.  Returns (sigma, lam, f);
    a flip that fits neither sign raises.
    """
    m2 = m.add(flip) if flip not in m else m.remove(flip)
    u_lo = potential(m).as_ratfunc()
    u_hi = potential(m2).as_ratfunc()
    log_ratio = Rat(pseudo_wronskian(m2)).log_derivative() \
        - Rat(pseudo_wronskian(m)).log_derivative()
    x = Rat(T)
    for sigma in (1, -1):
        f = sigma * x + log_ratio
        cand = u_lo - f.derivative() - f * f
        if cand.num.degree > 0 or cand.den.degree > 0:
            continue
        lam = cand.eval_at(0)
        if (-f.derivative() + f * f) == u_hi - Rat.of(lam):
            return sigma, lam, f
    raise ArithmeticError(f"no Darboux factorization found for flip {flip} on {m}")


class TestChainSteps:
    def test_ground_level(self):
        step = darboux_step(MayaDiagram.parse("|"), 0)
        assert (step.eps, step.eigenvalue, step.constant) == (-1, 1, 0)
        assert step.ok and step.residual.is_zero()

    def test_add_then_remove_is_inverse(self):
        m = gh_maya(2, 3)
        fwd = darboux_step(m, 6)
        back = darboux_step(m.add(6), 6)
        assert fwd.eps == -back.eps
        assert fwd.eigenvalue == back.eigenvalue

    def _agrees_with_oracle(self, m, flip):
        sigma, lam, _ = chain_step_oracle(m, flip)
        step = darboux_step(m, flip)
        assert (step.eps, step.eigenvalue) == (sigma, lam), (m, flip)

    def test_gh_m0_chains_match_oracle(self):
        # the chains that the old GH(m, 0) normalisation kept on empty
        # diagrams: every step holds through darboux_step, which raises on
        # a nonzero residual of the pseudo_wronskian taus
        for m in range(7):
            chain = three_cycle("gh", (m, 0))
            for d, f in zip(chain.diagrams, chain.flips):
                self._agrees_with_oracle(d, f)

    def test_three_cycles_match_oracle(self):
        # every step of every cycle with parameters <= 4: 150 steps
        for family in ("gh", "o"):
            for p1 in range(5):
                for p2 in range(5):
                    chain = three_cycle(family, (p1, p2))
                    for d, f in zip(chain.diagrams, chain.flips):
                        self._agrees_with_oracle(d, f)

    def test_random_flips_match_oracle(self, rng):
        from conftest import random_diagram
        for _ in range(100):
            m = random_diagram(rng, max_girth=4, max_val=8)
            self._agrees_with_oracle(m, rng.randint(-8, 10))

    def test_corrupted_partner_raises(self, monkeypatch):
        m = gh_maya(2, 3)
        partner = m.add(6)
        step = darboux_step(m, 6)
        assert step.ok
        assert not replace(step, residual=IntPoly((1, 1))).ok
        real = hermite.pseudo_wronskian
        monkeypatch.setattr(hermite, "pseudo_wronskian",
                            lambda d: real(d) * IntPoly((1, 1)) if d == partner else real(d))
        with pytest.raises(ArithmeticError):
            darboux_step(m, 6)

    def _alpha_chain(self, family, params):
        chain = three_cycle(family, params)
        steps = [chain_step_oracle(d, f) for d, f in zip(chain.diagrams, chain.flips)]
        l1, l2, l3 = (lam for _, lam, _ in steps)
        f1, f2, f3 = (f for _, _, f in steps)
        delta = Fraction(2 * chain.shift)
        alphas = (l1 - l2, l2 - l3, l3 - l1 - delta)
        # the three coupled first-order relations of the cycle
        assert (f1 + f2).derivative() + f2 * f2 - f1 * f1 == Rat.of(alphas[0])
        assert (f2 + f3).derivative() + f3 * f3 - f2 * f2 == Rat.of(alphas[1])
        assert (f3 + f1).derivative() + f1 * f1 - f3 * f3 == Rat.of(alphas[2])

    def test_gh_cycle_alphas(self):
        self._alpha_chain("gh", (2, 4))

    def test_o_cycle_alphas(self):
        self._alpha_chain("o", (1, 2))


def chain_step(family, params, branch):
    """(chain, i) of a catalog entry: the three-cycle of its seed and the
    index of the flip that its branch takes.  GH branches 1, 2, 3 flip
    m + ell, 0 and m, flips 0, 1, 2 of the cycle; O branches 1, 2, 3 flip
    0, 3a + 1 and 3b + 2, flips 2, 0, 1."""
    return three_cycle(family, params), branch - 1 if family == "gh" else (branch + 1) % 3


def test_every_catalog_entry_is_one_flip_of_its_cycle():
    # up to translation, the partner of every entry with parameters <= 10
    # is its seed with its branch's flip applied
    maya = {"gh": gh_maya, "o": o_maya}
    mapped = 0
    for family, p1, p2, branch in itertools.product(("gh", "o"), range(11), range(11), (1, 2, 3)):
        spec = painleve._branch(family, p1, p2, branch)
        if spec is None:
            continue
        chain, i = chain_step(family, (p1, p2), branch)
        seed, f = chain.seed, chain.flips[i]
        reached = seed.remove(f) if f in seed else seed.add(f)
        assert reached.standardize()[0] == maya[family](*spec[0]).standardize()[0], \
            (family, p1, p2, branch)
        mapped += 1
    assert mapped == 662


GOLDEN = [
    ("gh", (2, 4), 1, Fraction(-11), Fraction(-8)),
    ("gh", (2, 4), 2, Fraction(7), Fraction(-32)),
    ("gh", (2, 4), 3, Fraction(1), Fraction(-72)),
    ("o", (1, 2), 1, Fraction(3), Fraction(-32, 9)),
    ("o", (1, 2), 2, Fraction(-1), Fraction(-128, 9)),
    ("o", (1, 2), 3, Fraction(-5), Fraction(-32, 9)),
]


def build(family, params, branch):
    maker = piv_solution_gh if family == "gh" else piv_solution_o
    return maker(*params, branch)


class TestSolutions:
    @pytest.mark.parametrize("family,params,branch,a,b", GOLDEN)
    def test_golden_parameters_and_residual(self, family, params, branch, a, b):
        sol = build(family, params, branch)
        assert (sol.a, sol.b) == (a, b)
        rep = verify_piv(sol)
        assert rep.ok and rep.residual.is_zero()

    def test_gh_branch1_printed_form(self):
        sol = piv_solution_gh(2, 4, 1)
        lhs = Rat(32 * IntPoly((0, 0, 0, 15, 0, 12, 0, 4)),
                  IntPoly((45, 0, 0, 0, 120, 0, 64, 0, 16)))
        rhs = Rat(20 * IntPoly((0, 45, 0, 120, 0, 216, 0, 96, 0, 16)),
                  IntPoly((-225, 0, 450, 0, 600, 0, 720, 0, 240, 0, 32)))
        assert sol.y == lhs - rhs

    def test_o_branch1_printed_form(self):
        sol = piv_solution_o(1, 2, 1)
        expected = (Rat(IntPoly((0, -2)), IntPoly.const(3))
                    + Rat(IntPoly((0, 0, 0, 16)), IntPoly((-45, 0, 0, 0, 4)))
                    + Rat(IntPoly.const(1), T)
                    + Rat(IntPoly((0, -4)), IntPoly((-3, 0, 2))))
        assert sol.t_form() == (expected.num, expected.den)

    def test_branch_preconditions(self):
        with pytest.raises(ValueError):
            piv_solution_gh(0, 2, 2)
        with pytest.raises(ValueError):
            piv_solution_gh(2, 0, 3)
        with pytest.raises(ValueError):
            piv_solution_o(0, 2, 1)
        with pytest.raises(ValueError):
            piv_solution_gh(2, 4, 4)
        # negative parameters name no diagram
        with pytest.raises(ValueError):
            piv_solution_gh(2, -1, 1)
        with pytest.raises(ValueError):
            piv_solution_o(-1, 2, 2)

    def test_degenerate_zero_rejected(self):
        with pytest.raises(ValueError):
            piv_solution_gh(0, 2, 1)   # both sides collapse to constants
        with pytest.raises(ValueError):
            piv_solution_gh(1, 0, 2)

    def test_no_entry_is_built_to_be_discarded(self, monkeypatch):
        # the branch rule refuses GH(0, l) on branch 1 and GH(m, 0) on
        # branch 2 before any tau is read, where 17 of 451 builds used to
        # end in y = 0
        calls, real = [], painleve._log_ratio
        monkeypatch.setattr(painleve, "_log_ratio", lambda h0, hp: calls.append(1) or real(h0, hp))
        assert len(piv_catalog(8)) == 434
        assert len(calls) == 434

    def test_zero_y_past_the_rule_is_a_broken_invariant(self, monkeypatch):
        # a y = 0 that the branch rule let through is an ArithmeticError,
        # not a ValueError that reads as bad input
        monkeypatch.setattr(painleve, "_branch", lambda *args: ((0, 3), Fraction(-5), Fraction(0)))
        with pytest.raises(ArithmeticError):
            piv_solution_gh(0, 2, 1)

    def test_report_verdict_follows_residual(self):
        rep = verify_piv(piv_solution_gh(2, 4, 1))
        assert rep.ok and rep.residual.is_zero()
        bad = replace(rep, residual=IntPoly((0, 1)))
        assert not bad.ok

    def test_perturbed_parameter_fails(self):
        sol = piv_solution_gh(2, 4, 1)
        bad = type(sol)(sol.family, sol.params, sol.branch, sol.y, sol.a, sol.b + 1)
        rep = verify_piv(bad)
        assert not rep.ok
        # residual is exactly -2 * (cleared denominator)
        assert rep.residual == -2 * sol.y.den ** 4

    def test_zero_solution_rejected_by_verifier(self):
        sol = piv_solution_gh(2, 4, 1)
        zero = type(sol)("gh", (2, 4), 1, RatFunc(IntPoly()), sol.a, sol.b)
        with pytest.raises(ValueError):
            verify_piv(zero)

    def test_catalog_small(self):
        entries = piv_catalog(2)
        assert entries, "catalog must not be empty"
        assert all(rep.ok for _, rep in entries)
        keys = {(s.family, s.params, s.branch) for s, _ in entries}
        assert ("gh", (1, 1), 1) in keys
        assert ("o", (2, 2), 3) in keys
        assert ("gh", (0, 0), 1) not in keys

    def test_json_shape(self):
        blob = piv_solution_o(1, 2, 1).to_json()
        assert blob["family"] == "o" and blob["a"] == "3" and blob["b"] == "-32/9"
        assert blob["y"]["num"]["var"] == "t"


@lru_cache(maxsize=1)  # a mutant with a wrong a or b keeps the y before it
def y_terms(n, d):
    """The parts of the cleared residual that depend on y = n/d alone,
    multiplied out in Z[t]: 2 y y'' - y'^2 - 3 y^4, t y^3, t^2 y^2, y^2 and 1,
    each times d^4."""
    np_, dp = n.derivative(), d.derivative()
    npp, dpp = np_.derivative(), dp.derivative()
    n2, d2 = n * n, d * d
    t1 = 2 * n * (npp * d2 - n * dpp * d - 2 * np_ * dp * d + 2 * n * dp * dp)
    t2 = (np_ * d - n * dp) ** 2
    n2d2 = n2 * d2
    return t1 - t2 - 3 * n2 * n2, T * n2 * n * d, T * T * n2d2, n2d2, d2 * d2


def kernel_oracle(n, d, lam2, a, b):
    """The residual of 2 y y'' - y'^2 - 3 y^4 - 8 L t y^3 - 4 L (L t^2 - a) y^2
    - 2 L^2 b at y = n/d, L = lam2, multiplied out in Z[t] term by term."""
    la, lb = lam2 * a, lam2 * lam2 * b
    scale = lcm(la.denominator, lb.denominator)
    ia = la.numerator * (scale // la.denominator)
    ib = lb.numerator * (scale // lb.denominator)
    core, ty3, t2y2, y2, one = y_terms(n, d)
    return (scale * (core - 8 * lam2 * ty3)
            - 4 * (scale * lam2 * lam2 * t2y2 - ia * y2)
            - 2 * ib * one)


def residual_oracle(sol):
    """The residual of verify_piv: the kernel multiplied out in the
    solution's own variable, at L = 3 for O and L = 1 for GH."""
    return kernel_oracle(sol.y.num, sol.y.den, 3 if sol.family == "o" else 1, sol.a, sol.b)


def mutants(sol):
    """A wrong a, a wrong b, the linear term -2x flipped, and y + 1, each
    on the stored fraction."""
    linear = Rat(IntPoly((0, -2)))
    yield replace(sol, a=sol.a + 1)
    yield replace(sol, b=sol.b - Fraction(1, 3))
    yield replace(sol, y=sol.y - 2 * linear)
    yield replace(sol, y=Rat.of(sol.y) + 1)


TOP = 2 ** 160 - 1
wide_ints = st.integers(min_value=-TOP, max_value=TOP) | st.integers(-9, 9)
wide_polys = st.lists(wide_ints, min_size=1, max_size=6).map(IntPoly).filter(
    lambda p: not p.is_zero())
wide_fractions = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 30))


def parity_polys(parity):
    """Nonzero wide polynomials whose terms all have degrees of the given parity."""
    def spread(coeffs):
        out = [0] * (2 * len(coeffs) + parity)
        out[parity::2] = coeffs
        return IntPoly(out)
    return st.lists(wide_ints, min_size=1, max_size=4).map(spread).filter(
        lambda p: not p.is_zero())


odd_y = st.tuples(parity_polys(1), parity_polys(0)) | st.tuples(parity_polys(0), parity_polys(1))


def odd_y_cases(test):
    """Hypothesis odd y with coefficients up to 160 bits, a and b up to 70,
    plus the examples at TOP."""
    test = settings(max_examples=120, deadline=None)(test)
    test = example((IntPoly((TOP, 0, -TOP)), IntPoly((0, 1, 0, TOP))),
                   Fraction(-2 ** 70), Fraction(2 ** 70))(test)
    # the half word is set by the 1-norm 10100 of n'', not by the bound
    test = example((T ** 101, IntPoly.const(1)), Fraction(0), Fraction(0))(test)
    return given(odd_y, wide_fractions, wide_fractions)(test)


@pytest.fixture(scope="module")
def catalogs():
    return [piv_catalog(n) for n in range(7)]


class TestVerifyPivResidual:
    """verify_piv reads its residual back from one Kronecker point."""

    def test_catalog_and_mutants_match_oracle(self, catalogs):
        # the O entries and their mutants are checked in x = t/sqrt3 at L = 3
        for sol, rep in catalogs[6]:
            assert rep.ok and rep.residual == residual_oracle(sol) == IntPoly()
            for bad in mutants(sol):
                want = residual_oracle(bad)
                got = verify_piv(bad)
                assert got.residual == want, (sol.family, sol.params, sol.branch)
                assert got.ok is want.is_zero()
                assert not got.ok

    @given(wide_polys, wide_polys, wide_fractions, wide_fractions)
    @example(IntPoly((TOP,) * 6), IntPoly((-TOP,) * 6), Fraction(-2 ** 70), Fraction(2 ** 70))
    @example(IntPoly((TOP, 0, -TOP)), IntPoly((1,)), Fraction(1, 3), Fraction(0))
    @example(IntPoly((0, -2)), IntPoly((3,)), Fraction(0), Fraction(0))
    @settings(max_examples=120, deadline=None)
    def test_random_y_matches_oracle(self, num, den, a, b):
        sol = PivSolution("gh", (0, 0), 1, RatFunc(num, den), a, b)
        want = residual_oracle(sol)
        rep = verify_piv(sol)
        assert rep.residual == want and rep.ok is want.is_zero()

    @odd_y_cases
    def test_odd_y_matches_oracle(self, y, a, b):
        self._odd_y_matches_oracle("gh", y, a, b)

    @odd_y_cases
    def test_odd_y_matches_oracle_in_x(self, y, a, b):
        # family "o" checks at L = 3, with its factor-3 bound
        self._odd_y_matches_oracle("o", y, a, b)

    @staticmethod
    def _odd_y_matches_oracle(family, y, a, b):
        sol = PivSolution(family, (0, 0), 1, RatFunc(*y), a, b)
        # reduction keeps the parities opposite, so the even readback runs
        assert {sol.y.num.parity(), sol.y.den.parity()} == {0, 1}
        want = residual_oracle(sol)
        rep = verify_piv(sol)
        assert rep.residual == want and rep.ok is want.is_zero()

    def test_catalog_solutions_are_odd(self, catalogs):
        for sol, _ in catalogs[6]:
            assert {sol.y.num.parity(), sol.y.den.parity()} == {0, 1}, (sol.family, sol.params)

    def test_catalog_sizes(self, catalogs):
        # a fault that raised ValueError used to drop entries as undefined
        assert [len(c) for c in catalogs] == [2, 14, 38, 74, 122, 182, 254]

    def test_wrong_gcd_is_not_skipped_as_undefined(self, monkeypatch):
        # a gcd that does not divide must surface, not read as a ValueError
        # that piv_catalog skips as undefined parameters
        real = polys.poly_gcd
        monkeypatch.setattr(polys, "poly_gcd", lambda a, b: real(a, b) * IntPoly((1, 1)))
        with pytest.raises(ArithmeticError):
            piv_catalog(3)


# (params of the partner) - (params of the seed) for each branch
GH_PARTNER = {1: (0, 1), 2: (-1, 0), 3: (1, -1)}
O_PARTNER = {1: (-1, -1), 2: (1, 0), 3: (0, 1)}


def y_oracle(sol):
    """The printed y(t) the long way, from determinants: the log-derivative
    (of the taus at t/sqrt3 for O) reduced on its own, then the linear term
    added in the field and reduced again."""
    diagram, step = (gh_maya, GH_PARTNER) if sol.family == "gh" else (o_maya, O_PARTNER)
    partner = tuple(p + s for p, s in zip(sol.params, step[sol.branch]))
    h0, hp = pseudo_wronskian(diagram(*sol.params)), pseudo_wronskian(diagram(*partner))
    if sol.family == "gh":
        y = log_diff(h0, hp)
        return y - Rat(2 * T) if sol.branch == 3 else y
    return Rat(-2 * T, IntPoly.const(3)) + log_diff(at_t_over_sqrt3(h0), at_t_over_sqrt3(hp))


class TestXForm:
    """O solutions are stored and verified as Y(x) = sqrt3 y(sqrt3 x), x = t/sqrt3."""

    def test_map_is_the_unscaled_log_ratio(self, catalogs):
        # the stored fraction is -2x + N/D on the determinant taus themselves
        seen = 0
        for sol, _ in catalogs[6]:
            if sol.family != "o":
                continue
            partner = tuple(p + s for p, s in zip(sol.params, O_PARTNER[sol.branch]))
            n, d = _log_ratio(pseudo_wronskian(o_maya(*sol.params)),
                              pseudo_wronskian(o_maya(*partner)))
            assert sol.y == RatFunc(n - 2 * T * d, d), (sol.params, sol.branch)
            seen += 1
        assert seen == 134

    def _lams(self, monkeypatch, sol):
        """The factors L of the residual kernel calls that verify_piv makes."""
        lams = []
        real = painleve._residual
        monkeypatch.setattr(painleve, "_residual",
                            lambda n, d, lam, a, b: lams.append(lam) or real(n, d, lam, a, b))
        rep = verify_piv(sol)
        monkeypatch.undo()
        return rep, lams

    def test_paths(self, monkeypatch):
        # one kernel call, passing or failing, in the solution's own variable
        o, gh = piv_solution_o(1, 2, 1), piv_solution_gh(2, 4, 1)
        for sol, lam in ((o, 3), (gh, 1)):
            for case in (sol, replace(sol, b=sol.b - Fraction(1, 3)),
                         replace(sol, y=Rat.of(sol.y) + 1)):
                rep, lams = self._lams(monkeypatch, case)
                assert lams == [lam]
                assert rep.residual == residual_oracle(case)
                assert rep.ok is (case is sol)

    @odd_y_cases
    @example((IntPoly((TOP, 0, TOP, 0, TOP)), IntPoly((0, -TOP, 0, -TOP))),
             Fraction(-2 ** 70), Fraction(-2 ** 70))
    # y = 7t/3 and y = 1/(31t) overflow a word sized without the L of the
    # 8Lt term or the L^2 of the t^2 term of the bound
    @example((IntPoly((0, 7)), IntPoly((3,))), Fraction(0), Fraction(0))
    @example((IntPoly((1,)), IntPoly((0, 31))), Fraction(0), Fraction(0))
    def test_kernel_at_3_matches_oracle(self, y, a, b):
        n, d = y
        assert painleve._residual(n, d, 3, a, b) == kernel_oracle(n, d, 3, a, b)

    def test_even_y_has_no_image(self):
        # an even Y, 1/(1 + x^2), and the mixed 1/(1 + x) and Y + 1 leave a
        # sqrt3 in y(t) = Y(t/sqrt3)/sqrt3
        sol = piv_solution_o(1, 2, 1)
        for y in (RatFunc(IntPoly.const(1), IntPoly((1, 0, 1))),
                  RatFunc(IntPoly.const(1), IntPoly((1, 1))), Rat.of(sol.y) + 1):
            with pytest.raises(ArithmeticError):
                replace(sol, y=y).t_form()

    def test_content_divided_out(self):
        # y(t) = Y(t/sqrt3)/sqrt3, by hand: content 3 goes, signs stay, and
        # each pair is already reduced
        sol = piv_solution_o(1, 2, 1)
        cases = [
            ((IntPoly((0, 3)), IntPoly((1, 0, 3))), (T, IntPoly((1, 0, 1)))),
            ((IntPoly((1, 0, -2)), T), (IntPoly((3, 0, -2)), IntPoly((0, 3)))),
            ((IntPoly((0, -1)), IntPoly.const(1)), (IntPoly((0, -1)), IntPoly.const(3))),
            ((IntPoly.const(-1), T), (IntPoly.const(-1), T)),
        ]
        for (n, d), want in cases:
            got = replace(sol, y=RatFunc(n, d)).t_form()
            assert got == want == (RatFunc(*got).num, RatFunc(*got).den), (n, d)
        # GH is already in t
        gh = piv_solution_gh(2, 4, 1)
        assert gh.t_form() == (gh.y.num, gh.y.den)


@pytest.fixture
def fresh_taus():
    """An empty line memo before the test and after it, so that no tau
    built under a monkeypatch outlives the test."""
    painleve._line.cache_clear()
    yield
    painleve._line.cache_clear()


def toda_steps(top):
    """(family, tau, below, quad, c, next) for every Toda step of both
    families whose three taus have parameters <= top, with the constants
    of the painleve docstring: the next tau is, up to a constant,
    [tau tau'' - tau'^2 + (4 quad x^2 + c) tau^2] / below."""
    gh = {(m, ell): pseudo_wronskian(gh_maya(m, ell)).primitive()
          for m in range(top + 1) for ell in range(top + 1)}
    o = {(a, b): pseudo_wronskian(o_maya(a, b)).primitive()
         for a in range(top + 1) for b in range(top + 1)}
    for m in range(top + 1):
        for ell in range(1, top):
            yield "gh", gh[m, ell], gh[m, ell - 1], 0, -2 * ell, gh[m, ell + 1]
    for a in range(top + 1):
        for b in range(top + 1):
            if 1 <= a < top:
                yield "o", o[a, b], o[a - 1, b], 1, 2 * (b - 2 * a), o[a + 1, b]
            if 1 <= b < top:
                yield "o", o[a, b], o[a, b - 1], 1, 2 * (a - 1 - 2 * b), o[a, b + 1]


class TestTodaTaus:
    """The catalog's taus come from Toda steps, up to a constant; the
    determinants of pseudo_wronskian are their oracle."""

    def test_taus_match_determinants(self, fresh_taus):
        for p1 in range(9):
            for p2 in range(9):
                assert painleve._gh_tau(p1, p2) == \
                    pseudo_wronskian(gh_maya(p1, p2)).primitive(), ("gh", p1, p2)
                assert painleve._o_tau(p1, p2) == \
                    pseudo_wronskian(o_maya(p1, p2)).primitive(), ("o", p1, p2)

    def test_wrong_constant_raises(self):
        # adjacent taus are coprime, so c +- 2 adds +-2 tau^2, which no
        # nonconstant lower tau divides
        raised = wrong = 0
        for family, tau, below, quad, c, nxt in toda_steps(6):
            assert painleve._toda_step(tau, below, quad, c) == nxt, family
            for dc in (-2, 2):
                if below.degree > 0:
                    with pytest.raises(InexactDivisionError):
                        painleve._toda_step(tau, below, quad, c + dc)
                    raised += 1
                elif tau.degree > 0:
                    # a constant divisor stays silent: the tau is wrong, and
                    # only the differential test above catches it
                    assert painleve._toda_step(tau, below, quad, c + dc) != nxt
                    wrong += 1
        assert (raised, wrong) == (184, 16)

    def test_wrong_constant_in_catalog_is_not_skipped(self, monkeypatch, fresh_taus):
        # an inexact step must surface, not read as a ValueError that
        # piv_catalog skips as undefined parameters
        real = painleve._toda_step
        monkeypatch.setattr(painleve, "_toda_step",
                            lambda tau, below, quad, c: real(tau, below, quad, c + 2))
        with pytest.raises(ArithmeticError):
            piv_catalog(3)

    def test_value_error_in_catalog_is_not_skipped(self, monkeypatch, fresh_taus):
        # only the branch rule says which entries exist: a ValueError from
        # a deeper layer surfaces instead of dropping an entry
        real, raised = painleve._toda_step, []

        def step(*args):
            if not raised:
                raised.append(args)
                raise ValueError("a fault below the builders")
            return real(*args)

        monkeypatch.setattr(painleve, "_toda_step", step)
        with pytest.raises(ValueError, match="a fault below the builders"):
            piv_catalog(3)
        assert len(raised) == 1

    def test_catalog_calls_only_seed_determinants(self, monkeypatch, fresh_taus):
        # every det of a catalog pass has order <= 1: the O seeds, and no
        # fallback to determinants of the taus themselves
        orders = []
        real = determinant.det

        def spy(rows):
            orders.append(len(rows))
            return real(rows)

        monkeypatch.setattr(determinant, "det", spy)
        monkeypatch.setattr(hermite, "det", spy)
        hermite._minimal_determinant.cache_clear()
        hermite._derivative_row.cache_clear()
        assert len(piv_catalog(5)) == 182
        assert orders and max(orders) <= 1, orders
        # the spy sees a determinant of a tau: O(3, 3) has minimal order 3
        orders.clear()
        pseudo_wronskian(o_maya(3, 3))
        assert orders == [3]

    def test_walk_depth_does_not_grow(self, fresh_taus):
        # a read extends its line in a loop and nothing recurses along a
        # line, so the stack stays shallow however long the line.  The
        # seeds are built first: the depth of their determinants depends on
        # which hermite memos earlier tests warmed, not on the line code
        for kind, k in (("gh", 1), ("col", 0), ("col", 1)):
            painleve._line(kind, k)
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        # a read takes at most 9 frames; an entry that recursed into the
        # entries before it would take one per step of its lines
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 25)
        try:
            assert painleve._gh_tau(1, 60).degree == 60
            for p1, p2 in ((18, 1), (1, 18)):
                assert painleve._o_tau(p1, p2).degree == o_maya(p1, p2).partition().size
        finally:
            sys.setrecursionlimit(limit)

    def test_catalog_builds_each_tau_once(self, monkeypatch, fresh_taus):
        # the taus that piv_catalog(15) reads, solution then partner, in
        # catalog order and in a seeded shuffle: one Toda step per tau that
        # is not a seed, where memos of single taus rebuilt evicted ones.
        # No entry reads GH(0, 16): GH(0, 15) on branch 1 pairs two
        # constant taus and is refused before it reads them
        reads = []
        monkeypatch.setattr(painleve, "_solution", lambda family, params, branch, partner, a, b:
                            reads.extend(((family, params), (family, partner))))
        for builder in (piv_solution_gh, piv_solution_o):
            for p1, p2, branch in itertools.product(range(16), range(16), (1, 2, 3)):
                try:
                    builder(p1, p2, branch)
                except ValueError:
                    pass
        # the seeds: GH(m, l) with l <= 1 and O(a, b) with a, b <= 1
        built = {(f, p) for f, p in reads if (p[1] if f == "gh" else max(p)) > 1}
        # each step is a stand-in, so the count does not pay for the
        # arithmetic; test_taus_match_determinants holds the values
        steps = []
        monkeypatch.setattr(painleve, "_toda_step",
                            lambda *args: steps.append(args) or IntPoly.const(1))
        for order in (reads, random.Random(15).sample(reads, len(reads))):
            painleve._line.cache_clear()
            steps.clear()
            for family, params in order:
                (painleve._gh_tau if family == "gh" else painleve._o_tau)(*params)
            assert len(steps) == len(built) == 536

    def test_evicted_and_partly_built_lines(self, monkeypatch, fresh_taus):
        # a line that the memo dropped is rebuilt from its seeds, and a read
        # past the end of a line extends it from its last two taus
        real, steps = painleve._toda_step, []
        monkeypatch.setattr(painleve, "_toda_step", lambda *args: steps.append(args) or real(*args))
        painleve._gh_tau(2, 4)
        size = painleve._line.cache_info().maxsize
        for m in range(3, size + 4):
            painleve._gh_tau(m, 1)
        assert painleve._line.cache_info().currsize == size
        steps.clear()
        assert painleve._gh_tau(2, 5) == pseudo_wronskian(gh_maya(2, 5)).primitive()
        assert len(steps) == 4
        painleve._o_tau(3, 2)
        steps.clear()
        assert painleve._o_tau(5, 2) == pseudo_wronskian(o_maya(5, 2)).primitive()
        assert len(steps) == 2


def _murata_type(a, b):
    """"I" or "III" when (a, b) is a point of Murata's classification of
    the rational PIV solutions, else None: a = m and b = -2(2n - m + 1)^2
    (type I) or b = -2(2n - m + 1/3)^2 (type III), m and n integers."""
    if a.denominator != 1:
        return None
    m = a.numerator
    # |2n - m| <= sqrt(|b| / 2) + 1 on either type
    reach = math.isqrt(math.ceil(abs(b))) + 2
    for k in range(-reach, reach + 1):
        if (k + m) % 2:
            continue                    # k = 2n - m needs an integer n
        if b == -2 * (k + 1) ** 2:
            return "I"
        if b == -2 * (k + Fraction(1, 3)) ** 2:
            return "III"
    return None


class TestMurata:
    """The catalog against Murata's (1985) parameter sets; no verify_piv."""

    def test_murata_points(self):
        assert _murata_type(Fraction(-11), Fraction(-8)) == "I"         # m = -11, n = -5
        assert _murata_type(Fraction(1), Fraction(-8)) == "I"           # m = 1, n = 1
        assert _murata_type(Fraction(3), Fraction(-32, 9)) == "III"     # m = 3, n = 2
        assert _murata_type(Fraction(2), Fraction(-8)) is None          # 2n - m + 1 is odd
        assert _murata_type(Fraction(1, 2), Fraction(-8)) is None
        assert _murata_type(Fraction(2), Fraction(-9)) is None

    def test_catalog_lies_in_murata_sets(self, catalogs):
        # GH solutions are type I, the Okamoto (O) family type III
        entries = catalogs[5]
        assert len(entries) == 182
        types = {(sol.family, sol.params, sol.branch): _murata_type(sol.a, sol.b)
                 for sol, _ in entries}
        bad = [key for key, t in types.items() if t != {"gh": "I", "o": "III"}[key[0]]]
        assert not bad, bad
        points = [(sol.a, sol.b) for sol, _ in entries]
        assert len(set(points)) == len(points)

    def test_box_coverage(self):
        # how often the builders, at parameters <= 6, reach each Murata point
        # of the box |a| <= 4, |2n - a + off| <= 4 (off = 1 for type I, 1/3
        # for type III); bounds 4 to 12 give the same coverage
        hits = Counter()
        for builder in (piv_solution_gh, piv_solution_o):
            for p1, p2, branch in itertools.product(range(7), range(7), (1, 2, 3)):
                try:
                    sol = builder(p1, p2, branch)
                except ValueError:
                    continue
                hits[sol.a, sol.b] += 1
        third = Fraction(1, 3)
        missing = {
            "I": {(Fraction(a), 0) for a in (-3, -1, 1, 3)},
            "III": {(Fraction(a), Fraction(b, 9)) for a, b in (
                (0, -2), (1, -8), (1, -32), (2, -50), (2, -98), (3, -128), (3, -200),
                (4, -242))},
        }
        for kind, off, size in (("I", 1, 22), ("III", third, 36)):
            # k = 2n - a, so k and a have one parity
            box = {(Fraction(a), -2 * (k + off) ** 2)
                   for a in range(-4, 5) for k in range(-5, 5)
                   if (k - a) % 2 == 0 and abs(k + off) <= 4}
            assert len(box) == size, kind
            assert {p: hits[p] for p in box if hits[p] != 1} == \
                dict.fromkeys(missing[kind], 0), kind


class TestOneReduction:
    """Each solution is built in Z[t] and reduced once."""

    def test_catalog_matches_field_oracle(self, catalogs):
        for sol, _ in catalogs[6]:
            want = y_oracle(sol)
            assert sol.t_form() == (want.num, want.den), (sol.family, sol.params, sol.branch)

    def test_one_gcd_per_solution(self, monkeypatch):
        calls = []
        real = polys.poly_gcd
        monkeypatch.setattr(polys, "poly_gcd", lambda a, b: calls.append(1) or real(a, b))
        assert len(piv_catalog(5)) == 182
        assert len(calls) == 182


class TestMinOrder:
    def test_gh_wronskian_side(self):
        spec = min_order_gh(4, 2)
        assert spec.order == 2 and spec.origin == 0
        assert spec.scalar == 1
        assert spec.poly == pseudo_wronskian(gh_maya(4, 2))

    def test_gh_conjugate_side(self):
        spec = min_order_gh(2, 4)
        assert spec.order == 2 and spec.origin == 6
        assert spec.poly == -32 * IntPoly((45, 0, 0, 0, 120, 0, 64, 0, 16))
        full = det(pseudo_wronskian_matrix(gh_maya(2, 4)))
        assert full * spec.scalar.denominator == spec.scalar.numerator * spec.poly

    def test_gh_other_members(self):
        assert pseudo_wronskian(gh_maya(2, 5).shift(-7)) == \
            -64 * IntPoly((-225, 0, 450, 0, 600, 0, 720, 0, 240, 0, 32))
        assert pseudo_wronskian(gh_maya(1, 4).shift(-5)) == \
            IntPoly((12, 0, 48, 0, 16))
        assert pseudo_wronskian(gh_maya(3, 3).shift(-6)) == \
            -512 * IntPoly((0, -135, 0, 0, 0, 72, 0, 0, 0, 16))

    def test_o_members(self):
        spec = min_order_o(2, 2)
        assert spec.order == 2 and spec.origin == 6
        assert spec.poly == -48 * IntPoly((5, 0, 10, 0, 20, 0, 8))
        spec = min_order_o(1, 3)
        assert spec.order == 3 and spec.origin == 3
        assert spec.poly == 192 * IntPoly((-25, 0, -150, 0, 200, 0, -80, 0, -80, 0, 32))
        assert pseudo_wronskian(o_maya(0, 1)) == IntPoly((-2, 0, 4))

    def test_orders_match_brute_force(self):
        for p1 in range(1, 7):
            for p2 in range(1, 7):
                spec = min_order_gh(p1, p2)
                assert spec.order == min(p1, p2)
                assert spec.order == minimal_girth_of_diagram(gh_maya(p1, p2))[0]
                spec = min_order_o(p1, p2)
                assert spec.order == max(p1, p2)
                assert spec.order == minimal_girth_of_diagram(o_maya(p1, p2))[0]

    def test_large_diagram_constant(self):
        # order-8 determinant versus its order-5 form; the constant was
        # computed independently with a general-purpose symbolic engine
        spec = min_order_o(3, 5)
        assert spec.order == 5 and spec.origin == 9
        assert spec.scalar == -54281409739125424128000
        full = det(pseudo_wronskian_matrix(o_maya(3, 5)))
        assert full == spec.scalar.numerator * spec.poly

    def test_constants_reproduce_full_polynomial(self):
        for p1 in range(1, 6):
            for p2 in range(1, 6):
                for maker, diagram in ((min_order_gh, gh_maya), (min_order_o, o_maya)):
                    spec = maker(p1, p2)
                    full = det(pseudo_wronskian_matrix(diagram(p1, p2)))
                    assert full * spec.scalar.denominator == \
                        spec.scalar.numerator * spec.poly, (maker, p1, p2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            min_order_gh(0, 3)
        with pytest.raises(ValueError):
            min_order_o(2, 0)

    def test_wrong_order_or_origin_raises(self):
        # O(2,3) has minimal order 3 at origin 6; at origin 3 its girth is 4
        with pytest.raises(ArithmeticError):
            min_order_at(o_maya(2, 3), 6, 2)
        with pytest.raises(ArithmeticError):
            min_order_at(o_maya(2, 3), 3, 4)
