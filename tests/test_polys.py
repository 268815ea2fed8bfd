import json
import math
import operator
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermitepw
import hermitepw.polys as polys
from hermitepw.hermite import conj_hermite_poly, hermite_poly
from hermitepw.painleve import _log_ratio, piv_solution_o
from hermitepw.polys import (
    InexactDivisionError,
    IntPoly,
    RatFunc,
    _mul,
    count_real_roots,
    poly_gcd,
)

from conftest import eval_at, int_polys, nonzero_polys, poly_from_json
import norm_oracle
from ratfield import Rat, at_t_over_sqrt3

X = IntPoly((0, 1))

TOP = 2 ** 1500 - 1


@st.composite
def packed_operands(draw):
    """A raw coefficient tuple as IntPoly.pack sees it, up to 1500 bits:
    mixed signs or bound-tight (every coefficient +-max), with a run of
    zeros inside and zeros at either end.  0 bits gives an all-zero factor."""
    top = 2 ** draw(st.integers(min_value=0, max_value=1500)) - 1
    n = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        body = draw(st.lists(st.sampled_from((-top, top)), min_size=n, max_size=n))
    else:
        coeff = st.integers(min_value=-top, max_value=top)
        body = draw(st.lists(coeff, min_size=n, max_size=n))
    zeros = st.integers(min_value=0, max_value=8).map(lambda z: [0] * z)
    at = draw(st.integers(min_value=0, max_value=n))
    body[at:at] = draw(zeros)
    return tuple(draw(zeros) + body + draw(zeros))


@st.composite
def mul_operands(draw):
    """Two nonzero trimmed coefficient tuples as _mul sees them, of 1..400
    and 1..40 coefficients, up to 1 + 1500 bits each.  The bit sizes are
    drawn apart or shared; a body is arbitrary (mostly small coefficients
    under a large lead) or bound-tight (every coefficient -2^bits or
    2^bits - 1), and an operand may have definite parity, as every
    pseudo-Wronskian has, so that every other coefficient is zero."""
    bits_a = draw(st.integers(min_value=1, max_value=1500))
    bits_b = draw(st.one_of(st.just(bits_a), st.integers(min_value=1, max_value=1500)))

    def operand(max_len, bits):
        top = 2 ** bits
        n = draw(st.integers(min_value=1, max_value=max_len))
        if draw(st.booleans()):
            coeff = st.sampled_from((-top, top - 1))
        else:
            coeff = st.integers(min_value=-top, max_value=top)
        body = draw(st.lists(coeff, min_size=n - 1, max_size=n - 1))
        lead = draw(st.integers(min_value=1, max_value=top)) * draw(st.sampled_from((1, -1)))
        coeffs = tuple(body) + (lead,)
        if draw(st.booleans()):
            coeffs = tuple(0 if (n - 1 - i) % 2 else c for i, c in enumerate(coeffs))
        return coeffs

    return operand(400, bits_a), operand(40, bits_b)


class TestIntPoly:
    def test_two_x_squared(self):
        assert IntPoly((0, 2)) * IntPoly((0, 2)) == IntPoly((0, 0, 4))

    def test_additive_identity(self):
        p = IntPoly((3, 0, -7))
        assert p + IntPoly() == p

    def test_product_example(self):
        assert IntPoly((-2, 0, 4)) * IntPoly((0, 2)) == IntPoly((0, -4, 0, 8))

    def test_derivative(self):
        assert IntPoly((-2, 0, 4)).derivative() == IntPoly((0, 8))
        assert IntPoly((5,)).derivative() == IntPoly()
        assert IntPoly((0, 0, 0, 1)).derivative(3) == IntPoly((6,))

    def test_negative_derivative_order_rejected(self):
        with pytest.raises(ValueError):
            IntPoly((1, 2, 3)).derivative(-1)

    def test_canonical_zero(self):
        assert IntPoly((0, 0)).coeffs == ()
        assert IntPoly().degree == -1

    def test_constant_hashes_as_its_integer(self):
        # equal values hash equal: a constant polynomial equals its integer
        for c in (0, 5, -7, 2 ** 100):
            assert IntPoly.const(c) == c and hash(IntPoly.const(c)) == hash(c)
        assert len({IntPoly.const(5), 5}) == 1
        assert len({IntPoly(), 0}) == 1
        assert {IntPoly((1, 2)): "p"}[IntPoly((1, 2))] == "p"

    def test_eval(self):
        # the tests' evaluation oracle
        assert eval_at(IntPoly((-2, 0, 4)), Fraction(1, 2)) == -1
        assert eval_at(IntPoly((1, 1)), 3) == 4

    @given(int_polys,
           st.one_of(st.just(0), st.integers(min_value=-2 ** 200, max_value=2 ** 200)),
           st.integers(min_value=-240, max_value=12))
    @example(IntPoly((-2, 0, 4)), 1, -1)            # 4/4 - 2 = -1
    @example(IntPoly((3, 0, -7)), 0, -60)           # the constant term at zero
    @example(IntPoly((0, 5, 0, -1)), -3, 4)         # integer point, negative man
    @example(IntPoly(), 7, -3)
    @example(IntPoly((9,)), -5, -8)
    @settings(max_examples=200, deadline=None)
    def test_eval_dyadic_matches_eval_at(self, p, man, e):
        # the trapezoid oracle of the norm tests evaluates at dyadic nodes
        v, exp2 = norm_oracle.eval_dyadic(p, man, e)
        assert Fraction(v) * Fraction(2) ** exp2 == eval_at(p, Fraction(man) * Fraction(2) ** e)

    def test_pretty(self):
        assert IntPoly((-2, 0, 4)).pretty() == "4x^2 - 2"
        assert IntPoly().pretty() == "0"
        assert IntPoly((0, -1)).pretty() == "-x"

    def test_json_round_trip(self):
        p = IntPoly((-2, 0, 4))
        blob = json.dumps(p.to_json())
        assert poly_from_json(json.loads(blob)) == p
        assert p.to_json() == {"var": "x", "coeffs": ["-2", "0", "4"]}

    def test_parity(self):
        assert IntPoly((1, 0, 3)).parity() == 0
        assert IntPoly((0, 1, 0, 2)).parity() == 1
        assert IntPoly((1, 1)).parity() is None

    @given(int_polys, int_polys, int_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(packed_operands())
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_round_trip(self, coeffs):
        p = IntPoly(coeffs)
        nb = IntPoly.word_bytes(max(map(abs, coeffs)))
        assert IntPoly.unpack(p.pack(nb), nb, len(coeffs)) == p
        assert p.pack(nb) == eval_at(p, 2 ** (8 * nb))
        if p.degree > 0:
            # one digit short: the value has no balanced expansion that fits
            with pytest.raises(ArithmeticError, match="carry"):
                IntPoly.unpack(p.pack(nb), nb, p.degree)

    @given(mul_operands())
    @example(((TOP,) * 30, (TOP,) * 30))                     # product hits the bound
    @example(((-TOP,) * 30, (TOP,) * 25))
    @example(((-7,), (5,)))                                  # single coefficients
    @example(((3, 0, -TOP), (-7,)))                          # a constant factor
    @example(((1,) * 331, (3, 0, -(2 ** 20))))               # lopsided
    @example((hermite_poly(330).coeffs, hermite_poly(7).coeffs))  # definite parity
    @settings(max_examples=150, deadline=None)
    def test_mul_matches_kronecker_point(self, ab):
        # the oracle is one bignum product at x = 2^(8 nb), read back
        # through the public pack/unpack; the word holds the product bound
        a, b = ab
        nb = IntPoly.word_bytes(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
        want = IntPoly.unpack(IntPoly(a).pack(nb) * IntPoly(b).pack(nb), nb, len(a) + len(b) - 1)
        assert _mul(a, b) == list(want.coeffs)
        assert _mul(b, a) == list(want.coeffs)

    @pytest.mark.parametrize("poly_left", [True, False], ids=["left", "right"])
    @pytest.mark.parametrize("other", [Fraction(1, 2), 1.5], ids=["Fraction", "float"])
    @pytest.mark.parametrize("op, symbol", [(operator.add, "+"), (operator.sub, "-"),
                                            (operator.mul, "*")], ids=["add", "sub", "mul"])
    def test_foreign_operand_raises_type_error(self, op, symbol, other, poly_left):
        # a TypeError that names the operator written, not an AttributeError
        # for .coeffs, nor a TypeError for the "+" that "-" is built on
        p = IntPoly((1, 2))
        with pytest.raises(TypeError, match=f"for {re.escape(symbol)}:"):
            op(p, other) if poly_left else op(other, p)

    def test_negative_pow_raises(self):
        # n >>= 1 keeps -1 at -1: a negative exponent used to loop forever
        with pytest.raises(ValueError, match="negative"):
            IntPoly((1, 1)) ** -1

    @given(int_polys, nonzero_polys)
    def test_divmod_round_trip(self, q, b):
        a = q * b
        got_q, got_r = a.divmod(b)
        assert got_q == q and got_r.is_zero()

    def test_inexact_division_raises(self):
        # a broken invariant, not bad input: callers that skip ValueError
        # as "undefined parameters" must not swallow it
        assert not issubclass(InexactDivisionError, ValueError)
        with pytest.raises(InexactDivisionError):
            IntPoly((1, 1)).divexact(IntPoly((0, 2)))
        with pytest.raises(InexactDivisionError):
            IntPoly((1, 0, 1)).divexact(IntPoly((1, 1)))

    def test_divmod_returns_integral_remainder(self):
        # divmod shares the division loop of divexact but keeps the remainder:
        # x^2 + 1 = (x - 1)(x + 1) + 2
        assert IntPoly((1, 0, 1)).divmod(IntPoly((1, 1))) == (IntPoly((-1, 1)), IntPoly((2,)))
        assert IntPoly((3,)).divmod(IntPoly((1, 1))) == (IntPoly(), IntPoly((3,)))


# Exact divisions that must fail: each pair is (dividend, divisor).
INEXACT_DIVISIONS = {
    "remainder": ((1, 0, 1), (1, 1)),   # integral quotient x - 1, remainder 2
    "fraction": ((0, 0, 3), (0, 2)),    # quotient 3x/2, every remainder term zero
    "low_degree": ((3,), (1, 1)),       # nonzero dividend below the divisor's degree
    "constant": ((4, 0, 3), (2,)),      # constant divisor: 3 // 2 fails the multiply-back
}


@pytest.mark.parametrize("a, b", INEXACT_DIVISIONS.values(), ids=INEXACT_DIVISIONS.keys())
def test_list_divexact_fails_loudly(a, b):
    with pytest.raises(InexactDivisionError):
        polys._divexact(a, b)


def test_list_divexact_fails_loudly_under_optimize():
    # python -O strips assert statements; the division check must still raise
    code = (
        "from hermitepw.polys import InexactDivisionError, _divexact\n"
        f"for a, b in {list(INEXACT_DIVISIONS.values())!r}:\n"
        "    try:\n"
        "        _divexact(a, b)\n"
        "    except InexactDivisionError:\n"
        "        continue\n"
        "    raise SystemExit(f'{a} / {b} passed')\n")
    src = Path(hermitepw.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def prs_gcd(a, b):
    """poly_gcd of two nonzero inputs by the primitive remainder sequence alone."""
    return polys._prs_gcd(a.primitive(), b.primitive()) * math.gcd(a.content(), b.content())


wide_coeffs = st.integers(min_value=-2 ** 12, max_value=2 ** 12) | \
    st.integers(min_value=-2 ** 90, max_value=2 ** 90)


def gcd_factors(max_size):
    return st.lists(wide_coeffs, min_size=1, max_size=max_size).map(IntPoly).filter(
        lambda p: not p.is_zero())


@st.composite
def gcd_pairs(draw):
    """f = ca * a * g and h = cb * b * g: a common factor g (constant or not),
    contents ca, cb of either sign, and b constant now and then."""
    g = draw(gcd_factors(5))
    a = draw(gcd_factors(5))
    b = draw(gcd_factors(1 if draw(st.integers(0, 5)) == 0 else 5))
    ca, cb = draw(st.lists(st.integers(-60, 60).filter(bool), min_size=2, max_size=2))
    return a * g * ca, b * g * cb


class TestGcd:
    @given(gcd_pairs())
    @example((IntPoly((0, -2)), IntPoly((0, 0, -4))))                 # negative leads
    @example((IntPoly((6,)), IntPoly((-6, 0, 6))))                    # constant input
    @example((IntPoly((-4, 0, 4)) * 15, IntPoly((-1, 1)) ** 3 * 10))  # non-primitive
    @settings(max_examples=120, deadline=None)
    def test_matches_remainder_sequence(self, pair):
        f, h = pair
        got = poly_gcd(f, h)
        assert got == prs_gcd(f, h)
        assert got == poly_gcd(h, f)
        assert f.divmod(got)[1].is_zero() and h.divmod(got)[1].is_zero()

    @given(gcd_pairs())
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_heuristic_gcd(self, pair):
        euclid = pytest.importorskip("sympy.polys.euclidtools")
        zz = pytest.importorskip("sympy.polys.domains").ZZ
        f, h = pair
        want, _, _ = euclid.dup_zz_heu_gcd([zz(c) for c in reversed(f.coeffs)],
                                           [zz(c) for c in reversed(h.coeffs)], zz)
        assert poly_gcd(f, h) == IntPoly(int(c) for c in reversed(want))

    def test_fallback_when_no_candidate_divides(self, monkeypatch):
        fallback = []
        prs = polys._prs_gcd
        monkeypatch.setattr(polys, "_divides", lambda h, p: False)
        monkeypatch.setattr(polys, "_prs_gcd", lambda a, b: fallback.append(1) or prs(a, b))
        g = IntPoly((3, -1, 2))
        f, h = IntPoly((1, 1)) * g * -4, IntPoly((-5, 0, 7)) * g * 6
        assert poly_gcd(f, h) == g * 2
        assert fallback == [1]

    def test_spurious_first_candidate_is_rejected(self, monkeypatch):
        # f = (x - 1)(x^2 - 12x - 6), h = (x - 1)(x^2 - 120x - 34).  At
        # xi = 2^8 the integer gcd carries a spurious factor, and its digits
        # give (x - 1)(x + 118), which divides neither; the doubled word
        # finds x - 1 with no fallback
        monkeypatch.setattr(polys, "_prs_gcd", lambda a, b: pytest.fail("fallback ran"))
        f, h = IntPoly((6, 6, -13, 1)), IntPoly((34, 86, -121, 1))
        assert poly_gcd(f, h) == IntPoly((-1, 1))

    def test_heuristic_rejects_a_candidate_that_does_not_divide(self):
        # inexact division is caught only inside the divisibility test
        assert not polys._divides(IntPoly((0, 2)), IntPoly((1, 1)))
        assert not polys._divides(IntPoly((1, 1)), IntPoly((1, 0, 1)))
        assert polys._divides(IntPoly((1, 1)), IntPoly((-1, 0, 1)))

    @given(int_polys, int_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_common_factor_detected(self, a, b, g):
        d = poly_gcd(a * g, b * g)
        if (a * g).is_zero() and (b * g).is_zero():
            assert d.is_zero()
            return
        # g divides the gcd
        gp = g.primitive()
        assert d.divmod(gp)[1].is_zero()

    def test_coprime(self):
        assert poly_gcd(IntPoly((1, 1)), IntPoly((2,))) == IntPoly((1,))

    def test_positive_leading(self):
        g = poly_gcd(IntPoly((0, -2)), IntPoly((0, 0, -4)))
        assert g.leading > 0


def sturm_oracle(p):
    """count_real_roots on the raw pseudo-remainder chain, whose coefficients
    grow exponentially with the degree: the oracle for small inputs."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    p = p.divexact(poly_gcd(p, p.derivative())) if p.degree > 0 else p
    if p.degree == 0:
        return 0
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        r = polys._pseudo_rem(chain[-2], chain[-1])
        lead = chain[-1].leading
        k = chain[-2].degree - chain[-1].degree + 1
        if lead < 0 and k % 2:
            r = -r
        chain.append(-r)
    if chain[-1].is_zero():
        chain.pop()
    at_plus = [q.leading for q in chain]
    at_minus = [q.leading * (-1) ** q.degree for q in chain]
    return polys._sign_changes(at_minus) - polys._sign_changes(at_plus)


small_factors = st.lists(st.integers(min_value=-20, max_value=20), min_size=1,
                         max_size=4).map(IntPoly).filter(lambda p: not p.is_zero())


@st.composite
def sturm_inputs(draw):
    """A small polynomial times repeated linear factors and, now and then,
    the square of another one: repeated real and complex roots."""
    p = draw(small_factors)
    for root in draw(st.lists(st.integers(min_value=-4, max_value=4), max_size=3)):
        p = p * IntPoly((-root, 1)) ** draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        q = draw(small_factors)
        p = p * q * q
    return p


class TestSturm:
    @given(sturm_inputs())
    @example(IntPoly((-1, 1)) ** 3 * IntPoly((1, 0, 1)) ** 2)
    @settings(max_examples=150, deadline=None)
    def test_matches_raw_chain(self, p):
        assert count_real_roots(p) == sturm_oracle(p)

    def test_no_real_roots(self):
        assert count_real_roots(IntPoly((1, 0, 1))) == 0

    def test_two_roots(self):
        assert count_real_roots(IntPoly((-1, 0, 1))) == 2

    def test_distinct_count_with_multiplicity(self):
        # (x - 1)^2 (x + 2): two distinct real roots
        p = IntPoly((-1, 1)) * IntPoly((-1, 1)) * IntPoly((2, 1))
        assert count_real_roots(p) == 2

    def test_hermite_polynomials_fully_real(self):
        for n in range(1, 11):
            assert count_real_roots(hermite_poly(n)) == n
            # the conjugate family has at most the root at the origin
            assert count_real_roots(conj_hermite_poly(n)) == n % 2

    def test_hermite_root_counts_to_degree_40(self):
        # the raw chain's coefficients grow exponentially with the degree:
        # it took about a second at n = 14 and six at n = 15
        for n in range(11, 41):
            assert count_real_roots(hermite_poly(n)) == n
            assert count_real_roots(conj_hermite_poly(n)) == n % 2


def reduced_with_contents(num, den):
    """(num, den) over their primitive gcd, then over the gcd of their
    contents, signed so that den leads positive: the reduction with an
    explicit content pass."""
    g = polys._prs_gcd(num.primitive(), den.primitive())
    num, den = num.divexact(g), den.divexact(g)
    c = math.gcd(num.content(), den.content()) * (1 if den.leading > 0 else -1)
    return IntPoly(tuple(v // c for v in num.coeffs)), IntPoly(tuple(v // c for v in den.coeffs))


class TestRatFunc:
    @given(gcd_pairs())
    @example((IntPoly((0, -2)), IntPoly((0, 0, -4))))
    @example((IntPoly((6,)), IntPoly((-4, 0, 10))))
    @settings(max_examples=100, deadline=None)
    def test_one_gcd_leaves_coprime_contents(self, pair):
        # poly_gcd carries the gcd of the contents, so the one division
        # leaves nothing for a content pass to take out
        num, den = pair
        f = RatFunc(num, den)
        assert (f.num, f.den) == reduced_with_contents(num, den)
        assert math.gcd(f.num.content(), f.den.content()) == 1
        assert f.den.leading > 0

    def test_reduction(self):
        f = RatFunc(IntPoly((0, 2)), IntPoly((0, 0, 2)))
        assert f == RatFunc(IntPoly((1,)), IntPoly((0, 1)))

    def test_den_positive_leading(self):
        f = RatFunc(IntPoly((1,)), IntPoly((0, -1)))
        assert f.den.leading > 0 and f.num == IntPoly((-1,))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(IntPoly((1,)), IntPoly())

    def test_equal_only_to_ratios(self):
        f = RatFunc(IntPoly.const(5))
        assert f != 5 and f != IntPoly.const(5) and not f == 5
        assert len({f, 5}) == 2
        assert f == Rat.of(5) and hash(f) == hash(Rat.of(5))

    def test_kept_arithmetic(self):
        # T[P] - eigenvalue * P, as the xh_ladder benchmark check forms it
        p, w = IntPoly((1, 2, 3)), IntPoly((-3, 0, 2))
        assert RatFunc(p * w, w) - 4 * RatFunc(p) == RatFunc(-3 * p)
        assert (RatFunc(p, w) - RatFunc(p, w)).is_zero()
        for bad in (lambda: RatFunc(p) + RatFunc(p), lambda: RatFunc(p) - 1,
                    lambda: Fraction(1, 2) * RatFunc(p), lambda: RatFunc(p) * 2):
            with pytest.raises(TypeError):
                bad()

    @given(int_polys, nonzero_polys, int_polys, nonzero_polys)
    @settings(max_examples=80)
    def test_field_axioms(self, n1, d1, n2, d2):
        f = Rat(n1, d1)
        g = Rat(n2, d2)
        assert f + g == g + f
        assert f - f == Rat(IntPoly())
        assert f * g == g * f
        if not g.is_zero():
            assert (f / g) * g == f

    @given(int_polys, nonzero_polys, st.integers(min_value=1, max_value=30))
    def test_reduction_idempotent(self, n, d, c):
        f = Rat(n, d)
        g = Rat(n * c, d * c)
        assert f == g

    @given(int_polys, nonzero_polys, int_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_derivative_product_rule(self, n1, d1, n2, d2):
        f = Rat(n1, d1)
        g = Rat(n2, d2)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        assert (f + g).derivative() == f.derivative() + g.derivative()

    def test_derivative_example(self):
        f = Rat(IntPoly((1,)), IntPoly((-3, 0, 2)))
        d = f.derivative()
        assert d == Rat(IntPoly((0, -4)), IntPoly((-3, 0, 2)) * IntPoly((-3, 0, 2)))

    def test_log_derivative(self):
        assert Rat(IntPoly((0, 0, 1))).log_derivative() == Rat(IntPoly((2,)), X)
        assert Rat(IntPoly((5,))).log_derivative().is_zero()
        with pytest.raises(ZeroDivisionError):
            Rat(IntPoly()).log_derivative()

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_log_derivative_multiplicative(self, p, q):
        f, g = Rat(p), Rat(q)
        assert (f * g).log_derivative() == f.log_derivative() + g.log_derivative()

    def test_eval_pole(self):
        f = Rat(IntPoly((1,)), X)
        with pytest.raises(ZeroDivisionError):
            f.eval_at(0)
        assert f.eval_at(4) == Fraction(1, 4)

    def test_json_round_trip(self):
        # a PIV solution's JSON y is its printed t form
        sol = piv_solution_o(1, 2, 1)
        assert Rat.from_json(sol.to_json()["y"]) == Rat(*sol.t_form())


class TestSqrt3:
    """The O-family taus at t/sqrt3 by parity rescaling: the oracle of the
    printed y(t) (ratfield.at_t_over_sqrt3)."""

    def test_rescaled_log_derivative(self):
        # 3 * H2(t/sqrt3) = 4t^2 - 6, and (1/sqrt3) * (H2'/H2)(t/sqrt3) = 4t / (2t^2 - 3)
        h2 = IntPoly((-2, 0, 4))
        assert at_t_over_sqrt3(h2) == IntPoly((-6, 0, 4))
        got = Rat(*_log_ratio(at_t_over_sqrt3(h2), IntPoly.const(1)))
        assert got == Rat(IntPoly((0, 4)), IntPoly((-3, 0, 2)))

    @staticmethod
    def _oracle(num, den, t0):
        # independent route: split p(x) = pe(x^2) + x*po(x^2) and evaluate
        # (1/sqrt3)(num/den)(t0/sqrt3) for parity-pure num/den of opposite
        # parity, where the value collapses to a plain rational
        t0 = Fraction(t0)
        u = t0 * t0 / 3

        def even_at(p):
            return sum(Fraction(c) * u ** (i // 2)
                       for i, c in enumerate(p.coeffs) if i % 2 == 0)

        def odd_at(p):
            return sum(Fraction(c) * u ** ((i - 1) // 2)
                       for i, c in enumerate(p.coeffs) if i % 2 == 1)

        pn, pd = num.parity(), den.parity()
        if pn == 1 and pd == 0:
            return t0 * odd_at(num) / (3 * even_at(den))
        if pn == 0 and pd == 1:
            return even_at(num) / (t0 * odd_at(den))
        raise AssertionError("oracle needs parity-pure input of opposite parity")

    def test_against_pointwise_oracle(self):
        from hermitepw.hermite import pseudo_wronskian
        from hermitepw.maya import MayaDiagram
        # O(1,2) with its branch-1 partner O(0,1); O(2,2) with its branch-2 partner O(3,2)
        for m0, m1 in (("|5,2,1", "|2"), ("|5,4,2,1", "|7,5,4,2,1")):
            h0 = pseudo_wronskian(MayaDiagram.parse(m0))
            h1 = pseudo_wronskian(MayaDiagram.parse(m1))
            num = h0.derivative() * h1 - h1.derivative() * h0
            den = h0 * h1
            got = Rat(*_log_ratio(at_t_over_sqrt3(h0), at_t_over_sqrt3(h1)))
            for t0 in (1, 2, Fraction(1, 2), -3):
                assert got.eval_at(t0) == self._oracle(num, den, t0)

    def test_mixed_parity_rejected(self):
        with pytest.raises(ArithmeticError):
            at_t_over_sqrt3(IntPoly((1, 1)))
