"""Exceptional Hermite families: construction, differential-equation and
orthogonality checks, and minimal-order re-representation.

For a partition lam with standard diagram M (positive elements
m_1 > ... > m_ell) the degree-n member is

    P_n = Wr[H_{m_ell}, ..., H_{m_1}, H_{ell - size + n}],

defined exactly for the degrees n whose insertion position
n + ell - size is a hole of M; the excluded degrees number size(lam).
P_n equals a pseudo-Wronskian of M u {position} up to the explicit sign
(-1)^(number of m_i above the inserted position).

T[P_n] = 2(size - n) P_n is the Darboux-step identity of adding the
insertion position to M: B_-1(P_n, W) = 2(size - n) P_n W with W = H_M
and B the form of ``hermite.hirota``.

Everything here is exact except ``weight_and_norm_check``, the one
numerical routine in the package, which is quarantined behind mpmath
tanh-sinh quadrature at 50-digit working precision.  Even there the
rational part of the integrand is exact: every quadrature node is a dyadic
rational, where ``IntPoly.eval_dyadic`` evaluates the numerator and the
denominator exactly, so their quotient is rounded once.  The integrand of a
same-parity pair is even, so only the half line [0, L] is integrated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .hermite import hirota, min_order_at, pseudo_wronskian
from .maya import MayaDiagram, Partition
from .minorder import xhermite_min_origin
from .polys import IntPoly, RatFunc, count_real_roots

__all__ = [
    "XHermiteFamily",
    "exceptional_hermite",
    "insertion_sign",
    "apply_T_lambda",
    "EigenReport",
    "eigen_check",
    "MinOrderForm",
    "min_order_form",
    "NORM_TOLERANCE",
    "NORM_DPS",
    "NormReport",
    "weight_and_norm_check",
]


@dataclass(frozen=True)
class XHermiteFamily:
    """Degree bookkeeping for the family indexed by a partition."""

    lam: Partition

    @property
    def diagram(self) -> MayaDiagram:
        return MayaDiagram.from_partition(self.lam)

    @property
    def ell(self):
        return self.lam.length

    @property
    def size(self):
        return self.lam.size

    @property
    def offset(self):
        """Degree minus insertion position: size - length."""
        return self.size - self.ell

    def insertion_position(self, n):
        return n - self.offset

    def is_admissible(self, n):
        return n >= 0 and self.insertion_position(n) not in self.diagram

    def excluded_degrees(self):
        """The size(lam) missing degrees: low block plus shifted elements."""
        low = list(range(self.offset))
        shifted = [t + self.offset for t in sorted(self.diagram.t)]
        return low + shifted

    def admissible_degrees(self, count):
        out = []
        n = 0
        while len(out) < count:
            if self.is_admissible(n):
                out.append(n)
            n += 1
        return out


def exceptional_hermite(lam: Partition, n: int) -> IntPoly:
    """The degree-n family member: the defining Wronskian, evaluated as
    the signed pseudo-Wronskian of the enlarged diagram."""
    fam = XHermiteFamily(lam)
    if not fam.is_admissible(n):
        raise ValueError(f"degree {n} is not admissible for {lam}")
    enlarged = fam.diagram.add(fam.insertion_position(n))
    poly = insertion_sign(lam, n) * pseudo_wronskian(enlarged)
    if poly.degree != n:
        raise ArithmeticError(f"P_{n} of {lam} came out with degree {poly.degree}")
    return poly


def insertion_sign(lam: Partition, n: int) -> int:
    """Sign relating the defining Wronskian to the pseudo-Wronskian of the
    enlarged diagram: (-1)^(count of diagram elements above the insertion)."""
    fam = XHermiteFamily(lam)
    if not fam.is_admissible(n):
        raise ValueError(f"degree {n} is not admissible for {lam}")
    pos = fam.insertion_position(n)
    return (-1) ** sum(1 for t in fam.diagram.t if t > pos)


def _weight(lam: Partition) -> IntPoly:
    w = pseudo_wronskian(MayaDiagram.from_partition(lam))
    if w.is_zero():
        raise ZeroDivisionError("vanishing weight Wronskian")
    return w


def apply_T_lambda(lam: Partition, y: IntPoly) -> RatFunc:
    """Second-order operator of the family applied to a polynomial:

    T[y] = y'' - 2(x + W'/W) y' + (W''/W + 2x W'/W) y = B_-1(y, W) / W,

    with W = H_M and B the Hirota form of ``hermite.hirota``.
    """
    w = _weight(lam)
    return RatFunc(hirota(y, w, -1), w)


@dataclass(frozen=True)
class EigenReport:
    n: int
    eigenvalue: int         # 2(N - n)
    shifted_index: int      # N = size(lam)
    residual: IntPoly       # B_-1(P_n, W) - eigenvalue P_n W

    def to_json(self):
        return {"n": self.n, "eigenvalue": str(self.eigenvalue),
                "N": str(self.shifted_index),
                "residual_zero": self.residual.is_zero()}


def eigen_check(lam: Partition, n: int) -> EigenReport:
    """Verify T[P_n] = 2(size - n) P_n exactly, as the Darboux-step
    identity B_-1(P_n, W) = 2(size - n) P_n W in Z[x].  A nonzero residual
    is a construction bug and raises."""
    y = exceptional_hermite(lam, n)
    w = _weight(lam)
    c = 2 * (lam.size - n)
    residual = hirota(y, w, -1) - c * (y * w)
    if not residual.is_zero():
        raise ArithmeticError(f"T[P_{n}] is not {c} P_{n} for {lam}")
    return EigenReport(n, c, lam.size, residual)


@dataclass(frozen=True)
class MinOrderForm:
    """Smallest determinant representation of one family member."""

    n: int
    origin: int
    diagram: MayaDiagram        # the shifted, minimal-girth diagram
    order: int
    scalar: Fraction            # P_n = scalar * pseudo_wronskian(diagram)
    poly: IntPoly

    def to_json(self):
        return {"n": self.n, "origin": self.origin, "frobenius": str(self.diagram),
                "order": self.order, "scalar": str(self.scalar),
                "poly": self.poly.to_json()}


def min_order_form(lam: Partition, n: int) -> MinOrderForm:
    """Minimal-order pseudo-Wronskian equal to P_n up to an exact scalar."""
    fam = XHermiteFamily(lam)
    if not fam.is_admissible(n):
        raise ValueError(f"degree {n} is not admissible for {lam}")
    order, origin = xhermite_min_origin(lam, n)
    enlarged = fam.diagram.add(fam.insertion_position(n))
    small, ratio, poly = min_order_at(enlarged, origin, order)
    return MinOrderForm(n, origin, small, order, insertion_sign(lam, n) * ratio, poly)


@dataclass(frozen=True)
class NormReport:
    n: int
    m: int
    integral: str
    expected: str
    rel_error: float
    ok: bool

    def to_json(self):
        return {"n": self.n, "m": self.m, "integral": self.integral,
                "expected": self.expected, "rel_error": self.rel_error,
                "ok": self.ok}


# The one numerical check passes when its relative error is at most
# NORM_TOLERANCE at NORM_DPS digits of working precision.
NORM_TOLERANCE = 1e-10
NORM_DPS = 50


def _tail_cutoff(total_degree):
    """Smallest integer L with x^d * exp(-x^2) below the target at |x| >= L."""
    target = -(NORM_DPS * math.log(10) + 30)
    L = 10
    while total_degree * math.log(L) - L * L > target:
        L += 1
    return L


@functools.cache
def _mp_context():
    """A private mpmath context at NORM_DPS digits, never changed after it
    is made: the global ``mpmath.mp`` precision stays untouched, concurrent
    callers cannot race on precision, and every call shares its cached
    quadrature nodes."""
    import mpmath

    mp = mpmath.MPContext()
    mp.dps = NORM_DPS
    return mp


def _weighted_ratio(num: IntPoly, den: IntPoly, mp):
    """The integrand x -> num(x) e^(-x^2) / den(x) in the context mp.

    A quadrature node x is an mpf, so x = man * 2^e exactly and num(x),
    den(x) are exact dyadic rationals (``IntPoly.eval_dyadic``).  Their
    quotient is rounded once, at the working precision of the call, and
    only the weight e^(-x^2) adds a second rounding.
    """
    from mpmath import libmp

    def f(x):
        sign, man, e, _ = x._mpf_
        if sign:
            man = -man
        ratio = libmp.mpf_div(libmp.from_man_exp(*num.eval_dyadic(man, e)),
                              libmp.from_man_exp(*den.eval_dyadic(man, e)),
                              mp.prec, libmp.round_nearest)
        return mp.make_mpf(ratio) * mp.exp(-x * x)

    return f


def weight_and_norm_check(lam: Partition, n: int, m: int) -> NormReport:
    """Numerical orthogonality check for an even partition.

    Integrates P_n P_m e^(-x^2)/W^2 over the real line with tanh-sinh
    quadrature at NORM_DPS digits and compares against
    delta_{nm} sqrt(pi) 2^(j+ell) j! prod_i (j - m_i), j = n + ell - N,
    with N = size(lam) the family eigenvalue index.  The weight
    denominator W must have no real zeros; for even partitions it never
    does (checked
    exactly by Sturm root counting before any numerics).  When n and m
    have opposite parity the integrand is odd, so the integral is an
    exact zero and no quadrature runs.  Otherwise P_n P_m and W^2 are
    even (W has definite parity), so the integrand is even and the
    integral is twice its tanh-sinh value on [0, L]; an odd coefficient
    in either polynomial raises ArithmeticError before any quadrature.
    At each node P_n P_m and W^2 are evaluated exactly, and their
    quotient is rounded once (``_weighted_ratio``).
    """
    if not lam.is_even():
        raise ValueError(f"partition {lam} is not even")
    fam = XHermiteFamily(lam)
    w = pseudo_wronskian(fam.diagram)
    if count_real_roots(w) != 0:
        raise ArithmeticError(f"weight denominator has a real zero for {lam}")
    pn = exceptional_hermite(lam, n)
    pm = pn if m == n else exceptional_hermite(lam, m)
    if pn.parity() != pm.parity():
        return NormReport(n, m, "0.0", "0.0", 0.0, True)
    num = pn * pm
    den = w * w
    # the half-line quadrature below is right only for an even integrand
    if num.parity() != 0 or den.parity() != 0:
        raise ArithmeticError(f"integrand of ({n}, {m}) for {lam} is not even")
    mp = _mp_context()
    L = _tail_cutoff(n + m + 2 * max(w.degree, 1))
    integral = 2 * mp.quad(_weighted_ratio(num, den, mp), [0, L])
    j = n + fam.ell - lam.size
    # diagonal norm at n; off the diagonal it is the relative yardstick
    norm = mp.sqrt(mp.pi) * mp.mpf(2) ** (j + fam.ell) * mp.factorial(j)
    for t in fam.diagram.t:
        norm *= j - t
    if n == m:
        expected = norm
        rel = abs(integral - expected) / abs(expected)
    else:
        expected = mp.mpf(0)
        rel = abs(integral) / abs(norm)
    return NormReport(n, m, mp.nstr(integral, 20), mp.nstr(expected, 20),
                      float(rel), bool(rel <= NORM_TOLERANCE))
