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
and B the form of ``hermite.hirota``, which ``eigen_check`` evaluates as
one residual hirota(P_n, W, -1, 2(size - n)) in Z[x].

Each request on a family member builds its pieces once.  The family (with
its standard diagram, a cached property), the weight Wronskian W of a
partition and the record of (lam, n) each sit behind a fixed 16-entry
``functools.lru_cache``.  The record holds P_n and its ``MinOrderForm``,
built together at the minimal origin k that the corner rule
(``minorder.xhermite_min_origin``) gives and one minimal-girth search
confirms.  At k the matrix of P_n is the family's fixed rows plus one row
D^j H_(pos-k); when pos >= k, P_n comes from the Laplace expansion along
that row (``hermite.pseudo_wronskian_with``), whose cofactors belong to
the family, so a member above the corners costs no determinant.
``exceptional_hermite`` and ``min_order_form`` read the record, and
``eigen_check`` and ``weight_and_norm_check`` reuse P_n and W.  The memos
hold polynomials only, never a verdict: every check recomputes its
residual or integral on every call.

Everything here is exact except ``weight_and_norm_check``, the one
numerical routine in the package: a trapezoid rule in fixed-point integers
at 50 digits plus guard bits.  The integrand P_n P_m e^(-x^2) / W^2 decays
like a Gaussian and is analytic in a strip about the real line, so the
rule converges geometrically as its step h = 2^-j halves.  Its nodes are
dyadic rationals, where ``IntPoly.eval_dyadic`` evaluates the numerator and
the denominator exactly, so each node value is rounded once.  The integrand
of a same-parity pair is even, so only the nodes of the half line [0, L]
are evaluated, and a sum that has not converged on the finest grid raises.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .hermite import (
    check_min_origin,
    equivalence_factor,
    hirota,
    min_order_at,
    pseudo_wronskian,
    pseudo_wronskian_with,
)
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

    @functools.cached_property
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


# Entries of each memo below: a request reuses its own member and its
# family, so a few requests' worth suffices
_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _family(lam: Partition) -> XHermiteFamily:
    return XHermiteFamily(lam)


def exceptional_hermite(lam: Partition, n: int) -> IntPoly:
    """The degree-n family member: the defining Wronskian, which is
    ``insertion_sign`` times the pseudo-Wronskian of the enlarged diagram.
    It is read from the member's memoised record (``_member``), built at
    minimal order; a corner-rule origin that the minimal-girth search does
    not confirm raises ArithmeticError."""
    return _member(lam, n)[0]


def insertion_sign(lam: Partition, n: int) -> int:
    """Sign relating the defining Wronskian to the pseudo-Wronskian of the
    enlarged diagram: (-1)^(count of diagram elements above the insertion)."""
    fam = _family(lam)
    if not fam.is_admissible(n):
        raise ValueError(f"degree {n} is not admissible for {lam}")
    pos = fam.insertion_position(n)
    return (-1) ** sum(1 for t in fam.diagram.t if t > pos)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _weight(lam: Partition) -> IntPoly:
    """W = H_M of the standard diagram M of lam, memoised per partition."""
    w = pseudo_wronskian(_family(lam).diagram)
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
    identity B_-1(P_n, W) = 2(size - n) P_n W in Z[x].  P_n and W come from
    their memos; the residual is computed on every call.  A nonzero
    residual is a construction bug and raises."""
    y = exceptional_hermite(lam, n)
    w = _weight(lam)
    c = 2 * (lam.size - n)
    residual = hirota(y, w, -1, c)
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
    """Minimal-order pseudo-Wronskian equal to P_n up to an exact scalar.

    It is read from the member's memoised record (``_member``), which built
    P_n from this very determinant, so the form costs nothing past
    ``exceptional_hermite``."""
    return _member(lam, n)[1]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _member(lam: Partition, n: int):
    """(P_n, its MinOrderForm), built once per (lam, n) at the minimal
    origin k that ``xhermite_min_origin`` gives by the corner rule.

    One minimal-girth search of the enlarged diagram M u {pos} confirms the
    claim (order, k), or raises ArithmeticError.  At that origin the
    matrix is the family's fixed rows, those of B = M - k, plus one row for
    pos - k.  When pos >= k that row is D^j H_(pos-k), and the minimal
    determinant is ``pseudo_wronskian_with(B, pos - k)``: its cofactors
    C_j(B) are memoised, so members above the corners share them.
    Otherwise it is ``pseudo_wronskian`` of the shifted diagram.  Then
    P_n = insertion_sign * ratio * H_(M u {pos} - k), with the exact shift
    ratio, in one division that raises on a remainder.
    """
    fam = _family(lam)
    if not fam.is_admissible(n):
        raise ValueError(f"degree {n} is not admissible for {lam}")
    order, origin = xhermite_min_origin(lam, n)
    pos = fam.insertion_position(n)
    enlarged = fam.diagram.add(pos)
    if pos >= origin:
        check_min_origin(enlarged, origin, order)
        small = enlarged.shift(-origin)
        ratio = equivalence_factor(enlarged, origin).ratio
        h = pseudo_wronskian_with(fam.diagram.shift(-origin), pos - origin)
    else:
        small, ratio, h = min_order_at(enlarged, origin, order)
    scalar = insertion_sign(lam, n) * ratio
    poly = (scalar.numerator * h).divexact(IntPoly.const(scalar.denominator))
    if poly.degree != n:
        raise ArithmeticError(f"P_{n} of {lam} came out with degree {poly.degree}")
    return poly, MinOrderForm(n, origin, small, order, scalar, h)


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

# Fixed-point scale 2^-_NORM_BITS of the check: NORM_DPS digits, 32 guard bits
_NORM_BITS = math.ceil(NORM_DPS * math.log2(10)) + 32
# The finest grid the trapezoid rule refines to is h = 2^-_NORM_MAX_LEVEL
_NORM_MAX_LEVEL = 12


def _tail_cutoff(total_degree):
    """Smallest integer L with x^d * exp(-x^2) below the target at |x| >= L.

    The trapezoid sum takes only the nodes in [-L, L].  The target is
    10^-NORM_DPS e^-30, so the tail left out lies far below the digits the
    stopping rule asks for."""
    target = -(NORM_DPS * math.log(10) + 30)
    L = 10
    while total_degree * math.log(L) - L * L > target:
        L += 1
    return L


@functools.cache
def _sqrt_pi():
    """sqrt(pi) at scale 2^-_NORM_BITS, rounded down.

    pi comes from Machin's formula pi = 16 atan(1/5) - 4 atan(1/239) at
    twice the scale plus 16 guard bits, and the root from ``math.isqrt``.
    It is independent of the quadrature, so a scaling error there cannot
    cancel out of the check.
    """
    bits = 2 * _NORM_BITS + 16

    def acot(x):    # atan(1/x) = sum_i (-1)^i / ((2i + 1) x^(2i + 1))
        total, power, k, sign = 0, (1 << bits) // x, 1, 1
        while power:
            total += sign * (power // k)
            power //= x * x
            k, sign = k + 2, -sign
        return total

    return math.isqrt((16 * acot(5) - 4 * acot(239)) >> 16)


def _exp_neg(j, bits):
    """e^(-h^2), h = 2^-j, at scale 2^-bits by its Taylor series."""
    term = total = 1 << bits
    i = 0
    while term:
        i += 1
        term //= i << 2 * j
        total += -term if i & 1 else term
    return total


def _ratio_at(numq, denq, k, j):
    """num(x) / den(x) at x = k 2^-j, rounded to the nearest multiple of
    2^-_NORM_BITS, where num(x) = numq(x^2), den(x) = denq(x^2) > 0.

    x^2 = k^2 4^-j is a dyadic rational, so ``IntPoly.eval_dyadic`` gives
    both values exactly and the quotient is the one rounding.
    """
    vn, en = numq.eval_dyadic(k * k, -2 * j)
    vd, ed = denq.eval_dyadic(k * k, -2 * j)
    shift = en - ed + _NORM_BITS
    if shift >= 0:
        vn <<= shift
    else:
        vd <<= -shift
    return (2 * vn + vd) // (2 * vd)


def _level_sum(numq, denq, L, j, step):
    """Sums of f(x) e^(-x^2) and of its absolute value over the nodes
    x = k h, k = 1, 1 + step, 1 + 2 step, ... with x <= L, h = 2^-j, at
    scale 2^-_NORM_BITS; f is the ratio of ``_ratio_at``.

    The weights g_k = e^(-(k h)^2) take multiplies only: g_1 = a = e^(-h^2),
    g_(k+step) = g_k r_k with r_k = a^(2 k step + step^2), and
    r_(k+step) = r_k a^(2 step^2).  They are kept at a finer scale, so even
    e^(-L^2) has _NORM_BITS significant bits: where the polynomial part is
    large, the Gaussian is far below 2^-_NORM_BITS.
    """
    bits = _NORM_BITS + math.ceil(L * L * math.log2(math.e))
    a = _exp_neg(j, bits)

    def power(p):
        out = 1 << bits
        for _ in range(p):
            out = out * a >> bits
        return out

    g, r, q = a, power(step * step + 2 * step), power(2 * step * step)
    total = size = 0
    for k in range(1, (L << j) + 1, step):
        t = _ratio_at(numq, denq, k, j) * g >> bits
        total += t
        size += abs(t)
        g = g * r >> bits
        r = r * q >> bits
    return total, size


def _trapezoid(num: IntPoly, den: IntPoly, L) -> Fraction:
    """The integral of num(x) e^(-x^2) / den(x) over [-L, L], for even num
    and den with den > 0 on the real line, by the trapezoid rule on the
    dyadic grids h = 2^-j.

    The integrand is even, so the grid sum is h (f(0) + 2 sum_(k >= 1) f(k h))
    over k h <= L, and each halving of h adds only the odd nodes.  The rule
    stops at the first level j >= 1 where the sum moved by at most
    10^-NORM_DPS of the sum of the absolute values of its terms, and returns
    that level's sum, which is exact in the rounded node values.  A grid
    finer than h = 2^-_NORM_MAX_LEVEL raises ArithmeticError.
    """
    numq, denq = IntPoly(num.coeffs[::2]), IntPoly(den.coeffs[::2])
    f0 = _ratio_at(numq, denq, 0, 0)
    t, s = _level_sum(numq, denq, L, 0, 1)
    total, size = f0 + 2 * t, abs(f0) + 2 * s
    for j in range(1, _NORM_MAX_LEVEL + 1):
        t, s = _level_sum(numq, denq, L, j, 2)
        total, prev = total + 2 * t, total
        size += 2 * s
        if abs(total - 2 * prev) * 10 ** NORM_DPS <= size:
            return Fraction(total, 1 << (_NORM_BITS + j))
    raise ArithmeticError(f"trapezoid rule did not reach {NORM_DPS} digits "
                          f"at h = 2^-{_NORM_MAX_LEVEL}")


def _nstr(x: Fraction) -> str:
    """x to 20 significant digits, rounded half up in absolute value, in the
    layout of mpmath's ``nstr(x, 20)``: fixed notation for decimal exponents
    -5 to 19, otherwise d.ddd e+N; trailing zeros stripped; "0.0" for 0."""
    if not x:
        return "0.0"
    sign = "-" if x < 0 else ""
    p, q = abs(x.numerator), x.denominator

    def below(e):   # |x| < 10^e
        return p * 10 ** max(-e, 0) < q * 10 ** max(e, 0)

    e = math.floor((p.bit_length() - q.bit_length()) * math.log10(2))
    while not below(e + 1):
        e += 1
    while below(e):
        e -= 1
    shift = 19 - e
    num, den = p * 10 ** max(shift, 0), q * 10 ** max(-shift, 0)
    man = (2 * num + den) // (2 * den)
    if man == 10 ** 20:
        man, e = man // 10, e + 1
    digits = str(man)
    if -6 < e < 20:
        out = "0." + "0" * (-e - 1) + digits if e < 0 else digits[:e + 1] + "." + digits[e + 1:]
        exponent = ""
    else:
        out, exponent = digits[0] + "." + digits[1:], f"e{e:+d}"
    out = out.rstrip("0")
    if out.endswith("."):
        out += "0"
    return sign + out + exponent


def weight_and_norm_check(lam: Partition, n: int, m: int) -> NormReport:
    """Numerical orthogonality check for an even partition.

    Integrates P_n P_m e^(-x^2)/W^2 over the real line and compares against
    delta_{nm} sqrt(pi) 2^(j+ell) j! prod_i (j - m_i), j = n + ell - N,
    with N = size(lam) the family eigenvalue index.  The weight
    denominator W must have no real zeros; for even partitions it never
    does (checked exactly by Sturm root counting before any numerics).
    When n and m have opposite parity the integrand is odd, so the
    integral is an exact zero and no quadrature runs.  Otherwise P_n P_m
    and W^2 are even (W has definite parity), so the integrand is even; an
    odd coefficient in either polynomial raises ArithmeticError before any
    quadrature.

    The quadrature (``_trapezoid``) is the trapezoid rule in fixed-point
    integers at scale 2^-_NORM_BITS.  The integrand decays like e^(-x^2)
    and is analytic in a strip about the real line, since W^2 has no real
    zero, so the rule converges geometrically as h halves (Trefethen and
    Weideman, SIAM Review 56, 2014).  Its nodes k 2^-j are dyadic, where
    P_n P_m and W^2 are evaluated exactly and their quotient is rounded
    once; the Gaussian weights follow from one e^(-h^2) per grid.  A rule
    that has not reached NORM_DPS digits by the finest grid raises
    ArithmeticError.  sqrt(pi) in the norm is computed apart from the
    quadrature, and the relative error is exact until it becomes a float.
    """
    if not lam.is_even():
        raise ValueError(f"partition {lam} is not even")
    fam = _family(lam)
    w = _weight(lam)
    if count_real_roots(w) != 0:
        raise ArithmeticError(f"weight denominator has a real zero for {lam}")
    pn = exceptional_hermite(lam, n)
    pm = pn if m == n else exceptional_hermite(lam, m)
    if pn.parity() != pm.parity():
        return NormReport(n, m, "0.0", "0.0", 0.0, True)
    num = pn * pm
    den = w * w
    # the even-part evaluation of _trapezoid is right only for an even integrand
    if num.parity() != 0 or den.parity() != 0:
        raise ArithmeticError(f"integrand of ({n}, {m}) for {lam} is not even")
    integral = _trapezoid(num, den, _tail_cutoff(n + m + 2 * max(w.degree, 1)))
    j = n + fam.ell - lam.size
    # diagonal norm at n; off the diagonal it is the relative yardstick
    scale = 2 ** (j + fam.ell) * math.factorial(j)
    for t in fam.diagram.t:
        scale *= j - t
    norm = Fraction(_sqrt_pi() * scale, 1 << _NORM_BITS)
    expected = norm if n == m else Fraction(0)
    rel = abs(integral - expected) / abs(norm)
    return NormReport(n, m, _nstr(integral), _nstr(expected), float(rel),
                      rel <= NORM_TOLERANCE)
