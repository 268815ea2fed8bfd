"""The trapezoid rule of the exceptional Hermite norms: the test oracle.

The library checks the norms with an exact certificate (Hermite reduction,
``xhermite._norm_constant``).  This module keeps the quadrature that the
certificate replaced, so the tests can compare the two: the trapezoid rule
on the dyadic grids h = 2^-j in fixed-point integers at scale 2^-B,
B = ``xhermite._NORM_BITS``.  The integrand num(x) e^(-x^2) / den(x)
decays like a Gaussian and is analytic in a strip about the real line when
den has no real zero, so the rule converges geometrically as h halves
(Trefethen and Weideman, SIAM Review 56, 2014).  Its nodes are dyadic
rationals, where ``eval_dyadic`` evaluates the numerator and the
denominator exactly, so each node value is rounded once.  The integrand is
even, so only the nodes of the half line [0, L] are evaluated, and a sum
that has not converged on the finest grid raises.
"""

import math
from fractions import Fraction

from hermitepw.polys import IntPoly
from hermitepw.xhermite import _NORM_BITS, NORM_DPS

from conftest import eval_at

# The finest grid the trapezoid rule refines to is h = 2^-MAX_LEVEL
MAX_LEVEL = 12

# The relative error the quadrature must reach against the exact norm
NORM_TOLERANCE = 1e-10


def eval_dyadic(p: IntPoly, man, e):
    """Exact value of p at the dyadic rational man * 2^e, as (v, E) with
    p(man * 2^e) = v * 2^E.

    For e >= 0 the point is an integer and E = 0.  For e < 0 the value
    is 2^(e * d) * sum c_i man^i 2^(-e (d - i)), d the degree: integer
    Horner in man with the i-th coefficient shifted left by -e (d - i).
    """
    c = p.coeffs
    if e >= 0:
        return eval_at(p, man << e), 0
    if not c:
        return 0, 0
    s = -e
    d = len(c) - 1
    v = c[d]
    for i in range(d - 1, -1, -1):
        v *= man
        if c[i]:
            v += c[i] << (s * (d - i))
    return v, e * d


def tail_cutoff(total_degree):
    """Smallest integer L with x^d * exp(-x^2) below the target at |x| >= L.

    The trapezoid sum takes only the nodes in [-L, L].  The target is
    10^-NORM_DPS e^-30, so the tail left out lies far below the digits the
    stopping rule asks for."""
    target = -(NORM_DPS * math.log(10) + 30)
    L = 10
    while total_degree * math.log(L) - L * L > target:
        L += 1
    return L


def exp_neg(j, bits):
    """e^(-h^2), h = 2^-j, at scale 2^-bits by its Taylor series."""
    term = total = 1 << bits
    i = 0
    while term:
        i += 1
        term //= i << 2 * j
        total += -term if i & 1 else term
    return total


def ratio_at(numq, denq, k, j):
    """num(x) / den(x) at x = k 2^-j, rounded to the nearest multiple of
    2^-B, where num(x) = numq(x^2), den(x) = denq(x^2) > 0.

    x^2 = k^2 4^-j is a dyadic rational, so ``eval_dyadic`` gives both
    values exactly and the quotient is the one rounding.
    """
    vn, en = eval_dyadic(numq, k * k, -2 * j)
    vd, ed = eval_dyadic(denq, k * k, -2 * j)
    shift = en - ed + _NORM_BITS
    if shift >= 0:
        vn <<= shift
    else:
        vd <<= -shift
    return (2 * vn + vd) // (2 * vd)


def level_sum(numq, denq, L, j, step):
    """Sums of f(x) e^(-x^2) and of its absolute value over the nodes
    x = k h, k = 1, 1 + step, 1 + 2 step, ... with x <= L, h = 2^-j, at
    scale 2^-B; f is the ratio of ``ratio_at``.

    The weights g_k = e^(-(k h)^2) take multiplies only: g_1 = a = e^(-h^2),
    g_(k+step) = g_k r_k with r_k = a^(2 k step + step^2), and
    r_(k+step) = r_k a^(2 step^2).  They are kept at a finer scale, so even
    e^(-L^2) has B significant bits: where the polynomial part is large,
    the Gaussian is far below 2^-B.
    """
    bits = _NORM_BITS + math.ceil(L * L * math.log2(math.e))
    a = exp_neg(j, bits)

    def power(p):
        out = 1 << bits
        for _ in range(p):
            out = out * a >> bits
        return out

    g, r, q = a, power(step * step + 2 * step), power(2 * step * step)
    total = size = 0
    for k in range(1, (L << j) + 1, step):
        t = ratio_at(numq, denq, k, j) * g >> bits
        total += t
        size += abs(t)
        g = g * r >> bits
        r = r * q >> bits
    return total, size


def trapezoid(num: IntPoly, den: IntPoly, L) -> Fraction:
    """The integral of num(x) e^(-x^2) / den(x) over [-L, L], for even num
    and den with den > 0 on the real line, by the trapezoid rule on the
    dyadic grids h = 2^-j.

    The integrand is even, so the grid sum is h (f(0) + 2 sum_(k >= 1) f(k h))
    over k h <= L, and each halving of h adds only the odd nodes.  The rule
    stops at the first level j >= 1 where the sum moved by at most
    10^-NORM_DPS of the sum of the absolute values of its terms, and returns
    that level's sum, which is exact in the rounded node values.  A grid
    finer than h = 2^-MAX_LEVEL raises ArithmeticError.
    """
    numq, denq = IntPoly(num.coeffs[::2]), IntPoly(den.coeffs[::2])
    f0 = ratio_at(numq, denq, 0, 0)
    t, s = level_sum(numq, denq, L, 0, 1)
    total, size = f0 + 2 * t, abs(f0) + 2 * s
    for j in range(1, MAX_LEVEL + 1):
        t, s = level_sum(numq, denq, L, j, 2)
        total, prev = total + 2 * t, total
        size += 2 * s
        if abs(total - 2 * prev) * 10 ** NORM_DPS <= size:
            return Fraction(total, 1 << (_NORM_BITS + j))
    raise ArithmeticError(f"trapezoid rule did not reach {NORM_DPS} digits "
                          f"at h = 2^-{MAX_LEVEL}")


def norm_integral(pn: IntPoly, pm: IntPoly, w: IntPoly) -> Fraction:
    """The integral of P_n P_m e^(-x^2) / W^2 over the real line by the
    trapezoid rule, on the interval the library's quadrature used."""
    return trapezoid(pn * pm, w * w, tail_cutoff(pn.degree + pm.degree + 2 * max(w.degree, 1)))
