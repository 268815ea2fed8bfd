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

Each request on a family member builds its pieces once.  The family
record of a partition, whose standard diagram and weight Wronskian W are
cached properties, and the record of (lam, n) each sit behind a fixed
16-entry ``functools.lru_cache``.  The member record holds P_n and its
``hermite.MinOrderForm``, built together at the minimal origin k that
``XHermiteFamily.placement`` picks.  The family maps the degree to its
insertion position pos, one minimal-girth search of M u {pos} gives its
minimal order and origins, and the pick takes the largest origin below
pos, or the largest.  (The paper's insertion theorem,
``minorder.min_order_after_insert``, predicts the same order and origins
from the corners of M; the tests check it against this search.)
At k the matrix of P_n is the family's fixed rows plus one row
D^j H_(pos-k); when pos >= k, P_n comes from the Laplace expansion along
that row (``hermite.pseudo_wronskian_with``), whose cofactors belong to
the family, so a member above the corners costs no determinant.
``exceptional_hermite`` and ``min_order_form`` read the record, and
``eigen_check`` and ``weight_and_norm_check`` reuse P_n and W.  The memos
hold polynomials only, never a verdict: every check recomputes its
residual or integral on every call.

Everything here is exact, the orthogonality check included.  For an even
partition ``weight_and_norm_check`` certifies the integral of
P_n P_m e^(-x^2) / W^2 over the real line by Hermite reduction: it writes
P_n P_m = A' W - A W' - 2x A W + c W^2 with A in Q[x] and c in Q, so that
the integrand is (A e^(-x^2) / W)' + c e^(-x^2) and the integral is exactly
c sqrt(pi).  The reduction runs in integers with one carried scale, and
the check is c == delta_nm 2^(j+ell) j! prod_i (j - m_i), Crum's formula,
with no tolerance.  No float enters a computation; the one float made is
the reported relative error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .hermite import (
    MinOrderForm,
    _from_smallest_origin,
    equivalence_factor,
    hirota,
    pseudo_wronskian,
    pseudo_wronskian_with,
)
from .maya import MayaDiagram, Partition
from .minorder import minimal_girth_of_diagram
from .polys import IntPoly, RatFunc, count_real_roots

__all__ = [
    "XHermiteFamily",
    "exceptional_hermite",
    "insertion_sign",
    "apply_T_lambda",
    "EigenReport",
    "eigen_check",
    "min_order_form",
    "NORM_DPS",
    "NormReport",
    "weight_and_norm_check",
]


@dataclass(frozen=True)
class XHermiteFamily:
    """Degree bookkeeping for the family indexed by a partition, with the
    standard diagram M and the weight W = H_M, each built on first use."""

    lam: Partition

    @functools.cached_property
    def diagram(self) -> MayaDiagram:
        return MayaDiagram.from_partition(self.lam)

    @functools.cached_property
    def weight(self) -> IntPoly:
        w = pseudo_wronskian(self.diagram)
        if w.is_zero():
            raise ZeroDivisionError("vanishing weight Wronskian")
        return w

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

    def is_admissible(self, n):
        return n >= 0 and n - self.offset not in self.diagram

    def insertion_position(self, n):
        """The position n - offset of the degree-n member in M; an
        inadmissible degree raises ValueError."""
        if not self.is_admissible(n):
            raise ValueError(f"degree {n} is not admissible for {self.lam}")
        return n - self.offset

    def placement(self, n):
        """(M u {pos}, its minimal order, its ascending minimal-girth
        origins, the picked origin) of the degree-n member at its position
        pos, from one minimal-girth search of M u {pos}.  The largest
        origin below pos is picked, or the largest when none is below, so
        the member is on the expansion path of ``_member`` whenever an
        origin allows it."""
        pos = self.insertion_position(n)
        enlarged = self.diagram.add(pos)
        order, origins = minimal_girth_of_diagram(enlarged)
        below = [k for k in origins if k < pos]
        return enlarged, order, origins, (below or origins)[-1]


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
    minimal order."""
    return _member(lam, n)[0]


def insertion_sign(lam: Partition, n: int) -> int:
    """Sign relating the defining Wronskian to the pseudo-Wronskian of the
    enlarged diagram: (-1)^(count of diagram elements above the insertion)."""
    fam = _family(lam)
    pos = fam.insertion_position(n)
    return (-1) ** sum(1 for t in fam.diagram.t if t > pos)


def apply_T_lambda(lam: Partition, y: IntPoly) -> RatFunc:
    """Second-order operator of the family applied to a polynomial:

    T[y] = y'' - 2(x + W'/W) y' + (W''/W + 2x W'/W) y = B_-1(y, W) / W,

    with W = H_M and B the Hirota form of ``hermite.hirota``.
    """
    w = _family(lam).weight
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
    w = _family(lam).weight
    c = 2 * (lam.size - n)
    residual = hirota(y, w, -1, c)
    if not residual.is_zero():
        raise ArithmeticError(f"T[P_{n}] is not {c} P_{n} for {lam}")
    return EigenReport(n, c, lam.size, residual)


def min_order_form(lam: Partition, n: int) -> MinOrderForm:
    """Minimal-order pseudo-Wronskian equal to P_n up to an exact scalar.

    It is read from the member's memoised record (``_member``), which built
    P_n from this very determinant, so the form costs nothing past
    ``exceptional_hermite``."""
    return _member(lam, n)[1]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _member(lam: Partition, n: int):
    """(P_n, its MinOrderForm), built once per (lam, n) at the minimal
    origin k that ``XHermiteFamily.placement`` picks, after
    ``insertion_sign`` has rejected an inadmissible degree.

    The one minimal-girth search of the enlarged diagram M u {pos} gives
    the order, the origins and k.  At k the matrix is the family's fixed
    rows, those of B = M - k, plus one row for pos - k.  When pos >= k that
    row is D^j H_(pos-k), and the minimal determinant is
    ``pseudo_wronskian_with(B, pos - k)``: its cofactors C_j(B) are
    memoised, so members above the corners share them.  Otherwise it is
    the memoised determinant at the smallest origin, rescaled.  Either way
    P_n = scalar * H_(M u {pos} - k) with scalar = insertion_sign * ratio,
    the exact shift ratio, in one division that raises on a remainder.
    """
    sign = insertion_sign(lam, n)
    fam = _family(lam)
    pos = fam.insertion_position(n)
    enlarged, order, origins, origin = fam.placement(n)
    small = enlarged.shift(-origin)
    if pos >= origin:
        h = pseudo_wronskian_with(fam.diagram.shift(-origin), pos - origin)
    else:
        h = _from_smallest_origin(small, origins[0] - origin)
    form = MinOrderForm(origin, order, small,
                        sign * equivalence_factor(enlarged, origin).ratio, h)
    scalar = form.scalar
    poly = (scalar.numerator * form.poly).divexact(IntPoly.const(scalar.denominator))
    if poly.degree != n:
        raise ArithmeticError(f"P_{n} of {lam} came out with degree {poly.degree}")
    return poly, form


@dataclass(frozen=True)
class NormReport:
    """The integral is exactly c sqrt(pi), and Crum's formula gives
    expected_c sqrt(pi), 0 off the diagonal; the strings ``integral`` and
    ``expected`` render both to 20 digits."""

    n: int
    m: int
    integral: str
    expected: str
    rel_error: float
    ok: bool
    c: Fraction
    expected_c: Fraction


# The check is exact and has no tolerance; sqrt(pi) in the report strings
# is rendered to NORM_DPS digits.
NORM_DPS = 50

# Fixed-point scale 2^-_NORM_BITS of sqrt(pi): NORM_DPS digits, 32 guard bits
_NORM_BITS = (10 ** NORM_DPS).bit_length() + 32


@functools.cache
def _sqrt_pi():
    """sqrt(pi) at scale 2^-_NORM_BITS, rounded down.

    pi comes from Machin's formula pi = 16 atan(1/5) - 4 atan(1/239) at
    twice the scale plus 16 guard bits, and the root from ``math.isqrt``.
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


def _subtract_L(r, i, t, w_pairs):
    """r -= t L(x^i) in place, where L(A) = A' W - A W' - 2x A W and
    w_pairs are the nonzero (j, W_j).

    L(x^i) = sum_j ((i - j) W_j x^(i-1+j) - 2 W_j x^(i+1+j)), so the
    coefficient of x^(i + deg W + 1) is -2 lead(W)."""
    for j, c in w_pairs:
        tc = t * c
        if i != j:
            r[i - 1 + j] -= (i - j) * tc
        r[i + 1 + j] += 2 * tc


def _hermite_remainder(p: IntPoly, w: IntPoly):
    """(R, s) with s p = s L(A) + R for some A in Q[x], R a coefficient list
    of length deg W + 1 and s a positive integer.

    Hermite reduction from the top: the term of degree k > deg W is
    cancelled by L(x^(k - deg W - 1)), whose leading coefficient is
    g = -2 lead(W).  The list stays in integers: when g does not divide the
    leading coefficient, the list is first multiplied by the part q of |g|
    that does, and s carries the product of these q.  A term left above
    deg W raises ArithmeticError.
    """
    d = w.degree
    g = -2 * w.leading
    w_pairs = [(j, c) for j, c in enumerate(w.coeffs) if c]
    r = list(p.coeffs) + [0] * (d + 1 - len(p.coeffs))
    s = 1
    for k in range(len(r) - 1, d, -1):
        rk = r[k]
        if not rk:
            continue
        q = abs(g) // math.gcd(rk, g)
        if q != 1:
            r[:k + 1] = [q * c for c in r[:k + 1]]
            s *= q
        _subtract_L(r, k - d - 1, r[k] // g, w_pairs)
    if any(r[d + 1:]):
        raise ArithmeticError("Hermite reduction left a term above deg W")
    return r[:d + 1], s


def _norm_constant(num: IntPoly, w: IntPoly) -> Fraction:
    """The c with num = L(A) + c W^2 for a polynomial A, L as in
    ``_subtract_L``, so that the integral of num e^(-x^2) / W^2 over the
    real line is exactly c sqrt(pi).

    num and W^2 are reduced to remainders R0 / s0 and R1 / s1 of degree at
    most deg W.  L has no polynomial kernel and raises the degree by
    deg W + 1, so the remainder of an image is 0 and the remainders are
    unique: num = L(A) + c W^2 exactly when R0 / s0 = c R1 / s1.  A num
    whose remainder is not such a multiple raises ArithmeticError.
    """
    r0, s0 = _hermite_remainder(num, w)
    r1, s1 = _hermite_remainder(w * w, w)
    top = max((i for i, c in enumerate(r1) if c), default=None)
    if top is None:
        raise ArithmeticError("W^2 reduced to zero")
    if any(a * r1[top] != r0[top] * b for a, b in zip(r0, r1)):
        raise ArithmeticError("remainder is not a multiple of the remainder of W^2")
    return Fraction(r0[top] * s1, r1[top] * s0)


def _norm_scale(fam: XHermiteFamily, n: int) -> int:
    """Crum's norm of P_n over sqrt(pi): 2^(j+ell) j! prod_i (j - m_i),
    j = n + ell - size the insertion position."""
    j = n - fam.offset
    scale = 2 ** (j + fam.ell) * math.factorial(j)
    for t in fam.diagram.t:
        scale *= j - t
    return scale


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

    # log10(2) < 30103 / 10^5: an estimate the two loops correct
    e = (p.bit_length() - q.bit_length()) * 30103 // 100000
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
    """Exact orthogonality check for an even partition.

    The integral of P_n P_m e^(-x^2) / W^2 over the real line must equal
    delta_{nm} sqrt(pi) 2^(j+ell) j! prod_i (j - m_i), j = n + ell - N,
    with N = size(lam) the family eigenvalue index (Crum's formula).  The
    weight denominator W must have no real zeros; for even partitions it
    never does (checked exactly by Sturm root counting first).  When n
    and m have opposite parity the integrand is odd, so the integral is an
    exact zero and no certificate is built.  Otherwise P_n P_m and W^2 are
    even (W has definite parity); an odd coefficient in either raises
    ArithmeticError.

    The certificate is Hermite reduction for exponential-rational
    integrands (``_norm_constant``): P_n P_m = A' W - A W' - 2x A W + c W^2
    with A a polynomial, so that
    P_n P_m e^(-x^2) / W^2 = (A e^(-x^2) / W)' + c e^(-x^2), and the integral
    is exactly c sqrt(pi).  The check passes when c equals the closed form,
    an equality of rationals; a product that leaves no such c raises
    ArithmeticError.  The report carries c and the closed form as exact
    rationals; sqrt(pi) enters only its strings.
    """
    if not lam.is_even():
        raise ValueError(f"partition {lam} is not even")
    fam = _family(lam)
    w = fam.weight
    if count_real_roots(w) != 0:
        raise ArithmeticError(f"weight denominator has a real zero for {lam}")
    pn = exceptional_hermite(lam, n)
    pm = pn if m == n else exceptional_hermite(lam, m)
    if pn.parity() != pm.parity():
        return NormReport(n, m, "0.0", "0.0", 0.0, True, Fraction(0), Fraction(0))
    num = pn * pm
    # W^2 is even whenever W has definite parity
    if num.parity() != 0 or w.parity() is None:
        raise ArithmeticError(f"integrand of ({n}, {m}) for {lam} is not even")
    c = _norm_constant(num, w)
    # diagonal norm at n; off the diagonal it is the relative yardstick
    scale = _norm_scale(fam, n)
    expected = Fraction(scale if n == m else 0)
    sqrt_pi = Fraction(_sqrt_pi(), 1 << _NORM_BITS)
    rel = abs(c - expected) / abs(scale)
    return NormReport(n, m, _nstr(c * sqrt_pi), _nstr(expected * sqrt_pi),
                      float(rel), c == expected, c, expected)
