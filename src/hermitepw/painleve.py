"""Maya-diagram chains and the two families of rational solutions of the
fourth Painleve equation

    y'' = (y')^2/(2y) + (3/2) y^3 + 4 t y^2 + 2 (t^2 - a) y + b / y.

Each solution is a linear term plus the log-derivative of a ratio h0/hp
of two pseudo-Wronskians of the generalized-Hermite (GH) or Okamoto (O)
diagram families, whose chains of flips (``three_cycle``) are Darboux
steps (``hermite.darboux_step``).  Each family has its own variable: x = t
for GH, and x = t/sqrt3 for O, where Y(x) = sqrt3 y(sqrt3 x) solves
PIV with a factor 3 in its t terms (Clarkson, J. Math. Phys. 44, 2003).
In it a solution is one fraction in Z[x]: with N = h0' hp - h0 hp' and
D = h0 hp, it is N/D or (N - 2xD)/D, built in Z[x] and reduced once into
the ``RatFunc`` PivSolution.y.  With L = 1 for GH and L = 3 for O,
verification clears denominators and checks the residual polynomial

    2 y y'' - (y')^2 - 3 y^4 - 8 L x y^3 - 4 L (L x^2 - a) y^2 - 2 L^2 b = 0

identically, with no floating point anywhere; at L = 3 it is 9 times the
residual of PIV at t = sqrt3 x.  The residual is evaluated at one point
x = 2^B, with B from a proven bound on its coefficients, so a zero value
means the zero polynomial and a nonzero value is read back exactly as the
residual polynomial.  Every solution built here is odd: its
log-derivatives are quotients of definite-parity pseudo-Wronskians and its
linear term is odd.  The residual of an odd y has only even powers of x,
so it is a polynomial in x^2 and B needs only half the bits of the bound.

The printed form of an O solution is y(t) = Y(t/sqrt3)/sqrt3 in Z[t]
(PivSolution.t_form).  For Y = N/D odd, coefficient k of N is divided by
3^((k+1)//2) and of D by 3^(k//2); the half powers of 3 cancel between
them and the leading 1/sqrt3, and one power of 3 common to all clears the
denominators.  x -> t/sqrt3 is a ring automorphism of Q(sqrt3)[x], so
coprime N, D stay coprime, and dividing out the integer content, a power
of 3, gives the pair that reducing y(t) in Z[t] would, with no polynomial
gcd.

A tau enters y only through (log h0/hp)' = h0'/h0 - hp'/hp, and
(log c h)' = (log h)' for a constant c: scaling h0 or hp scales N and D by
the same constant, which the one reduction into a RatFunc removes.  So
y, and every printed digit, is the same for any constant multiple of the
taus, and the builders take each tau as its primitive part (content 1,
positive leading coefficient), never carrying the determinant's constant.
They build the taus by the Toda-type bilinear recurrences of the
generalized Hermite and Okamoto polynomials (Noumi & Yamada 1998;
Clarkson, J. Math. Phys. 44, 2003).  With B(tau) = tau tau'' - tau'^2,
tau the middle of three consecutive taus on a line and ~ equality up to a
nonzero constant:

    GH(m, l+1) GH(m, l-1) ~ B(tau) - 2l tau^2,                   tau = GH(m, l), l >= 1;
    O(a+1, b) O(a-1, b)   ~ B(tau) + (4x^2 + 2(b - 2a)) tau^2,     tau = O(a, b), a >= 1;
    O(a, b+1) O(a, b-1)   ~ B(tau) + (4x^2 + 2(a - 1 - 2b)) tau^2, tau = O(a, b), b >= 1.

The seeds are GH(m, 0) = 1, GH(m, 1) ~ H_m, and the four O(a, b) with
a, b <= 1, pseudo-Wronskians of order at most 1.  GH(0, l) is a
constant.  The O columns a = 0, 1 are built along (0, 1), then each row
along (1, 0); the direction (1, -1) fits no such step.  Each step divides
the primitive lower tau out of an integer polynomial that is a rational
multiple of the product of two primitive polynomials.  By Gauss's lemma
that multiple is an integer, so the division is exact over Z.  Adjacent
taus are coprime, so a wrong constant, which adds a multiple of tau^2,
leaves a remainder whenever the lower tau has positive degree.
pseudo_wronskian keeps the determinants for everything else, and the
tests hold the Toda-built taus to them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .hermite import hermite_poly, min_order_at, pseudo_wronskian
from .maya import MayaDiagram
from .polys import IntPoly, RatFunc

__all__ = [
    "gh_maya",
    "o_maya",
    "MayaChain",
    "three_cycle",
    "PivSolution",
    "piv_solution_gh",
    "piv_solution_o",
    "PivReport",
    "verify_piv",
    "piv_catalog",
    "MinOrderSpec",
    "min_order_gh",
    "min_order_o",
]


def gh_maya(m: int, ell: int) -> MayaDiagram:
    """Generalized-Hermite diagram: negatives plus the block [m, m + ell)."""
    if m < 0 or ell < 0:
        raise ValueError("parameters must be non-negative")
    return MayaDiagram.from_sets(range(m, m + ell))


def o_maya(ell1: int, ell2: int) -> MayaDiagram:
    """Okamoto diagram: negatives plus {3j+1 : j < ell1} and {3j+2 : j < ell2}."""
    if ell1 < 0 or ell2 < 0:
        raise ValueError("parameters must be non-negative")
    filled = {3 * j + 1 for j in range(ell1)} | {3 * j + 2 for j in range(ell2)}
    return MayaDiagram.from_sets(filled)


@dataclass(frozen=True)
class MayaChain:
    """Diagrams M_1..M_4 with single-element flips between consecutive ones."""

    diagrams: tuple
    flips: tuple        # the flipped element at each of the three steps
    shift: int          # M_4 = M_1 + shift

    def __post_init__(self):
        for cur, nxt, f in zip(self.diagrams, self.diagrams[1:], self.flips):
            expected = cur.add(f) if f not in cur else cur.remove(f)
            if nxt != expected:
                raise ValueError(f"flip {f} does not send {cur} to {nxt}")
        if self.diagrams[-1] != self.diagrams[0].shift(self.shift):
            raise ValueError("chain is not cyclic up to translation")


def three_cycle(family: str, params) -> MayaChain:
    """The translation-cyclic three-step chain seeded by a GH or O diagram.

    GH(m, ell) returns to itself shifted by 1 after adding m + ell,
    adding 0 and removing m; O(ell1, ell2) returns shifted by 3 after
    adding 3*ell1 + 1, 3*ell2 + 2 and 0.
    """
    if family == "gh":
        m, ell = params
        if m < 0 or ell < 0:
            raise ValueError("parameters must be non-negative")
        if ell == 0:
            m = 0  # every GH(m, 0) is the bare negative ray
        m1 = gh_maya(m, ell)
        if m > 0:
            flips = (m + ell, 0, m)
        elif ell > 0:
            flips = (ell, 0, 0)
        else:
            flips = (0, 0, 0)
        k = 1
    elif family == "o":
        ell1, ell2 = params
        m1 = o_maya(ell1, ell2)
        flips = (3 * ell1 + 1, 3 * ell2 + 2, 0)
        k = 3
    else:
        raise ValueError(f"unknown family {family!r}")
    diagrams = [m1]
    for f in flips:
        cur = diagrams[-1]
        diagrams.append(cur.add(f) if f not in cur else cur.remove(f))
    return MayaChain(tuple(diagrams), flips, k)


@dataclass(frozen=True)
class PivSolution:
    """Rational solution with exact parameters (a, b); y is the reduced
    fraction in the family's own variable, x = t for GH and x = t/sqrt3
    for O, where it is Y(x) = sqrt3 y(sqrt3 x)."""

    family: str
    params: tuple
    branch: int
    y: RatFunc
    a: Fraction
    b: Fraction

    def t_form(self) -> tuple:
        """(num, den) of the printed y(t) in Z[t], reduced: one pass of
        positive powers of 3, which keeps the sign of y.den's leading
        coefficient, and one division by the integer content (see the
        module docstring); ArithmeticError when an O fraction is not odd,
        since then y(t) is not in Q(t)."""
        n, d = self.y.num, self.y.den
        if self.family == "gh":
            return n, d
        if {n.parity(), d.parity()} != {0, 1}:
            raise ArithmeticError(f"{self.y!r} is not odd: no image in Z[t]")
        e = max((n.degree + 1) // 2, d.degree // 2)
        p3 = [3 ** j for j in range(e + 1)]
        num = [c * p3[e - (k + 1) // 2] for k, c in enumerate(n.coeffs)]
        den = [c * p3[e - k // 2] for k, c in enumerate(d.coeffs)]
        g = gcd(*num, *den)
        return IntPoly(c // g for c in num), IntPoly(c // g for c in den)

    def to_json(self):
        num, den = self.t_form()
        return {"family": self.family, "params": list(self.params),
                "branch": self.branch, "y": {"num": num.to_json("t"), "den": den.to_json("t")},
                "a": str(self.a), "b": str(self.b)}


# Entries of each tau memo: a catalog with parameters <= p reaches
# (p + 2)^2 taus of each family, so 256 hold p <= 14; a walk needs only the
# last four entries it visited
_TAU_MEMO_SIZE = 256


def _toda_step(tau: IntPoly, below: IntPoly, quad: int, c: int) -> IntPoly:
    """The tau after ``tau`` on its line, up to a constant:

        [tau tau'' - tau'^2 + (4 quad x^2 + c) tau^2] / below,

    primitive, with ``below`` the primitive tau before ``tau``.  The
    division is exact over Z by Gauss's lemma; InexactDivisionError when
    ``below`` does not divide, as for a wrong constant."""
    d1 = tau.derivative()
    q = tau.derivative(2) + IntPoly((c, 0, 4 * quad)) * tau
    return (tau * q - d1 * d1).divexact(below).primitive()


@functools.lru_cache(maxsize=_TAU_MEMO_SIZE)
def _gh_entry(m: int, ell: int) -> IntPoly:
    """GH(m, ell) up to a constant, primitive; the walk of _gh_tau has put
    GH(m, ell - 1) and GH(m, ell - 2) in the memo."""
    if ell == 0:
        return IntPoly.const(1)
    if ell == 1:
        return hermite_poly(m).primitive()
    # middle GH(m, ell - 1)
    return _toda_step(_gh_entry(m, ell - 1), _gh_entry(m, ell - 2), 0, -2 * (ell - 1))


def _gh_tau(m: int, ell: int) -> IntPoly:
    """The primitive part of pseudo_wronskian(gh_maya(m, ell)), by Toda
    steps up the line of fixed m."""
    for j in range(ell + 1):
        tau = _gh_entry(m, j)
    return tau


@functools.lru_cache(maxsize=_TAU_MEMO_SIZE)
def _o_entry(a: int, b: int) -> IntPoly:
    """O(a, b) up to a constant, primitive; the walk of _o_tau has put the
    two taus before it on its line in the memo."""
    if a <= 1 and b <= 1:
        return pseudo_wronskian(o_maya(a, b)).primitive()
    if a <= 1:  # along (0, 1), middle O(a, j) with j = b - 1
        j = b - 1
        return _toda_step(_o_entry(a, j), _o_entry(a, j - 1), 1, 2 * (a - 1 - 2 * j))
    i = a - 1   # along (1, 0), middle O(i, b)
    return _toda_step(_o_entry(i, b), _o_entry(i - 1, b), 1, 2 * (b - 2 * i))


def _o_tau(a: int, b: int) -> IntPoly:
    """The primitive part of pseudo_wronskian(o_maya(a, b)), by Toda steps
    up the columns a = 0, 1 to row b, then along row b."""
    cols = (a,) if a <= 1 else (0, 1)
    for j in range(b + 1):
        for i in cols:
            tau = _o_entry(i, j)
    for i in range(2, a + 1):
        tau = _o_entry(i, b)
    return tau


def _log_ratio(h0: IntPoly, hp: IntPoly) -> tuple:
    """(N, D) = (h0' hp - h0 hp', h0 hp), unreduced: (log(h0/hp))' = N/D."""
    return h0.derivative() * hp - h0 * hp.derivative(), h0 * hp


def _check_args(p1: int, p2: int, branch: int):
    if p1 < 0 or p2 < 0:
        raise ValueError("parameters must be non-negative")
    if branch not in (1, 2, 3):
        raise ValueError("branch must be 1, 2 or 3")


def _solution(family: str, params: tuple, branch: int, partner: tuple,
              a: Fraction, b: Fraction) -> PivSolution:
    """y = (log tau/tau_partner)', minus 2x for GH branch 3 and every O
    branch, as the one reduced fraction (N - 2xD)/D in Z[x]."""
    tau = _gh_tau if family == "gh" else _o_tau
    n, d = _log_ratio(tau(*params), tau(*partner))
    if family == "o" or branch == 3:
        n = n - IntPoly((0, 2)) * d
    y = RatFunc(n, d)
    if y.is_zero():
        raise ValueError(f"degenerate parameters: {family}({params[0]},{params[1]}) "
                         f"branch {branch} gives y = 0")
    return PivSolution(family, params, branch, y, a, b)


def piv_solution_gh(m: int, ell: int, branch: int) -> PivSolution:
    """GH-family solution from the Toda-built taus of _gh_tau; branch picks
    which flip of the cycle leads."""
    _check_args(m, ell, branch)
    if branch == 1:
        partner = (m, ell + 1)
        a, b = Fraction(-(1 + m + 2 * ell)), Fraction(-2 * m * m)
    elif branch == 2:
        if m == 0:
            raise ValueError("branch 2 needs m > 0")
        partner = (m - 1, ell)
        a, b = Fraction(2 * m + ell - 1), Fraction(-2 * ell * ell)
    else:
        if ell == 0:
            raise ValueError("branch 3 needs ell > 0")
        partner = (m + 1, ell - 1)
        a, b = Fraction(ell - m - 1), Fraction(-2 * (m + ell) ** 2)
    return _solution("gh", (m, ell), branch, partner, a, b)


def piv_solution_o(ell1: int, ell2: int, branch: int) -> PivSolution:
    """O-family solution Y(x) = -2x + (log tau/tau_partner)' in its own
    variable x = t/sqrt3, from the Toda-built taus of _o_tau."""
    _check_args(ell1, ell2, branch)
    if branch == 1:
        if ell1 == 0 or ell2 == 0:
            raise ValueError("branch 1 needs ell1, ell2 >= 1")
        partner = (ell1 - 1, ell2 - 1)
        a = Fraction(ell1 + ell2)
        b = Fraction(-2, 9) * (1 - 3 * ell1 + 3 * ell2) ** 2
    elif branch == 2:
        partner = (ell1 + 1, ell2)
        a = Fraction(-1 - 2 * ell1 + ell2)
        b = Fraction(-2, 9) * (2 + 3 * ell2) ** 2
    else:
        partner = (ell1, ell2 + 1)
        a = Fraction(-2 - 2 * ell2 + ell1)
        b = Fraction(-2, 9) * (1 + 3 * ell1) ** 2
    return _solution("o", (ell1, ell2), branch, partner, a, b)


@dataclass(frozen=True)
class PivReport:
    """The cleared residual of verify_piv, in the solution's own variable."""

    residual: IntPoly

    @property
    def ok(self) -> bool:
        return self.residual.is_zero()


def _norm1(p: IntPoly) -> int:
    return sum(map(abs, p.coeffs))


def _residual(n: IntPoly, d: IntPoly, lam: int, a: Fraction, b: Fraction) -> IntPoly:
    """The denominator-cleared residual of

    2 y y'' - (y')^2 - 3 y^4 - 8 L x y^3 - 4 L (L x^2 - a) y^2 - 2 L^2 b

    at y = n/d, L = lam, evaluated at one Kronecker point (see verify_piv)."""
    np_, dp = n.derivative(), d.derivative()
    npp, dpp = np_.derivative(), dp.derivative()
    la, lb = lam * a, lam * lam * b
    scale = lcm(la.denominator, lb.denominator)
    ia = la.numerator * (scale // la.denominator)
    ib = lb.numerator * (scale // lb.denominator)

    a0, a1, a2, b0, b1, b2 = map(_norm1, (n, np_, npp, d, dp, dpp))
    w_norm = a1 * b0 + a0 * b1
    bound = (scale * (2 * a0 * ((a2 * b0 + a0 * b2) * b0 + 2 * b1 * w_norm) + w_norm ** 2)
             + a0 ** 2 * (3 * scale * a0 ** 2 + 8 * lam * scale * a0 * b0
                          + 4 * (lam * lam * scale + abs(ia)) * b0 ** 2)
             + 2 * abs(ib) * b0 ** 4)
    nb = IntPoly.word_bytes(bound)
    # an odd y has an even residual, whose digits span two packing words
    stride = 2 if {n.parity(), d.parity()} == {0, 1} else 1
    # the packing word holds every input coefficient; n, d != 0, so the
    # bound is at least each of the six 1-norms and stride 1 keeps h = nb
    h = max(-(-nb // stride), IntPoly.word_bytes(max(a0, a1, a2, b0, b1, b2)))
    word = 8 * h
    N, N1, N2, D, D1, D2 = (p.pack(h) for p in (n, np_, npp, d, dp, dpp))

    w = N1 * D - N * D1
    nn, nd, dd = N * N, N * D, D * D
    quartic = (3 * scale * nn + ((8 * lam * scale * nd) << word)
               + 4 * (((lam * lam * scale * dd) << (2 * word)) - ia * dd))
    value = (N * (2 * scale * ((N2 * D - N * D2) * D - 2 * D1 * w) - N * quartic)
             - scale * w * w - 2 * ib * dd * dd)
    if value == 0:
        return IntPoly()
    # every term has degree at most 4 max(deg n, deg d) + 2
    digits = IntPoly.unpack(value, stride * h, (4 * max(n.degree, d.degree) + 2) // stride + 1)
    coeffs = [0] * (stride * len(digits.coeffs))
    coeffs[::stride] = digits.coeffs
    return IntPoly(coeffs)


def verify_piv(sol: PivSolution) -> PivReport:
    """Exact check of the denominator-cleared equation

    2 y y'' - (y')^2 - 3 y^4 - 8 L x y^3 - 4 L (L x^2 - a) y^2 - 2 L^2 b = 0

    for y = sol.y in its family's variable x: L = 1 for GH, where x = t
    and this is PIV itself, and L = 3 for O.  There y(x) = sqrt3 u(sqrt3 x)
    for the solution u(t) of PIV, so u = y/sqrt3, u' = y'/3 and
    u'' = y''/(3 sqrt3), and the equation is 9 times PIV at t = sqrt3 x:
    the residual is zero exactly when the t residual is.

    With y = n/d, w = n'd - nd' and L a, L^2 b scaled to integers a, b by
    s (on the O family 3a and 9b are integers, so s = 1), the residual is

        n (2s((n''d - nd'')d - 2d'w) - n q) - s w^2 - 2b d^4,
        q = 3s n^2 + 8Ls x nd + 4(L^2 s x^2 - a) d^2.

    It is evaluated once at x = xi = 2^(8 h), where multiplying by x is a
    shift by one word of h bytes.  The 1-norm |p| of a product is at most
    the product of the 1-norms, so every residual coefficient is at most

        s (2|n| ((|n''||d| + |n||d''|)|d| + 2|d'||w|) + |w|^2)
        + |n|^2 (3s |n|^2 + 8Ls |n||d| + 4(L^2 s + |a|) |d|^2) + 2|b| |d|^4,

    |w| = |n'||d| + |n||d'|, which fits in a word of nb bytes.

    When n and d have definite, opposite parities, y is odd: y y'', y'^2,
    y^4, x y^3 and x^2 y^2 are even, and so is d^4, so the residual is
    R(x) = sum_j r_2j x^(2j) and R(xi) = sum_j r_2j (2^(16 h))^j.  Its
    digits are then words of 2h bytes, and h = ceil(nb / 2) suffices for
    them; h is raised when needed so that every input coefficient, each
    bounded by its 1-norm, packs into one word.  Any other y keeps h = nb
    and words of h bytes.  Either way each readback word holds every
    residual coefficient, so the value at xi is zero exactly when the
    residual is, and a nonzero value is read back as the residual.
    """
    n, d = sol.y.num, sol.y.den
    if n.is_zero():
        raise ValueError("y must be nonzero")
    return PivReport(_residual(n, d, 3 if sol.family == "o" else 1, sol.a, sol.b))


def piv_catalog(max_param: int):
    """Every defined, non-degenerate solution with parameters <= max_param,
    each paired with its verification report."""
    if max_param < 0:
        raise ValueError(f"parameter bound must be non-negative: {max_param}")
    out = []
    for fam, builder in (("gh", piv_solution_gh), ("o", piv_solution_o)):
        for p1 in range(max_param + 1):
            for p2 in range(max_param + 1):
                for branch in (1, 2, 3):
                    try:
                        sol = builder(p1, p2, branch)
                    except ValueError:
                        continue
                    out.append((sol, verify_piv(sol)))
    return out


@dataclass(frozen=True)
class MinOrderSpec:
    """Smallest equivalent determinant of a GH or O diagram."""

    order: int
    origin: int
    diagram: MayaDiagram
    poly: IntPoly
    constant: Fraction    # full pseudo-Wronskian = constant * poly


def _min_order(m: MayaDiagram, order: int, origin: int) -> MinOrderSpec:
    small, constant, poly = min_order_at(m, origin, order)
    return MinOrderSpec(order, origin, small, poly, constant)


def min_order_gh(m: int, ell: int) -> MinOrderSpec:
    """Minimal order of GH(m, ell) is min(m, ell): the plain Wronskian block
    when ell <= m, an all-conjugate determinant at origin m + ell otherwise."""
    if m < 1 or ell < 1:
        raise ValueError("parameters must be >= 1")
    if ell <= m:
        return _min_order(gh_maya(m, ell), ell, 0)
    return _min_order(gh_maya(m, ell), m, m + ell)


def min_order_o(ell1: int, ell2: int) -> MinOrderSpec:
    """Minimal order of O(ell1, ell2) is max(ell1, ell2), attained at the
    origin 3 * min(ell1, ell2)."""
    if ell1 < 1 or ell2 < 1:
        raise ValueError("parameters must be >= 1")
    return _min_order(o_maya(ell1, ell2), max(ell1, ell2), 3 * min(ell1, ell2))
