"""Maya-diagram chains and the two families of rational solutions of the
fourth Painleve equation

    y'' = (y')^2/(2y) + (3/2) y^3 + 4 t y^2 + 2 (t^2 - a) y + b / y.

Each solution is a linear term plus the log-derivative of a ratio h0/hp
of two pseudo-Wronskians of the generalized-Hermite (GH) or Okamoto (O)
diagram families, whose chains of flips (``three_cycle``) are Darboux
steps (``hermite.darboux_step``), with one flip rule per family; a
solution pairs its seed with the seed's image under one of its flips, up
to translation.  Each family has its own variable: x = t
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
constant.  One bounded memo holds the Toda lines, each a list that a
read extends in place from its last two taus, so each tau is built once:
the GH lines of fixed m, the O columns a = 0, 1 along (0, 1), and the O
rows along (1, 0); (1, -1) fits no such step.  ``_line`` seeds every
line, a row b with the column taus O(0, b) and O(1, b).
Each step is one ``hermite.hirota`` pass, as 2 B(tau) = B_0(tau, tau),
and divides the primitive lower tau out of that integer polynomial, a
rational multiple of the product of two primitive polynomials.
By Gauss's lemma that multiple is an integer, so the division is exact
over Z.  Adjacent taus are coprime, so a wrong constant, which adds a
multiple of tau^2, leaves a remainder whenever the lower tau has
positive degree.
pseudo_wronskian keeps the determinants for everything else, and the
tests hold the Toda-built taus to them.

One rule, in ``_branch``, says which solutions exist.  Branches 1, 2, 3
pair GH(m, l) with GH(m, l+1), GH(m-1, l), GH(m+1, l-1), and O(a, b)
with O(a-1, b-1), O(a+1, b), O(a, b+1).  A solution exists when the
partner's parameters are non-negative and y is not zero.  GH branch 3
and every O branch carry -2x, and the log-derivative of a rational
function is never 2x, so their y is never zero.  GH branches 1 and 2
have no linear term, so their y is zero exactly when the two taus are
proportional.  Their degrees, ml and m(l+1) or (m-1)l, differ unless
both are 0, and GH(m, l) is constant exactly when m l = 0.  So
GH branch 1 needs m >= 1, branch 2 m, l >= 1, branch 3 l >= 1, and O
branch 1 a, b >= 1.  The builders raise ValueError where the rule says
no, before any tau is built, and piv_catalog skips those arguments; a
y = 0 past the rule is a broken invariant, an ArithmeticError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .hermite import MinOrderForm, hermite_poly, hirota, min_order_at, pseudo_wronskian
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
    """The diagrams M_1..M_4 from the seed M_1, each the last with one
    element flipped: added when absent, removed when present.  The chain
    must close, M_4 = M_1 + shift; ValueError otherwise."""

    seed: MayaDiagram
    flips: tuple        # the flipped element at each of the three steps
    shift: int          # M_4 = M_1 + shift

    def __post_init__(self):
        if self.diagrams[-1] != self.seed.shift(self.shift):
            raise ValueError("chain is not cyclic up to translation")

    @functools.cached_property
    def diagrams(self) -> tuple:
        out = [self.seed]
        for f in self.flips:
            out.append(out[-1].remove(f) if f in out[-1] else out[-1].add(f))
        return tuple(out)


def three_cycle(family: str, params) -> MayaChain:
    """The translation-cyclic three-step chain seeded by a GH or O diagram,
    with one flip rule per family: GH(m, ell) returns to itself shifted by
    1 after flipping m + ell, 0 and m, and O(ell1, ell2) returns shifted
    by 3 after flipping 3*ell1 + 1, 3*ell2 + 2 and 0."""
    p1, p2 = params
    if family == "gh":
        return MayaChain(gh_maya(p1, p2), (p1 + p2, 0, p1), 1)
    if family == "o":
        return MayaChain(o_maya(p1, p2), (3 * p1 + 1, 3 * p2 + 2, 0), 3)
    raise ValueError(f"unknown family {family!r}")


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


# Entries of the line memo: a catalog with parameters <= p, p >= 2, reads
# 2p + 6 lines (34 at p = 14, 38 at p = 16), so 64 hold every bound to 29
_LINE_MEMO_SIZE = 64


def _toda_step(tau: IntPoly, below: IntPoly, quad: int, c: int) -> IntPoly:
    """The primitive tau after ``tau`` on its line, from ``below``, the one
    before: [tau tau'' - tau'^2 + (4 quad x^2 + c) tau^2] / below, half of
    hirota(tau, tau, 0, -2c, -8 quad) / below; InexactDivisionError when
    ``below`` does not divide, as for a wrong constant."""
    return hirota(tau, tau, 0, -2 * c, -8 * quad).divexact(below).primitive()


@functools.lru_cache(maxsize=_LINE_MEMO_SIZE)
def _line(kind: str, k: int) -> list:
    """The primitive taus built so far on the line "gh" of GH(k, l), the O
    column "col" of O(k, b), k <= 1, or the O row "row" of O(a, k), for
    _read to extend in place; a row is seeded by the two columns."""
    if kind == "gh":
        return [IntPoly.const(1), hermite_poly(k).primitive()]
    if kind == "col":
        return [pseudo_wronskian(o_maya(k, b)).primitive() for b in (0, 1)]
    return [_read("col", a, k) for a in (0, 1)]


def _read(kind: str, k: int, n: int) -> IntPoly:
    """Entry n of the line (kind, k), built by steps from its last two
    entries, middle entry i, with the constants of the module docstring."""
    line = _line(kind, k)
    while len(line) <= n:
        i = len(line) - 1
        quad, c = (0, -2 * i) if kind == "gh" else (1, 2 * (k - (kind == "col") - 2 * i))
        line.append(_toda_step(line[i], line[i - 1], quad, c))
    return line[n]


def _gh_tau(m: int, ell: int) -> IntPoly:
    """The primitive part of pseudo_wronskian(gh_maya(m, ell))."""
    return _read("gh", m, ell)


def _o_tau(a: int, b: int) -> IntPoly:
    """The primitive part of pseudo_wronskian(o_maya(a, b)), on the column
    a when a <= 1, else on the row b."""
    return _read("col", a, b) if a <= 1 else _read("row", b, a)


def _log_ratio(h0: IntPoly, hp: IntPoly) -> tuple:
    """(N, D) = (h0' hp - h0 hp', h0 hp), unreduced: (log(h0/hp))' = N/D."""
    return h0.derivative() * hp - h0 * hp.derivative(), h0 * hp


def _branch(family: str, p1: int, p2: int, branch: int):
    """(partner, a, b) of the solution named by its arguments: the
    parameters of the partner tau and of PIV, or None where the branch has
    no solution (see the module docstring); ValueError on arguments that
    name no branch."""
    if p1 < 0 or p2 < 0:
        raise ValueError("parameters must be non-negative")
    if branch not in (1, 2, 3):
        raise ValueError("branch must be 1, 2 or 3")
    if family == "gh":
        if branch == 1:
            partner, a, b = (p1, p2 + 1), -(1 + p1 + 2 * p2), -2 * p1 * p1
        elif branch == 2:
            partner, a, b = (p1 - 1, p2), 2 * p1 + p2 - 1, -2 * p2 * p2
        else:
            partner, a, b = (p1 + 1, p2 - 1), p2 - p1 - 1, -2 * (p1 + p2) ** 2
        # branches 1 and 2 have no linear term: one of their taus must not
        # be constant, and GH(m, l) is constant exactly when m l = 0
        if branch < 3 and not (p1 * p2 or partner[0] * partner[1]):
            return None
    elif branch == 1:
        partner, a, b = (p1 - 1, p2 - 1), p1 + p2, Fraction(-2, 9) * (1 - 3 * p1 + 3 * p2) ** 2
    elif branch == 2:
        partner, a, b = (p1 + 1, p2), -1 - 2 * p1 + p2, Fraction(-2, 9) * (2 + 3 * p2) ** 2
    else:
        partner, a, b = (p1, p2 + 1), -2 - 2 * p2 + p1, Fraction(-2, 9) * (1 + 3 * p1) ** 2
    return (partner, Fraction(a), Fraction(b)) if min(partner) >= 0 else None


def _build(family: str, p1: int, p2: int, branch: int) -> PivSolution:
    """The solution of _branch's arguments; ValueError where none exists."""
    spec = _branch(family, p1, p2, branch)
    if spec is None:
        raise ValueError(f"{family}({p1},{p2}) has no branch {branch} solution")
    return _solution(family, (p1, p2), branch, *spec)


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
        raise ArithmeticError(f"{family}({params[0]},{params[1]}) branch {branch} gives y = 0")
    return PivSolution(family, params, branch, y, a, b)


def piv_solution_gh(m: int, ell: int, branch: int) -> PivSolution:
    """GH-family solution from the Toda-built taus of _gh_tau; branch picks
    which flip of the cycle leads."""
    return _build("gh", m, ell, branch)


def piv_solution_o(ell1: int, ell2: int, branch: int) -> PivSolution:
    """O-family solution Y(x) = -2x + (log tau/tau_partner)' in its own
    variable x = t/sqrt3, from the Toda-built taus of _o_tau."""
    return _build("o", ell1, ell2, branch)


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
    for fam in ("gh", "o"):
        for p1 in range(max_param + 1):
            for p2 in range(max_param + 1):
                for branch in (1, 2, 3):
                    spec = _branch(fam, p1, p2, branch)
                    if spec is not None:
                        sol = _solution(fam, (p1, p2), branch, *spec)
                        out.append((sol, verify_piv(sol)))
    return out


def min_order_gh(m: int, ell: int) -> MinOrderForm:
    """Minimal order of GH(m, ell) is min(m, ell): the plain Wronskian block
    when ell <= m, an all-conjugate determinant at origin m + ell otherwise."""
    if m < 1 or ell < 1:
        raise ValueError("parameters must be >= 1")
    if ell <= m:
        return min_order_at(gh_maya(m, ell), 0, ell)
    return min_order_at(gh_maya(m, ell), m + ell, m)


def min_order_o(ell1: int, ell2: int) -> MinOrderForm:
    """Minimal order of O(ell1, ell2) is max(ell1, ell2), attained at the
    origin 3 * min(ell1, ell2)."""
    if ell1 < 1 or ell2 < 1:
        raise ValueError("parameters must be >= 1")
    return min_order_at(o_maya(ell1, ell2), 3 * min(ell1, ell2), max(ell1, ell2))
