"""Hermite and conjugate Hermite polynomials, pseudo-Wronskians, and the
exact shift-equivalence constants between them.

H_n and th_n = i^-n H_n(ix) are built from their closed form (DLMF
18.5.13) by one generator, which gives each family its own bounded memo
keyed by n alone: a request builds only the index it asks for, with no
table of the indices below it and no lock.

The pseudo-Wronskian of a labelled diagram with Frobenius symbol
(s_1..s_p | t_1..t_q), both descending, is the (p+q) x (p+q) determinant
whose top block has rows (th_{s_i}, th_{s_i+1}, ..., th_{s_i+p+q-1}) for
s_1..s_p in that order, and whose bottom block has rows
(H_t, D H_t, ..., D^{p+q-1} H_t) for t = t_q (smallest) up to t_1.
All signs downstream are pinned to this row ordering.

A diagram with no element at or above the origin (q = 0, "s-only") has
the plain Wronskian of th_{s_1}, ..., th_{s_p} as its pseudo-Wronskian,
with the same rows in the same order.  Since th_{n+1} = 2x th_n + th_n',
th_{s+j} = A^j th_s with A = 2x + D = e^{-x^2} D e^{x^2}; so with
g_i = e^{x^2} th_{s_i},

    det[A^j th_{s_i}] = det[e^{-x^2} D^j g_i] = e^{-p x^2} Wr[g_i]
                      = e^{-p x^2} e^{p x^2} Wr[th_{s_i}] = Wr[th_{s_i}],

whatever the s_i.  Its rows D^j th_s = 2^j s!/(s-j)! th_{s-j}, like the
rows D^j H_t of the defining matrix, vanish for j > s and hold a constant
at j = s, so ``det`` expands along the rows of small s before it
eliminates, wherever those s fall.  ``_derivative_row`` builds each row
of either family once per (family, n, width), under a bounded memo.
``pure_conjugate_wronskian`` reads these rows, and
``_direct_pseudo_wronskian`` evaluates every s-only diagram through it;
every other diagram takes the determinant of ``pseudo_wronskian_matrix``,
which stays the defining matrix.

Shifting the origin rescales the determinant by an explicit nonzero
rational.  With

    eps_i   = (-1)^#{m not in M : m < i} * prod_{m in M, m > i} (2m - 2i)
    gamma_i = (-1)^#{m in M : m > i}   * prod_{m not in M, m < i} (2m - 2i)
    E_k = {m in M : 0 <= m < k},  G_k = {m not in M : 0 <= m < k}

the exact identity for k > 0 is

    (prod_{i in G_k} gamma_i) * H_M  =  (prod_{i in E_k} eps_i) * H_{M-k},

i.e. H_M = ratio * H_{M-k} with ratio = prod(eps) / prod(gamma).  The
one-step constants are the classical Wronskian reduction factors.

``pseudo_wronskian`` uses the identity as its evaluation path: it takes
the determinant at the smallest origin found by
``minorder.minimal_girth_of_diagram`` (memoised per minimal diagram, so
one entry serves every shift of it) and rescales it exactly.
``min_order_at`` checks a claimed minimal origin against one such search
and rescales from the same smallest origin.  It returns a
``MinOrderForm``, the one record of a polynomial at minimal order
(H = scalar * pseudo_wronskian(diagram)) that the PIV and exceptional
Hermite layers return too.  The checks ``verify_equivalence``,
``one_step_shift_check`` and ``conjugate_wronskian_identity`` take the
determinants at their own orders instead (the Wronskian form for s-only
diagrams), all in one way: the last two are ``verify_equivalence`` at
k = +-1 and on a standard diagram.  No determinant here has rows built by
derivative chains: that definition of the Wronskian is the tests' oracle.
``verify_equivalence`` may read a side at its smallest minimal-girth
origin from the memo, which holds that side's direct determinant, but
never a rescaled one; so the identity is always tested against
determinants it did not produce.

Adding one element t >= 0 to a diagram B adds one row to its matrix, so
the Laplace expansion along that row gives

    H_{B u {t}} = sum_j (-1)^(i+j) D^j H_t * C_j(B),

where i is the row of t in the defining row order and the cofactor C_j(B)
is the minor of B's defining rows, widened to |B| + 1 columns, with column
j deleted.  The C_j depend on B alone: ``pseudo_wronskian_with`` computes
them once per B with ``det`` behind a bounded memo, and D^j H_t =
2^j t!/(t-j)! H_{t-j} vanishes for j > t.  Every member of an exceptional
Hermite family above its corners has the same B at its minimal origin, so
there a member costs a few products of a small cofactor with H_{t-j} and
no determinant.

Flipping one element of M is one rational Darboux step.  ``hirota`` is its
polynomial form B_eps(f, g) - (c + c2 x^2) f g, B_eps(f, g) =
(D^2 + 2 eps x D) f.g, as a second-order operator on f in one banded pass;
the even x^2 term serves the Okamoto Toda steps.  ``darboux_constants``
holds a step's closed-form eps, eigenvalue and c, which ``darboux_step``
and ``xhermite.eigen_check`` both read.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from fractions import Fraction

from .determinant import det
from .maya import MayaDiagram, Partition
from .minorder import minimal_girth_of_diagram
from .polys import IntPoly, _divexact, _mac, _pairs, _scale

__all__ = [
    "hermite_poly",
    "conj_hermite_poly",
    "pseudo_wronskian_matrix",
    "pseudo_wronskian",
    "MinOrderForm",
    "min_order_at",
    "pseudo_wronskian_with",
    "pure_conjugate_wronskian",
    "EquivalenceFactor",
    "equivalence_factor",
    "EquivalenceReport",
    "verify_equivalence",
    "conjugate_wronskian_identity",
    "one_step_shift_check",
    "hirota",
    "darboux_constants",
    "DarbouxStep",
    "darboux_step",
]


# Entries of each Hermite memo, keyed by n.  One pass of a benchmark
# workload from empty memos (seeds 7 and 11) reads 30-33 indices of H and
# 35-38 of th on shift_sweep and at most 7 on catalog.  xh_ladder reads 146
# distinct indices of H in ascending order: they fill the memo, but no
# evicted index is read again.
_HERMITE_MEMO_SIZE = 128


def _hermite_memo(sign):
    """A memo of H_n for sign = -1, of th_n = i^-n H_n(ix) for sign = +1
    (n >= 0), keyed by n alone.

    Closed form (DLMF 18.5.13): the coefficient of x^(n-2m) is
    sign^m n! 2^(n-2m) / (m! (n-2m)!).  From 2^n at the top, each next
    coefficient is the last times sign (n-2m+2)(n-2m+1) / (4m), exactly.
    """
    @functools.lru_cache(maxsize=_HERMITE_MEMO_SIZE)
    def family(n):
        coeffs = [0] * (n + 1)
        c = coeffs[n] = 1 << n
        for m in range(1, n // 2 + 1):
            k = n - 2 * m
            c = sign * c * (k + 2) * (k + 1) // (4 * m)
            coeffs[k] = c
        return IntPoly(coeffs)

    return family


_hermite_h = _hermite_memo(-1)
_hermite_th = _hermite_memo(+1)


def hermite_poly(n):
    """H_n, degree n, leading coefficient 2^n."""
    if n < 0:
        raise ValueError(f"Hermite index must be non-negative: {n}")
    return _hermite_h(n)


def conj_hermite_poly(n):
    """th_n = i^-n H_n(ix): all coefficients non-negative."""
    if n < 0:
        raise ValueError(f"conjugate Hermite index must be non-negative: {n}")
    return _hermite_th(n)


# Entries of the derivative-row memo, keyed by (family, n, width).  One
# shift_sweep pass reads 323-347 distinct rows (seeds 7-101), about 0.7 MB;
# 512 holds them all, where 256 rebuilds some.
_ROW_MEMO_SIZE = 512


@functools.lru_cache(maxsize=_ROW_MEMO_SIZE)
def _derivative_row(family, n, width):
    """(D^j P_n for j < width) for P = H or th (``family`` is its memo):
    D^j P_n = 2^j n!/(n-j)! P_{n-j}, zero for j > n; the factor scales the
    memoised P_{n-j}, with no derivative chain, and the scaled tuple, still
    trimmed, is wrapped as it is by ``IntPoly._trimmed``.  The row is an
    immutable tuple, built only up to ``width``; a caller that needs a list
    copies it."""
    row, c = [], 1
    for j in range(min(width, n + 1)):
        row.append(IntPoly._trimmed(tuple([c * x for x in family(n - j).coeffs])))
        c *= 2 * (n - j)
    return tuple(row) + (IntPoly(),) * (width - len(row))


def _defining_rows(m: MayaDiagram, width):
    """The defining rows of m, in their order, over ``width`` columns."""
    rows = []
    for s in m.s:  # descending
        rows.append([conj_hermite_poly(s + j) for j in range(width)])
    for t in reversed(m.t):  # ascending: smallest t first
        rows.append(_derivative_row(_hermite_h, t, width))
    return rows


def pseudo_wronskian_matrix(m: MayaDiagram):
    """Rows of the defining determinant for the labelled diagram m."""
    return _defining_rows(m, m.girth)


def _direct_pseudo_wronskian(m: MayaDiagram) -> IntPoly:
    """The pseudo-Wronskian of m at its own order: the Wronskian of its
    th_s when m is s-only, else the defining determinant.  The shift
    checks below use it, so they never test the rescaling with itself."""
    if not m.t:
        return pure_conjugate_wronskian(m)
    return det(pseudo_wronskian_matrix(m))


# Entries of the minimal-determinant memo, keyed by the minimal diagram, so
# every shift of a diagram reaches the same entry.  One pass from an empty
# memo (seeds 7 and 11) reads 116-117 minimal diagrams on shift_sweep, 11
# on xh_ladder and 4 on catalog.
_MIN_DET_MEMO_SIZE = 256

_minimal_determinant = functools.lru_cache(maxsize=_MIN_DET_MEMO_SIZE)(_direct_pseudo_wronskian)


def _from_smallest_origin(m: MayaDiagram, k: int) -> IntPoly:
    """H_M = (eps / gamma) * H_{M-k}, where k is M's smallest minimal-girth
    origin and H_{M-k} comes from the memo, in one exact division that
    raises InexactDivisionError, an ArithmeticError, on a remainder."""
    h = _minimal_determinant(m.shift(-k))
    if k == 0:
        return h
    fac = equivalence_factor(m, k)
    return IntPoly(_divexact(_scale(h.coeffs, fac.eps_product), (fac.gamma_product,)))


def pseudo_wronskian(m: MayaDiagram) -> IntPoly:
    """The exact pseudo-Wronskian polynomial of a labelled diagram.

    Evaluated at minimal order: H_M = (eps / gamma) * H_{M-k} for the
    smallest minimal-girth origin k, with the exact constants of
    ``equivalence_factor``.  The empty diagram gives 1 (empty
    determinant).  Degree equals the size of the underlying partition.
    """
    # the smallest origin: those of M - j are those of M less j, so every
    # shift of M reaches the same minimal diagram and memo entry
    return _from_smallest_origin(m, minimal_girth_of_diagram(m)[1][0])


@dataclass(frozen=True)
class MinOrderForm:
    """A polynomial at minimal order: it equals scalar * poly, where poly is
    the pseudo-Wronskian of ``diagram``, the diagram shifted to ``origin``,
    whose girth ``order`` is minimal."""

    origin: int
    order: int
    diagram: MayaDiagram
    scalar: Fraction
    poly: IntPoly

    def to_json(self):
        return {"origin": self.origin, "frobenius": str(self.diagram),
                "order": self.order, "scalar": str(self.scalar),
                "poly": self.poly.to_json()}


def min_order_at(m: MayaDiagram, origin: int, order: int) -> MinOrderForm:
    """The form of H_M at a claimed minimal-girth ``origin`` of M at girth
    ``order``: scalar = ratio with H_M = ratio * H_{M-origin}.  A claim the
    minimal-girth search does not confirm raises ArithmeticError; the same
    search gives the smallest origin that H_{M-origin} is rescaled from."""
    r, origins = minimal_girth_of_diagram(m)
    if r != order or origin not in origins:
        raise ArithmeticError(f"{m}: minimal girth {r} at origins {origins}, "
                              f"not {order} at {origin}")
    small = m.shift(-origin)
    return MinOrderForm(origin, order, small, equivalence_factor(m, origin).ratio,
                        _from_smallest_origin(small, origins[0] - origin))


# Entries of the cofactor memo: one base diagram serves every member of an
# exceptional Hermite family above its corners.  One xh_ladder pass from
# empty memos (seeds 7 and 11) makes 3 misses, one per family, and 94 hits,
# so it uses 3 of the 16 entries
_COFACTOR_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_COFACTOR_MEMO_SIZE)
def _cofactors(b: MayaDiagram):
    """C_j(B) for j = 0..|B|: the minor of B's defining rows, widened to
    |B| + 1 columns, with column j deleted."""
    rows = _defining_rows(b, b.girth + 1)
    return tuple(det([r[:j] + r[j + 1:] for r in rows]) for j in range(b.girth + 1))


def pseudo_wronskian_with(b: MayaDiagram, t: int) -> IntPoly:
    """H_{B u {t}} for t >= 0 not in B, by Laplace expansion along the row
    of t:

        H_{B u {t}} = sum_j (-1)^(i+j) D^j H_t * C_j(B),

    with i the row of t in the defining row order and C_j(B) the memoised
    cofactors of ``_cofactors``.  D^j H_t = 2^j t!/(t-j)! H_{t-j} vanishes
    for j > t; the factor scales the small cofactor, never H_{t-j}.
    """
    if t < 0 or t in b:
        raise ValueError(f"{t} is negative or already in {b}")
    i = len(b.s) + sum(1 for v in b.t if v < t)
    cofactors = _cofactors(b)[:t + 1]
    # the term j has degree at most deg C_j + t - j
    out = [0] * (max(len(cof.coeffs) for cof in cofactors) + t)
    c = 1
    for j, cof in enumerate(cofactors):
        if j:
            c *= 2 * (t - j + 1)
        if cof:
            sign = -1 if (i + j) & 1 else 1
            _mac(out, _pairs(_scale(cof.coeffs, sign * c)), _pairs(_hermite_h(t - j).coeffs))
    return IntPoly(out)


def pure_conjugate_wronskian(m: MayaDiagram) -> IntPoly:
    """For a diagram with no filled boxes right of the origin, the
    pseudo-Wronskian equals the plain Wronskian of th_{s_1}, ..., th_{s_p}.

    Its rows are D^j th_s = 2^j s!/(s-j)! th_{s-j}, zero for j > s.
    """
    if m.t:
        raise ValueError("diagram has filled boxes at or above the origin")
    return det([_derivative_row(_hermite_th, s, len(m.s)) for s in m.s])


# -- shift equivalence -------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceFactor:
    """Exact shift constant: H_M = ratio * H_{M-k}."""

    k: int
    eps_product: int
    gamma_product: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.eps_product, self.gamma_product)


def equivalence_factor(m: MayaDiagram, k: int) -> EquivalenceFactor:
    """Constant relating the pseudo-Wronskians of M and M - k, exactly.

    For k > 0 the window products are evaluated directly on M; k < 0 is
    reduced to the positive case on M - k with the ratio inverted; k = 0
    is the identity.
    """
    k = int(k)
    if k == 0:
        return EquivalenceFactor(0, 1, 1)
    if k < 0:
        inv = equivalence_factor(m.shift(-k), -k)
        return EquivalenceFactor(k, inv.gamma_product, inv.eps_product)

    # One pass over the window: the holes below i grow by each hole passed,
    # and the elements above i are a suffix of the ascending t.
    t_asc = sorted(m.t)
    filled_set = set(m.t)
    holes_below = [-v - 1 for v in m.s]  # ascending
    eps_prod = gamma_prod = 1
    for i in range(k):
        above = t_asc[bisect.bisect_right(t_asc, i):]
        if i in filled_set:
            term = -1 if len(holes_below) % 2 else 1
            for e in above:
                term *= 2 * e - 2 * i
            eps_prod *= term
        else:
            term = -1 if len(above) % 2 else 1
            for h in holes_below:
                term *= 2 * h - 2 * i
            gamma_prod *= term
            holes_below.append(i)
    if eps_prod == 0 or gamma_prod == 0:
        raise ArithmeticError("degenerate zero factor: some 2m - 2i vanished")
    return EquivalenceFactor(k, eps_prod, gamma_prod)


@dataclass(frozen=True)
class EquivalenceReport:
    diagram: MayaDiagram
    k: int
    factor: EquivalenceFactor
    h_m: IntPoly
    h_shifted: IntPoly
    match: bool

    @property
    def constant(self) -> Fraction:
        return self.factor.ratio

    def to_json(self):
        return {
            "M": str(self.diagram),
            "k": self.k,
            "constant": str(self.factor.ratio),
            "match": self.match,
            "lhs_degree": self.h_m.degree,
        }


def _direct_side(m: MayaDiagram, smallest: int) -> IntPoly:
    """H_M as the direct determinant at M's own order, where ``smallest``
    is M's smallest minimal-girth origin.  At 0 it is read through
    ``_minimal_determinant``, which holds exactly that determinant; any
    other M is computed and kept out of the memo."""
    if smallest == 0:
        return _minimal_determinant(m)
    return _direct_pseudo_wronskian(m)


def verify_equivalence(m: MayaDiagram, k: int) -> EquivalenceReport:
    """Compute H_M and H_{M-k} as direct determinants, each at its own
    order, and check the scalar identity."""
    fac = equivalence_factor(m, k)
    # the minimal-girth origins of M - k are those of M less k, so one
    # search places both sides
    smallest = minimal_girth_of_diagram(m)[1][0]
    h_m = _direct_side(m, smallest)
    h_sh = _direct_side(m.shift(-k), smallest - k)
    ok = h_m * fac.gamma_product == h_sh * fac.eps_product
    return EquivalenceReport(m, k, fac, h_m, h_sh, ok)


def conjugate_wronskian_identity(lam: Partition):
    """Exact constant c with Wr[H_{m_1..m_ell}] = c * Wr[th_{m'_1..m'_ell'}],
    both argument lists ascending; verified by two direct determinants.

    The standard diagram of lam is the first Wronskian, rows ascending.
    Sliding the origin past its top element reaches the all-conjugate
    diagram, whose hole distances are the standard indices of the
    conjugate partition and whose rows are descending; ``verify_equivalence``
    checks that shift, and the row-reversal sign of the ell' = lam_1 rows
    folds into c and the second side.  Returns (ok, c, lhs, rhs).
    """
    std = MayaDiagram.from_partition(lam)
    report = verify_equivalence(std, std.t[0] + 1 if std.t else 0)
    ellp = lam.part(1)
    reversal = (-1) ** (ellp * (ellp - 1) // 2)
    return report.match, report.constant * reversal, report.h_m, reversal * report.h_shifted


def one_step_shift_check(m: MayaDiagram, direction: str):
    """One-step reduction constants, verified by direct determinants.

    direction='down' requires 0 in M and checks
        H_M = (-1)^p 2^(q-1) (t_1 ... t_{q-1}) H_{M-1};
    direction='up' requires -1 not in M and checks
        H_M = (-1)^(p+q-1) 2^(p-1) (s_1 ... s_{p-1}) H_{M+1}.
    The check is ``verify_equivalence`` at k = 1 or -1, whose report must
    match and carry this constant.  Returns (ok, constant).
    """
    p, q = len(m.s), len(m.t)
    if direction == "down":
        if 0 not in m:
            raise ValueError("down step requires a filled box at the origin")
        c = (-1) ** p * 2 ** (q - 1)
        for t in m.t[:-1]:  # all but t_q = 0
            c *= t
        k = 1
    elif direction == "up":
        if -1 in m:
            raise ValueError("up step requires a hole just below the origin")
        c = (-1) ** (p + q - 1) * 2 ** (p - 1)
        for s in m.s[:-1]:  # all but s_p = 0
            c *= s
        k = -1
    else:
        raise ValueError(f"direction must be 'down' or 'up': {direction!r}")
    report = verify_equivalence(m, k)
    return report.match and report.constant == c, c


# -- Darboux steps -----------------------------------------------------------


def hirota(f: IntPoly, g: IntPoly, eps: int, c: int = 0, c2: int = 0) -> IntPoly:
    """B_eps(f, g) - (c + c2 x^2) f g, where
    B_eps(f, g) = (f'' + 2 eps x f') g - 2 f' g' + (g'' - 2 eps x g') f
    is the Hirota form (D^2 + 2 eps x D) f.g of one Darboux step.

    It is evaluated as a second-order operator on f,

        g f'' + (2 eps x g - 2 g') f' + (g'' - 2 eps x g' - (c + c2 x^2) g) f,

    in one banded pass.  With a0, a1, a2 the three factors above, built
    from g once, the term f_i x^i contributes
    f_i x^(i-2) (i (i-1) a0 + i x a1 + x^2 a2).  So each nonzero f_i meets
    one short band of small integers, and the zero coefficients of a
    definite-parity f (or band) are skipped; c2 = 0 adds no band entry.
    """
    fc, gc = f.coeffs, g.coeffs
    if not fc or not gc:
        return IntPoly()
    # index j of each list holds the coefficient of x^j in a0, x a1, x^2 a2
    width = len(gc) + (4 if c2 else 2)
    a0, a1, a2 = list(gc) + [0] * (width - len(gc)), [0] * width, [0] * width
    for k, gk in enumerate(gc):
        a1[k] -= 2 * k * gk
        a1[k + 2] += 2 * eps * gk
        a2[k] += k * (k - 1) * gk
        a2[k + 2] -= (2 * eps * k + c) * gk
    if c2:
        a2[4:] = [b2 - c2 * gk for b2, gk in zip(a2[4:], gc)]
    band = [(j, b0, b1, b2) for j, (b0, b1, b2) in enumerate(zip(a0, a1, a2))
            if b0 or b1 or b2]
    # out[m] holds x^(m - 2); m < 2 is reached only by terms that vanish
    out = [0] * (len(fc) + width - 1)
    for i, fi in enumerate(fc):
        if fi:
            ii = i * (i - 1)
            for j, b0, b1, b2 in band:
                out[i + j] += fi * (ii * b0 + i * b1 + b2)
    return IntPoly(out[2:])


def darboux_constants(m: MayaDiagram, flip: int) -> tuple:
    """(eps, eigenvalue, constant) of flipping ``flip`` in M: the closed
    forms of the ``DarbouxStep`` fields."""
    eps = 1 if flip in m else -1
    eigenvalue = 2 * flip + 1
    return eps, eigenvalue, 2 * (len(m.t) - len(m.s)) - eps - eigenvalue


@dataclass(frozen=True)
class DarbouxStep:
    """The flip M -> M' as a Darboux step: B_eps(H_M', H_M) = constant H_M' H_M."""

    diagram: MayaDiagram
    flip: int
    eps: int            # +1 when flip leaves M, -1 when it joins M
    eigenvalue: int     # 2 flip + 1
    constant: int       # 2(|t| - |s|) - eps - eigenvalue, t and s of M
    residual: IntPoly   # B_eps(H_M', H_M) - constant H_M' H_M

    @property
    def ok(self) -> bool:
        return self.residual.is_zero()


def darboux_step(m: MayaDiagram, flip: int) -> DarbouxStep:
    """Verify that flipping ``flip`` in M is an exact Darboux step.

    With U_M = x^2 - 2 (log H_M)'' + 2(|t| - |s|) and
    f = eps x + (log H_M'/H_M)', the step is U_M = f' + f^2 + eigenvalue
    (then U_M' = -f' + f^2 + eigenvalue, as the offsets differ by eps).
    Cleared of denominators that is B_eps(H_M', H_M) = constant H_M' H_M,
    with the constants of ``darboux_constants``; a nonzero residual raises.
    """
    eps, eigenvalue, c = darboux_constants(m, flip)
    partner = m.remove(flip) if eps == 1 else m.add(flip)
    residual = hirota(pseudo_wronskian(partner), pseudo_wronskian(m), eps, c)
    if not residual.is_zero():
        raise ArithmeticError(f"flipping {flip} in {m} is not a Darboux step "
                              f"with eps = {eps}, constant {c}")
    return DarbouxStep(m, flip, eps, eigenvalue, c, residual)
