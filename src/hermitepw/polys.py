"""Exact univariate polynomials over Z and reduced ratios of two of them.

Polynomials are dense integer-coefficient lists, index = degree, with the
zero polynomial canonically represented by an empty coefficient tuple.
Everything here is exact: no floats enter at any point.

One Kronecker point serves two jobs.  A polynomial whose coefficients
are balanced digits, each of absolute size below ``xi / 2``, is packed into
its value at ``xi = 2^(8 * nb)`` and read back from it exactly
(``IntPoly.pack`` / ``IntPoly.unpack``).  Packing and unpacking are linear
in the total bit length: each coefficient becomes one byte-aligned word,
the words are joined by one ``int.from_bytes``, and a value is read back by
one ``int.to_bytes`` cut into word slices.

* ``poly_gcd`` is GCDHEU (Char, Geddes & Gonnet 1989): one integer gcd of
  the two values at ``xi``, read back as a candidate that is accepted only
  after it divides both inputs exactly.  The primitive polynomial remainder
  sequence is the fallback when a few growing ``xi`` all fail.
* ``painleve.verify_piv`` evaluates its whole residual at one point and
  reads a nonzero value back as the residual polynomial.  For an odd
  solution the residual is even, so it packs at ``xi = 2^(8 * h)`` with
  ``h`` about half the residual's word and reads the value back in words
  of ``2 * h`` bytes, one per even coefficient.

Multiplication and division run on plain coefficient lists, through
kernels that ``IntPoly.__mul__``, ``divmod`` and ``divexact`` share with
``determinant.det``.  Every product (``_mul``) is the schoolbook loop:
``_scale``, one comprehension, when a factor is a constant, and otherwise
``_mac``, one multiply-accumulate loop over the nonzero
``(index, coefficient)`` pairs (``_pairs``) of both factors, so the zero
coefficients of either side cost nothing.  Every pseudo-Wronskian has
definite parity, so half the words of a packed product would be such
zeros; multiplication takes no Kronecker path.  ``_divmod`` is the one
division loop; it divides by a constant with one comprehension and a
multiply-back check, and by the constant 1 not at all.  Division that
does not come out exact raises ``InexactDivisionError``, an
``ArithmeticError``: it signals a broken invariant, never bad input.
"""

from __future__ import annotations

import math

__all__ = [
    "InexactDivisionError",
    "IntPoly",
    "RatFunc",
    "poly_gcd",
    "count_real_roots",
]


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _pairs(coeffs):
    """The (index, coefficient) pairs of the nonzero coefficients."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


def _scale(coeffs, c):
    """Coefficient list of a polynomial times the integer c."""
    return [c * x for x in coeffs]


def _mac(out, pa, pb):
    """Add the product of two polynomials, given as nonzero pairs, into the
    coefficient list out, which must be long enough to hold it."""
    for i, x in pa:
        for j, y in pb:
            out[i + j] += x * y


def _mul(a, b):
    """Coefficient list of the product of two nonzero trimmed coefficient
    sequences."""
    if len(a) == 1:
        return _scale(b, a[0])
    if len(b) == 1:
        return _scale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    _mac(out, _pairs(a), _pairs(b))
    return out


def _word_bytes(bound):
    """Bytes per Kronecker word: every value of absolute size <= bound
    lies in [-half, half) with half = 2^(8 * bytes - 1)."""
    return bound.bit_length() // 8 + 1


def _packed_half(nb, n):
    half = 1 << (8 * nb - 1)
    return int.from_bytes(half.to_bytes(nb, "little") * n, "little")


def _pack(coeffs, nb):
    # Biased by half, a coefficient in [-half, half) is one unsigned word,
    # so packing is one join and one from_bytes; the packed bias is then
    # subtracted once.
    half = 1 << (8 * nb - 1)
    words = b"".join((c + half).to_bytes(nb, "little") for c in coeffs)
    return int.from_bytes(words, "little") - _packed_half(nb, len(coeffs))


def _unpack(value, nb, n):
    # Adding a packed half makes every balanced digit a non-negative word,
    # so unpacking is one to_bytes cut into word slices.  It overflows
    # exactly when value has no n-digit balanced expansion.
    half = 1 << (8 * nb - 1)
    try:
        raw = (value + _packed_half(nb, n)).to_bytes(nb * n, "little")
    except OverflowError:
        raise ArithmeticError("Kronecker unpacking left a carry: word size too small") from None
    return [int.from_bytes(raw[i:i + nb], "little") - half for i in range(0, len(raw), nb)]


class InexactDivisionError(ArithmeticError):
    """An exact division over Z[x] left a remainder or a fractional
    quotient coefficient."""


def _divmod(a, b):
    """Quotient and remainder coefficient lists of a by the nonzero trimmed
    b over Z; InexactDivisionError when a quotient coefficient is not an
    integer.  The remainder is not trimmed."""
    db = len(b) - 1
    lead = b[-1]
    if not db:
        if lead == 1:
            return list(a), []
        q = [c // lead for c in a]
        if [lead * c for c in q] != list(a):
            raise InexactDivisionError("inexact division by a constant over Z")
        return q, []
    if len(a) <= db:
        return [], list(a)
    a = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + db]
        if not c:
            continue
        c, rem = divmod(c, lead)
        if rem:
            raise InexactDivisionError("inexact polynomial division over Z")
        q[i] = c
        # a[i + db] cancels by construction; only the lower terms move
        for j in range(db):
            a[i + j] -= c * b[j]
    return q, a[:db]


def _divexact(a, b):
    """Quotient coefficient list of a by the nonzero trimmed b, which must
    divide a exactly over Z[x]; InexactDivisionError otherwise."""
    q, r = _divmod(a, b)
    if any(r):
        raise InexactDivisionError("polynomial division left a remainder")
    return q


class IntPoly:
    """Dense univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(tuple(coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls((int(c),))

    @classmethod
    def _trimmed(cls, coeffs):
        """The polynomial of a tuple already trimmed, taken without a copy;
        a trimmed polynomial times a nonzero integer stays trimmed."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    # -- basic structure ----------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial (acts as the -infinity sentinel)."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _trim((other,))
        return NotImplemented

    def __hash__(self):
        # a constant equals its integer, so it hashes as one
        c = self.coeffs
        return hash(c) if len(c) > 1 else hash(c[0] if c else 0)

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    # -- ring operations ----------------------------------------------

    # Operands other than IntPoly and int return NotImplemented, so Python
    # raises a TypeError that names the operator written.

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        elif not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        elif not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            return IntPoly._trimmed(tuple([c * other for c in self.coeffs]))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        return IntPoly(_mul(a, b))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent of a polynomial")
        out = IntPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def derivative(self, order=1):
        if order < 0:
            raise ValueError(f"derivative order must be non-negative: {order}")
        c = self.coeffs
        for _ in range(order):
            c = tuple(i * c[i] for i in range(1, len(c)))
        return IntPoly(c)

    # -- division -----------------------------------------------------

    def divmod(self, other):
        """Euclidean division; requires the remainder steps to stay integral."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.coeffs, other.coeffs)
        return IntPoly(q), IntPoly(r)

    def divexact(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return IntPoly(_divexact(self.coeffs, other.coeffs))

    # -- content, gcd helpers ------------------------------------------

    def content(self):
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def primitive(self):
        """Primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPoly(tuple(c // g for c in self.coeffs))

    # -- the Kronecker point -------------------------------------------

    # bytes per Kronecker word that hold every value of absolute size <= bound
    word_bytes = staticmethod(_word_bytes)

    def pack(self, nb):
        """Value at x = 2^(8 * nb); every coefficient must lie in
        [-2^(8 * nb - 1), 2^(8 * nb - 1))."""
        return _pack(self.coeffs, nb)

    @classmethod
    def unpack(cls, value, nb, n):
        """The polynomial of n balanced digits in [-2^(8 * nb - 1), 2^(8 * nb - 1))
        whose value at x = 2^(8 * nb) is value; ArithmeticError when there
        is none."""
        return cls(_unpack(value, nb, n))

    def parity(self):
        """0 if even, 1 if odd, None if mixed (zero counts as even)."""
        degs = {i & 1 for i, c in enumerate(self.coeffs) if c}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    # -- formatting ------------------------------------------------------

    def pretty(self, var="x"):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpow = var if i == 1 else f"{var}^{i}"
                body = xpow if mag == 1 else f"{mag}{xpow}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"

    def to_json(self, var="x"):
        return {"var": var, "coeffs": [str(c) for c in self.coeffs]}


def _pseudo_rem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a  mod  b, over Z."""
    da, db = a.degree, b.degree
    lead = b.leading
    r = a * (lead ** (da - db + 1))
    _, rem = r.divmod(b)
    return rem


# GCDHEU evaluation points tried before the remainder sequence takes over;
# each try doubles the word, so a spurious integer factor of the two values
# becomes ever smaller against xi
_GCDHEU_TRIES = 3


def _divides(h, p):
    try:
        return p.divmod(h)[1].is_zero()
    except InexactDivisionError:
        return False


def _gcdheu(a, b):
    """gcd of primitive a, b by GCDHEU, or None when every try fails.

    At xi >= 2 * min(|a|_inf, |b|_inf) + 2 the primitive part h of the
    balanced xi-adic digits of gcd(a(xi), b(xi)) is gcd(a, b) if and only
    if h divides both a and b (Char, Geddes & Gonnet 1989).  The word holds
    both inputs, so xi = 2^(8 * nb) is at least twice the larger norm plus
    2; the balanced digits of a value fit in n words once xi^n >= 4 * value.
    """
    nb = _word_bytes(max(map(abs, a.coeffs + b.coeffs)))
    for _ in range(_GCDHEU_TRIES):
        value = math.gcd(a.pack(nb), b.pack(nb))
        h = IntPoly.unpack(value, nb, (value.bit_length() + 1) // (8 * nb) + 1).primitive()
        if h.degree <= 0:
            return IntPoly.const(1)
        if _divides(h, a) and _divides(h, b):
            return h
        nb *= 2
    return None


def _prs_gcd(a, b):
    """gcd of primitive a, b via the primitive polynomial remainder sequence."""
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive()
    return a.primitive()


def poly_gcd(a, b):
    """gcd over Z[x]: GCDHEU on the primitive parts, the primitive remainder
    sequence when the heuristic fails; positive leading coefficient, times
    the gcd of the contents."""
    if a.is_zero():
        return b.primitive() if not b.is_zero() else IntPoly()
    if b.is_zero():
        return a.primitive()
    cg = math.gcd(a.content(), b.content())
    a, b = a.primitive(), b.primitive()
    g = _gcdheu(a, b)
    if g is None:
        g = _prs_gcd(a, b)
    return g * cg


def _sign_changes(signs):
    signs = [s for s in signs if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)


def count_real_roots(p):
    """Number of distinct real roots, by Sturm's theorem (exact)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    p = p.divexact(poly_gcd(p, p.derivative())) if p.degree > 0 else p
    if p.degree == 0:
        return 0
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        r = _pseudo_rem(chain[-2], chain[-1])
        # keep signs faithful: pseudo-remainder scales by lc^k which may
        # flip sign when lc < 0 and k is odd
        lead = chain[-1].leading
        k = chain[-2].degree - chain[-1].degree + 1
        if lead < 0 and k % 2:
            r = -r
        # dividing by the positive content keeps every sign and stops the
        # coefficients from growing exponentially along the chain
        g = r.content()
        chain.append(IntPoly(tuple(-c // g for c in r.coeffs)) if g else r)
    if chain[-1].is_zero():
        chain.pop()
    at_plus = [q.leading for q in chain]
    at_minus = [q.leading * (-1) ** q.degree for q in chain]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


class RatFunc:
    """Reduced ratio of two integer polynomials: the value of a PIV solution
    and of ``xhermite.apply_T_lambda``.

    Canonical form: no common polynomial factor, coprime integer contents,
    denominator nonzero with positive leading coefficient.  The constructor
    reduces once: one division by ``poly_gcd``, which carries the gcd of the
    contents, so the contents left are coprime; then the sign.  Equal values
    have equal parts, so equality compares parts and holds only between
    RatFuncs.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = IntPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = self._reduce(num, den)

    @staticmethod
    def _reduce(num, den):
        if num.is_zero():
            return IntPoly(), IntPoly.const(1)
        g = poly_gcd(num, den)
        if g.degree > 0 or g.leading != 1:
            num = num.divexact(g)
            den = den.divexact(g)
        if den.leading < 0:
            num, den = -num, -den
        return num, den

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    # The only arithmetic kept: perfbench/checks.py::check_xh forms
    # apply_T_lambda(lam, P) - eigenvalue * RatFunc(P), eigenvalue an int.
    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return RatFunc(self.num * k, self.den)

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"
