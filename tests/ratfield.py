"""The field Q(x) on top of the library's reduced ``RatFunc``: the test oracle.

The library keeps ``RatFunc`` as one reduced value, built once per result.
The field operations below rebuild a result the long way, one reduction
per operation, so the tests can compare the two.  Integers, Fractions and
``IntPoly`` values coerce into ``Rat``; equality stays between ratios, so
compare against ``Rat.of(c)`` for a constant.
"""

from fractions import Fraction

from hermitepw.polys import IntPoly, RatFunc

from conftest import eval_at, poly_from_json


class Rat(RatFunc):
    """A ``RatFunc`` with field arithmetic, derivatives and evaluation."""

    __slots__ = ()

    @classmethod
    def of(cls, v):
        if isinstance(v, Rat):
            return v
        if isinstance(v, RatFunc):
            return cls(v.num, v.den)
        if isinstance(v, IntPoly):
            return cls(v)
        if isinstance(v, (int, Fraction)):
            q = Fraction(v)
            return cls(IntPoly.const(q.numerator), IntPoly.const(q.denominator))
        raise TypeError(f"cannot coerce {type(v)!r} to Rat")

    def __add__(self, other):
        other = Rat.of(other)
        return Rat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return Rat(-self.num, self.den)

    def __sub__(self, other):
        return self + (-Rat.of(other))

    def __mul__(self, other):
        other = Rat.of(other)
        return Rat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Rat.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return Rat(self.num * other.den, self.den * other.num)

    def derivative(self):
        n, d = self.num, self.den
        return Rat(n.derivative() * d - n * d.derivative(), d * d)

    def log_derivative(self):
        """(log f)' = f'/f; multiplicative constants drop out."""
        if self.is_zero():
            raise ZeroDivisionError("log-derivative of zero")
        n, d = self.num, self.den
        return Rat(n.derivative() * d - n * d.derivative(), n * d)

    def eval_at(self, x):
        d = eval_at(self.den, x)
        if d == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return Fraction(eval_at(self.num, x), d)

    @classmethod
    def from_json(cls, obj):
        return cls(poly_from_json(obj["num"]), poly_from_json(obj["den"]))


def log_diff(h_num, h_den):
    """(log(h_num/h_den))' as a reduced ratio."""
    return Rat(h_num.derivative() * h_den - h_num * h_den.derivative(), h_num * h_den)


def at_t_over_sqrt3(h):
    """3^(d/2) h(t/sqrt3) for h of degree d: coefficient c_k becomes
    c_k 3^((d-k)/2), integral because h has definite parity.  The O-family
    taus in t, for the determinant-side oracle of the printed y(t)."""
    if h.parity() is None:
        raise ArithmeticError(f"mixed parity: {h} has no integral image at t/sqrt3")
    d = h.degree
    return IntPoly(c * 3 ** ((d - k) // 2) for k, c in enumerate(h.coeffs))
