"""
Exact scalars with p-adic valuation: elements a + b*sqrt(p) with a, b
rational.  Rationals alone would suffice for extremal charts, but points
of a colength-one chart lying on both components of its special fiber
only exist after a ramified quadratic base change, so the half-integer
valuation lattice is built in from the start.

A scalar is held as three integers (A, B, D) with a = A/D, b = B/D, D > 0
and gcd(A, B, D) = 1.  That form is unique, so == and hash compare the
integers.  Sums of scalars with one denominator skip the cross products,
a product is a few integer products and one gcd (no gcd when both
denominators are 1, no sqrt(p) terms when both b vanish), and the
inverse divides by the norm A^2 - p*B^2, which is nonzero for nonzero
scalars because p is not a square.

Valuations are Fractions with denominator 1 or 2; val(a + b sqrt(p)) =
min(v_p(a), v_p(b) + 1/2), which is unambiguous since the two candidates
never coincide.  On the integers that is min(v_p(A), v_p(B) + 1/2) -
v_p(D).  A scalar is integral exactly when p does not divide D: if p | D,
the gcd condition leaves p prime to A or to B, and the valuation is
negative.  `a` and `b` are read-only Fraction views.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

INF = Fraction(10**9)  # valuation of 0


def _order(m: int, p: int) -> int:
    """The exponent of p in the nonzero integer m."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _reduced(A: int, B: int, D: int, p: int) -> "PVal":
    """(A + B*sqrt(p)) / D for D > 0, in lowest terms."""
    g = gcd(A, B, D)
    if g != 1:
        return PVal(A // g, B // g, D // g, p)
    return PVal(A, B, D, p)


class PVal:
    """a + b*sqrt(p) = (A + B*sqrt(p)) / D, exact; immutable by convention.
    The constructor takes the reduced form (D > 0, gcd(A, B, D) = 1)."""

    __slots__ = ("A", "B", "D", "p")

    def __init__(self, A: int, B: int, D: int, p: int):
        self.A = A
        self.B = B
        self.D = D
        self.p = p

    @staticmethod
    def of(x, p: int) -> "PVal":
        if type(x) is int:
            return PVal(x, 0, 1, p)
        x = Fraction(x)
        return PVal(x.numerator, 0, x.denominator, p)

    @staticmethod
    def sqrt_p(p: int, mult=1) -> "PVal":
        m = Fraction(mult)
        return PVal(0, m.numerator, m.denominator, p)

    @staticmethod
    def zero(p: int) -> "PVal":
        return PVal(0, 0, 1, p)

    @staticmethod
    def one(p: int) -> "PVal":
        return PVal(1, 0, 1, p)

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    def __add__(self, o: "PVal") -> "PVal":
        p = self.p
        if o.p != p:
            raise ValueError("mixing scalars over different primes")
        D = self.D
        if D == o.D:
            if D == 1:
                return PVal(self.A + o.A, self.B + o.B, 1, p)
            return _reduced(self.A + o.A, self.B + o.B, D, p)
        return _reduced(self.A * o.D + o.A * D, self.B * o.D + o.B * D, D * o.D, p)

    def __sub__(self, o: "PVal") -> "PVal":
        p = self.p
        if o.p != p:
            raise ValueError("mixing scalars over different primes")
        D = self.D
        if D == o.D:
            if D == 1:
                return PVal(self.A - o.A, self.B - o.B, 1, p)
            return _reduced(self.A - o.A, self.B - o.B, D, p)
        return _reduced(self.A * o.D - o.A * D, self.B * o.D - o.B * D, D * o.D, p)

    def __neg__(self) -> "PVal":
        return PVal(-self.A, -self.B, self.D, self.p)

    def __mul__(self, o: "PVal") -> "PVal":
        p = self.p
        if o.p != p:
            raise ValueError("mixing scalars over different primes")
        A1, B1, A2, B2 = self.A, self.B, o.A, o.B
        if B1 or B2:
            A, B = A1 * A2 + B1 * B2 * p, A1 * B2 + B1 * A2
        else:
            A, B = A1 * A2, 0
        D = self.D * o.D
        if D == 1:
            return PVal(A, B, 1, p)
        return _reduced(A, B, D, p)

    def __truediv__(self, o: "PVal") -> "PVal":
        return self * o.inverse()

    def inverse(self) -> "PVal":
        A, B, D = self.A, self.B, self.D
        norm = A * A - B * B * self.p
        if norm == 0:
            raise ZeroDivisionError("inverse of 0")
        if norm < 0:
            return _reduced(-D * A, D * B, -norm, self.p)
        return _reduced(D * A, -D * B, norm, self.p)

    def __eq__(self, o: object) -> bool:
        if not isinstance(o, PVal):
            return NotImplemented
        return self.A == o.A and self.B == o.B and self.D == o.D and self.p == o.p

    def __hash__(self) -> int:
        return hash((self.A, self.B, self.D, self.p))

    def is_zero(self) -> bool:
        return not self.A and not self.B

    def valuation(self) -> Fraction:
        A, B, p = self.A, self.B, self.p
        if not A and not B:
            return INF
        if not B:
            twice = 2 * _order(A, p)
        elif not A:
            twice = 2 * _order(B, p) + 1
        else:
            twice = min(2 * _order(A, p), 2 * _order(B, p) + 1)
        return Fraction(twice - 2 * _order(self.D, p), 2)

    def is_unit(self) -> bool:
        return self.D % self.p != 0 and self.A % self.p != 0

    def is_integral(self) -> bool:
        return self.D % self.p != 0

    def residue(self) -> int:
        """Image in the residue field F_p (for integral scalars)."""
        p = self.p
        if self.D % p == 0:
            raise ValueError("residue of a non-integral scalar")
        return self.A * pow(self.D, -1, p) % p

    def __repr__(self) -> str:
        if not self.B:
            return f"{self.a}"
        return f"({self.a} + {self.b}*sqrt({self.p}))"
