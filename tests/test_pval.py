"""Differential oracle for the integer core of alcalc.pval: FracPVal below
holds a + b*sqrt(p) as two Fractions, the form the package used before it
moved to integers (A, B, D), and every operation of the package's PVal is
compared with it on seeded random elements, including elements with p in
a denominator and elements with b != 0."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest

from alcalc.pval import INF, PVal


def _vp(x: Fraction, p: int) -> Fraction:
    if x == 0:
        return INF
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return Fraction(v)


@dataclass(frozen=True)
class FracPVal:
    """a + b*sqrt(p), exact, over two Fractions."""

    a: Fraction
    b: Fraction
    p: int

    @staticmethod
    def of(x, p: int) -> "FracPVal":
        return FracPVal(Fraction(x), Fraction(0), p)

    @staticmethod
    def sqrt_p(p: int, mult=1) -> "FracPVal":
        return FracPVal(Fraction(0), Fraction(mult), p)

    def _chk(self, o: "FracPVal") -> None:
        if self.p != o.p:
            raise ValueError("mixing scalars over different primes")

    def __add__(self, o: "FracPVal") -> "FracPVal":
        self._chk(o)
        return FracPVal(self.a + o.a, self.b + o.b, self.p)

    def __sub__(self, o: "FracPVal") -> "FracPVal":
        self._chk(o)
        return FracPVal(self.a - o.a, self.b - o.b, self.p)

    def __neg__(self) -> "FracPVal":
        return FracPVal(-self.a, -self.b, self.p)

    def __mul__(self, o: "FracPVal") -> "FracPVal":
        self._chk(o)
        return FracPVal(self.a * o.a + self.b * o.b * self.p, self.a * o.b + self.b * o.a, self.p)

    def __truediv__(self, o: "FracPVal") -> "FracPVal":
        return self * o.inverse()

    def inverse(self) -> "FracPVal":
        den = self.a * self.a - self.b * self.b * self.p
        if den == 0:
            raise ZeroDivisionError("inverse of 0")
        return FracPVal(self.a / den, -self.b / den, self.p)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def valuation(self) -> Fraction:
        return min(_vp(self.a, self.p), _vp(self.b, self.p) + Fraction(1, 2))

    def is_unit(self) -> bool:
        return (not self.is_zero()) and self.valuation() == 0

    def is_integral(self) -> bool:
        return self.is_zero() or self.valuation() >= 0

    def residue(self) -> int:
        if self.is_zero():
            return 0
        v = self.valuation()
        if v < 0:
            raise ValueError("residue of a non-integral scalar")
        if v > 0:
            return 0
        num, den = self.a.numerator, self.a.denominator
        return (num * pow(den, -1, self.p)) % self.p

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        return f"({self.a} + {self.b}*sqrt({self.p}))"


PRIMES = (2, 3, 5, 53, 2**31 - 1)


def _rational(rng: random.Random, p: int) -> Fraction:
    """A small rational, often zero, often with a power of p on either side."""
    if rng.random() < 0.15:
        return Fraction(0)
    num = rng.randrange(-30, 31) * p ** rng.choice((0, 0, 1, 2))
    den = rng.randrange(1, 12) * p ** rng.choice((0, 0, 0, 1, 2))
    return Fraction(num, den)


def _pair(rng: random.Random, p: int) -> tuple[PVal, FracPVal]:
    """One element in both forms, built through the public constructors and
    a ring operation, so a non-canonical form would show."""
    a, b = _rational(rng, p), _rational(rng, p) if rng.random() < 0.6 else Fraction(0)
    return PVal.of(a, p) + PVal.sqrt_p(p, b), FracPVal.of(a, p) + FracPVal.sqrt_p(p, b)


def _same(x: PVal, y: FracPVal) -> None:
    assert (x.a, x.b, x.p) == (y.a, y.b, y.p)
    assert x.D > 0 and x.D == lcm(x.a.denominator, x.b.denominator) and x.A == x.a * x.D and x.B == x.b * x.D
    assert repr(x) == repr(y)


def _outcome(f):
    try:
        return f()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p", PRIMES)
def test_matches_fraction_oracle(p):
    rng = random.Random(p)
    for _ in range(400):
        (x, fx), (y, fy) = _pair(rng, p), _pair(rng, p)
        for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t):
            _same(op(x, y), op(fx, fy))
        _same(-x, -fx)
        for div in (lambda s, t: s / t, lambda s, t: t.inverse()):
            got, want = _outcome(lambda: div(x, y)), _outcome(lambda: div(fx, fy))
            if isinstance(want, FracPVal):
                _same(got, want)
            else:
                assert got == want
        for name in ("is_zero", "valuation", "is_unit", "is_integral", "residue"):
            assert _outcome(getattr(x, name)) == _outcome(getattr(fx, name)), name
        assert (x == y) == (fx == fy)
        if not fy.is_zero():
            # the same value reached through other denominators is equal
            # and hashes equal
            z = (x * y) / y
            assert z == x and hash(z) == hash(x) and len({x, z}) == 1


def test_equal_values_are_equal_scalars():
    # one value reached along different denominators has one form
    p = 5
    third = PVal.of(Fraction(1, 3), p)
    x = third + third + third
    assert x == PVal.one(p) and hash(x) == hash(PVal.one(p)) and (x.A, x.B, x.D) == (1, 0, 1)
    y = PVal.sqrt_p(p, Fraction(1, 6)) * PVal.of(6, p)
    assert y == PVal.sqrt_p(p) and len({y, PVal.sqrt_p(p)}) == 1
    assert PVal.of(Fraction(1, 2), p) + PVal.sqrt_p(p, Fraction(1, 2)) != PVal.of(Fraction(1, 2), p)
    assert PVal.one(p) != PVal.one(7)


def test_mixed_primes_refused():
    for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t):
        with pytest.raises(ValueError, match="different primes"):
            op(PVal.one(5), PVal.one(7))


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        PVal.zero(3).inverse()
    with pytest.raises(ZeroDivisionError):
        PVal.one(3) / PVal.zero(3)
