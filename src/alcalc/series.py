"""
Truncated Laurent series over a prime field.

A series carries (valuation, coefficient list, precision): coefficients
are known exactly for degrees val .. prec-1 and unknown from prec on.
Precision propagates pessimistically; any operation that would need an
unknown coefficient raises InsufficientPrecisionError instead of guessing.
"""

from __future__ import annotations

from .gf import GF


class InsufficientPrecisionError(ArithmeticError):
    pass


class Series:
    """Laurent series sum(coeffs[i] * v^(val+i)), exact below `prec`."""

    __slots__ = ("F", "val", "coeffs", "prec")

    def __init__(self, F: GF, val: int, coeffs: list[int], prec: int):
        # normalize: strip leading zeros, clamp to precision window
        coeffs = list(coeffs)  # never mutate the caller's list
        i = 0
        n = len(coeffs)
        while i < n and coeffs[i] == 0:
            i += 1
        if i:
            val += i
            coeffs = coeffs[i:]
        if val + len(coeffs) > prec:
            coeffs = coeffs[: max(0, prec - val)]
            # re-strip in case truncation exposed zeros
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            val = prec  # zero to precision
        self.F = F
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(F: GF, prec: int) -> "Series":
        return Series(F, prec, [], prec)

    @staticmethod
    def one(F: GF, prec: int) -> "Series":
        return Series(F, 0, [1], prec)

    @staticmethod
    def monomial(F: GF, c: int, d: int, prec: int) -> "Series":
        return Series(F, d, [c], prec)

    @staticmethod
    def from_coeffs(F: GF, pairs: dict[int, int], prec: int) -> "Series":
        if not pairs:
            return Series.zero(F, prec)
        lo = min(pairs)
        hi = max(pairs)
        cs = [0] * (hi - lo + 1)
        for d, c in pairs.items():
            cs[d - lo] = c % F.q
        return Series(F, lo, cs, prec)

    # -- queries -------------------------------------------------------------
    def is_zero(self) -> bool:
        """Zero to working precision."""
        return not self.coeffs

    def coeff(self, d: int) -> int:
        if d >= self.prec:
            raise InsufficientPrecisionError(f"coefficient of v^{d} beyond precision {self.prec}")
        if d < self.val or d >= self.val + len(self.coeffs):
            return 0
        return self.coeffs[d - self.val]

    def is_unit(self) -> bool:
        return bool(self.coeffs) and self.val == 0

    def __eq__(self, other: object) -> bool:
        """Equality of the overlapping known window (pessimistic)."""
        if not isinstance(other, Series):
            return NotImplemented
        p = min(self.prec, other.prec)
        lo = min(self.val, other.val)
        for d in range(lo, p):
            if self.coeff(d) != other.coeff(d):
                return False
        return True

    def __hash__(self):
        raise TypeError("Series is unhashable (precision-windowed equality)")

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"O(v^{self.prec})"
        terms = [f"{c}*v^{self.val + i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) + f" + O(v^{self.prec})"

    # -- arithmetic ----------------------------------------------------------
    def add(self, other: "Series") -> "Series":
        F = self.F
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return Series(F, other.val, other.coeffs[:], prec)
        if not other.coeffs:
            return Series(F, self.val, self.coeffs[:], prec)
        lo = min(self.val, other.val)
        hi = min(prec, max(self.val + len(self.coeffs), other.val + len(other.coeffs)))
        cs = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            d = self.val + i
            if d < hi:
                cs[d - lo] = c
        add = F.add
        for i, c in enumerate(other.coeffs):
            d = other.val + i
            if d < hi:
                cs[d - lo] = add(cs[d - lo], c)
        return Series(F, lo, cs, prec)

    def neg(self) -> "Series":
        F = self.F
        return Series(F, self.val, [F.neg(c) for c in self.coeffs], self.prec)

    def sub(self, other: "Series") -> "Series":
        return self.add(other.neg())

    def mul(self, other: "Series") -> "Series":
        F = self.F
        if not self.coeffs or not other.coeffs:
            # 0 * x: valuation of the zero side is >= its prec
            if not self.coeffs:
                prec = min(self.prec + (other.val if other.coeffs else other.prec), other.prec + self.prec)
            else:
                prec = min(other.prec + self.val, self.prec + other.prec)
            return Series.zero(F, prec)
        prec = min(self.prec + other.val, other.prec + self.val)
        lo = self.val + other.val
        out_len = min(len(self.coeffs) + len(other.coeffs) - 1, prec - lo)
        if out_len <= 0:
            return Series.zero(F, prec)
        # accumulate raw products and reduce each coefficient once
        out = [0] * out_len
        bs = other.coeffs
        for i, a in enumerate(self.coeffs[:out_len]):
            if a == 0:
                continue
            for j, b in enumerate(bs[: out_len - i], i):
                if b:
                    out[j] += a * b
        q = F.q
        return Series(F, lo, [c % q for c in out], prec)

    def scale(self, c: int) -> "Series":
        F = self.F
        if c == 0:
            return Series.zero(F, self.prec + self.val if not self.coeffs else self.prec)
        return Series(F, self.val, [F.mul(c, a) for a in self.coeffs], self.prec)

    def shift(self, d: int) -> "Series":
        """Multiply by v^d."""
        return Series(self.F, self.val + d, self.coeffs[:], self.prec + d)

    def inverse(self) -> "Series":
        """Inverse; requires a known leading coefficient.  Absolute precision
        drops by twice the valuation (standard pessimistic rule)."""
        if not self.coeffs:
            raise InsufficientPrecisionError("inverse of zero-to-precision series")
        F = self.F
        v = self.val
        rel = self.prec - v  # known-window length; trailing input coeffs are exact zeros
        a0 = self.coeffs[0]
        inv0 = F.inv(a0)
        out = [0] * rel
        out[0] = inv0
        # power-series inversion of the unit part
        neg = F.neg
        mul = F.mul
        add = F.add
        for d in range(1, rel):
            acc = 0
            for k in range(1, d + 1):
                ak = self.coeffs[k] if k < len(self.coeffs) else 0
                if ak:
                    acc = add(acc, mul(ak, out[d - k]))
            out[d] = mul(neg(acc), inv0)
        return Series(F, -v, out, self.prec - 2 * v)

    def derivative(self) -> "Series":
        F = self.F
        out: dict[int, int] = {}
        for i, c in enumerate(self.coeffs):
            d = self.val + i
            if d != 0 and c:
                out[d - 1] = F.mul(F.from_int(d), c)
        return Series.from_coeffs(F, out, self.prec - 1)
