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
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return Series(self.F, other.val, other.coeffs, prec)
        if not other.coeffs:
            return Series(self.F, self.val, self.coeffs, prec)
        # sum raw ints and reduce each overlapping coefficient once; the
        # constructor cuts the sum back to the precision window
        lo = min(self.val, other.val)
        a = [0] * (self.val - lo) + self.coeffs
        b = [0] * (other.val - lo) + other.coeffs
        if len(a) < len(b):
            a, b = b, a
        q = self.F.q
        cs = [(x + y) % q for x, y in zip(a, b)]
        return Series(self.F, lo, cs + a[len(b) :], prec)

    def neg(self) -> "Series":
        q = self.F.q
        return Series(self.F, self.val, [-c % q for c in self.coeffs], self.prec)

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
        # Kronecker substitution: pack each operand into one int with slots
        # wide enough that no coefficient of the product (a sum of at most
        # min(len) products of residues in 0..q-1) carries into the next,
        # take one big-int product and unpack it
        a, b = self.coeffs[:out_len], other.coeffs[:out_len]
        q = F.q
        w = 2 * (q - 1).bit_length() + min(len(a), len(b)).bit_length()
        pa = pb = 0
        for c in reversed(a):
            pa = pa << w | c
        for c in reversed(b):
            pb = pb << w | c
        prod = pa * pb
        mask = (1 << w) - 1
        return Series(F, lo, [(prod >> s & mask) % q for s in range(0, w * out_len, w)], prec)

    def scale(self, c: int) -> "Series":
        F = self.F
        if c == 0:
            return Series.zero(F, self.prec + self.val if not self.coeffs else self.prec)
        q = F.q
        return Series(F, self.val, [c * a % q for a in self.coeffs], self.prec)

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
