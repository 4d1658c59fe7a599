"""
Truncated Laurent series over a prime field.

A series carries (valuation, coefficient list, precision): coefficients
are known exactly for degrees val .. prec-1 and unknown from prec on.
Precision propagates pessimistically; any operation that would need an
unknown coefficient raises InsufficientPrecisionError instead of guessing.

Only a zero can be exact: its precision is EXACT (infinity), so it bounds
no precision, and a product with it is again an exact zero.  A zero to
finite precision, O(v^k), is unknown from v^k on.
"""

from __future__ import annotations

import sys
from array import array

from .gf import GF

# the typed Kronecker slots, narrowest first: (bits, array typecode)
_SLOTS = tuple((array(code).itemsize * 8, code) for code in "HIQ")

EXACT = float("inf")  # the precision of an exact zero


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
        elif prec == EXACT:
            raise ValueError("only a zero can be exact")
        self.F = F
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(F: GF, prec: int = EXACT) -> "Series":
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

    def is_exact_zero(self) -> bool:
        return self.prec == EXACT

    def coeff(self, d: int) -> int:
        if d >= self.prec:
            raise InsufficientPrecisionError(f"coefficient of v^{d} beyond precision {self.prec}")
        if d < self.val or d >= self.val + len(self.coeffs):
            return 0
        return self.coeffs[d - self.val]

    def is_unit(self) -> bool:
        """Whether the constant term is a unit; a series zero to precision
        <= 0 does not know its constant term, so that raises."""
        if not self.coeffs and self.prec <= 0:
            raise InsufficientPrecisionError(f"unit test of O(v^{self.prec}): constant term unknown")
        return bool(self.coeffs) and self.val == 0

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0" if self.prec == EXACT else f"O(v^{self.prec})"
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

    def mul(self, other: "Series") -> "Series":
        return Series.dot(self.F, ((self, other),))

    @staticmethod
    def dot(F: GF, pairs) -> "Series":
        """sum(x*y for x, y in pairs), with the value, valuation and
        precision of x0.mul(y0).add(x1.mul(y1))...

        The precision is the least prec(x) + val(y), prec(y) + val(x) over
        the pairs (a zero has val = prec, so an exact zero bounds none).
        Kronecker substitution: each operand, cut to the known window of
        the sum, is packed into one int with one slot per coefficient,
        every product is shifted to its valuation and added into one int,
        and each output coefficient is reduced mod q once.  A slot holds a sum
        of at most (sum of the shorter operand lengths) products of
        residues in 0..q-1, so no slot carries into the next.  Slots of
        16, 32 or 64 bits are packed and unpacked as typed arrays; wider
        slots (q above about 2^27) by shift and mask.
        """
        prec = None
        nonzero = []
        for x, y in pairs:
            p = x.prec + y.val
            r = y.prec + x.val
            if r < p:
                p = r
            if prec is None or p < prec:
                prec = p
            if x.coeffs and y.coeffs:
                nonzero.append((x.val + y.val, x.coeffs, y.coeffs))
        # cut every product to the window of the sum; low is the least
        # valuation, span the end of the longest product and short the
        # most products that land in one slot
        terms = []
        low = span = None
        short = 0
        for lo, a, b in nonzero:
            cut = prec - lo
            if cut <= 0:
                continue
            a, b = a[:cut], b[:cut]
            la, lb = len(a), len(b)
            short += la if la < lb else lb
            end = lo + la + lb - 1
            if low is None:
                low, span = lo, end
            else:
                if lo < low:
                    low = lo
                if end > span:
                    span = end
            terms.append((lo, a, b))
        if low is None:
            return Series.zero(F, prec)
        span -= low
        out_len = prec - low
        if span < out_len:
            out_len = span
        q = F.q
        bits = 2 * (q - 1).bit_length() + short.bit_length()
        for size, code in _SLOTS:
            if bits <= size:
                # typed slots: pack and unpack as native arrays of bytes
                order = sys.byteorder
                acc = 0
                for lo, a, b in terms:
                    pa = int.from_bytes(array(code, a).tobytes(), order)
                    pb = int.from_bytes(array(code, b).tobytes(), order)
                    acc += (pa * pb) << (size * (lo - low))
                slots = memoryview(acc.to_bytes(span * size // 8, order)).cast(code)
                return Series(F, low, [c % q for c in slots[:out_len].tolist()], prec)
        # a slot wider than 64 bits: shift and mask
        acc = 0
        for lo, a, b in terms:
            pa = pb = 0
            for c in reversed(a):
                pa = pa << bits | c
            for c in reversed(b):
                pb = pb << bits | c
            acc += (pa * pb) << (bits * (lo - low))
        mask = (1 << bits) - 1
        return Series(F, low, [(acc >> s & mask) % q for s in range(0, bits * out_len, bits)], prec)

    def scale(self, c: int) -> "Series":
        F = self.F
        if c == 0:
            return Series.zero(F)
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
