"""
Prime fields F_p with elements encoded as the integers 0..p-1.
"""

from __future__ import annotations

from functools import lru_cache


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class GF:
    """Arithmetic in F_p on int-encoded elements; `q` is the field size,
    which equals `p`."""

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"{q} is not prime: only prime fields are supported")
        self.q = q
        self.p = q

    def __repr__(self) -> str:
        return f"GF({self.q})"

    # -- field operations --------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF")
        return pow(a, -1, self.p)

    def from_int(self, m: int) -> int:
        """Image of the rational integer m in F_p."""
        return m % self.p

    def rand(self, rng) -> int:
        return rng.randrange(self.q)

    def rand_unit(self, rng) -> int:
        return rng.randrange(1, self.q)


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    """The prime field F_q; raises ValueError when q is not prime."""
    return GF(q)


class FElem:
    """Object wrapper around an int-encoded element, for generic code
    (polynomial solvers) that wants operator syntax.  Hot loops stay on
    the raw-int API."""

    __slots__ = ("F", "a")

    def __init__(self, F: GF, a: int):
        self.F = F
        self.a = a % F.q

    def __add__(self, o: "FElem") -> "FElem":
        return FElem(self.F, self.F.add(self.a, o.a))

    def __sub__(self, o: "FElem") -> "FElem":
        return FElem(self.F, self.F.sub(self.a, o.a))

    def __neg__(self) -> "FElem":
        return FElem(self.F, self.F.neg(self.a))

    def __mul__(self, o: "FElem") -> "FElem":
        return FElem(self.F, self.F.mul(self.a, o.a))

    def inverse(self) -> "FElem":
        return FElem(self.F, self.F.inv(self.a))

    def is_zero(self) -> bool:
        return self.a == 0

    def __eq__(self, o: object) -> bool:
        return isinstance(o, FElem) and o.a == self.a and o.F is self.F

    def __hash__(self) -> int:
        return hash((id(self.F), self.a))

    def __repr__(self) -> str:
        return f"{self.a}"
