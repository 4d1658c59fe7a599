"""
Prime fields F_p with elements encoded as the integers 0..p-1.
"""

from __future__ import annotations

from functools import lru_cache


# The first 13 primes.  As strong-pseudoprime bases they decide primality
# exactly below PRIME_BOUND = psi_13 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin test; raises ValueError for m >= PRIME_BOUND,
    where these bases no longer decide."""
    if m >= PRIME_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_BOUND}, got {m}")
    if m < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
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
