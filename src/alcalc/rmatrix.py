"""
Exact matrices of polynomials in v over the p-valuation scalars, used for
integral (characteristic-zero) chart lifts: the monodromy certificate over
the integers and the Frobenius-minor functions with their exact p-adic
valuations.

Membership in the (v+p)-adic integral Lie algebra is decided exactly: a
v-polynomial (or v-Laurent) expression lies in O[[v+p]] iff it has no
v-pole at all and every coefficient is p-integral, and (v+p)-denominators
must divide exactly (synthetic division, remainder checked).
"""

from __future__ import annotations

from .cofactor import Cofactors, Matrix
from .pval import PVal


class VPoly:
    """Polynomial in v with PVal coefficients (index = degree)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: list[PVal]):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.p = p
        self.coeffs = coeffs

    @staticmethod
    def zero(p: int) -> "VPoly":
        return VPoly(p, [])

    @staticmethod
    def const(p: int, c: PVal) -> "VPoly":
        return VPoly(p, [c])

    def is_zero(self) -> bool:
        return not self.coeffs

    is_exact_zero = is_zero  # a polynomial has no unknown tail

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> PVal:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return PVal.zero(self.p)

    def add(self, o: "VPoly") -> "VPoly":
        n = max(len(self.coeffs), len(o.coeffs))
        return VPoly(self.p, [self.coeff(d) + o.coeff(d) for d in range(n)])

    def neg(self) -> "VPoly":
        return VPoly(self.p, [-c for c in self.coeffs])

    def mul(self, o: "VPoly") -> "VPoly":
        if not self.coeffs or not o.coeffs:
            return VPoly.zero(self.p)
        out = [PVal.zero(self.p)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return VPoly(self.p, out)

    def scale(self, c: PVal) -> "VPoly":
        return VPoly(self.p, [a * c for a in self.coeffs])

    def derivative(self) -> "VPoly":
        return VPoly(self.p, [self.coeffs[d] * PVal.of(d, self.p) for d in range(1, len(self.coeffs))])

    def eval0(self) -> PVal:
        return self.coeff(0)

    def divide_v_plus_p(self) -> tuple["VPoly", PVal]:
        """(quotient, remainder) for division by the monic (v + p):
        synthetic division at the root v = -p."""
        if not self.coeffs:
            return VPoly.zero(self.p), PVal.zero(self.p)
        root = PVal.of(-self.p, self.p)
        m = len(self.coeffs) - 1
        qq = [PVal.zero(self.p)] * m
        run = self.coeffs[m]
        for d in range(m - 1, -1, -1):
            qq[d] = run
            run = self.coeffs[d] + run * root
        return VPoly(self.p, qq), run

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*v^{d}" for d, c in enumerate(self.coeffs) if not c.is_zero())


class PMatrix(Matrix):
    """n x n matrix of VPoly entries over the prime p."""

    __slots__ = ("p", "rows")

    def __init__(self, p: int, rows: list[list[VPoly]]):
        self.p = p
        self.rows = rows

    @staticmethod
    def identity(p: int, n: int) -> "PMatrix":
        return PMatrix(p, [[VPoly.const(p, PVal.one(p)) if i == k else VPoly.zero(p) for k in range(n)] for i in range(n)])

    def _like(self, rows: list[list[VPoly]]) -> "PMatrix":
        return PMatrix(self.p, rows)

    def det(self) -> VPoly:
        return Cofactors(self.rows).det()

    def adjugate(self) -> "PMatrix":
        if self.n == 1:
            return PMatrix.identity(self.p, 1)
        return PMatrix(self.p, Cofactors(self.rows).adjugate())

    def diag_mod_v(self) -> list[PVal]:
        return [self.rows[i][i].eval0() for i in range(self.n)]


def nabla_certify(A: PMatrix, a: tuple[int, ...], det_vp_order: int) -> dict:
    """Exact check of the integral monodromy condition
    E = (v+p)(v dA/dv A^{-1} + A a A^{-1}) in Lie(O[[v+p]]), upper
    triangular mod v.  det(A) must be a unit multiple of (v+p)^{det_vp_order}
    (checked).  Returns a report dict with "ok" and failure details."""
    p = A.p
    n = A.n
    det = A.det()
    # det = gamma * (v+p)^h exactly
    q = det
    for _ in range(det_vp_order):
        q, r = q.divide_v_plus_p()
        if not r.is_zero():
            return {"ok": False, "reason": "determinant is not divisible by the expected (v+p) power"}
    if q.degree() != 0 or q.eval0().is_zero() or not q.eval0().is_unit():
        return {"ok": False, "reason": f"determinant unit part is not a unit scalar: {q!r}"}
    gamma_inv = q.eval0().inverse()
    adj = A.adjugate()
    # N = (v A' + A a) adj(A);  E = gamma^{-1} N / (v+p)^{h-1}
    amat = PMatrix(p, [[VPoly.const(p, PVal.of(a[i], p)) if i == k else VPoly.zero(p) for k in range(n)] for i in range(n)])
    vA1 = PMatrix(p, [[e.derivative().mul(VPoly(p, [PVal.zero(p), PVal.one(p)])) for e in row] for row in A.rows])
    N = vA1.add(A.mul(amat)).mul(adj)
    E = []
    for i in range(n):
        row = []
        for k in range(n):
            e = N.rows[i][k]
            for _ in range(det_vp_order - 1):
                e, r = e.divide_v_plus_p()
                if not r.is_zero():
                    return {"ok": False, "reason": f"E[{i}][{k}] has a (v+p) pole", "entry": (i, k)}
            row.append(e.scale(gamma_inv))
        E.append(row)
    for i in range(n):
        for k in range(n):
            if not E[i][k].is_integral():
                return {"ok": False, "reason": f"E[{i}][{k}] has a non-integral coefficient", "entry": (i, k)}
            if i > k and E[i][k].eval0().residue() != 0:
                return {"ok": False, "reason": f"E[{i}][{k}] nonzero mod (v, p)", "entry": (i, k)}
    return {"ok": True}


class FrobeniusResult:
    """Values and valuations of the normalized Frobenius-minor functions."""

    def __init__(self, values: list[PVal], p: int, f: int, n: int):
        self.values = values
        self.p = p
        self.f = f
        self.n = n

    @property
    def valuations(self):
        return [v.valuation() if not v.is_zero() else None for v in self.values]

    def is_ordinary(self) -> bool:
        return all((not v.is_zero()) and v.valuation() == 0 for v in self.values[:-1])

    def is_supersingular(self) -> bool:
        return all(v.is_zero() or v.valuation() > 0 for v in self.values[:-1])

    def f_n_is_unit(self) -> bool:
        v = self.values[-1]
        return (not v.is_zero()) and v.valuation() == 0

    def to_hecke_character(self):
        from .serre import HeckeCharacter

        if not self.f_n_is_unit():
            raise ValueError("f_n is not a unit; not a valid chart character")
        return HeckeCharacter(tuple(self.values))


def frobenius_minors_f(charts: list[PMatrix], s_perms: list[tuple[int, ...]], p: int) -> FrobeniusResult:
    """f_i = p^{f i (2n-i-1)/2} * (top-left i x i minor of
    (prod_{j=f-1..0} w_j Abar_j w_j^{-1})^{-1}), where Abar_j is the
    diagonal part of chart j mod v and w_j the supplied conjugators."""
    f = len(charts)
    n = charts[0].n
    # every factor is diagonal, so the product is the diagonal `prod`, its
    # inverse is diagonal, and the leading minors are running products
    prod = [PVal.one(p)] * n
    for j in range(f - 1, -1, -1):
        dbar = charts[j].diag_mod_v()
        w = s_perms[j]
        winv = [0] * n
        for i, wi in enumerate(w):
            winv[wi] = i
        prod = [prod[i] * dbar[winv[i]] for i in range(n)]
    if any(d.is_zero() for d in prod):
        raise ZeroDivisionError("singular Frobenius product")
    values = []
    minor = PVal.one(p)
    for i in range(1, n + 1):
        minor = minor * prod[i - 1].inverse()
        e = f * i * (2 * n - i - 1) // 2
        values.append(PVal.of(p**e, p) * minor)
    return FrobeniusResult(values, p, f, n)
