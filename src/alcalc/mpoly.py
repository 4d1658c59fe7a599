"""
Small multivariate polynomials over a pluggable exact ring, used to pose
monodromy conditions on chart coefficients symbolically and to extract
coefficients of specific monomials.  This module is the one home of
polynomial arithmetic: the canonical monomial and the term kernel
(`add_into`, `mul_into`, `scale_terms`) serve `Poly` over a field and the
chart assembly of `chartsolve` over Z alike.

Coefficients are objects supporting +, -, *, unary -, inverse() and
is_zero() (the term kernel needs only + and *, so plain ints do too).  A
field K is the one-argument constructor of its scalars: K(m) is the image
of the integer m, so K(0) and K(1) are its constants
(functools.partial(FElem, F) over F_p, partial(PVal.of, p=p) over the
p-valuation scalars).  A monomial is a tuple of (variable, exponent) pairs
with nonzero exponents and variables sorted by repr, which orders any mix
of hashable labels (the chart's "c" and its ("V", ...) tuples) the same
way on every run.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

Mono = tuple[tuple[object, int], ...]
Field = Callable[[int], object]


def _order(term: tuple[object, int]):
    """Sort key of a (variable, exponent) pair: the variable's repr first."""
    return repr(term[0]), term[1]


def _mono(pairs: Iterable[tuple[object, int]]) -> Mono:
    """The canonical monomial of (variable, exponent) pairs with distinct
    variables."""
    return tuple(sorted(((v, e) for v, e in pairs if e), key=_order))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return _mono(d.items())


def add_into(out: dict, x: dict) -> dict:
    """out += x on {monomial: coefficient} dicts, leaving zero terms in out."""
    for m, c in x.items():
        out[m] = out[m] + c if m in out else c
    return out


def mul_into(out: dict, x: dict, y: dict) -> dict:
    """out += x*y on {monomial: coefficient} dicts, leaving zero terms in out."""
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = _mono_mul(m1, m2)
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return out


def scale_terms(x: dict, c) -> dict:
    """x*c for a scalar c, term by term."""
    return {m: cc * c for m, cc in x.items()}


class Poly:
    __slots__ = ("K", "terms")

    def __init__(self, K: Field, terms: dict[Mono, object] | None = None):
        self.K = K
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors -----------------------------------------------------
    @staticmethod
    def const(K: Field, c) -> "Poly":
        return Poly(K, {(): c})

    @staticmethod
    def zero(K: Field) -> "Poly":
        return Poly(K, {})

    @staticmethod
    def var(K: Field, v) -> "Poly":
        return Poly(K, {((v, 1),): K(1)})

    # -- queries ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self):
        return self.terms.get((), self.K(0))

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def coefficient_of(self, mono: Mono):
        return self.terms.get(_mono(mono), self.K(0))

    def is_affine(self) -> bool:
        return self.total_degree() <= 1

    def as_affine(self):
        """(constant, {var: coeff}) for an affine polynomial."""
        if not self.is_affine():
            raise NotAffineError(f"polynomial of total degree {self.total_degree()} is not affine")
        const = self.constant_value()
        lin = {m[0][0]: c for m, c in self.terms.items() if m}
        return const, lin

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, o: "Poly") -> "Poly":
        return Poly(self.K, add_into(dict(self.terms), o.terms))

    def __neg__(self) -> "Poly":
        return Poly(self.K, {m: -c for m, c in self.terms.items()})

    def __sub__(self, o: "Poly") -> "Poly":
        return self + (-o)

    def __mul__(self, o: "Poly") -> "Poly":
        return Poly(self.K, mul_into({}, self.terms, o.terms))

    def scale(self, c) -> "Poly":
        return Poly(self.K, scale_terms(self.terms, c))

    def substitute(self, assign: dict) -> "Poly":
        """Replace variables by field values.  The pairs left in a monomial
        keep their order, so the result is canonical as it stands."""
        out: dict[Mono, object] = {}
        for m, c in self.terms.items():
            rest = []
            for v, e in m:
                if v in assign:
                    for _ in range(e):
                        c = c * assign[v]
                else:
                    rest.append((v, e))
            key = tuple(rest)
            out[key] = out[key] + c if key in out else c
        return Poly(self.K, out)

    def divide_by_var_power(self, var) -> "Poly":
        """self / var^k for the largest k with var^k dividing every
        monomial; self when k = 0."""
        k = math.inf
        for m in self.terms:
            k = min(k, dict(m).get(var, 0))
            if not k:
                return self
        return Poly(self.K, {_mono((v, e - k if v == var else e) for v, e in m): c for m, c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), [_order(x) for x in t[0]])):
            mono = "*".join(f"{v}^{e}" if e > 1 else f"{v}" for v, e in m)
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


class SolveError(ValueError):
    pass


class NotAffineError(ArithmeticError):
    """An affine polynomial was expected; this is a bug, not bad input."""


def solve_equations(K: Field, equations: list[Poly], nonzerodivisor=None):
    """Solve a polynomial system that becomes affine-triangular after
    substitution, as the chart monodromy systems do.

    Repeatedly: drop trivially-zero equations; reject nonzero constants;
    divide out powers of `nonzerodivisor` (a chart coordinate that is a
    nonzerodivisor on the irreducible chart, e.g. c); gather the affine
    equations and solve the linear subsystem they determine; substitute.
    Returns {var: value} for every variable that got determined.  Raises
    SolveError if stuck or inconsistent.
    """
    eqs = [e for e in equations]
    solved: dict = {}
    for _round in range(200):
        eqs = [e.substitute(solved) for e in eqs]
        nxt = []
        for e in eqs:
            if e.is_zero():
                continue
            if e.is_constant():
                raise SolveError(f"inconsistent system: constant equation {e!r}")
            if nonzerodivisor is not None:
                # a solved nonzerodivisor was substituted away above, so it divides nothing
                e = e.divide_by_var_power(nonzerodivisor)
                if e.is_constant():
                    raise SolveError("inconsistent after dividing a nonzerodivisor")
            nxt.append(e)
        eqs = nxt
        if not eqs:
            return solved
        affine = [e.as_affine() for e in eqs if e.is_affine()]
        if not affine:
            raise SolveError(f"stuck: no affine equation among {len(eqs)} remaining, e.g. {eqs[0]!r}")
        # Gaussian elimination on the affine subsystem; a variable is
        # determined when its reduced row involves no other variable.
        cols: list = []
        seen = set()
        for _, lin in affine:
            for v in lin:
                if v not in seen:
                    seen.add(v)
                    cols.append(v)
        colidx = {v: i for i, v in enumerate(cols)}
        rows = []
        for const, lin in affine:
            row = [K(0)] * len(cols)
            for v, c in lin.items():
                row[colidx[v]] = c
            rows.append((row, const))
        pivots: list[tuple[int, int]] = []  # (row, col)
        r = 0
        for c in range(len(cols)):
            piv = next((i for i in range(r, len(rows)) if not rows[i][0][c].is_zero()), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            prow, pconst = rows[r]
            inv = prow[c].inverse()
            prow = [x * inv for x in prow]
            pconst = pconst * inv
            rows[r] = (prow, pconst)
            for i in range(len(rows)):
                if i != r and not rows[i][0][c].is_zero():
                    fac = rows[i][0][c]
                    rows[i] = (
                        [x - fac * y for x, y in zip(rows[i][0], prow)],
                        rows[i][1] - fac * pconst,
                    )
            pivots.append((r, c))
            r += 1
        progress = False
        for ri, ci in pivots:
            row, const = rows[ri]
            if all(row[k].is_zero() for k in range(len(cols)) if k != ci):
                solved[cols[ci]] = -const
                progress = True
        if not progress:
            raise SolveError("stuck: affine subsystem determines no variable uniquely")
    raise SolveError("solver did not terminate")
