"""
Symbolic assembly and solution of the explicit local-model charts.

Both chart shapes used here have the conjugated normal form

    conj . A . conj^{-1}  =  [u_{-alpha}(c) s_alpha]  (v+p)^eta  V

with V lower unipotent with degree-bounded polynomial entries: the bracket
is present for a colength-one chart (conj = w, the longer weight's
permutation) and absent for an extremal chart (conj = the chart's own
permutation).  The monodromy condition

    E = (v+p) (v dA/dv A^{-1} + A a A^{-1})  integral, upper mod v

translates into polynomial equations on the entry coefficients of V (and
on c): exact divisibility of N = (v B' + B b) C by (v+p)^{n-2}, where
B^{-1} = C (v+p)^{-(n-1)}, plus vanishing mod v at the conj-transported
strictly-lower positions.  The equations are polynomial in p, and the
assembly runs once per static shape for every prime and field, over Z on
the term kernel of `mpoly` with int coefficients, at p = 2^64: every step
is a ring operation or a division by the monic v + p, so it commutes with
evaluating p, and the balanced base-2^64 digits of each integer are the
coefficients of a polynomial in p (Kronecker substitution), exactly so by
a bound checked beforehand.  A system at a prime evaluates them there by
Horner and maps the integers into the field of use: a finite field
(special fiber, where the image of p is 0) or the exact p-valuation
scalars (integral lifts).  The resulting system is solved by the
affine-triangular solver, with c treated as a nonzerodivisor of the
irreducible chart.

A solved chart is re-verified from scratch by the independent monodromy
checkers before it is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain

from .gf import GF, FElem
from .loopmat import LoopMatrix
from .mpoly import Field, Poly, SolveError, add_into, mul_into, scale_terms, solve_equations
from .pval import PVal
from .rmatrix import PMatrix, VPoly
from .series import Series
from .weyl import eta_weight, negative_roots, nu_w, perm_act_root, perm_inv, root_is_negative

VPolyZ = list  # list[dict[Mono, int]], index = power of v; a dict is an integer polynomial


def _nonzero(t: dict) -> dict:
    return {m: c for m, c in t.items() if c}


def _vp_trim(c: VPolyZ) -> VPolyZ:
    while c and not c[-1]:
        c.pop()
    return c


def _vp_add(a: VPolyZ, b: VPolyZ) -> VPolyZ:
    return _fold_add([a, b])


def _vp_mul(a: VPolyZ, b: VPolyZ) -> VPolyZ:
    if not a or not b:
        return []
    out: VPolyZ = [{} for _ in range(len(a) + len(b) - 1)]
    for i, pa in enumerate(a):
        for j, pb in enumerate(b):
            mul_into(out[i + j], pa, pb)
    return _vp_trim([_nonzero(t) for t in out])


def _vp_deriv(a: VPolyZ) -> VPolyZ:
    return _vp_trim([scale_terms(a[d], d) for d in range(1, len(a))])


def _vp_shift(a: VPolyZ) -> VPolyZ:
    """multiply by v"""
    return [{}] + list(a)


def _vp_divide_at(a: VPolyZ, root: int) -> tuple[VPolyZ, dict]:
    """(quotient, remainder) dividing by the monic linear (v - root)."""
    if not a:
        return [], {}
    m = len(a) - 1
    q: VPolyZ = [{}] * m
    run = a[m]
    for d in range(m - 1, -1, -1):
        q[d] = run
        run = _nonzero(add_into(dict(a[d]), scale_terms(run, root)))
    return _vp_trim(q), run


def _mat_mul(A, B):
    n = len(A)
    return [[_fold_add([_vp_mul(A[i][m], B[m][k]) for m in range(n)]) for k in range(n)] for i in range(n)]


def _fold_add(items):
    acc: VPolyZ = []
    for it in items:
        acc.extend({} for _ in range(len(it) - len(acc)))
        for out, t in zip(acc, it):
            add_into(out, t)
    return _vp_trim([_nonzero(t) for t in acc])


@dataclass(frozen=True)
class ChartShape:
    """Static data of one chart at one embedding."""

    n: int
    p: int
    kind: str  # "colength_one" | "extremal"
    u_perm: tuple[int, ...]  # permutation governing the degree bounds
    conj_perm: tuple[int, ...]  # conjugation between A and the normal form
    a_vec: tuple[int, ...]  # integer monodromy parameter

    @property
    def i0(self) -> int:
        """The distinguished root is alpha = alpha_{i0 k0} = alpha_{0 (n-1)}."""
        return 0

    @property
    def k0(self) -> int:
        return self.n - 1

    def tops(self, values: dict, lift) -> dict:
        """The top-coefficient assignment {V_beta's top variable:
        lift(values[beta])} over every negative root beta."""
        return {v: lift(values[b]) for b, v in self._top_vars}

    @cached_property
    def _top_vars(self) -> tuple:
        # (beta, V_beta's top variable) over Phi^-, computed once per shape
        return tuple((b, vvar(b, self.degree_bound(b))) for b in negative_roots(self.n))

    def degree_bound(self, beta: tuple[int, int]) -> int:
        """deg V_beta <= -<eta, beta> - [u^{-1}(beta) > 0] for beta in Phi^-."""
        i, k = beta
        eta = eta_weight(self.n)
        bnd = -(eta[i] - eta[k])
        if not root_is_negative(perm_act_root(perm_inv(self.u_perm), beta)):
            bnd -= 1
        return bnd

    def window_bottom(self, beta: tuple[int, int]) -> int:
        """Degree of the constant-term slot of the unconjugated entry:
        <nu_u - eta, beta>."""
        i, k = beta
        nu = nu_w(self.u_perm)
        eta = eta_weight(self.n)
        return (nu[i] - eta[i]) - (nu[k] - eta[k])

    def flagged_positions(self) -> set[tuple[int, int]]:
        c = self.conj_perm
        return {(c[i], c[k]) for i in range(self.n) for k in range(self.n) if i > k}


def vvar(beta: tuple[int, int], d: int):
    return ("V", beta[0], beta[1], d)


CVAR = "c"


def avar(i: int):
    return ("a", i)


def _assemble_at(shape: ChartShape, minus_one: int = -1, flagged: set | None = None) -> tuple[list, list, list, list]:
    """(variables, B, C, equations) of `shape` over Z, with p given the
    integer value shape.p: B is the normal form, C = B^{-1} (v+p)^{n-1},
    and the equations are the monodromy conditions at the positions
    `flagged` (the shape's own when None).  `minus_one` is the value of -1;
    1 runs the assembly on majorants (see `_digit_bound`).

    Each constant factor is applied as the row or column operation it is:
    B = (v+p)^eta V scales row i by (v+p)^{eta_i}, and
    C = V^{-1} (v+p)^{(n-1) - eta} scales column k of V^{-1}, which is
    found by forward substitution since V is lower unipotent.  For a
    colength-one chart, u_{-alpha}(c) s_alpha swaps rows i0 and k0 of B and
    adds c times row i0 to row k0; on C its inverse swaps columns i0 and k0
    and subtracts c times column k0 from column i0."""
    n, p = shape.n, shape.p
    variables: list = []
    V: list[list[VPolyZ]] = [[[{(): 1}] if i == k else [] for k in range(n)] for i in range(n)]
    for beta in negative_roots(n):
        ent = []
        for d in range(shape.degree_bound(beta) + 1):
            variables.append(vvar(beta, d))
            ent.append({((vvar(beta, d), 1),): 1})
        V[beta[0]][beta[1]] = ent
    if shape.kind == "colength_one":
        variables.append(CVAR)
    eta = eta_weight(n)
    one = {(): 1}
    vpp = [[one]]  # (v+p)^0, ..., (v+p)^{n-1}
    for _ in range(1, n):
        vpp.append(_vp_mul(vpp[-1], [{(): p}, one]))
    B = [[_vp_mul(vpp[eta[i]], V[i][k]) for k in range(n)] for i in range(n)]
    Vinv = [[[one] if i == k else [] for k in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(i):
            Vinv[i][k] = [scale_terms(x, minus_one) for x in _fold_add([_vp_mul(V[i][m], Vinv[m][k]) for m in range(k, i)])]
    C = [[_vp_mul(Vinv[i][k], vpp[n - 1 - eta[k]]) for k in range(n)] for i in range(n)]
    if shape.kind == "colength_one":
        i0, k0 = shape.i0, shape.k0
        c = {((CVAR, 1),): 1}
        B[i0], B[k0] = B[k0], [_vp_add(_vp_mul([c], x), y) for x, y in zip(B[k0], B[i0])]
        for row in C:
            row[i0], row[k0] = _vp_add(_vp_mul([scale_terms(c, minus_one)], row[i0]), row[k0]), row[i0]

    # the monodromy conditions: N = (v B' + B b) C divisible by (v+p)^{n-2},
    # and the constant term of the quotient zero at the flagged positions
    b_diag = [{((avar(perm_inv(shape.conj_perm)[i]), 1),): 1} for i in range(n)]
    vB1 = [[_vp_shift(_vp_deriv(B[i][k])) for k in range(n)] for i in range(n)]
    Bb = [[[mul_into({}, c, b_diag[k]) for c in B[i][k]] for k in range(n)] for i in range(n)]
    M = [[_vp_add(vB1[i][k], Bb[i][k]) for k in range(n)] for i in range(n)]
    N = _mat_mul(M, C)
    equations: list[dict] = []
    flagged = shape.flagged_positions() if flagged is None else flagged
    for i in range(n):
        for k in range(n):
            q = N[i][k]
            for _ in range(n - 2):
                q, rem = _vp_divide_at(q, minus_one * p)
                if rem:
                    equations.append(rem)
            if (i, k) in flagged and q and q[0]:
                equations.append(q[0])
    return variables, B, C, equations


RADIX = 1 << 64  # the value of p at which `ChartSystem.assemble` runs the assembly


@lru_cache(maxsize=16)
def _digit_bound(n: int, kind: str) -> int:
    """A bound on the absolute value of every digit of every coefficient
    c(P) in the system over Z[P] of any shape of size n and this kind.

    The sum of the absolute values of the digits of c(P) is subadditive
    and submultiplicative, and it is 1 at P and at -1.  So the assembly
    run with p = 1 and -1 replaced by 1 keeps every term that the assembly
    over Z[P] has (nothing cancels in it), each with a bound on that sum,
    and so on each digit of the term's coefficient.  Any shape's system is
    that of the identity permutation, whose degree bounds are the largest,
    with its surplus V variables set to 0 (which only drops monomials) and
    its a variables renamed, so the run on the identity shape, with the
    quotient conditions taken at every position, bounds every shape of the
    same n and kind."""
    ident = tuple(range(n))
    every = {(i, k) for i in range(n) for k in range(n)}
    _, B, _, equations = _assemble_at(ChartShape(n, 1, kind, ident, ident, ()), minus_one=1, flagged=every)
    return max(x for t in chain((t for row in B for e in row for t in e), equations) for x in t.values())


def _digits(x: int) -> tuple[int, ...]:
    """The balanced base-RADIX digits of x != 0, highest first: each digit
    d has -RADIX/2 <= d < RADIX/2."""
    half = RADIX // 2
    out = []
    while x:
        d = (x + half) % RADIX - half
        out.append(d)
        x = (x - d) // RADIX
    return tuple(reversed(out))


def _horner(digits: tuple[int, ...], p: int) -> int:
    x = 0
    for d in digits:
        x = x * p + d
    return x


@lru_cache(maxsize=64)
def _system_over_zp(n: int, kind: str, u_perm: tuple[int, ...], conj_perm: tuple[int, ...]) -> tuple[tuple, list, list]:
    """`ChartSystem.assemble` of one static shape, kept for every prime and
    field; 64 systems hold every extremal shape at n = 3 and n = 4 with a
    few dozen more.  The call goes through the class attribute, so a tracer
    that wraps `ChartSystem.assemble` counts each assembly."""
    return ChartSystem.assemble(n, kind, u_perm, conj_perm)


class ChartSystem:
    """The symbolic chart at one embedding over a chosen scalar field: the
    normal form B and the monodromy equations of the static shape, assembled
    once over Z[p] for every prime and field, specialised here at the
    shape's prime and mapped into the field, and not changed afterwards.
    Only the static data of `shape` is read; the monodromy parameter is an
    argument of `solve`."""

    def __init__(self, shape: ChartShape, K: Field):
        self.shape = shape
        self.K = K
        self.vars, B, equations = _system_over_zp(shape.n, shape.kind, shape.u_perm, shape.conj_perm)
        p = shape.p

        # Every assembly step is a ring operation or a division by the monic
        # v + p, so the image of a coefficient c(P) in K is that of the
        # integer c(p), found by Horner from the digits of c
        def lift(terms: dict) -> Poly:
            return Poly(K, {m: K(_horner(c, p)) for m, c in terms.items()})

        # the leading v-coefficient of a nonzero entry of B has a monomial
        # with coefficient 1, so no entry gains a trailing zero in K
        self.B: list[list[list[Poly]]] = [[[lift(c) for c in e] for e in row] for row in B]
        self.equations: list[Poly] = [e for e in map(lift, equations) if not e.is_zero()]

    @staticmethod
    def assemble(n: int, kind: str, u_perm: tuple[int, ...], conj_perm: tuple[int, ...]) -> tuple[tuple, list, list]:
        """(variables, B, equations) of one static shape over Z[P], P
        standing for p, with each coefficient c(P) given as its digits
        (c_d, ..., c_1, c_0), highest first.

        The integer assembly runs once, at p = RADIX (Kronecker
        substitution): it is made of ring operations and divisions by the
        monic v + p, so it commutes with evaluation at P = RADIX, and each
        integer it returns is c(RADIX).  Its balanced base-RADIX digits are
        those of c whenever every digit of c lies below RADIX/2 in absolute
        value.  `_digit_bound` bounds them all, and if twice that
        bound is not below RADIX this raises rather than decode."""
        bound = _digit_bound(n, kind)
        if 2 * bound >= RADIX:
            raise ArithmeticError(f"chart coefficients at n = {n} may have digits up to {bound}, too large for the radix {RADIX}")
        variables, B, _, equations = _assemble_at(ChartShape(n, RADIX, kind, u_perm, conj_perm, ()))

        def decode(terms: dict) -> dict:
            return {m: _digits(x) for m, x in terms.items()}

        return tuple(variables), [[[decode(t) for t in e] for e in row] for row in B], [decode(t) for t in equations]

    # -- solving -------------------------------------------------------------
    def solve(self, assignments: dict, a_vec: tuple[int, ...]) -> dict:
        """Solve the monodromy system at the monodromy parameter a_vec,
        given values for some variables (typically the top coefficients).
        Returns the full variable assignment."""
        assignments = dict(assignments)
        for i, ai in enumerate(a_vec):
            assignments[avar(i)] = self.K(ai)
        eqs = [e.substitute(assignments) for e in self.equations]
        nzd = CVAR if (self.shape.kind == "colength_one" and CVAR not in assignments) else None
        solved = solve_equations(self.K, eqs, nonzerodivisor=nzd)
        full = dict(assignments)
        full.update(solved)
        missing = [v for v in self.vars if v not in full]
        if missing:
            raise SolveError(f"underdetermined chart: unassigned variables {missing}")
        return full

    # -- numeric realizations ----------------------------------------------------
    def _realize(self, full: dict, entry) -> list[list]:
        """Rows of A = conj^{-1} B conj at a full solution; `entry` makes
        each matrix entry from its list of v-coefficients."""
        B = self.B
        conj = self.shape.conj_perm
        rows = []
        for i in range(self.shape.n):
            row = []
            for k in range(self.shape.n):
                vals = []
                for c in B[conj[i]][conj[k]]:
                    cc = c.substitute(full)
                    if not cc.is_constant():
                        raise SolveError(f"entry not numeric after substitution: {cc!r}")
                    vals.append(cc.constant_value())
                row.append(entry(vals))
            rows.append(row)
        return rows

    def numeric_A_gf(self, full: dict, F: GF, prec: int) -> LoopMatrix:
        """A over F to precision prec, an entry with no nonzero coefficient exact."""

        def entry(ent: list) -> Series:
            s = Series.from_coeffs(F, {d: c.a for d, c in enumerate(ent)}, prec)
            return s if s.coeffs else Series.zero(F)

        return LoopMatrix(F, self._realize(full, entry))

    def numeric_A_pval(self, full: dict) -> PMatrix:
        p = self.shape.p
        return PMatrix(p, self._realize(full, lambda ent: VPoly(p, ent)))


_SYSTEM_CACHE: dict = {}


def _cached_system(shape: ChartShape, K: Field, q: int | None) -> ChartSystem:
    """The symbolic system of `shape` over K (q = the field size, or None
    for the p-valuation scalars), built once per static chart shape and
    field at the prime in use.  Every prime and field shares the one
    system over Z[p] of the static shape (`_system_over_zp`), so a build
    only evaluates its coefficients at p and maps them into K.  The
    monodromy parameter enters symbolically and is given to `solve`, so
    every a_vec shares one system, which is never mutated and so can be
    shared between threads.  The cache holds the systems of one prime: a
    miss at another prime empties it, and a system evicted while another
    thread uses it only costs that thread a rebuild."""
    key = (q, shape.n, shape.p, shape.kind, shape.u_perm, shape.conj_perm)
    sys = _SYSTEM_CACHE.get(key)
    if sys is None:
        if any(k[2] != shape.p for k in list(_SYSTEM_CACHE)):
            _SYSTEM_CACHE.clear()
        sys = _SYSTEM_CACHE[key] = ChartSystem(shape, K)
    return sys


def gf_chart_system(shape: ChartShape, F: GF) -> ChartSystem:
    return _cached_system(shape, partial(FElem, F), F.q)


def pval_chart_system(shape: ChartShape) -> ChartSystem:
    return _cached_system(shape, partial(PVal.of, p=shape.p), None)
