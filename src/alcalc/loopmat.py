"""
Exact n x n matrices over truncated Laurent series, with the Iwahori
structure of the loop group of GL_n over F_p((v)): random Iwahori
elements, affine Bruhat (Iwahori double coset) decomposition by
inverse-free valuation-pivot elimination, the mod-p monodromy check, and
the legal-row-operation reduction used by the colength-one chart
analysis.

Row/column operations are "legal" for the Iwahori subgroup
I = {A : A integral, A mod v upper triangular with unit diagonal}:
adding f*R_j to R_i needs val(f) >= 0 for i < j and val(f) >= 1 for
i > j; unit row scalings are free.  The same bounds transposed govern
column operations.
"""

from __future__ import annotations

from .cofactor import Cofactors, Matrix
from .gf import GF
from .series import EXACT, InsufficientPrecisionError, Series


class SingularMatrixError(ArithmeticError):
    pass


class PivotRuleError(ArithmeticError):
    """The Iwahori decomposition needed an illegal row or column
    operation; this is a bug, not bad input."""


def default_precision(n: int, max_deg: int) -> int:
    return 4 * n * (1 + max_deg)


class LoopMatrix(Matrix):
    __slots__ = ("F", "rows")

    def __init__(self, F: GF, rows: list[list[Series]]):
        self.F = F
        self.rows = rows

    # -- constructors --------------------------------------------------------
    @staticmethod
    def monomial(F: GF, nu: tuple[int, ...], w: tuple[int, ...], prec: int) -> "LoopMatrix":
        """The matrix of v^nu * w, i.e. entry v^(nu_i) at (i, w^{-1}(i)).

        w is a 0-based one-line permutation; the permutation matrix has a 1
        at (w(k), k), so column k holds v^(nu_{w(k)}).  The other entries
        are exact zeros.
        """
        n = len(nu)
        rows = [[Series.zero(F) for _ in range(n)] for _ in range(n)]
        for k in range(n):
            i = w[k]
            rows[i][k] = Series.monomial(F, 1, nu[i], prec)
        return LoopMatrix(F, rows)

    def copy(self) -> "LoopMatrix":
        return LoopMatrix(self.F, [row[:] for row in self.rows])

    def _like(self, rows: list[list[Series]]) -> "LoopMatrix":
        return LoopMatrix(self.F, rows)

    def mul(self, other: "LoopMatrix") -> "LoopMatrix":
        F = self.F
        cols = list(zip(*other.rows))
        return LoopMatrix(F, [[Series.dot(F, zip(row, col)) for col in cols] for row in self.rows])

    def det(self) -> Series:
        return Cofactors(self.rows).det()

    def inverse(self) -> "LoopMatrix":
        cof = Cofactors(self.rows)
        d = cof.det()
        if d.is_zero():
            raise SingularMatrixError("matrix singular to working precision")
        dinv = d.inverse()
        adj = [[Series.one(self.F, self.rows[0][0].prec)]] if self.n == 1 else cof.adjugate()
        return LoopMatrix(self.F, [[e.mul(dinv) for e in row] for row in adj])

    def min_precision(self) -> int:
        return min(e.prec for row in self.rows for e in row if not e.is_exact_zero())

    def __repr__(self) -> str:
        return "\n".join("[" + ", ".join(repr(e) for e in row) + "]" for row in self.rows)


# -- Iwahori structure ----------------------------------------------------------


def random_iwahori(F: GF, n: int, prec: int, rng) -> LoopMatrix:
    """Random element of the Iwahori subgroup with polynomial entries of
    degree <= 6."""
    rows = []
    for i in range(n):
        row = []
        for k in range(n):
            lo = 1 if i > k else 0
            cs = [F.rand(rng) for _ in range(lo, 7)]
            if i == k:
                cs[0] = F.rand_unit(rng)
            row.append(Series(F, lo, cs, prec))
        rows.append(row)
    return LoopMatrix(F, rows)


def affine_bruhat_decompose(A: LoopMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The unique (nu, w) with A in I v^nu w I.

    Valuation-pivot Gaussian elimination using only Iwahori-legal row and
    column operations.  Pivot rule: among entries of minimal valuation in
    the live (unprocessed) submatrix, smallest column then largest row.
    A live entry that is zero to precision, O(v^k), is unknown from v^k
    on, so it raises InsufficientPrecisionError when it could still win
    that rule: (k, column, -row) below the chosen (m, c, -r).

    Inverse-free: the pivot u*v^m is never normalised.  Another live row
    with entry e in the pivot column is cleared by
    R_i <- u*R_i - (e/v^m)*R_r, one two-pair `Series.dot` per entry, with
    u the exact polynomial of the pivot's known coefficients, given a
    precision no live inexact entry exceeds, so the unit scaling costs no
    precision.
    Live block: row operations touch only the live columns (retired rows
    and columns are never read again), and the new zero under the pivot
    is written with the precision the products would give it.  Column
    clear: with the pivot column zero off the pivot,
    C_k <- C_k - (f/u)*C_c changes no coefficient on a live row and only
    lowers entry (i, k) to precision prec(W[i][c]) + val(f), which is
    applied without multiplying.  Every entry read has the valuation and
    precision of the normalising elimination, so the answer and the
    exception raised are the same.
    """
    n = A.n
    W = [row[:] for row in A.rows]
    rows_left = set(range(n))
    cols_left = set(range(n))
    nu = [0] * n
    w_of_col = [0] * n
    for _ in range(n):
        best = unknown = None
        top = 0
        for k in sorted(cols_left):
            for i in sorted(rows_left):
                e = W[i][k]
                if top < e.prec < EXACT:
                    top = e.prec
                cand = (e.val, k, -i)
                if e.is_zero():
                    if unknown is None or cand < unknown:
                        unknown = cand
                elif best is None or cand < best:
                    best = cand
        if best is None:
            raise SingularMatrixError("no pivot: matrix singular to working precision")
        if unknown is not None and unknown < best:
            k, c, negr = unknown
            raise InsufficientPrecisionError(f"pivot undecided: entry ({-negr}, {c}) is O(v^{k})")
        m, c, negr = best
        r = -negr
        rows_left.discard(r)
        cols_left.discard(c)
        pivot_row = W[r]
        pivot = pivot_row[c]
        # every live nonzero entry has valuation >= m and precision <= top,
        # so a unit of precision top - m is exact for the products below
        unit = Series(A.F, 0, pivot.coeffs, top - m)
        # clear the rest of column c with legal row operations
        for i in rows_left:
            e = W[i][c]
            if e.is_zero():
                continue
            f = e.shift(-m)
            if i > r and f.val < 1:
                raise PivotRuleError("pivot rule violated: illegal row operation required")
            row = W[i]
            negf = f.neg()
            for k in cols_left:
                row[k] = Series.dot(A.F, ((unit, row[k]), (negf, pivot_row[k])))
            # u*e - f*pivot is zero below the precision of f*pivot
            row[c] = Series.zero(A.F, min(e.prec, pivot.prec - m + e.val))
        # clear the rest of row r with legal column operations: only the
        # precision of the live rows changes
        for k in cols_left:
            e = pivot_row[k]
            if e.is_zero():
                continue
            d = e.val - m  # val(f)
            if k < c and d < 1:
                raise PivotRuleError("pivot rule violated: illegal column operation required")
            for i in rows_left:
                x = W[i][k]
                prec = W[i][c].prec + d
                if prec < x.prec:
                    W[i][k] = Series(A.F, x.val, x.coeffs, prec)
        nu[r] = m
        w_of_col[c] = r
    return tuple(nu), tuple(w_of_col)


def nabla_check(A: LoopMatrix, a: tuple[int, ...]) -> bool:
    """Special-fiber monodromy condition for the diagonal integer vector a:
    E = v (v dA/dv A^{-1} + A a A^{-1}) must be integral and upper
    triangular mod v.  Unless a known entry of E already fails, raises
    InsufficientPrecisionError when an entry is zero only to a precision
    that leaves the answer open."""
    F = A.F
    n = A.n
    Ainv = A.inverse()
    dA = A.derivative()
    term1 = dA.mul(Ainv)
    # A a is A with column k scaled by the integer a_k
    term2 = LoopMatrix(F, [[e.scale(F.from_int(c)) for e, c in zip(row, a)] for row in A.rows]).mul(Ainv)
    unknown = None  # the first entry zero only below the precision it needs
    for i in range(n):
        for k in range(n):
            e = term1.rows[i][k].shift(1).add(term2.rows[i][k]).shift(1)  # v*(v*dA*Ainv + A a Ainv)
            if e.is_zero():
                if unknown is None and e.prec < (1 if i > k else 0):
                    unknown = f"E[{i}][{k}] = {e!r}"
                continue
            if e.val < 0:
                return False
            if i > k and e.coeff(0) != 0:
                return False
    if unknown is not None:
        raise InsufficientPrecisionError(f"nabla check: {unknown} leaves the answer open")
    return True


class RowReduceError(ValueError):
    pass


def iwahori_row_reduce(
    A: LoopMatrix,
    i0: int,
    k0: int,
    m_bound: dict[tuple[int, int], int] | None = None,
) -> tuple[list[tuple[str, int, int, Series]], LoopMatrix]:
    """Reduce B = A * s_alpha (alpha = alpha_{i0 k0}, 0-based) to a lower
    unipotent matrix by legal row operations for the conjugated Iwahori.

    A must be lower unipotent.  Preconditions checked (0-based indices,
    mirroring the open-chart conditions): the (k0, i0) entry of A is a
    unit, and for each 2 <= i <= k0-i0 the i x i minor of B on rows and
    columns {k0-i+1..k0} is a unit.  Failures raise RowReduceError naming
    the offender.

    m_bound, when given, maps (i, k) -> the maximal allowed pole order
    -val(f) of the multiplier f in the operation R_i += f * R_k (that is,
    val(f) >= -m_bound[(i,k)]); every performed operation is checked.
    Returns (operations, final lower-unipotent matrix); each operation is
    ("add", i, k, f) for R_i += f*R_k or ("scale", i, i, u).
    """
    F = A.F
    n = A.n
    # precondition (2)
    if not A.rows[k0][i0].is_unit():
        raise RowReduceError(f"condition (2) fails: entry A[{k0}][{i0}] (the -alpha entry) is not a unit")
    # B = A * s_alpha: swap columns i0 and k0
    B = A.copy()
    for i in range(n):
        B.rows[i][i0], B.rows[i][k0] = B.rows[i][k0], B.rows[i][i0]
    # precondition (3): trailing minors of B
    for i in range(2, k0 - i0 + 1):
        idx = list(range(k0 - i + 1, k0 + 1))
        sub = LoopMatrix(F, [[B.rows[r][c] for c in idx] for r in idx])
        if not sub.det().is_unit():
            raise RowReduceError(f"condition (3) fails: minor M_{i} is not a unit")

    ops: list[tuple[str, int, int, Series]] = []

    def do_add(i: int, k: int, f: Series) -> None:
        if m_bound is not None and not f.is_zero():
            bound = m_bound.get((i, k), 0)
            if f.val < -bound:
                raise RowReduceError(f"illegal row operation R_{i} += f R_{k}: val(f)={f.val} < {-bound}")
        B.rows[i] = [B.rows[i][c].add(f.mul(B.rows[k][c])) for c in range(n)]
        ops.append(("add", i, k, f))

    # clear the strictly-upper entries, which sit in column k0 (rows i0..k0-1)
    # plus the fill-in at columns k in (t, k0); rows are processed bottom-up so
    # every helper row below is already upper-free
    for t in range(k0 - 1, i0 - 1, -1):
        e = B.rows[t][k0]
        if not e.is_zero():
            f = e.neg().mul(B.rows[k0][k0].inverse())
            do_add(t, k0, f)
        for k in range(k0 - 1, t, -1):
            e = B.rows[t][k]
            if not e.is_zero():
                f = e.neg().mul(B.rows[k][k].inverse())
                do_add(t, k, f)
    # check lower triangular now
    for i in range(n):
        for k in range(i + 1, n):
            if not B.rows[i][k].is_zero():
                raise RowReduceError(f"reduction left a nonzero upper entry at ({i},{k})")
    # normalize the diagonal to 1 by unit row scalings
    for i in range(n):
        d = B.rows[i][i]
        if not d.is_unit():
            raise RowReduceError(f"diagonal entry {i} is not a unit after reduction")
        u = d.inverse()
        B.rows[i] = [e.mul(u) for e in B.rows[i]]
        ops.append(("scale", i, i, u))
    return ops, B
