"""The shared cofactor kernel against a plain recursive Laplace expansion,
and the shared matrix algebra against entrywise loops, on loop matrices
(truncated series) and integral v-polynomial matrices."""

import itertools
import random
from fractions import Fraction

import pytest

from alcalc.cofactor import Cofactors
from alcalc.gf import field
from alcalc.loopmat import LoopMatrix, SingularMatrixError
from alcalc.pval import PVal
from alcalc.rmatrix import PMatrix, VPoly
from alcalc.series import Series


def laplace_det(rows):
    """First-row expansion, recomputing every minor and forming every
    term, an exact zero's too: a zero-to-precision entry still bounds the
    precision."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for k in range(n):
        term = rows[0][k].mul(laplace_det([[rows[i][m] for m in range(n) if m != k] for i in range(1, n)]))
        if k % 2:
            term = term.neg()
        acc = term if acc is None else acc.add(term)
    return acc


def laplace_adjugate(rows):
    n = len(rows)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            m = laplace_det([[rows[r][c] for c in range(n) if c != k] for r in range(n) if r != i])
            out[k][i] = m.neg() if (i + k) % 2 else m
    return out


def same_series(a, b):
    return (a.val, a.coeffs, a.prec) == (b.val, b.coeffs, b.prec)


def random_series(F, rng):
    prec = rng.randrange(4, 12)
    if rng.random() < 0.2:
        return Series.zero(F, prec)  # zero to precision
    if rng.random() < 0.1:
        return Series.zero(F)  # exact zero
    lo = rng.randrange(-2, 3)
    return Series.from_coeffs(F, {d: rng.randrange(F.q) for d in range(lo, lo + rng.randrange(1, 5))}, prec)


def random_loop_matrix(F, n, rng):
    rows = [[random_series(F, rng) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        r = rng.random()
        if r < 0.3:
            rows[0][k] = Series.zero(F, rng.randrange(4, 12))
        elif r < 0.4:
            rows[0][k] = Series.zero(F)
    return LoopMatrix(F, rows)


def random_vpoly(p, rng):
    if rng.random() < 0.25:
        return VPoly.zero(p)
    coeffs = []
    for _ in range(rng.randrange(1, 4)):
        c = PVal.of(Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, p])), p)
        if rng.random() < 0.2:
            c = c + PVal.sqrt_p(p, rng.randrange(-3, 4))
        coeffs.append(c)
    return VPoly(p, coeffs)


class TestLoopMatrixKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_det_adjugate_inverse_match_laplace(self, n):
        rng = random.Random(100 + n)
        F = field(7)
        for _ in range(12 if n < 5 else 4):
            A = random_loop_matrix(F, n, rng)
            d = laplace_det(A.rows)
            assert same_series(A.det(), d)
            if n > 1:
                expect_adj = laplace_adjugate(A.rows)
                adj = Cofactors(A.rows).adjugate()
                assert all(same_series(adj[i][k], expect_adj[i][k]) for i in range(n) for k in range(n))
            if d.is_zero():
                with pytest.raises(SingularMatrixError):
                    A.inverse()
                continue
            if n == 1:
                expect_adj = [[Series.one(F, A.rows[0][0].prec)]]
            dinv = d.inverse()
            inv = A.inverse()
            assert all(
                same_series(inv.rows[i][k], expect_adj[i][k].mul(dinv)) for i in range(n) for k in range(n)
            )

    def test_zero_first_entry_still_bounds_precision(self):
        F = field(5)
        A = LoopMatrix(
            F,
            [
                [Series.zero(F, 3), Series.one(F, 20)],
                [Series.one(F, 20), Series.one(F, 20)],
            ],
        )
        d = A.det()
        assert same_series(d, laplace_det(A.rows))
        assert d.prec == 3


def series_of(F, coeffs, prec):
    return Series.from_coeffs(F, dict(enumerate(coeffs)), prec)


class TestUnknownTails:
    """O(v^k) means unknown from v^k on, not zero: every coefficient that
    det, adjugate and inverse report must hold for every completion of the
    unknown tails of the entries."""

    def test_zero_to_precision_entry_bounds_det(self):
        # the O(v^4) entry times the lower-left 5 + ... is unknown from v^4
        # on, so only 4v^2 + 3v^3 is known (it was reported to O(v^8))
        F = field(7)
        A = LoopMatrix(
            F,
            [
                [Series.from_coeffs(F, {-1: 2, 0: 1}, 6), Series.zero(F, 4)],
                [series_of(F, [5, 1, 1, 4, 5], 7), Series.from_coeffs(F, {3: 2, 4: 4, 5: 5, 7: 3}, 9)],
            ],
        )
        d = A.det()
        assert (d.val, d.coeffs, d.prec) == (2, [4, 3], 4)
        assert same_series(d, laplace_det(A.rows))

    @staticmethod
    def complete(s, rng):
        """A completion of s as an exact Laurent polynomial {degree: coeff}:
        the known window, then random coefficients on four degrees of the
        unknown tail and zeros beyond.  An exact zero has no tail."""
        out = {s.val + i: c for i, c in enumerate(s.coeffs) if c}
        if s.is_exact_zero():
            return out
        for d in range(s.prec, s.prec + 4):
            out[d] = rng.randrange(s.F.q)
        return out

    @staticmethod
    def pmul(a, b, q):
        out = {}
        for d1, c1 in a.items():
            for d2, c2 in b.items():
                out[d1 + d2] = (out.get(d1 + d2, 0) + c1 * c2) % q
        return {d: c for d, c in out.items() if c}

    def leibniz(self, rows, q):
        """Exact determinant of a matrix of Laurent polynomials."""
        n = len(rows)
        out = {}
        for perm in itertools.permutations(range(n)):
            sign = (-1) ** sum(perm[i] > perm[k] for i in range(n) for k in range(i + 1, n))
            term = {0: sign % q}
            for i in range(n):
                term = self.pmul(term, rows[i][perm[i]], q)
            for d, c in term.items():
                out[d] = (out.get(d, 0) + c) % q
        return {d: c for d, c in out.items() if c}

    def exact_adjugate(self, rows, q):
        n = len(rows)
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                m = self.leibniz([[rows[r][c] for c in range(n) if c != k] for r in range(n) if r != i], q)
                out[k][i] = {d: (-c) % q for d, c in m.items()} if (i + k) % 2 else m
        return out

    @staticmethod
    def inverse_coeffs(poly, upto, q):
        """(v0, w) with 1/poly = sum_k w[k] v^(k - v0), w[0..upto)."""
        v0 = min(poly)
        u = [poly.get(v0 + i, 0) for i in range(upto)]
        inv0 = pow(u[0], -1, q)
        w = [inv0]
        for k in range(1, upto):
            w.append(-inv0 * sum(u[i] * w[k - i] for i in range(1, k + 1)) % q)
        return v0, w

    @staticmethod
    def agrees(s, exact):
        """Every coefficient s claims, zeros below its valuation included,
        is the coefficient of the exact result; an exact zero claims all."""
        if s.is_exact_zero():
            return not exact
        lo = min(min(exact, default=s.prec), s.val)
        return all(s.coeff(d) == exact.get(d, 0) for d in range(lo, s.prec))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_det_adjugate_inverse_hold_for_every_completion(self, n):
        rng = random.Random(500 + n)
        F = field(7)
        q = F.q
        inverses = 0
        for _ in range(30 if n < 4 else 12):
            A = random_loop_matrix(F, n, rng)
            i, k = rng.randrange(n), rng.randrange(n)
            A.rows[i][k] = Series.zero(F, rng.randrange(2, 10))  # at least one O(v^k) entry
            det, adj = A.det(), Cofactors(A.rows).adjugate()
            inv = None if det.is_zero() else A.inverse()
            for _ in range(3):
                C = [[self.complete(e, rng) for e in row] for row in A.rows]
                exact_det = self.leibniz(C, q)
                assert self.agrees(det, exact_det)
                exact_adj = self.exact_adjugate(C, q)
                assert all(self.agrees(adj[r][c], exact_adj[r][c]) for r in range(n) for c in range(n))
                if inv is None:
                    continue
                # the reported det has a known nonzero coefficient, so the
                # completion's det is nonzero and invertible
                top = max(e.prec for row in inv.rows for e in row if not e.is_exact_zero())
                low = min((min(e) for row in exact_adj for e in row if e), default=0)
                v0, w = self.inverse_coeffs(exact_det, top - low + min(exact_det) + 1, q)
                for r in range(n):
                    for c in range(n):
                        e = inv.rows[r][c]
                        if e.is_exact_zero():
                            assert not exact_adj[r][c]
                            continue
                        exact = {}
                        for d in range(min(e.val, e.prec), e.prec):
                            exact[d] = sum(
                                a * w[d - da + v0] for da, a in exact_adj[r][c].items() if 0 <= d - da + v0 < len(w)
                            ) % q
                        assert self.agrees(e, {d: x for d, x in exact.items() if x})
                inverses += 1
        assert inverses > 0


class TestPMatrixKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_det_adjugate_match_laplace(self, n):
        rng = random.Random(200 + n)
        p = 5
        for _ in range(6 if n < 5 else 2):
            A = PMatrix(p, [[random_vpoly(p, rng) for _ in range(n)] for _ in range(n)])
            if rng.random() < 0.5:
                A.rows[0][0] = VPoly.zero(p)
            assert A.det().coeffs == laplace_det(A.rows).coeffs
            adj = A.adjugate()
            expect = [[VPoly.const(p, PVal.one(p))]] if n == 1 else laplace_adjugate(A.rows)
            assert all(adj.rows[i][k].coeffs == expect[i][k].coeffs for i in range(n) for k in range(n))


def zero_start_mul(A, B, zero):
    """Row-by-column products summed from the ring's zero."""
    n = len(A.rows)
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = zero
            for m in range(n):
                acc = acc.add(A.rows[i][m].mul(B.rows[m][k]))
            row.append(acc)
        out.append(row)
    return out


def torus_twist(rows, d0):
    """Row 0 scaled by d0, the other rows kept."""
    rows = [row[:] for row in rows]
    rows[0] = [e.scale(d0) for e in rows[0]]
    return rows


class TestMatrixAlgebra:
    """The shared products, sums, derivatives and row scalings against
    plain entrywise loops, on both matrix classes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_loop_matrix_ops_match_entrywise(self, n):
        rng = random.Random(300 + n)
        F = field(7)
        same = lambda X, rows: all(same_series(X.rows[i][k], rows[i][k]) for i in range(n) for k in range(n))
        for _ in range(10):
            A, B = random_loop_matrix(F, n, rng), random_loop_matrix(F, n, rng)
            assert same(A.mul(B), zero_start_mul(A, B, Series.zero(F)))
            assert same(A.add(B), [[A.rows[i][k].add(B.rows[i][k]) for k in range(n)] for i in range(n)])
            assert same(A.derivative(), [[e.derivative() for e in row] for row in A.rows])
            factors = [rng.randrange(F.q) for _ in range(n)]
            assert same(A.scale_rows(factors), [[e.scale(c) for e in row] for row, c in zip(A.rows, factors)])
            d0 = rng.randrange(1, F.q)
            assert same(A.scale_rows([d0] + [1] * (n - 1)), torus_twist(A.rows, d0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pmatrix_ops_match_entrywise(self, n):
        rng = random.Random(400 + n)
        p = 5
        same = lambda X, rows: all(X.rows[i][k].coeffs == rows[i][k].coeffs for i in range(n) for k in range(n))
        for _ in range(6):
            A = PMatrix(p, [[random_vpoly(p, rng) for _ in range(n)] for _ in range(n)])
            B = PMatrix(p, [[random_vpoly(p, rng) for _ in range(n)] for _ in range(n)])
            assert same(A.mul(B), zero_start_mul(A, B, VPoly.zero(p)))
            assert same(A.add(B), [[A.rows[i][k].add(B.rows[i][k]) for k in range(n)] for i in range(n)])
            assert same(A.derivative(), [[e.derivative() for e in row] for row in A.rows])
            factors = [PVal.of(Fraction(rng.randrange(-9, 10), rng.choice([1, p])), p) for _ in range(n)]
            assert same(A.scale_rows(factors), [[e.scale(c) for e in row] for row, c in zip(A.rows, factors)])
            d0 = PVal.of(rng.randrange(1, 9), p) + PVal.sqrt_p(p, rng.randrange(-3, 4))
            assert same(A.scale_rows([d0] + [PVal.one(p)] * (n - 1)), torus_twist(A.rows, d0))
