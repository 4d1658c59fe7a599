"""Laurent series, loop matrices, Iwahori decomposition, monodromy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alcalc.series
from alcalc.gf import field
from alcalc.loopmat import (
    LoopMatrix,
    PivotRuleError,
    RowReduceError,
    SingularMatrixError,
    affine_bruhat_decompose,
    default_precision,
    iwahori_row_reduce,
    nabla_check,
    random_iwahori,
)
from alcalc.series import EXACT, InsufficientPrecisionError, Series


# Kronecker slot widths: 16 bits (q <= 7), 32 bits (53, 521), 64 bits
# (1000003, and 2^31 - 1 with at most 3 products per slot) and wider
KRONECKER_Q = [2, 3, 5, 7, 53, 521, 1000003, 2147483647, 2**61 - 1]


def schoolbook_dot(F, pairs) -> Series:
    """sum(x*y) by schoolbook convolution and a dict sum: known below the
    least prec(x) + val(y), prec(y) + val(x), where a zero-to-precision
    operand counts with val = prec."""
    def val(s):
        return s.val if s.coeffs else s.prec

    prec = min(min(x.prec + val(y), y.prec + val(x)) for x, y in pairs)
    total = {}
    for x, y in pairs:
        for i, a in enumerate(x.coeffs):
            for j, b in enumerate(y.coeffs):
                d = x.val + y.val + i + j
                if d < prec:
                    total[d] = (total.get(d, 0) + a * b) % F.q
    return Series.from_coeffs(F, total, prec)


def identity(F, n: int, prec: int) -> LoopMatrix:
    """The identity: ones known to precision prec, exact zeros elsewhere."""
    return LoopMatrix.monomial(F, (0,) * n, tuple(range(n)), prec)


def window(s: Series):
    return (s.val, s.coeffs, s.prec)


def window_eq(a: Series, b: Series) -> bool:
    """a and b agree on every degree both know: from the lower valuation up
    to the lower precision (a pessimistic comparison, which guesses nothing
    beyond either precision).  Two exact zeros know every degree, and
    agree on all of them."""
    if a.is_exact_zero() and b.is_exact_zero():
        return True
    return all(a.coeff(d) == b.coeff(d) for d in range(min(a.val, b.val), min(a.prec, b.prec)))


def matrix_eq(A: LoopMatrix, B: LoopMatrix) -> bool:
    """Entrywise window_eq."""
    return all(window_eq(A.rows[i][k], B.rows[i][k]) for i in range(A.n) for k in range(A.n))


def iwahori_member(A: LoopMatrix) -> bool:
    """A is in the Iwahori subgroup: integral entries, upper triangular
    mod v, invertible diagonal mod v."""
    n = A.n
    for i in range(n):
        for k in range(n):
            e = A.rows[i][k]
            if not e.is_zero() and e.val < 0:
                return False
            if i > k and e.coeff(0) != 0:
                return False
            if i == k and e.coeff(0) == 0:
                return False
    return True


def normalising_decompose(A: LoopMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Oracle for affine_bruhat_decompose: the elimination that scales each
    pivot row by the inverse of the pivot's unit part, so the pivot becomes
    exactly v^m, and applies every row and column operation to the whole
    matrix.  A zero-to-precision entry O(v^k) that could win the pivot rule
    ((k, column, -row) below the chosen pivot's) raises."""
    n = A.n
    W = A.copy()
    rows_left = set(range(n))
    cols_left = set(range(n))
    nu = [0] * n
    w_of_col = [0] * n
    for _ in range(n):
        best = None
        for k in sorted(cols_left):
            for i in sorted(rows_left):
                e = W.rows[i][k]
                if e.is_zero():
                    continue
                cand = (e.val, k, -i)
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise SingularMatrixError("no pivot: matrix singular to working precision")
        for k in sorted(cols_left):
            for i in sorted(rows_left):
                e = W.rows[i][k]
                if e.is_zero() and (e.prec, k, -i) < best:
                    raise InsufficientPrecisionError("an unknown entry could be the pivot")
        m, c, negr = best
        r = -negr
        pivot = W.rows[r][c]
        # scale row r so the pivot becomes exactly v^m (legal: unit scaling)
        unit = pivot.shift(-m)  # valuation-0 unit
        uinv = unit.inverse()
        W.rows[r] = [e.mul(uinv) for e in W.rows[r]]
        # clear the rest of column c with legal row operations
        for i in list(rows_left):
            if i == r:
                continue
            e = W.rows[i][c]
            if e.is_zero():
                continue
            f = e.shift(-m)  # e / v^m = e / pivot
            if i > r and (not f.is_zero()) and f.val < 1:
                raise PivotRuleError("pivot rule violated: illegal row operation required")
            W.rows[i] = [W.rows[i][k].add(f.mul(W.rows[r][k]).neg()) for k in range(n)]
        # clear the rest of row r with legal column operations
        for k in list(cols_left):
            if k == c:
                continue
            e = W.rows[r][k]
            if e.is_zero():
                continue
            f = e.shift(-m)
            if k < c and (not f.is_zero()) and f.val < 1:
                raise PivotRuleError("pivot rule violated: illegal column operation required")
            for i in range(n):
                W.rows[i][k] = W.rows[i][k].add(f.mul(W.rows[i][c]).neg())
        nu[r] = m
        w_of_col[c] = r
        rows_left.discard(r)
        cols_left.discard(c)
    return tuple(nu), tuple(w_of_col)


def amat_nabla_check(A: LoopMatrix, a: tuple[int, ...]) -> bool:
    """Oracle for the column scaling of nabla_check: the check as it was
    when A a was the product of A with the diagonal matrix of a, whose
    entries (its zeros too) are known only to the precision of A[0][0]."""
    F, n = A.F, A.n
    prec = A.rows[0][0].prec
    amat = LoopMatrix(
        F, [[Series.monomial(F, F.from_int(a[i]), 0, prec) if i == k else Series.zero(F, prec) for k in range(n)] for i in range(n)]
    )
    Ainv = A.inverse()
    term1 = A.derivative().mul(Ainv)
    term2 = A.mul(amat).mul(Ainv)
    unknown = None
    for i in range(n):
        for k in range(n):
            e = term1.rows[i][k].shift(1).add(term2.rows[i][k]).shift(1)
            if e.is_zero():
                if unknown is None and e.prec < (1 if i > k else 0):
                    unknown = (i, k)
                continue
            if e.val < 0 or (i > k and e.coeff(0) != 0):
                return False
    if unknown is not None:
        raise InsufficientPrecisionError(f"E{unknown} leaves the answer open")
    return True


def coset_member(A: LoopMatrix, nu: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """A in I v^nu w I, tested via the decomposition."""
    return affine_bruhat_decompose(A) == (tuple(nu), tuple(w))


class TestPrimeField:
    def test_non_prime_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            field(25)


class TestSeries:
    def test_basic_arithmetic(self):
        F = field(7)
        a = Series.from_coeffs(F, {0: 2, 1: 3}, 20)
        b = Series.from_coeffs(F, {-1: 1, 2: 5}, 20)
        s = a.add(b)
        assert s.coeff(-1) == 1 and s.coeff(0) == 2 and s.coeff(2) == 5
        p = a.mul(b)
        assert p.coeff(-1) == 2 and p.coeff(0) == 3

    @staticmethod
    def random_series(F, rng):
        """Short, long (beyond the precision 144 of an n = 4 loop matrix)
        and zero-to-precision operands, with sparse windows."""
        q = F.q
        val = rng.randrange(-3, 4)
        kind = rng.randrange(4)
        if kind == 0:
            return Series.zero(F, val + rng.randrange(0, 200))
        size = rng.randrange(150, 200) if kind == 1 else rng.randrange(9)
        cs = [rng.randrange(1, q)] + [rng.choice([0, rng.randrange(q), q - 1]) for _ in range(size)]
        return Series(F, val, cs, val + rng.randrange(len(cs), len(cs) + 6))

    @pytest.mark.parametrize("q", KRONECKER_Q)
    def test_mul_matches_naive_convolution(self, q):
        F = field(q)
        rng = random.Random(q)
        cut = long = zeros = 0
        for _ in range(80):
            a, b = self.random_series(F, rng), self.random_series(F, rng)
            prec = min(a.prec + b.val, b.prec + a.val)
            # truncation drops product terms when the known window is short
            cut += prec - (a.val + b.val) < len(a.coeffs) + len(b.coeffs) - 1
            long += min(len(a.coeffs), len(b.coeffs)) >= 150
            zeros += a.is_zero() or b.is_zero()
            conv = {}
            for i, x in enumerate(a.coeffs):
                for j, y in enumerate(b.coeffs):
                    d = a.val + b.val + i + j
                    if d < prec:
                        conv[d] = (conv.get(d, 0) + x * y) % q
            got, want = a.mul(b), Series.from_coeffs(F, conv, prec)
            assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)
        assert cut > 0 and long > 0 and zeros > 0

    def test_dot_matches_schoolbook(self, monkeypatch):
        # 1-5 pairs of short, long and zero-to-precision operands at every
        # q, against the reference and the chain of mul and add, and 1-5
        # pairs of operands whose coefficients are all q - 1, which fill a
        # slot as far as the products can; the typed slot of every call is
        # read off the array typecodes it packs
        codes = []
        array = alcalc.series.array

        def spy(code, *args):
            codes.append(code)
            return array(code, *args)

        monkeypatch.setattr(alcalc.series, "array", spy)
        kinds = set()
        pair_counts = set()

        def check(F, pairs):
            pair_counts.add(len(pairs))
            codes.clear()
            got = Series.dot(F, pairs)
            chain = pairs[0][0].mul(pairs[0][1])
            for x, y in pairs[1:]:
                chain = chain.add(x.mul(y))
            assert window(got) == window(schoolbook_dot(F, pairs)) == window(chain)
            if got.coeffs:
                kinds.add(codes[0] if codes else "wide")

        for q in KRONECKER_Q:
            F = field(q)
            rng = random.Random(q + 2)
            for _ in range(60):
                check(F, [(self.random_series(F, rng), self.random_series(F, rng)) for _ in range(rng.randrange(1, 6))])
            for count in range(1, 6):
                for size in (1, 2, 3, 151):
                    check(F, [(Series(F, 0, [q - 1] * size, size + 2), Series(F, -1, [q - 1] * size, size)) for _ in range(count)])
        assert kinds == {"H", "I", "Q", "wide"}
        assert pair_counts == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 53, 521, 1000003])
    def test_add_matches_dict_sum(self, q):
        F = field(q)
        rng = random.Random(q + 1)
        for _ in range(80):
            a, b = self.random_series(F, rng), self.random_series(F, rng)
            prec = min(a.prec, b.prec)
            total = {}
            for s in (a, b):
                for i, x in enumerate(s.coeffs):
                    if s.val + i < prec:
                        total[s.val + i] = (total.get(s.val + i, 0) + x) % q
            for got in (a.add(b), b.add(a)):
                want = Series.from_coeffs(F, total, prec)
                assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)
            diff = a.add(b.neg())
            assert all(diff.coeff(d) == (a.coeff(d) - b.coeff(d)) % q for d in range(min(a.val, b.val) - 1, prec))

    def test_unit_inverse_precision(self):
        F = field(5)
        a = Series.from_coeffs(F, {1: 2, 2: 1}, 24)  # valuation 1
        inv = a.inverse()
        assert inv.val == -1
        assert inv.prec == 24 - 2  # precision drops by twice the valuation
        prod = a.mul(inv)
        assert prod.coeff(0) == 1
        assert all(prod.coeff(d) == 0 for d in range(1, prod.prec))

    def test_exact_zero(self):
        # only a zero can be exact; it bounds no precision, and a product
        # with it, or a unary operation on it, is again exact
        F = field(7)
        with pytest.raises(ValueError, match="only a zero can be exact"):
            Series(F, 2, [3], EXACT)
        z = Series.zero(F)
        assert z.is_exact_zero() and Series(F, 2, [0, 0], EXACT).is_exact_zero()
        assert repr(z) == "0" and repr(Series.zero(F, 5)) == "O(v^5)"
        x = Series.from_coeffs(F, {-2: 3, 0: 1}, 6)
        for y in (x, Series.zero(F, -3)):
            assert not y.is_exact_zero()
            assert y.mul(z).is_exact_zero() and z.mul(y).is_exact_zero()
            assert window(y.add(z)) == window(z.add(y)) == window(y)
            assert Series.dot(F, ((y, z), (z, y))).is_exact_zero()
            assert window(Series.dot(F, ((y, z), (x, x)))) == window(x.mul(x))
            assert y.scale(0).is_exact_zero()
        assert all(u.is_exact_zero() for u in (z.neg(), z.shift(-4), z.derivative(), z.scale(3)))
        assert not z.is_unit() and z.coeff(10**9) == 0

    def test_inverse_of_zero_raises(self):
        F = field(5)
        with pytest.raises(InsufficientPrecisionError):
            Series.zero(F, 10).inverse()

    def test_coeff_beyond_precision_raises(self):
        F = field(5)
        a = Series.from_coeffs(F, {0: 1}, 5)
        with pytest.raises(InsufficientPrecisionError):
            a.coeff(7)

    def test_derivative(self):
        F = field(7)
        a = Series.from_coeffs(F, {-1: 3, 0: 1, 2: 4}, 10)
        d = a.derivative()
        assert d.coeff(-2) == (-3) % 7
        assert d.coeff(1) == (2 * 4) % 7
        assert d.prec == 9

    def test_unit_detection(self):
        F = field(5)
        assert Series.from_coeffs(F, {0: 2, 3: 1}, 10).is_unit()
        assert not Series.from_coeffs(F, {1: 2}, 10).is_unit()

    def test_unit_detection_needs_the_constant_term(self):
        # O(v^0) is completed by 1 + O(v), a unit, and by O(v), which is
        # not: the test raises; O(v^k) for k >= 1 has constant term 0
        F = field(5)
        for prec in (0, -2):
            with pytest.raises(InsufficientPrecisionError):
                Series.zero(F, prec).is_unit()
        for prec in (1, 4):
            assert not Series.zero(F, prec).is_unit()


# -- completion oracle -----------------------------------------------------------
# A series knows its coefficients below `prec` and nothing from there on; a
# completion fixes the unknown tail.  Completions here are exact Laurent
# polynomials (dicts degree -> residue): the known window plus a drawn tail.

COMPLETION_Q = [2, 3, 5, 53]
COMPLETIONS = 3  # drawn per operand


@st.composite
def series(draw, F):
    val = draw(st.integers(-3, 3))
    cs = draw(st.lists(st.integers(0, F.q - 1), max_size=6))
    return Series(F, val, cs, val + len(cs) + draw(st.integers(0, 3)))


def completions(data, x):
    """Exact completions of x: its known window plus a drawn tail at the
    degrees prec .. prec + 4."""
    known = {d: x.coeff(d) for d in range(x.val, x.prec)}
    out = []
    for _ in range(COMPLETIONS):
        tail = data.draw(st.lists(st.integers(0, x.F.q - 1), max_size=5))
        out.append({**known, **{x.prec + i: c for i, c in enumerate(tail)}})
    return out


def exact_dot(q, pairs):
    out = {}
    for a, b in pairs:
        for i, x in a.items():
            for j, y in b.items():
                out[i + j] = (out.get(i + j, 0) + x * y) % q
    return out


def agrees(r, exact):
    """Every coefficient r reports, from below both valuations up to its
    precision, is the coefficient of the exact value."""
    low = min([*exact, r.val]) - 2
    return all(r.coeff(d) == exact.get(d, 0) % r.F.q for d in range(low, r.prec))


class TestCompletions:
    """Two properties per entry point: every reported coefficient agrees
    with every completion of the unknown tails, and every answer is the same
    for every completion, or else the call raises."""

    @given(st.sampled_from(COMPLETION_Q), st.data())
    @settings(max_examples=150, deadline=None)
    def test_add(self, q, data):
        F = field(q)
        x, y = data.draw(series(F)), data.draw(series(F))
        r = x.add(y)
        assert r.prec == min(x.prec, y.prec)
        for xc, yc in zip(completions(data, x), completions(data, y)):
            assert agrees(r, exact_dot(q, [(xc, {0: 1}), (yc, {0: 1})]))

    @given(st.sampled_from(COMPLETION_Q), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_dot(self, q, count, data):
        F = field(q)
        pairs = [(data.draw(series(F)), data.draw(series(F))) for _ in range(count)]
        r = Series.dot(F, pairs)
        filled = [list(zip(completions(data, x), completions(data, y))) for x, y in pairs]
        for k in range(COMPLETIONS):
            assert agrees(r, exact_dot(q, [f[k] for f in filled]))

    @given(st.sampled_from(COMPLETION_Q), st.integers(-4, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_shift(self, q, d, data):
        F = field(q)
        x = data.draw(series(F))
        r = x.shift(d)
        for xc in completions(data, x):
            assert agrees(r, {e + d: c for e, c in xc.items()})

    @given(st.sampled_from(COMPLETION_Q), st.data())
    @settings(max_examples=150, deadline=None)
    def test_derivative(self, q, data):
        F = field(q)
        x = data.draw(series(F))
        r = x.derivative()
        for xc in completions(data, x):
            assert agrees(r, {e - 1: e * c for e, c in xc.items()})

    @given(st.sampled_from(COMPLETION_Q), st.data())
    @settings(max_examples=150, deadline=None)
    def test_inverse(self, q, data):
        F = field(q)
        x = data.draw(series(F))
        try:
            r = x.inverse()
        except InsufficientPrecisionError:
            # only an unknown leading coefficient may raise: then the zero
            # completion has no inverse while others have one
            assert x.is_zero()
            return
        for xc in completions(data, x):
            # the answer: every completion is invertible with valuation -val(r)
            val = min(d for d, c in xc.items() if c % q)
            assert val == -r.val
            # xc * r is 1 up to the degree its known window reaches, which
            # pins r's window to the inverse of xc there
            known = {d: r.coeff(d) for d in range(r.val, r.prec)}
            product = exact_dot(q, [(xc, known)])
            assert all(product.get(d, 0) == (d == 0) for d in range(0, r.prec + val))

    @given(st.sampled_from(COMPLETION_Q), st.data())
    @settings(max_examples=150, deadline=None)
    def test_is_unit(self, q, data):
        F = field(q)
        x = data.draw(series(F))
        try:
            got = x.is_unit()
        except InsufficientPrecisionError:
            # only an unknown constant term may raise
            assert x.is_zero() and x.prec <= 0
            return
        for xc in completions(data, x):
            assert got == (min((d for d, c in xc.items() if c % q), default=None) == 0)


class TestMatrixOps:
    def test_identity_inverse(self):
        F = field(5)
        I = identity(F, 3, 20)
        assert matrix_eq(I.inverse(), I)

    def test_diag_v_inverse(self):
        F = field(5)
        A = LoopMatrix.monomial(F, (1, 0), (0, 1), 20)
        Ainv = A.inverse()
        assert Ainv.rows[0][0].val == -1
        assert matrix_eq(A.mul(Ainv), identity(F, 2, 18))

    def test_random_iwahori_inverse_roundtrip(self):
        rng = random.Random(0)
        F = field(5)
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            X = random_iwahori(F, n, 24, rng)
            assert matrix_eq(X.mul(X.inverse()), identity(F, n, 20))

    def test_singular_raises(self):
        F = field(5)
        Z = LoopMatrix(F, [[Series.zero(F, 10) for _ in range(2)] for _ in range(2)])
        with pytest.raises(SingularMatrixError):
            Z.inverse()

    @pytest.mark.parametrize("q", KRONECKER_Q)
    def test_mul_matches_schoolbook(self, q):
        # every entry of a product of n x n matrices (n = 1..5) of short,
        # long and zero-to-precision entries is the dot of a row and a column
        F = field(q)
        rng = random.Random(q + 3)
        for n in (1, 2, 3, 4, 5):
            A, B = (LoopMatrix(F, [[TestSeries.random_series(F, rng) for _ in range(n)] for _ in range(n)]) for _ in "AB")
            got = A.mul(B)
            for i in range(n):
                for k in range(n):
                    want = schoolbook_dot(F, [(A.rows[i][m], B.rows[m][k]) for m in range(n)])
                    assert window(got.rows[i][k]) == window(want)


class TestIwahoriMember:
    def test_identity(self):
        F = field(5)
        assert iwahori_member(identity(F, 2, 10))

    def test_lower_unipotent(self):
        F = field(5)
        rows = identity(F, 2, 10).rows
        rows[1][0] = Series.one(F, 10)
        assert not iwahori_member(LoopMatrix(F, rows))
        rows2 = identity(F, 2, 10).rows
        rows2[1][0] = Series.monomial(F, 1, 1, 10)  # u_{-alpha}(v)
        assert iwahori_member(LoopMatrix(F, rows2))

    def test_v_eta_not_member(self):
        F = field(5)
        assert not iwahori_member(LoopMatrix.monomial(F, (2, 1, 0), (0, 1, 2), 20))

    def test_random_samples_are_members(self):
        rng = random.Random(1)
        F = field(7)
        for _ in range(20):
            assert iwahori_member(random_iwahori(F, 3, 20, rng))


class TestDecompose:
    def test_monomial(self):
        F = field(5)
        nu, w = (2, -1, 0), (1, 2, 0)
        assert affine_bruhat_decompose(LoopMatrix.monomial(F, nu, w, 30)) == (nu, w)

    def test_identity(self):
        F = field(5)
        assert affine_bruhat_decompose(identity(F, 3, 30)) == ((0, 0, 0), (0, 1, 2))

    def test_construct_and_recover(self):
        rng = random.Random(2)
        for q in (5, 7):
            F = field(q)
            for _ in range(40):
                n = rng.choice([2, 3, 4])
                nu = tuple(rng.randrange(-3, 4) for _ in range(n))
                w = list(range(n))
                rng.shuffle(w)
                w = tuple(w)
                prec = default_precision(n, 8)
                A = random_iwahori(F, n, prec, rng).mul(LoopMatrix.monomial(F, nu, w, prec)).mul(random_iwahori(F, n, prec, rng))
                assert affine_bruhat_decompose(A) == (nu, w)
                assert coset_member(A, nu, w)

    def test_singular_raises(self):
        F = field(5)
        with pytest.raises(SingularMatrixError):
            affine_bruhat_decompose(LoopMatrix(F, [[Series.zero(F, 10) for _ in range(2)] for _ in range(2)]))

    @staticmethod
    def _random_matrix(F, n, prec, rng):
        """Laurent polynomial entries of valuation -3..3, a fifth of them
        zero, each known to its own precision between 2 and prec."""
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                lo = rng.randrange(-3, 4)
                cs = {} if rng.random() < 0.2 else {d: F.rand(rng) for d in range(lo, lo + rng.randrange(1, 6))}
                row.append(Series.from_coeffs(F, cs, rng.randrange(2, prec + 1)))
            rows.append(row)
        return LoopMatrix(F, rows)

    @staticmethod
    def _outcome(decompose, A):
        try:
            return decompose(A)
        except ArithmeticError as exc:
            return type(exc)

    def test_agrees_with_normalising_elimination(self):
        # coset products I v^nu w I, random matrices and products of two
        # random matrices (mixed entry precisions), at every n, p and
        # precisions from 2 up to the working precision
        rng = random.Random(17)
        kinds = {"returned": 0, "raised": 0}
        for n in (2, 3, 4, 5):
            for q in (2, 3, 5, 7, 53):
                F = field(q)
                for trial in range(18):
                    prec = rng.randrange(2, default_precision(n, 8) + 1)
                    if trial % 3 == 0:
                        nu = tuple(rng.randrange(-3, 4) for _ in range(n))
                        w = list(range(n))
                        rng.shuffle(w)
                        M = LoopMatrix.monomial(F, nu, tuple(w), prec)
                        A = random_iwahori(F, n, prec, rng).mul(M).mul(random_iwahori(F, n, prec, rng))
                    elif trial % 3 == 1:
                        A = self._random_matrix(F, n, prec, rng)
                    else:
                        A = self._random_matrix(F, n, prec, rng).mul(self._random_matrix(F, n, prec, rng))
                    want = self._outcome(normalising_decompose, A)
                    assert self._outcome(affine_bruhat_decompose, A) == want, (n, q, prec, trial)
                    kinds["raised" if isinstance(want, type) else "returned"] += 1
        assert kinds["returned"] > 200 and kinds["raised"] > 20

    def test_cleared_entries_keep_the_pivot_precision(self):
        # the pivot 1 + O(v^2) fixes v*d - b*c only to O(v^3), so the entry
        # v^3 left after the clear is zero to precision: both the new zero
        # under the pivot and the column clear must carry that precision
        F = field(5)
        A = LoopMatrix(
            F,
            [
                [Series.monomial(F, 1, 1, 20), Series.from_coeffs(F, {1: 1, 3: 1}, 20)],
                [Series.one(F, 2), Series.one(F, 20)],
            ],
        )
        for decompose in (normalising_decompose, affine_bruhat_decompose):
            with pytest.raises(SingularMatrixError):
                decompose(A)

    def test_unit_scaling_keeps_precision(self):
        # scaling a row by the pivot's unit part, taken to the pivot's
        # precision only, would lose the precision this answer needs
        F = field(2)
        spec = [
            [(2, [1], 15), (3, [1, 1, 1], 9), (2, [1], 7)],
            [(1, [1, 1, 0, 0, 1], 11), (-1, [1], 2), (0, [1, 1], 12)],
            [(3, [1], 9), (15, [], 15), (3, [1, 0, 1], 9)],
        ]
        A = LoopMatrix(F, [[Series(F, val, cs, prec) for val, cs, prec in row] for row in spec])
        want = ((2, -1, 6), (0, 1, 2))
        assert normalising_decompose(A) == want
        assert affine_bruhat_decompose(A) == want

    def test_unknown_entry_that_could_be_the_pivot_raises(self):
        # [[v^-1 + O(v), 6v + 6v^2 + 6v^4 + O(v^6)],
        #  [O(v^-1),     2v^-1 + 5 + v + O(v^4)]] over F_7: the lower-left
        # entry is unknown from v^-1 on, so it may hold the pivot
        F = field(7)
        A = LoopMatrix(
            F,
            [
                [Series(F, -1, [1], 1), Series(F, 1, [6, 6, 0, 6], 6)],
                [Series.zero(F, -1), Series(F, -1, [2, 5, 1], 4)],
            ],
        )
        for decompose in (normalising_decompose, affine_bruhat_decompose):
            with pytest.raises(InsufficientPrecisionError):
                decompose(A)
        # two completions of the unknown entry give different cosets
        for lower_left, w in ((Series.zero(F, 20), (0, 1)), (Series(F, -1, [1], 20), (1, 0))):
            full = LoopMatrix(F, [[A.rows[0][0], A.rows[0][1]], [lower_left, A.rows[1][1]]])
            full = LoopMatrix(F, [[Series(F, e.val, e.coeffs, 20) for e in row] for row in full.rows])
            assert affine_bruhat_decompose(full)[1] == w

    def test_answer_is_the_same_for_every_completion(self):
        # every unknown tail filled with random coefficients and known far
        # beyond: a returned (nu, w) must not change, or the call raises
        rng = random.Random(23)

        def tail(F):
            return [F.rand(rng) for _ in range(8)]

        returned = compared = 0
        for trial in range(900):
            n = 2 + trial % 2
            F = field(rng.choice([2, 3, 5, 7]))
            A = self._random_matrix(F, n, default_precision(n, 8), rng)
            try:
                got = affine_bruhat_decompose(A)
            except ArithmeticError:
                continue
            returned += 1
            for _ in range(3):
                full = LoopMatrix(
                    F,
                    [
                        [Series(F, e.val, e.coeffs + [0] * (e.prec - e.val - len(e.coeffs)) + tail(F), e.prec + 40) for e in row]
                        for row in A.rows
                    ],
                )
                try:
                    other = affine_bruhat_decompose(full)
                except ArithmeticError:
                    continue
                compared += 1
                assert other == got, (trial, A)
        assert returned > 300 and compared > 2 * returned

    def test_no_inverse_and_bounded_products(self, monkeypatch):
        # products are counted as the pairs handed to Series.dot, which
        # Series.mul also goes through
        calls = {"inverse": 0, "products": 0}
        inverse, dot = Series.inverse, Series.dot

        def counted_inverse(*args):
            calls["inverse"] += 1
            return inverse(*args)

        def counted_dot(F, pairs):
            pairs = list(pairs)
            calls["products"] += len(pairs)
            return dot(F, pairs)

        rng = random.Random(5)
        F = field(7)
        for n in (2, 3, 4, 5):
            prec = default_precision(n, 8)
            nu = tuple(rng.randrange(-3, 4) for _ in range(n))
            w = tuple(rng.sample(range(n), n))
            A = random_iwahori(F, n, prec, rng).mul(LoopMatrix.monomial(F, nu, w, prec)).mul(random_iwahori(F, n, prec, rng))
            calls.update(inverse=0, products=0)
            with monkeypatch.context() as mp:
                mp.setattr(Series, "inverse", counted_inverse)
                mp.setattr(Series, "dot", staticmethod(counted_dot))
                assert affine_bruhat_decompose(A) == (nu, w)
            # two products per live entry off the pivot column of each
            # cleared row: at most (n-1)n(2n-1)/3, below 2(n^3-n)/3
            assert calls["inverse"] == 0
            assert 0 < calls["products"] <= (n - 1) * n * (2 * n - 1) // 3


class TestNabla:
    def test_diagonal_translations(self):
        rng = random.Random(3)
        F = field(5)
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            nu = tuple(rng.randrange(-3, 4) for _ in range(n))
            a = tuple(rng.randrange(5) for _ in range(n))
            assert nabla_check(LoopMatrix.monomial(F, nu, tuple(range(n)), 30), a)

    def test_unit_diag_conjugation(self):
        # A = v^eta, any diagonal a: E = v (eta + a) diagonal
        F = field(7)
        assert nabla_check(LoopMatrix.monomial(F, (2, 1, 0), (0, 1, 2), 30), (3, 1, 4))

    def test_false_instance(self):
        # A = v^eta u_{-alpha}(1) picks up a pole for a_1 != a_n
        F = field(7)
        M = LoopMatrix.monomial(F, (2, 1, 0), (0, 1, 2), 30)
        U = identity(F, 3, 30)
        U.rows[2][0] = Series.one(F, 30)
        A = M.mul(U)
        assert not nabla_check(A, (1, 2, 5))
        assert nabla_check(A, (2, 0, 2))  # a_1 = a_n restores integrality

    def test_unknown_entry_that_decides_raises(self):
        # [[2v^4 + O(v^8), O(v^4)], [O(v^2), 4v^-2 + O(v^4)]] over F_5 with
        # a = (2, 2): the lower-left entry of E is O(v^-1), so neither its
        # integrality nor its v^0 coefficient, which must vanish, is known
        F = field(5)
        A = LoopMatrix(F, [[Series(F, 4, [2], 8), Series.zero(F, 4)], [Series.zero(F, 2), Series(F, -2, [4], 4)]])
        with pytest.raises(InsufficientPrecisionError, match=r"E\[1\]\[0\]"):
            nabla_check(A, (2, 2))
        # two completions of the unknown lower-left entry give both answers
        for lower_left, want in ((Series.zero(F, 20), True), (Series(F, 2, [1], 20), False)):
            full = LoopMatrix(F, [[Series(F, 4, [2], 20), Series.zero(F, 20)], [lower_left, Series(F, -2, [4], 20)]])
            assert nabla_check(full, (2, 2)) is want

    def test_known_failure_decides_before_an_unknown_entry(self):
        # the false instance with its upper-middle entry known only to
        # O(v^2): the v^0 coefficient of E[2][1] is then unknown, yet the
        # pole of E at a_1 != a_n still decides, and at a_1 = a_n it does not
        F = field(7)
        M = LoopMatrix.monomial(F, (2, 1, 0), (0, 1, 2), 30)
        U = identity(F, 3, 30)
        U.rows[2][0] = Series.one(F, 30)
        A = M.mul(U)
        A.rows[0][1] = Series.zero(F, 2)
        assert not nabla_check(A, (1, 2, 5))
        with pytest.raises(InsufficientPrecisionError, match=r"E\[2\]\[1\]"):
            nabla_check(A, (2, 0, 2))

    def test_answer_is_the_same_for_every_completion(self):
        # every unknown tail filled with random coefficients and known far
        # beyond: a returned answer must not change, or the call raises
        rng = random.Random(29)
        returned = compared = 0
        for trial in range(600):
            n = 2 + trial % 2
            F = field(rng.choice([5, 7]))
            A = TestDecompose._random_matrix(F, n, rng.randrange(4, 14), rng)
            a = tuple(rng.randrange(F.p) for _ in range(n))
            try:
                got = nabla_check(A, a)
            except ArithmeticError:
                continue
            returned += 1
            for _ in range(3):
                full = LoopMatrix(
                    F,
                    [
                        [Series(F, e.val, e.coeffs + [0] * (e.prec - e.val - len(e.coeffs)) + [F.rand(rng) for _ in range(8)], e.prec + 40) for e in row]
                        for row in A.rows
                    ],
                )
                try:
                    other = nabla_check(full, a)
                except ArithmeticError:
                    continue
                compared += 1
                assert other == got, (trial, A, a)
        assert returned > 200 and compared > 2 * returned


    def test_column_scaling_matches_the_diagonal_product(self):
        # A a by scaling column k by a_k against the product with the
        # diagonal matrix of a, on random matrices with exact zeros, on
        # constant upper triangular times v^nu (where E is integral) and on
        # Iwahori products X v^nu w Y; each matrix is also given with its
        # exact zeros weakened to O(v^prec), as they were before zeros could
        # be exact.  Wherever the oracle answers, nabla_check gives the same
        # answer, on the matrix and on its weakened form.
        rng = random.Random(41)
        answers = {True: 0, False: 0}
        for trial in range(300):
            n = 2 + trial % 3
            F = field(rng.choice([5, 7]))
            prec = rng.randrange(3, 16)
            kind = trial // 3 % 3
            if kind == 0:
                A = TestDecompose._random_matrix(F, n, prec, rng)
                for _ in range(rng.randrange(n)):
                    A.rows[rng.randrange(n)][rng.randrange(n)] = Series.zero(F)
            else:
                nu = tuple(rng.randrange(-3, 4) for _ in range(n))
                w = tuple(range(n)) if kind == 1 else tuple(rng.sample(range(n), n))
                A = LoopMatrix.monomial(F, nu, w, prec)
                if kind == 1:
                    X = LoopMatrix.monomial(F, (0,) * n, w, prec + 3)
                    for i in range(n):
                        X.rows[i][i] = Series(F, 0, [F.rand_unit(rng)], prec + 3)
                        for k in range(i + 1, n):
                            X.rows[i][k] = Series(F, 0, [F.rand(rng)], prec + 3)
                    A = X.mul(A)
                else:
                    A = random_iwahori(F, n, prec, rng).mul(A).mul(random_iwahori(F, n, prec, rng))
            a = tuple(rng.randrange(F.p) for _ in range(n))
            weak = LoopMatrix(F, [[Series.zero(F, prec) if e.is_exact_zero() else e for e in row] for row in A.rows])
            for B in (A, weak):
                if B.rows[0][0].is_exact_zero():
                    continue  # the oracle takes its precision from A[0][0]
                try:
                    want = amat_nabla_check(B, a)
                except ArithmeticError:
                    continue
                answers[want] += 1
                assert nabla_check(B, a) is want and nabla_check(A, a) is want, (trial, A, a)
        assert answers[True] > 50 and answers[False] > 50, answers


class TestRowReduce:
    def test_already_lower_unipotent_with_unit_conditions(self):
        # M with unit -alpha entry and unit minors reduces with recorded ops
        F = field(53)
        prec = 40
        M = identity(F, 3, prec)
        M.rows[1][0] = Series.from_coeffs(F, {0: 3}, prec)
        M.rows[2][0] = Series.from_coeffs(F, {0: 7}, prec)
        M.rows[2][1] = Series.from_coeffs(F, {0: 5}, prec)
        ops, lower = iwahori_row_reduce(M, 0, 2)
        for i in range(3):
            assert lower.rows[i][i].coeff(0) == 1
            for k in range(i + 1, 3):
                assert lower.rows[i][k].is_zero()

    def test_product_verification(self):
        # applying the recorded operations to M*s_alpha reproduces the output
        rng = random.Random(4)
        F = field(53)
        prec = 40
        for _ in range(20):
            M = identity(F, 3, prec)
            a21, a32 = rng.randrange(1, 53), rng.randrange(1, 53)
            a31 = rng.randrange(1, 53)
            if (a21 * a32 - a31) % 53 == 0:
                continue
            M.rows[1][0] = Series.from_coeffs(F, {0: a21}, prec)
            M.rows[2][0] = Series.from_coeffs(F, {0: a31}, prec)
            M.rows[2][1] = Series.from_coeffs(F, {0: a32}, prec)
            ops, lower = iwahori_row_reduce(M, 0, 2)
            B = M.copy()
            for i in range(3):
                B.rows[i][0], B.rows[i][2] = B.rows[i][2], B.rows[i][0]
            for kind, i, k, f in ops:
                if kind == "add":
                    B.rows[i] = [B.rows[i][c].add(f.mul(B.rows[k][c])) for c in range(3)]
                else:
                    B.rows[i] = [e.mul(f) for e in B.rows[i]]
            assert matrix_eq(B, lower)

    def test_minor_failure_named(self):
        # a_31 = a_21 a_32 makes M_2 singular
        F = field(53)
        prec = 40
        M = identity(F, 3, prec)
        M.rows[1][0] = Series.from_coeffs(F, {0: 3}, prec)
        M.rows[2][1] = Series.from_coeffs(F, {0: 5}, prec)
        M.rows[2][0] = Series.from_coeffs(F, {0: 15}, prec)
        with pytest.raises(RowReduceError, match="M_2"):
            iwahori_row_reduce(M, 0, 2)

    def test_unit_condition_2_named(self):
        F = field(53)
        prec = 40
        M = identity(F, 3, prec)
        M.rows[2][0] = Series.monomial(F, 1, 1, prec)  # valuation 1: not a unit
        with pytest.raises(RowReduceError, match="condition \\(2\\)"):
            iwahori_row_reduce(M, 0, 2)


class TestCrossModule:
    def test_compose_matches_matrix_multiplication(self):
        # the group law on extended affine elements realizes as monomial
        # matrix multiplication followed by coset decomposition
        from alcalc.weyl import aff_mul, all_perms

        rng = random.Random(9)
        F = field(7)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            prec = default_precision(n, 8)
            x = (tuple(rng.randrange(-2, 3) for _ in range(n)), rng.choice(all_perms(n)))
            y = (tuple(rng.randrange(-2, 3) for _ in range(n)), rng.choice(all_perms(n)))
            Mx = LoopMatrix.monomial(F, x[0], x[1], prec)
            My = LoopMatrix.monomial(F, y[0], y[1], prec)
            assert affine_bruhat_decompose(Mx.mul(My)) == aff_mul(x, y)


class TestPrecisionContracts:
    def test_low_precision_raises_not_truncates(self):
        # starving the decomposition of precision must raise, not guess
        import pytest as _pytest

        from alcalc.series import InsufficientPrecisionError

        F = field(5)
        rng = random.Random(13)
        M = LoopMatrix.monomial(F, (3, -3), (1, 0), 2)  # precision below the valuations
        with _pytest.raises((InsufficientPrecisionError, SingularMatrixError)):
            affine_bruhat_decompose(M.mul(random_iwahori(F, 2, 2, rng)))
