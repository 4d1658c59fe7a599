"""Laurent series, loop matrices, Iwahori decomposition, monodromy."""

import random

import pytest

from alcalc.gf import field
from alcalc.loopmat import (
    LoopMatrix,
    RowReduceError,
    SingularMatrixError,
    affine_bruhat_decompose,
    coset_member,
    default_precision,
    iwahori_member,
    iwahori_row_reduce,
    nabla_check,
    random_iwahori,
)
from alcalc.series import InsufficientPrecisionError, Series


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

    @pytest.mark.parametrize("q", [53, 521])
    def test_mul_matches_naive_convolution(self, q):
        F = field(q)
        rng = random.Random(q)

        def rand():
            val = rng.randrange(-3, 4)
            cs = [rng.randrange(1, q)] + [rng.choice([0, rng.randrange(q)]) for _ in range(rng.randrange(8))]
            return Series(F, val, cs, val + rng.randrange(len(cs), len(cs) + 6))

        for _ in range(40):
            a, b = rand(), rand()
            prec = min(a.prec + b.val, b.prec + a.val)
            conv = {}
            for i, x in enumerate(a.coeffs):
                for j, y in enumerate(b.coeffs):
                    d = a.val + b.val + i + j
                    if d < prec:
                        conv[d] = (conv.get(d, 0) + x * y) % q
            got, want = a.mul(b), Series.from_coeffs(F, conv, prec)
            assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)

    def test_unit_inverse_precision(self):
        F = field(5)
        a = Series.from_coeffs(F, {1: 2, 2: 1}, 24)  # valuation 1
        inv = a.inverse()
        assert inv.val == -1
        assert inv.prec == 24 - 2  # precision drops by twice the valuation
        prod = a.mul(inv)
        assert prod.coeff(0) == 1
        assert all(prod.coeff(d) == 0 for d in range(1, prod.prec))

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


class TestMatrixOps:
    def test_identity_inverse(self):
        F = field(5)
        I = LoopMatrix.identity(F, 3, 20)
        assert I.inverse().eq(I)

    def test_diag_v_inverse(self):
        F = field(5)
        A = LoopMatrix.monomial(F, (1, 0), (0, 1), 20)
        Ainv = A.inverse()
        assert Ainv.rows[0][0].val == -1
        assert A.mul(Ainv).eq(LoopMatrix.identity(F, 2, 18))

    def test_random_iwahori_inverse_roundtrip(self):
        rng = random.Random(0)
        F = field(5)
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            X = random_iwahori(F, n, 24, rng)
            assert X.mul(X.inverse()).eq(LoopMatrix.identity(F, n, 20))

    def test_singular_raises(self):
        F = field(5)
        Z = LoopMatrix.zero(F, 2, 10)
        with pytest.raises(SingularMatrixError):
            Z.inverse()


class TestIwahoriMember:
    def test_identity(self):
        F = field(5)
        assert iwahori_member(LoopMatrix.identity(F, 2, 10))

    def test_lower_unipotent(self):
        F = field(5)
        rows = LoopMatrix.identity(F, 2, 10).rows
        rows[1][0] = Series.one(F, 10)
        assert not iwahori_member(LoopMatrix(F, rows))
        rows2 = LoopMatrix.identity(F, 2, 10).rows
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
        assert affine_bruhat_decompose(LoopMatrix.identity(F, 3, 30)) == ((0, 0, 0), (0, 1, 2))

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
            affine_bruhat_decompose(LoopMatrix.zero(F, 2, 10))


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
        U = LoopMatrix.identity(F, 3, 30)
        U.rows[2][0] = Series.one(F, 30)
        A = M.mul(U)
        assert not nabla_check(A, (1, 2, 5))
        assert nabla_check(A, (2, 0, 2))  # a_1 = a_n restores integrality


class TestRowReduce:
    def test_already_lower_unipotent_with_unit_conditions(self):
        # M with unit -alpha entry and unit minors reduces with recorded ops
        F = field(53)
        prec = 40
        M = LoopMatrix.identity(F, 3, prec)
        M.rows[1][0] = Series.from_coeffs(F, {0: 3}, prec)
        M.rows[2][0] = Series.from_coeffs(F, {0: 7}, prec)
        M.rows[2][1] = Series.from_coeffs(F, {0: 5}, prec)
        ops, lower = iwahori_row_reduce(M, 0, 2)
        for i in range(3):
            assert lower.rows[i][i].constant_term() == 1
            for k in range(i + 1, 3):
                assert lower.rows[i][k].is_zero()

    def test_product_verification(self):
        # applying the recorded operations to M*s_alpha reproduces the output
        rng = random.Random(4)
        F = field(53)
        prec = 40
        for _ in range(20):
            M = LoopMatrix.identity(F, 3, prec)
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
            assert B.eq(lower)

    def test_minor_failure_named(self):
        # a_31 = a_21 a_32 makes M_2 singular
        F = field(53)
        prec = 40
        M = LoopMatrix.identity(F, 3, prec)
        M.rows[1][0] = Series.from_coeffs(F, {0: 3}, prec)
        M.rows[2][1] = Series.from_coeffs(F, {0: 5}, prec)
        M.rows[2][0] = Series.from_coeffs(F, {0: 15}, prec)
        with pytest.raises(RowReduceError, match="M_2"):
            iwahori_row_reduce(M, 0, 2)

    def test_unit_condition_2_named(self):
        F = field(53)
        prec = 40
        M = LoopMatrix.identity(F, 3, prec)
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
