"""Exact p-valuation scalars and integral matrix certificates."""

from fractions import Fraction

import pytest

from alcalc.pval import PVal
from alcalc.rmatrix import PMatrix, VPoly, nabla_certify


def of_ints(p, ints):
    """The v-polynomial with integer coefficients ints (index = degree)."""
    return VPoly(p, [PVal.of(m, p) for m in ints])


def v_plus_p_power(p, e):
    """(v + p)^e."""
    out = of_ints(p, [1])
    for _ in range(e):
        out = out.mul(of_ints(p, [p, 1]))
    return out


class TestPVal:
    def test_valuations(self):
        p = 53
        assert PVal.of(53, p).valuation() == 1
        assert PVal.of(Fraction(1, 53), p).valuation() == -1
        assert PVal.sqrt_p(p).valuation() == Fraction(1, 2)
        assert (PVal.of(53, p) + PVal.sqrt_p(p)).valuation() == Fraction(1, 2)
        assert (PVal.sqrt_p(p) * PVal.sqrt_p(p)).valuation() == 1

    def test_field_axioms_sample(self):
        p = 53
        x = PVal.of(Fraction(3, 7), p) + PVal.sqrt_p(p, Fraction(2, 5))
        y = PVal.of(11, p) + PVal.sqrt_p(p, 9)
        assert ((x * y) / y - x).is_zero()
        assert (x * x.inverse() - PVal.one(p)).is_zero()

    def test_residue(self):
        p = 53
        assert PVal.of(54, p).residue() == 1
        assert PVal.of(53, p).residue() == 0
        assert (PVal.of(2, p) + PVal.sqrt_p(p)).residue() == 2
        with pytest.raises(ValueError):
            PVal.of(Fraction(1, 53), p).residue()

    def test_units(self):
        p = 53
        assert PVal.of(7, p).is_unit()
        assert not PVal.of(53, p).is_unit()
        assert not PVal.sqrt_p(p).is_unit()


class TestVPoly:
    def test_divide_v_plus_p(self):
        p = 53
        f = v_plus_p_power(p, 2).mul(of_ints(p, [1, 2]))
        q, r = f.divide_v_plus_p()
        assert r.is_zero()
        q2, r2 = q.divide_v_plus_p()
        assert r2.is_zero()
        assert [c.a for c in q2.coeffs] == [1, 2]
        g = f.add(of_ints(p, [9]))
        _, r3 = g.divide_v_plus_p()
        assert r3.a == 9

    def test_derivative_and_eval(self):
        p = 53
        f = of_ints(p, [1, 2, 3])
        assert [c.a for c in f.derivative().coeffs] == [2, 6]
        assert f.eval0().a == 1


class TestNablaCertify:
    def test_translation_passes(self):
        p = 53
        n = 3
        eta = (2, 1, 0)
        A = PMatrix(
            p,
            [
                [v_plus_p_power(p, eta[i]) if i == k else VPoly.zero(p) for k in range(n)]
                for i in range(n)
            ],
        )
        rep = nabla_certify(A, (30, 20, 10), det_vp_order=3)
        assert rep["ok"]

    def test_wrong_det_power_rejected(self):
        p = 53
        A = PMatrix.identity(p, 2)
        rep = nabla_certify(A, (1, 2), det_vp_order=1)
        assert not rep["ok"]

    def test_broken_lower_entry_rejected(self):
        p = 53
        n = 2
        A = PMatrix(
            p,
            [
                [v_plus_p_power(p, 1), VPoly.zero(p)],
                [of_ints(p, [1]), of_ints(p, [1])],
            ],
        )
        rep = nabla_certify(A, (7, 30), det_vp_order=1)
        assert not rep["ok"]
