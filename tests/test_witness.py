"""Witness pipeline, Frobenius minors, integral chart lifts."""

import random
from fractions import Fraction
from functools import partial
from math import comb

import pytest

import alcalc.chartsolve as chartsolve
from alcalc.chartsolve import CVAR, ChartShape, ChartSystem, avar, gf_chart_system, pval_chart_system, vvar
from alcalc.gf import FElem, field
from alcalc.mpoly import Poly, SolveError, solve_equations
from alcalc.pval import PVal
from alcalc.rmatrix import PMatrix, VPoly, frobenius_minors_f, nabla_certify
from alcalc.serre import build_setup, special_pairs
from alcalc.weyl import (
    PermTuple,
    Weight,
    all_perms,
    eta_weight,
    negative_roots,
    perm_act_vec,
    perm_inv,
    restricted_lift,
)
from alcalc.witness import (
    WitnessError,
    extremal_chart_point,
    witness_family,
    witness_triple_intersection,
)


def deep_omega(n, p):
    g = p // (n + 1)
    return Weight.of([tuple(g * (n - 1 - i) for i in range(n))])


def setup_n3(p=53):
    return build_setup(
        restricted_lift(PermTuple.of([(0, 2, 1)])),
        restricted_lift(PermTuple.of([(2, 0, 1)])),
        deep_omega(3, p),
        p,
    )


def _frobenius_minors_general(charts, s_perms, p):
    """f_i by the general route: multiply out the conjugated diagonal
    parts as full matrices, invert by adjugate and take leading minors by
    Laplace expansion."""
    f = len(charts)
    n = charts[0].n

    def matmul(X, Y):
        return [[sum((X[i][m] * Y[m][k] for m in range(n)), PVal.zero(p)) for k in range(n)] for i in range(n)]

    def det(M):
        m = len(M)
        if m == 0:
            return PVal.one(p)
        if m == 1:
            return M[0][0]
        acc = PVal.zero(p)
        for k in range(m):
            term = M[0][k] * det([[M[i][c] for c in range(m) if c != k] for i in range(1, m)])
            acc = acc + (-term if k % 2 else term)
        return acc

    prod = [[PVal.one(p) if i == k else PVal.zero(p) for k in range(n)] for i in range(n)]
    for j in range(f - 1, -1, -1):
        dbar = charts[j].diag_mod_v()
        winv = [0] * n
        for i, wi in enumerate(s_perms[j]):
            winv[wi] = i
        prod = matmul(prod, [[dbar[winv[i]] if i == k else PVal.zero(p) for k in range(n)] for i in range(n)])
    dp = det(prod)
    if dp.is_zero():
        raise ZeroDivisionError("singular Frobenius product")
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            m = det([[prod[r][c] for c in range(n) if c != k] for r in range(n) if r != i])
            inv[k][i] = (-m if (i + k) % 2 else m) / dp
    values = []
    for i in range(1, n + 1):
        minor = det([[inv[r][c] for c in range(i)] for r in range(i)])
        values.append(PVal.of(p ** (f * i * (2 * n - i - 1) // 2), p) * minor)
    return values


def _random_chart(p, n, rng):
    """A chart whose diagonal mod v is random (p-adic units, p-multiples,
    sqrt(p) parts, sometimes zero) with arbitrary higher-degree terms."""
    rows = []
    for i in range(n):
        row = []
        for k in range(n):
            const = PVal.of(Fraction(rng.randrange(1, 31) * rng.choice([1, -1, p, -p]), rng.choice([1, 3, p])), p)
            if rng.random() < 0.2:
                const = const + PVal.sqrt_p(p, rng.randrange(1, 4))
            if rng.random() < 0.06:
                const = PVal.zero(p)
            row.append(VPoly(p, [const, PVal.of(rng.randrange(-5, 6), p)]))
        rows.append(row)
    return PMatrix(p, rows)


class TestFrobeniusMinors:
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_matches_general_inverse_and_minors(self, f):
        rng = random.Random(40 + f)
        p = 7
        singular = 0
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            charts = [_random_chart(p, n, rng) for _ in range(f)]
            perms = [tuple(rng.sample(range(n), n)) for _ in range(f)]
            try:
                expect = _frobenius_minors_general(charts, perms, p)
            except ZeroDivisionError:
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    frobenius_minors_f(charts, perms, p)
                continue
            assert frobenius_minors_f(charts, perms, p).values == expect
        assert 0 < singular < 25

    def test_identity_input_valuations(self):
        p = 53
        for n in (2, 3, 4):
            for f in (1, 2):
                I = PMatrix.identity(p, n)
                res = frobenius_minors_f([I] * f, [tuple(range(n))] * f, p)
                for i in range(1, n + 1):
                    assert res.valuations[i - 1] == f * i * (2 * n - i - 1) // 2
                assert not res.f_n_is_unit()  # identity is not a valid chart

    def test_diagonal_units_times_p_powers_ordinary(self):
        p = 53
        n = 3
        diag = [2 * p**2, 3 * p, 5]
        M = PMatrix(p, [[VPoly.const(p, PVal.of(diag[i], p)) if i == k else VPoly.zero(p) for k in range(n)] for i in range(n)])
        res = frobenius_minors_f([M], [tuple(range(n))], p)
        assert res.is_ordinary() and res.f_n_is_unit()
        # telescoping: sum_{m <= i} (n - m) = i(2n - i - 1)/2 cancels exactly
        assert all(v == 0 for v in res.valuations)

    def test_singular_product_rejected(self):
        p = 53
        Z = PMatrix(p, [[VPoly.zero(p)] * 2 for _ in range(2)])
        with pytest.raises(ZeroDivisionError):
            frobenius_minors_f([Z], [(0, 1)], p)


class TestWitnessN3:
    def test_full_pipeline(self):
        sd = setup_n3()
        res = witness_triple_intersection(sd, t=2)
        for name, val in res.checks.items():
            ok = all(val) if isinstance(val, list) else val
            assert ok, f"check {name} failed"
        # supersingular wrt sigma, f_n a unit equal to t
        vals = res.f_sigma.valuations
        assert vals[0] > 0 and vals[1] > 0 and vals[2] == 0
        assert (res.f_sigma.values[-1] - PVal.of(2, res.setup.p)).is_zero()
        # ordinary-compatible character wrt sigma': all units
        assert all(x != 0 for x in res.chi_sigma_prime)
        assert res.free_parameters == 2

    @pytest.mark.parametrize("cause", ["genericity", "solve"])
    def test_construction_failures_become_witness_errors(self, monkeypatch, cause):
        # witness_family retries only on WitnessError
        import alcalc.witness as witness_mod
        from alcalc.charts import GenericityError
        from alcalc.mpoly import SolveError

        exc = GenericityError("forced") if cause == "genericity" else SolveError("forced")

        def fail(*args):
            raise exc

        monkeypatch.setattr(witness_mod, "_witness_at_field", fail)
        with pytest.raises(WitnessError, match="forced"):
            witness_triple_intersection(setup_n3(), t=2)

    def test_family_distinct_fixed_t(self):
        sd = setup_n3()
        fam = witness_family(sd, t=2, count=10)
        chars = [r.chi_sigma_prime for r in fam]
        assert len(set(chars)) == 10
        for r in fam:
            assert (r.f_sigma.values[-1] - PVal.of(2, sd.p)).is_zero()
            assert r.f_sigma.is_supersingular()

    def test_different_t_different_character(self):
        sd = setup_n3()
        r2 = witness_triple_intersection(sd, t=2)
        r3 = witness_triple_intersection(sd, t=3)
        assert r2.chi_sigma_prime != r3.chi_sigma_prime
        assert r2.chi_sigma_prime[-1] == 2 and r3.chi_sigma_prime[-1] == 3

    def test_non_unit_t_rejected(self):
        sd = setup_n3()
        with pytest.raises(WitnessError):
            witness_triple_intersection(sd, t=53)

    def test_f2_witness(self):
        # two embeddings: colength-one data at j0 = 0, extremal at j = 1;
        # the open-locus conditions move to the companion embedding
        p = 53
        sd = build_setup(
            restricted_lift(PermTuple.of([(0, 2, 1), (0, 1, 2)])),
            restricted_lift(PermTuple.of([(2, 0, 1), (0, 1, 2)])),
            Weight.of([(26, 13, 0)] * 2),
            p,
        )
        res = witness_triple_intersection(sd, t=2)
        for name, val in res.checks.items():
            ok = all(val) if isinstance(val, list) else val
            assert ok, f"check {name} failed"
        assert res.f_sigma.is_supersingular() and res.f_sigma.f_n_is_unit()
        assert res.chi_sigma_prime[-1] == 2
        assert res.free_parameters == 2 * 3 - 1

    def test_f2_witness_distinguished_second_embedding(self):
        p = 53
        sd = build_setup(
            restricted_lift(PermTuple.of([(0, 1, 2), (1, 0, 2)])),
            restricted_lift(PermTuple.of([(0, 1, 2), (1, 2, 0)])),
            Weight.of([(26, 13, 0)] * 2),
            p,
        )
        assert sd.j0 == 1
        res = witness_triple_intersection(sd, t=5)
        for name, val in res.checks.items():
            ok = all(val) if isinstance(val, list) else val
            assert ok, f"check {name} failed"


def _f2_setup(p=53):
    return build_setup(
        restricted_lift(PermTuple.of([(0, 2, 1), (0, 1, 2)])),
        restricted_lift(PermTuple.of([(2, 0, 1), (0, 1, 2)])),
        Weight.of([(26, 13, 0)] * 2),
        p,
    )


def _n4_setup(p=53):
    return build_setup(
        restricted_lift(PermTuple.of([(0, 3, 2, 1)])),
        restricted_lift(PermTuple.of([(3, 0, 2, 1)])),
        deep_omega(4, p),
        p,
    )


class TestOneSolvePerChart:
    @pytest.mark.parametrize("make_setup", [setup_n3, _f2_setup, _n4_setup])
    def test_special_fiber_solved_once_per_build(self, monkeypatch, make_setup):
        # every special-fiber chart point is solved by build_vc_matrix and
        # reused from there, never solved a second time
        import alcalc.witness as witness_mod
        from alcalc.gf import FElem

        setup = make_setup()
        counts = {"gf_solves": 0, "builds": 0}
        solve, build = ChartSystem.solve, witness_mod.build_vc_matrix

        def counting_solve(self, assignments, a_vec):
            counts["gf_solves"] += isinstance(self.K(0), FElem)
            return solve(self, assignments, a_vec)

        def counting_build(*args):
            counts["builds"] += 1
            return build(*args)

        monkeypatch.setattr(ChartSystem, "solve", counting_solve)
        monkeypatch.setattr(witness_mod, "build_vc_matrix", counting_build)
        witness_triple_intersection(setup, t=2)
        assert counts["builds"] >= setup.f
        assert counts["gf_solves"] == counts["builds"]

    @pytest.mark.parametrize("make_setup", [setup_n3, _f2_setup, _n4_setup])
    def test_each_system_assembled_once(self, monkeypatch, make_setup):
        # every prime and field shares the one system over Z[p] of a static
        # shape: from empty caches, witnesses at two primes build systems
        # over F_p and PVal at both, and assemble once per static shape
        built = []
        calls = []
        assemble, init = ChartSystem.assemble, ChartSystem.__init__

        def counting_assemble(*static):
            calls.append(static)
            return assemble(*static)

        def counting_init(self, shape, K):
            built.append((shape.n, shape.kind, shape.u_perm, shape.conj_perm, shape.p, type(K(0))))
            init(self, shape, K)

        chartsolve._system_over_zp.cache_clear()
        monkeypatch.setattr(chartsolve, "_SYSTEM_CACHE", {})
        monkeypatch.setattr(ChartSystem, "assemble", staticmethod(counting_assemble))
        monkeypatch.setattr(ChartSystem, "__init__", counting_init)
        for p in (53, 59):
            witness_triple_intersection(make_setup(p), t=2)
        by_prime = {p: {b[:4] for b in built if b[4] == p} for p in (53, 59)}
        assert by_prime[53] == by_prime[59] and {b[5] for b in built} == {FElem, PVal}
        assert sorted(calls) == sorted(by_prime[53])


# -- the field-threaded assembly, kept as the oracle of the integer one ------
# Each step runs in the scalar field K, on lists of Poly indexed by the power
# of v, exactly as the chart systems were assembled before the assembly moved
# to Z.


def _ovp_trim(c):
    while c and c[-1].is_zero():
        c.pop()
    return c


def _ovp_add(a, b, K):
    n = max(len(a), len(b))
    za = Poly.zero(K)
    return _ovp_trim([(a[d] if d < len(a) else za) + (b[d] if d < len(b) else za) for d in range(n)])


def _ovp_mul(a, b, K):
    if not a or not b:
        return []
    out = [Poly.zero(K) for _ in range(len(a) + len(b) - 1)]
    for i, pa in enumerate(a):
        if pa.is_zero():
            continue
        for j, pb in enumerate(b):
            if not pb.is_zero():
                out[i + j] = out[i + j] + pa * pb
    return _ovp_trim(out)


def _ovp_divide_at(a, root, K):
    if not a:
        return [], Poly.zero(K)
    m = len(a) - 1
    q = [Poly.zero(K)] * m
    run = a[m]
    for d in range(m - 1, -1, -1):
        q[d] = run
        run = a[d] + run.scale(root)
    return _ovp_trim(q), run


def _ofold_add(items, K):
    acc = []
    for it in items:
        acc = _ovp_add(acc, it, K)
    return acc


def _omat_mul(A, B, K):
    n = len(A)
    return [[_ovp_trim(_ofold_add([_ovp_mul(A[i][m], B[m][k], K) for m in range(n)], K)) for k in range(n)] for i in range(n)]


def oracle_system(shape, K):
    """(B, equations) of `shape` assembled over the field K itself."""
    n = shape.n
    one = Poly.const(K, K(1))
    V = [[[one] if i == k else [] for k in range(n)] for i in range(n)]
    for beta in negative_roots(n):
        V[beta[0]][beta[1]] = [Poly.var(K, vvar(beta, d)) for d in range(shape.degree_bound(beta) + 1)]
    eta = eta_weight(n)
    vpp = [[one]]
    for _ in range(1, n):
        vpp.append(_ovp_mul(vpp[-1], [Poly.const(K, K(shape.p)), one], K))
    B = [[_ovp_mul(vpp[eta[i]], V[i][k], K) for k in range(n)] for i in range(n)]
    Vinv = [[[one] if i == k else [] for k in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(i):
            Vinv[i][k] = [-x for x in _ofold_add([_ovp_mul(V[i][m], Vinv[m][k], K) for m in range(k, i)], K)]
    C = [[_ovp_mul(Vinv[i][k], vpp[n - 1 - eta[k]], K) for k in range(n)] for i in range(n)]
    if shape.kind == "colength_one":
        i0, k0 = shape.i0, shape.k0
        c = Poly.var(K, CVAR)
        B[i0], B[k0] = B[k0], [_ovp_add(_ovp_mul([c], x, K), y, K) for x, y in zip(B[k0], B[i0])]
        for row in C:
            row[i0], row[k0] = _ovp_add(_ovp_mul([-c], row[i0], K), row[k0], K), row[i0]
    b_diag = [Poly.var(K, avar(perm_inv(shape.conj_perm)[i])) for i in range(n)]
    vB1 = [[[Poly.zero(K)] + _ovp_trim([e[d].scale(K(d)) for d in range(1, len(e))]) for e in row] for row in B]
    Bb = [[[c * b_diag[k] for c in B[i][k]] for k in range(n)] for i in range(n)]
    M = [[_ovp_add(vB1[i][k], Bb[i][k], K) for k in range(n)] for i in range(n)]
    N = _omat_mul(M, C, K)
    root = K(-shape.p)
    eqs = []
    flagged = shape.flagged_positions()
    for i in range(n):
        for k in range(n):
            q = N[i][k]
            for _ in range(n - 2):
                q, rem = _ovp_divide_at(q, root, K)
                if not rem.is_zero():
                    eqs.append(rem)
            if (i, k) in flagged and q and not q[0].is_zero():
                eqs.append(q[0])
    return B, eqs


def _assembled_at(shape, K):
    """(B, equations) of the integer assembly run at shape.p itself and
    mapped into K, dropping the equations whose image is zero."""
    _, B, _, equations = chartsolve._assemble_at(shape)

    def lift(terms):
        return Poly(K, {m: K(c) for m, c in terms.items()})

    return [[[lift(c) for c in e] for e in row] for row in B], [e for e in map(lift, equations) if not e.is_zero()]


def _ordered_terms(polys):
    # term dicts with their order, which the solver's column order follows
    return [list(c.terms.items()) for c in polys]


class TestAssembly:
    # B and C depend on u and the kind only; four u at n = 5 bound the time
    CASES = [(n, u) for n in (3, 4) for u in all_perms(n)] + [(5, (4, 3, 2, 1, 0)), (5, (1, 3, 0, 4, 2))]
    CASES += [(5, u) for u in random.Random(5).sample(all_perms(5), 2)]

    @pytest.mark.parametrize("kind", ["extremal", "colength_one"])
    @pytest.mark.parametrize("scalars", ["gf", "pval"])
    def test_b_times_c_is_v_plus_p_power(self, kind, scalars):
        # C is defined by B C = (v+p)^{n-1} I over Z, whatever way it is
        # formed, and so in its image over each scalar field K
        p = 53
        K = partial(FElem, field(p)) if scalars == "gf" else partial(PVal.of, p=p)

        def lift(e):
            return _ovp_trim([Poly(K, {m: K(c) for m, c in t.items()}) for t in e])

        for n, u in self.CASES:
            shape = ChartShape(n=n, p=p, kind=kind, u_perm=u, conj_perm=u, a_vec=(0,) * n)
            _, B, C, _ = chartsolve._assemble_at(shape)
            power = [comb(n - 1, d) * p ** (n - 1 - d) for d in range(n)]
            want = [[[{(): c} for c in power] if i == k else [] for k in range(n)] for i in range(n)]
            assert chartsolve._mat_mul(B, C) == want, (n, u)
            power_K = [Poly.const(K, K(c)).terms for c in power]
            want_K = [[power_K if i == k else [] for k in range(n)] for i in range(n)]
            BK, CK = ([[lift(e) for e in row] for row in M] for M in (B, C))
            got_K = [[[c.terms for c in e] for e in row] for row in _omat_mul(BK, CK, K)]
            assert got_K == want_K, (n, u)

    @pytest.mark.parametrize("kind", ["extremal", "colength_one"])
    @pytest.mark.parametrize("scalars", [f"{k}{p}" for k in ("pval", "gf") for p in (2, 3, 5, 7, 53, 101, 2**31 - 1)])
    def test_lifted_system_equals_the_field_assembly(self, kind, scalars):
        # the system over Z[p] specialised at p and mapped into K is both
        # the integer assembly run at p and mapped into K, and the system
        # assembled over K: the same B entries and equations, in order, with
        # the same terms in the same order; over F_2, F_3 and F_5 integer
        # coefficients such as C(4, 2) = 6, C(3, 1) and the derivative
        # factors d vanish
        p = int(scalars.lstrip("pvalgf"))
        K = partial(PVal.of, p=p) if scalars.startswith("pval") else partial(FElem, field(p))
        for n, u in self.CASES:
            shape = ChartShape(n=n, p=p, kind=kind, u_perm=u, conj_perm=u, a_vec=(0,) * n)
            system = ChartSystem(shape, K)
            got = [[_ordered_terms(e) for e in row] for row in system.B], _ordered_terms(system.equations)
            B, equations = _assembled_at(shape, K)
            assert got == ([[_ordered_terms(e) for e in row] for row in B], _ordered_terms(equations)), (n, u)
            B, equations = oracle_system(shape, K)
            assert got[0] == [[_ordered_terms(e) for e in row] for row in B], (n, u)
            if scalars in ("gf2", "gf3"):
                # from n = 4 on over F_2 and at n = 5 over F_3, a partial
                # sum of a monodromy equation can vanish mod p and gain the
                # term again later: the field assembly then puts it last,
                # while over Z it keeps its place, so over F_2 and F_3 only
                # the terms are compared
                assert [e.terms for e in system.equations] == [e.terms for e in equations], (n, u)
            else:
                assert got[1] == _ordered_terms(equations), (n, u)


class TestRadixGuard:
    def test_too_small_a_radix_raises(self, monkeypatch):
        # at the radix 2^4 the digits of the systems at n = 4 (up to 9) no
        # longer decode: the bound check must refuse them, and a system it
        # lets through (n = 3, digits up to 2) must still be exact
        K = partial(PVal.of, p=53)
        monkeypatch.setattr(chartsolve, "RADIX", 1 << 4)
        monkeypatch.setattr(chartsolve, "_SYSTEM_CACHE", {})
        chartsolve._system_over_zp.cache_clear()
        refused = set()
        try:
            for n, u in [c for c in TestAssembly.CASES if c[0] < 5]:
                for kind in ("extremal", "colength_one"):
                    shape = ChartShape(n=n, p=53, kind=kind, u_perm=u, conj_perm=u, a_vec=(0,) * n)
                    try:
                        system = ChartSystem(shape, K)
                    except ArithmeticError as exc:
                        assert "too large for the radix 16" in str(exc)
                        refused.add(n)
                        continue
                    B, equations = _assembled_at(shape, K)
                    assert [[_ordered_terms(e) for e in row] for row in system.B] == [[_ordered_terms(e) for e in row] for row in B]
                    assert _ordered_terms(system.equations) == _ordered_terms(equations)
        finally:
            chartsolve._system_over_zp.cache_clear()
        assert refused == {4}


class TestMonomialOrder:
    # monomials that mix the chart variable c (a str) with V variables
    # (tuples): variables sort by repr, which orders the two kinds alike
    K = partial(FElem, field(5))
    C, V10, V20 = CVAR, vvar((1, 0), 0), vvar((2, 0), 0)

    def var(self, v):
        return Poly.var(self.K, v)

    def test_repr_of_mixed_variables(self):
        assert repr(self.var(self.C) + self.var(self.V10)) == "(1)*c + (1)*('V', 1, 0, 0)"

    def test_stuck_solve_names_the_equation(self):
        c, v10, v20 = map(self.var, (self.C, self.V10, self.V20))
        eq = c * v10 + v10 * v20
        with pytest.raises(SolveError, match="^stuck: no affine equation") as info:
            solve_equations(self.K, [eq])
        assert repr(eq) in str(info.value)

    def test_substitute_leaves_canonical_monomials(self):
        c, v10, v20 = map(self.var, (self.C, self.V10, self.V20))
        got = (c * v10 * v20).substitute({self.V10: self.K(2)})
        assert got.terms == (c * v20).scale(self.K(2)).terms
        assert got.coefficient_of(((self.V20, 1), (self.C, 1))).a == 2

    def test_nonzerodivisor_power_divided_out(self):
        c, v10 = self.var(self.C), self.var(self.V10)
        # c^2 (V10 - 3) = 0 with c a nonzerodivisor determines V10
        eq = c * c * (v10 - Poly.const(self.K, self.K(3)))
        assert {v: x.a for v, x in solve_equations(self.K, [eq], nonzerodivisor=self.C).items()} == {self.V10: 3}
        with pytest.raises(SolveError, match="inconsistent after dividing"):
            solve_equations(self.K, [c * c], nonzerodivisor=self.C)


class TestSystemCache:
    # monodromy parameters of special setups that share one static shape
    A_VECS = ((27, 14, 0), (25, 13, 0), (31, 15, 0), (23, 11, 0))

    @staticmethod
    def _shape(p, a_vec=(1, 0, 0)):
        return ChartShape(n=3, p=p, kind="colength_one", u_perm=(2, 0, 1), conj_perm=(0, 2, 1), a_vec=a_vec)

    @staticmethod
    def _lift_tops(shape, cv):
        # integral tops with the -alpha top moved by sqrt(p), as a witness lifts them
        tops = shape.tops(cv, lambda v: PVal.of(v, shape.p))
        top = vvar((2, 0), shape.degree_bound((2, 0)))
        tops[top] = tops[top] + PVal.sqrt_p(shape.p)
        return tops

    def test_hit_shares_the_built_system(self, monkeypatch):
        # a hit is the built system itself, not a copy; the monodromy
        # parameter is the one each solve is given
        monkeypatch.setattr(chartsolve, "_SYSTEM_CACHE", {})
        first = pval_chart_system(self._shape(53, a_vec=self.A_VECS[0]))
        second = pval_chart_system(self._shape(53, a_vec=self.A_VECS[2]))
        assert second is first
        tops = self._lift_tops(self._shape(53), {(1, 0): 3, (2, 1): 5, (2, 0): 7})
        for a_vec in (self.A_VECS[2], self.A_VECS[0]):
            full = second.solve(tops, a_vec)
            assert [full[avar(i)] for i in range(3)] == [PVal.of(a, 53) for a in a_vec]
        assert second.equations is first.equations
        assert second.B is first.B

    def test_threads_share_one_system_across_a_vecs(self, monkeypatch):
        import sys
        import threading

        monkeypatch.setattr(chartsolve, "_SYSTEM_CACHE", {})
        p = 53
        F = field(p)
        shapes = [self._shape(p, a_vec) for a_vec in self.A_VECS]
        assert len({id(gf_chart_system(s, F)) for s in shapes}) == 1
        assert len({id(pval_chart_system(s)) for s in shapes}) == 1
        sysF, sysO = gf_chart_system(shapes[0], F), pval_chart_system(shapes[0])
        rng = random.Random(3)
        jobs = []
        for _ in range(2):
            cv = {b: rng.randrange(1, p) for b in negative_roots(3)}
            for s in shapes:
                gf_tops = s.tops(cv, lambda v: FElem(F, v))
                gf_tops[CVAR] = FElem(F, 0)
                jobs += [(sysF, gf_tops, s.a_vec), (sysO, self._lift_tops(s, cv), s.a_vec)]
        serial = [system.solve(tops, a_vec) for system, tops, a_vec in jobs]
        # one point solved at four parameters gives four integral points
        assert len({serial[k][CVAR] for k in (1, 3, 5, 7)}) == 4
        errors = []

        def work(order):
            try:
                for k in order:
                    system, tops, a_vec = jobs[k]
                    if system.solve(tops, a_vec) != serial[k]:
                        errors.append(k)
            except Exception as exc:  # collected and reported by the main thread
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            orders = [random.Random(t).sample(range(len(jobs)), len(jobs)) for t in range(4)]
            threads = [threading.Thread(target=work, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert errors == []

    def test_new_prime_evicts_the_old_prime(self, monkeypatch):
        # the eviction drops the systems of the old prime, not the system
        # over Z[p] that they and the new prime's share
        cache = {}
        monkeypatch.setattr(chartsolve, "_SYSTEM_CACHE", cache)
        old = pval_chart_system(self._shape(53))
        gf_chart_system(self._shape(53), field(53))
        assert len(cache) == 2 and {key[2] for key in cache} == {53}
        misses = chartsolve._system_over_zp.cache_info().misses
        new = pval_chart_system(self._shape(59))
        assert len(cache) == 1 and {key[2] for key in cache} == {59}
        assert chartsolve._system_over_zp.cache_info().misses == misses
        assert new.vars is old.vars

    def test_threads_missing_one_shape_at_two_primes(self, monkeypatch):
        # threads that alternate two primes on one shape keep evicting each
        # other's systems, and each build must equal the serial one
        import sys
        import threading

        def snapshot(system):
            return system.vars, [[_ordered_terms(e) for e in row] for row in system.B], _ordered_terms(system.equations)

        jobs = [(p, scalars) for p in (53, 59) for scalars in ("gf", "pval")]

        def build(p, scalars):
            shape = self._shape(p)
            return gf_chart_system(shape, field(p)) if scalars == "gf" else pval_chart_system(shape)

        chartsolve._system_over_zp.cache_clear()
        monkeypatch.setattr(chartsolve, "_SYSTEM_CACHE", {})
        serial = {job: snapshot(build(*job)) for job in jobs}
        chartsolve._system_over_zp.cache_clear()
        monkeypatch.setattr(chartsolve, "_SYSTEM_CACHE", {})
        errors = []

        def work(order):
            try:
                for job in order:
                    if snapshot(build(*job)) != serial[job]:
                        errors.append(job)
            except Exception as exc:  # collected and reported by the main thread
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            orders = [[jobs[k % 4] for k in random.Random(t).sample(range(40), 40)] for t in range(6)]
            threads = [threading.Thread(target=work, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert errors == []


class TestWitnessN4:
    def test_m_positive_branch(self):
        p = 53
        sd = build_setup(
            restricted_lift(PermTuple.of([(0, 3, 2, 1)])),
            restricted_lift(PermTuple.of([(3, 0, 2, 1)])),
            deep_omega(4, p),
            p,
        )
        res = witness_triple_intersection(sd, t=5)
        for name, val in res.checks.items():
            ok = all(val) if isinstance(val, list) else val
            assert ok, f"check {name} failed"
        assert res.f_sigma.is_supersingular() and res.f_sigma.f_n_is_unit()

    def test_m_zero_branch(self):
        p = 53
        sd = build_setup(
            restricted_lift(PermTuple.of([(1, 2, 0, 3)])),
            restricted_lift(PermTuple.of([(1, 2, 3, 0)])),
            deep_omega(4, p),
            p,
        )
        res = witness_triple_intersection(sd, t=7)
        assert res.f_sigma.is_supersingular()
        assert res.chi_sigma_prime[-1] == 7


class TestExtremalOrdinarity:
    def test_random_points_ordinary(self):
        rng = random.Random(17)
        p = 53
        for (n, f) in [(2, 1), (3, 2), (4, 1)]:
            for _ in range(5):
                y = [rng.choice(all_perms(n)) for _ in range(f)]
                g = p // (n + 1)
                base = [g * (n - 1 - i) + rng.randrange(-2, 3) for i in range(n)]
                a_vecs = [
                    tuple(perm_act_vec(rng.choice(all_perms(n)), tuple(b + e for b, e in zip(base, eta_weight(n)))))
                    for _ in range(f)
                ]
                tops = [{b: rng.randrange(p) for b in negative_roots(n)} for _ in range(f)]
                torus = [[rng.randrange(1, p) for _ in range(n)] for _ in range(f)]
                mats, res = extremal_chart_point(n, f, p, y, a_vecs, tops, torus)
                assert res.is_ordinary() and res.f_n_is_unit()
                for j, A in enumerate(mats):
                    # every lift carries an exact integral monodromy certificate
                    rep = nabla_certify(A, a_vecs[j], det_vp_order=n * (n - 1) // 2)
                    # torus twists preserve the certificate
                    assert rep["ok"]


class TestWitnessSweep:
    def test_all_special_pairs_n3_n4_two_primes(self):
        from alcalc.cli import _deep_omega

        for n in (3, 4):
            for p in (53, 101):
                for idx, (w, u, j0) in enumerate(special_pairs(n, 1)):
                    sd = build_setup(restricted_lift(w), restricted_lift(u), _deep_omega(n, 1, p), p)
                    res = witness_triple_intersection(sd, t=2 + idx)
                    for name, val in res.checks.items():
                        ok = all(val) if isinstance(val, list) else val
                        assert ok, f"(n={n}, p={p}, w={w.perms}): check {name} failed"

    def test_n5_pairs_beyond_desk_scale(self):
        # the machinery extends past the spec's desk scale: both branches
        # at rank five, including pairs where the simple-support recipe is
        # non-generic and the linear Z-solve construction takes over
        from alcalc.cli import _deep_omega

        p = 101
        pairs = special_pairs(5, 1)
        picked = [pairs[0], pairs[1], pairs[3], pairs[12]]
        for (w, u, j0) in picked:
            sd = build_setup(restricted_lift(w), restricted_lift(u), _deep_omega(5, 1, p), p)
            res = witness_triple_intersection(sd, t=3)
            for name, val in res.checks.items():
                ok = all(val) if isinstance(val, list) else val
                assert ok, f"(w={w.perms}): check {name} failed"
            assert res.f_sigma.is_supersingular() and res.f_sigma.f_n_is_unit()

    def test_f2_sweep_n3(self):
        from alcalc.cli import _deep_omega

        p = 53
        for (w, u, j0) in special_pairs(3, 2):
            sd = build_setup(restricted_lift(w), restricted_lift(u), _deep_omega(3, 2, p), p)
            res = witness_triple_intersection(sd, t=2)
            for name, val in res.checks.items():
                ok = all(val) if isinstance(val, list) else val
                assert ok, f"(w={w.perms}, j0={j0}): check {name} failed"
