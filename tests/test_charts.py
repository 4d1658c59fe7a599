"""Path sets, minor identities, Z_{-alpha}, partition identities, V(c)."""

import random
import re
from functools import partial

import pytest

from alcalc.charts import (
    ChartInvariantError,
    DegreeBoundError,
    GenericityError,
    PathSetError,
    build_vc_matrix,
    det_int_matrix,
    kappa_sigma,
    minor_identities,
    minor_matrix,
    partition_lemma_check,
    path_sets,
    z_minus_alpha,
    z_minus_alpha_poly,
)
from alcalc.chartsolve import ChartShape, vvar
from alcalc.gf import FElem, field
from alcalc.loopmat import affine_bruhat_decompose, default_precision, nabla_check
from alcalc.mpoly import Poly
from alcalc.pval import PVal
from alcalc.serre import build_setup
from alcalc.weyl import (
    PermTuple,
    Weight,
    aff_length,
    aff_m,
    all_perms,
    negative_roots,
    perm_mul,
    restricted_lift,
    restricted_lift_perm,
    transposition,
    up_arrow_leq_aff,
)


def npairs(n):
    """Normalized case-(a) special pairs (w, u) at f = 1."""
    from alcalc.serre import classify_case, normalize_to_case_a

    salpha = transposition(n, 0, n - 1)
    out = []
    for w in all_perms(n):
        u = perm_mul(salpha, w)
        if aff_length(restricted_lift_perm(w)) != aff_length(restricted_lift_perm(u)) + 1:
            continue
        if not up_arrow_leq_aff(restricted_lift_perm(u), restricted_lift_perm(w)):
            continue
        wt, ut = PermTuple.of([w]), PermTuple.of([u])
        if classify_case(wt, ut, 0, 0, n - 1) == "B":
            wt, ut, _ = normalize_to_case_a(wt, ut, 0, 0, n - 1)
        if (wt.perms[0], ut.perms[0]) not in out:
            out.append((wt.perms[0], ut.perms[0]))
    return sorted(set(out))


class TestPathSets:
    def test_gl3_alpha31(self):
        ps = path_sets((2, 0), (0, 1, 2))
        assert ps.D == (((1, 0), (2, 1)),)
        assert set(ps.P) == {((2, 0),), ((1, 0), (2, 1))}

    def test_simple_beta(self):
        ps = path_sets((1, 0), (0, 1, 2))
        assert ps.D == ()
        assert ps.P == (((1, 0),),)

    def test_gl4_count(self):
        assert len(path_sets((3, 0), (0, 1, 2, 3)).P) == 4

    def test_counts_are_powers_of_two(self):
        for n in (3, 4, 5):
            for beta in negative_roots(n):
                k, i = beta
                assert len(path_sets(beta, tuple(range(n))).P) == 2 ** (k - i - 1)

    def test_chains_telescope(self):
        for ch in path_sets((3, 0), (0, 1, 2, 3)).P:
            assert ch[0][1] == 0 and ch[-1][0] == 3
            for m in range(len(ch) - 1):
                assert ch[m][0] == ch[m + 1][1]
            total = [0, 0, 0, 0]
            for (a, b) in ch:
                total[a] += 1
                total[b] -= 1
            assert total == [-1, 0, 0, 1]  # the legs sum to e_k - e_i

    def test_positive_rejected(self):
        with pytest.raises(PathSetError):
            path_sets((0, 2), (0, 1, 2))


def laplace_det(M, F):
    """det(M) mod q by cofactor expansion along the first row: the former
    `charts.det_int_matrix`, kept as the elimination-free oracle."""
    n = len(M)
    if n == 1:
        return M[0][0] % F.q

    def det(rows):
        m = len(rows)
        if m == 1:
            return rows[0][0]
        acc = 0
        for k in range(m):
            e = rows[0][k]
            if e == 0:
                continue
            sub = [[rows[r][c] for c in range(m) if c != k] for r in range(1, m)]
            term = F.mul(e, det(sub))
            acc = F.add(acc, term if k % 2 == 0 else F.neg(term))
        return acc

    return det(M)


class TestDetIntMatrix:
    @pytest.mark.parametrize("q", [2, 5, 101])
    def test_matches_laplace(self, q):
        F = field(q)
        rng = random.Random(q)
        swaps = singular = 0
        for n in range(1, 6):
            for _ in range(60):
                M = [[rng.randrange(-2 * q, 2 * q) for _ in range(n)] for _ in range(n)]
                kind = rng.randrange(3)
                if kind == 1 and n > 1:
                    # a leading zero pivot forces a row swap
                    M[0][0] = q * rng.randrange(-1, 2)
                elif kind == 2 and n > 1:
                    # a row that is a combination of two others, or a zero row
                    r, s, t = rng.sample(range(n), 3) if n > 2 else (0, 1, 1)
                    M[r] = [rng.randrange(q) * x + rng.randrange(q) * y for x, y in zip(M[s], M[t])]
                swaps += n > 1 and M[0][0] % q == 0 and any(row[0] % q for row in M[1:])
                want = laplace_det(M, F)
                singular += want == 0
                assert det_int_matrix(M, F) == want
        assert swaps > 0 and singular > 0


class TestMinorIdentities:
    def test_gl3_oracle(self):
        F = field(101)
        av = {(1, 0): 5, (2, 0): 7, (2, 1): 11}
        [(d, r, pth)] = minor_identities(av, 0, 2, F)
        assert d == r == pth == (5 * 11 - 7) % 101

    def test_all_zero(self):
        F = field(101)
        av = {b: 0 for b in negative_roots(3)}
        assert minor_identities(av, 0, 2, F) == [(0, 0, 0)]

    def test_random_triple_agreement(self):
        rng = random.Random(0)
        for q in (5, 101):
            F = field(q)
            for n in (4, 5):
                for _ in range(250):
                    av = {b: rng.randrange(q) for b in negative_roots(n)}
                    triples = minor_identities(av, 0, n - 1, F)
                    assert len(triples) == n - 2
                    for i, (d, r, pth) in enumerate(triples, 2):
                        assert d == r
                        assert d == laplace_det(minor_matrix(av, i, 0, n - 1), F)
                        if pth is not None:
                            assert d == pth
                        assert (pth is None) == (i < n - 1)

    def test_index_range(self):
        F = field(5)
        with pytest.raises(ValueError):
            minor_identities({b: 0 for b in negative_roots(3)}, 0, 1, F)


class TestZ:
    def shape3(self):
        p = 53
        sd = build_setup(
            restricted_lift(PermTuple.of([(0, 2, 1)])),
            restricted_lift(PermTuple.of([(2, 0, 1)])),
            Weight.of([(26, 13, 0)]),
            p,
        )
        return ChartShape(n=3, p=p, kind="colength_one", u_perm=(2, 0, 1), conj_perm=(0, 2, 1), a_vec=sd.a_tau[0]), sd

    def test_zero_point(self):
        shape, _ = self.shape3()
        F = field(53)
        assert z_minus_alpha(shape, (0, 2, 1), {b: 0 for b in negative_roots(3)}, F) == 0

    def test_single_term(self):
        shape, _ = self.shape3()
        F = field(53)
        cv = {b: 0 for b in negative_roots(3)}
        cv[(2, 0)] = 1
        val = z_minus_alpha(shape, (0, 2, 1), cv, F)
        # coefficient of c_{-alpha}: m'_{-alpha} - <a, w^{-1}(-alpha)>
        from alcalc.charts import _pair_a

        expect = (shape.degree_bound((2, 0)) - _pair_a(shape.a_vec, (0, 2, 1), (2, 0))) % 53
        assert val == expect

    def test_double_implementation_cross_check(self):
        # re-derive from independently enumerated D and I sets
        shape, _ = self.shape3()
        F = field(53)
        rng = random.Random(1)
        w = (0, 2, 1)
        a = shape.a_vec
        for _ in range(50):
            cv = {b: rng.randrange(53) for b in negative_roots(3)}
            got = z_minus_alpha(shape, w, cv, F)
            # independent: K1 c_{2,0} - K2 c_{2,1} c_{1,0} with the
            # calibrated inner sign (-1)^(i-s), i = 2, s = 1
            from alcalc.charts import _pair_a

            K1 = shape.degree_bound((2, 0)) - _pair_a(a, w, (2, 0))
            K2 = shape.degree_bound((2, 1)) - _pair_a(a, w, (2, 1))
            expect = (K1 * cv[(2, 0)] - K2 * cv[(2, 1)] * cv[(1, 0)]) % 53
            assert got == expect

    def test_oracle_calibration_against_integral_chart(self):
        # Z must cut the same locus as p/c on integral lifts: the ratio of
        # the two is constant across points (and the displayed inner sign
        # (-1)^(i-1-s) fails this)
        from alcalc.chartsolve import CVAR, pval_chart_system

        for (w, u) in [((0, 2, 1), (2, 0, 1)), ((1, 0, 2), (1, 2, 0))]:
            p = 53
            sd = build_setup(
                restricted_lift(PermTuple.of([w])), restricted_lift(PermTuple.of([u])), Weight.of([(26, 13, 0)]), p
            )
            shape = ChartShape(n=3, p=p, kind="colength_one", u_perm=u, conj_perm=w, a_vec=sd.a_tau[0])
            F = field(p)
            ratios = set()
            flipped_ratios = set()
            for pt in [(3, 5, 7), (2, 11, 1), (9, 4, 20)]:
                cv = {(1, 0): pt[0], (2, 1): pt[1], (2, 0): pt[2]}
                sysO = pval_chart_system(shape)
                tops = {vvar(b, shape.degree_bound(b)): PVal.of(cv[b], p) for b in negative_roots(3)}
                tops[vvar((2, 0), shape.degree_bound((2, 0)))] = PVal.of(cv[(2, 0)], p) + PVal.sqrt_p(p)
                full = sysO.solve(tops, shape.a_vec)
                zbar = (PVal.of(p, p) / full[CVAR]).residue()
                zimpl = z_minus_alpha(shape, w, cv, F)
                a = shape.a_vec
                assert zbar != 0 and zimpl != 0
                ratios.add(F.mul(zimpl, F.inv(zbar)))
                # the displayed inner sign would flip the D-sum term
                from alcalc.charts import _pair_a

                c1 = shape.degree_bound((2, 0)) - _pair_a(a, w, (2, 0))
                c2 = shape.degree_bound((2, 1)) - _pair_a(a, w, (2, 1))
                zdisp = (c1 * cv[(2, 0)] + c2 * cv[(2, 1)] * cv[(1, 0)]) % p
                flipped_ratios.add(F.mul(zdisp, F.inv(zbar)))
            assert len(ratios) == 1
            assert len(flipped_ratios) > 1

    def test_non_generic_rejected(self):
        p = 53
        shape = ChartShape(n=3, p=p, kind="colength_one", u_perm=(2, 0, 1), conj_perm=(0, 2, 1), a_vec=(1, 0, 0))
        with pytest.raises(GenericityError):
            z_minus_alpha_poly(shape, (0, 2, 1), partial(FElem, field(p)))


class TestMonomialStructure:
    def test_absence_and_restriction_m_positive(self):
        # every special GL4 configuration with m_{u^d, alpha} > 0: the
        # simple-chain monomial is absent and the simple-root locus kills Z
        q = 101
        F = field(q)
        K = partial(FElem, F)
        rng = random.Random(2)
        checked = 0
        for n in (3, 4):
            for (w, u) in npairs(n):
                if aff_m(restricted_lift_perm(u), (0, n - 1)) == 0:
                    continue
                a_vec = tuple(17 * (n - i) + 1 for i in range(n))
                shape = ChartShape(n=n, p=q, kind="colength_one", u_perm=u, conj_perm=w, a_vec=a_vec)
                Z = z_minus_alpha_poly(shape, w, K)
                chain = tuple(
                    sorted(
                        ((vvar((i + 1, i), shape.degree_bound((i + 1, i))), 1) for i in range(n - 1)),
                        key=lambda t: repr(t[0]),
                    )
                )
                assert Z.coefficient_of(chain).is_zero()
                simples = {(i + 1, i) for i in range(n - 1)}
                zero_map = {
                    vvar(b, shape.degree_bound(b)): K(0) for b in negative_roots(n) if b not in simples
                }
                assert Z.substitute(zero_map).is_zero()
                for _ in range(200):
                    cv = {b: (rng.randrange(1, q) if b in simples else 0) for b in negative_roots(n)}
                    assert z_minus_alpha(shape, w, cv, F) == 0
                checked += 1
        assert checked >= 3  # all three m > 0 pairs at n = 4
        # and no such configuration exists at n = 3
        assert all(aff_m(restricted_lift_perm(u), (0, 2)) == 0 for (_, u) in npairs(3))


class TestPartition:
    def test_gl3_m_zero_equality(self):
        assert partition_lemma_check((2, 0, 1), (0, 2, 1), 3)

    def test_exhaustive_n34(self):
        checked = 0
        for n in (3, 4):
            salpha = transposition(n, 0, n - 1)
            for u in all_perms(n):
                w = perm_mul(salpha, u)
                if aff_length(restricted_lift_perm(w)) != aff_length(restricted_lift_perm(u)) + 1:
                    continue
                assert partition_lemma_check(u, w, n)
                checked += 1
        assert checked == 11

    def test_corrupted_configuration_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            partition_lemma_check((0, 1, 2), (0, 1, 2), 3)
        with pytest.raises(ValueError, match="invalid"):
            # w = s_alpha u holds but the lengths do not step by one
            partition_lemma_check((0, 2, 1), (2, 0, 1), 3)


class TestKappa:
    def test_consistency_invariant(self):
        # kappa + sigma = -delta_{u^{-1}(beta) > 0} on every stored root
        from alcalc.charts import _delta_pos

        for n in (3, 4):
            for (w, u) in npairs(n):
                for beta in negative_roots(n):
                    kappa, sigma = kappa_sigma(u, w, beta)
                    assert kappa + sigma == -_delta_pos(u, beta)
                    assert sigma in (0, -1, -2)


class TestBuildVc:
    def test_zero_point_is_monomial(self):
        p = 53
        sd = build_setup(
            restricted_lift(PermTuple.of([(0, 2, 1)])),
            restricted_lift(PermTuple.of([(2, 0, 1)])),
            Weight.of([(26, 13, 0)]),
            p,
        )
        shape = ChartShape(n=3, p=p, kind="colength_one", u_perm=(2, 0, 1), conj_perm=(0, 2, 1), a_vec=sd.a_tau[0])
        F = field(p)
        A, point = build_vc_matrix(shape, {b: 0 for b in negative_roots(3)}, F, default_precision(3, 4), "at embedding 0")
        zt = sd.ztilde.component(0)
        assert affine_bruhat_decompose(A) == (tuple(zt[0]), tuple(zt[1]))

    def test_generic_point_in_cell_with_nabla(self):
        p = 53
        sd = build_setup(
            restricted_lift(PermTuple.of([(0, 2, 1)])),
            restricted_lift(PermTuple.of([(2, 0, 1)])),
            Weight.of([(26, 13, 0)]),
            p,
        )
        shape = ChartShape(n=3, p=p, kind="colength_one", u_perm=(2, 0, 1), conj_perm=(0, 2, 1), a_vec=sd.a_tau[0])
        F = field(p)
        rng = random.Random(3)
        for _ in range(10):
            cv = {b: rng.randrange(p) for b in negative_roots(3)}
            A, point = build_vc_matrix(shape, cv, F, default_precision(3, 4), "at embedding 0")
            assert nabla_check(A, tuple(x % p for x in shape.a_vec))
            zt = sd.ztilde.component(0)
            assert affine_bruhat_decompose(A) == (tuple(zt[0]), tuple(zt[1]))

    def test_corrupted_degree_rejected(self):
        p = 53
        shape = ChartShape(n=3, p=p, kind="colength_one", u_perm=(2, 0, 1), conj_perm=(0, 2, 1), a_vec=(30, 14, 0))
        F = field(p)
        with pytest.raises(DegreeBoundError):
            build_vc_matrix(shape, {(0, 1): 1}, F, 40, "at embedding 0")

    def test_failed_solve_names_the_chart(self, monkeypatch):
        # a chart that does not solve is named by the caller's text and
        # its static shape
        from alcalc.chartsolve import ChartSystem
        from alcalc.mpoly import SolveError

        def stuck(self, assignments, a_vec):
            raise SolveError("stuck")

        monkeypatch.setattr(ChartSystem, "solve", stuck)
        shape = ChartShape(n=3, p=53, kind="colength_one", u_perm=(2, 0, 1), conj_perm=(0, 2, 1), a_vec=(30, 14, 0))
        want = f"stuck, solving the special-fiber chart at embedding 1: {shape!r}"
        with pytest.raises(SolveError, match=f"^{re.escape(want)}$"):
            build_vc_matrix(shape, {b: 1 for b in negative_roots(3)}, field(53), 40, "at embedding 1")


def partition_lemma_check_diamonds(u_diamond, w_diamond) -> bool:
    """Diamond-level wrapper: validates that both inputs are genuine
    restricted lifts (a corrupted translation part is a precondition
    violation, not a lemma failure) before checking the identity at the
    distinguished embedding, the first."""
    from alcalc.weyl import nu_w

    for x, name in ((u_diamond, "u"), (w_diamond, "w")):
        for j in range(x.f):
            nu, perm = x.component(j)
            if nu != nu_w(perm):
                raise ValueError(f"precondition violation: {name}^diamond has a corrupted translation part at embedding {j}")
    return partition_lemma_check(u_diamond.w.perms[0], w_diamond.w.perms[0], w_diamond.n)


class TestDiamondWrapper:
    def test_valid_pair(self):
        u = restricted_lift(PermTuple.of([(2, 0, 1)]))
        w = restricted_lift(PermTuple.of([(0, 2, 1)]))
        assert partition_lemma_check_diamonds(u, w)

    def test_corrupted_nu_is_precondition_violation(self):
        from alcalc.weyl import ExtAffine

        u = restricted_lift(PermTuple.of([(2, 0, 1)]))
        w = restricted_lift(PermTuple.of([(0, 2, 1)]))
        corrupted = ExtAffine(Weight.of([(2, 1, 0)]), w.w)
        with pytest.raises(ValueError, match="precondition"):
            partition_lemma_check_diamonds(u, corrupted)


class TestZOracleN4:
    def test_oracle_calibration_all_m_zero_pairs(self):
        # The decisive calibration: at n = 4 the chains are long enough to
        # separate the candidate sign readings, and the implemented Z must
        # be a constant multiple of the intrinsic p/c on integral lifts at
        # every pair (the inner sign (-1)^s is the unique reading passing
        # this; (-1)^(i-1-s) and (-1)^(i-s) both fail at n = 4).
        import random

        from alcalc.chartsolve import CVAR, pval_chart_system

        p = 53
        F = field(p)
        rng = random.Random(5)
        pairs = [((0, 3, 1, 2), (3, 0, 1, 2)), ((1, 2, 0, 3), (1, 2, 3, 0)), ((2, 0, 3, 1), (2, 3, 0, 1))]
        for (w, u) in pairs:
            sd = build_setup(
                restricted_lift(PermTuple.of([w])),
                restricted_lift(PermTuple.of([u])),
                Weight.of([(33, 22, 11, 0)]),
                p,
            )
            shape = ChartShape(n=4, p=p, kind="colength_one", u_perm=u, conj_perm=w, a_vec=sd.a_tau[0])
            ratios = set()
            used = 0
            while used < 4:
                cv = {b: rng.randrange(p) for b in negative_roots(4)}
                sysO = pval_chart_system(shape)
                tops = {vvar(b, shape.degree_bound(b)): PVal.of(cv[b], p) for b in negative_roots(4)}
                tops[vvar((3, 0), shape.degree_bound((3, 0)))] = PVal.of(cv[(3, 0)], p) + PVal.sqrt_p(p)
                full = sysO.solve(tops, shape.a_vec)
                z = PVal.of(p, p) / full[CVAR]
                if z.valuation() != 0:
                    continue
                zi = z_minus_alpha(shape, w, cv, F)
                ratios.add(F.mul(zi, F.inv(z.residue())))
                used += 1
            assert len(ratios) == 1, f"Z not proportional to the oracle at pair {(w, u)}: {sorted(ratios)}"


class TestZCache:
    """`z_minus_alpha` reads Z_{-alpha} from a cache keyed by (shape, w, F)
    and the top-variable names from a per-shape memo; every value must be
    what a fresh build gives."""

    @staticmethod
    def cases(primes=(101, 103)):
        # every n = 3, 4 special pair at two primes, each pair under two
        # monodromy parameters that share (u, w) and differ only in a_vec
        out = []
        for q in primes:
            for n in (3, 4):
                for (w, u) in npairs(n):
                    for step in (17, 23):
                        a_vec = tuple(step * (n - i) + 1 for i in range(n))
                        shape = ChartShape(n=n, p=q, kind="colength_one", u_perm=u, conj_perm=w, a_vec=a_vec)
                        out.append((shape, w, field(q)))
        return out

    @staticmethod
    def fresh(shape, w, F, cv):
        Z = z_minus_alpha_poly(shape, w, partial(FElem, F))
        out = Z.substitute({vvar(b, shape.degree_bound(b)): FElem(F, cv[b]) for b in cv})
        return out.constant_value().a

    def test_cached_matches_fresh_build(self):
        from alcalc.charts import z_minus_alpha_terms

        z_minus_alpha_terms.cache_clear()
        rng = random.Random(11)
        cases = self.cases()
        moved = 0
        for _ in range(3):
            # consecutive cases differ only in a_vec; each point is
            # evaluated under both, so a cache keyed on (u, w) fails
            for k in range(0, len(cases), 2):
                (s1, w, F), (s2, _, _) = cases[k], cases[k + 1]
                cv = {b: rng.randrange(1, F.q) for b in negative_roots(s1.n)}
                got = [z_minus_alpha(shape, w, cv, F) for shape in (s1, s2)]
                assert got == [self.fresh(shape, w, F, cv) for shape in (s1, s2)]
                moved += got[0] != got[1]
        assert moved > len(cases) // 2

    def test_non_generic_raises_every_call(self):
        from alcalc.charts import z_minus_alpha_terms

        p = 53
        F = field(p)
        shape = ChartShape(n=3, p=p, kind="colength_one", u_perm=(2, 0, 1), conj_perm=(0, 2, 1), a_vec=(1, 0, 0))
        cv = {b: 1 for b in negative_roots(3)}
        for _ in range(2):
            with pytest.raises(GenericityError):
                z_minus_alpha_terms(shape, (0, 2, 1), F)
        for _ in range(2):
            with pytest.raises(GenericityError):
                z_minus_alpha(shape, (0, 2, 1), cv, F)

    def test_cached_poly_not_mutated(self):
        # the one cached form of Z is its compiled terms; evaluating them
        # neither rebuilds nor changes them
        from alcalc.charts import z_minus_alpha_terms

        shape, w, F = self.cases(primes=(101,))[-1]
        Z = z_minus_alpha_terms(shape, w, F)
        before = list(Z)
        rng = random.Random(4)
        for _ in range(20):
            cv = {b: rng.randrange(F.q) for b in negative_roots(shape.n)}
            z_minus_alpha(shape, w, cv, F)
        assert z_minus_alpha_terms(shape, w, F) is Z
        assert list(Z) == before

    def test_variable_outside_tops_raises(self, monkeypatch):
        from alcalc import charts

        shape, w, F = self.cases(primes=(101,))[0]
        K = partial(FElem, F)
        beta = negative_roots(shape.n)[0]
        below_top = Poly.var(K, vvar(beta, shape.degree_bound(beta) - 1))
        stray = z_minus_alpha_poly(shape, w, K) + below_top
        cv = {b: 1 for b in negative_roots(shape.n)}
        monkeypatch.setattr(charts, "z_minus_alpha_poly", lambda *args: stray)
        try:
            for _ in range(2):
                charts.z_minus_alpha_terms.cache_clear()
                with pytest.raises(ChartInvariantError):
                    z_minus_alpha(shape, w, cv, F)
        finally:
            charts.z_minus_alpha_terms.cache_clear()

    def test_verify_z_builds_each_config_once(self, monkeypatch, capsys):
        import json

        from alcalc import charts
        from alcalc.cli import run

        calls = []
        build = charts.z_minus_alpha_poly

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(charts, "z_minus_alpha_poly", counting)
        charts.z_minus_alpha_terms.cache_clear()
        assert run(["verify", "z", "--trials", "50", "--seed", "3"]) == 0
        configs = json.loads(capsys.readouterr().out)["checks"][0]["detail"]["configs"]
        assert configs == 3
        assert 1 <= len(calls) <= configs

    def test_thread_safe_on_cold_cache(self):
        import dataclasses
        import sys
        import threading

        from alcalc.charts import z_minus_alpha_terms

        rng = random.Random(8)
        points = [
            (shape, w, F, {b: rng.randrange(1, F.q) for b in negative_roots(shape.n)})
            for shape, w, F in self.cases()
            for _ in range(3)
        ]
        serial = [self.fresh(shape, w, F, cv) for shape, w, F, cv in points]
        errors = []

        def work(order, shapes):
            try:
                for k in order:
                    _, w, F, cv = points[k]
                    got = z_minus_alpha(shapes[k], w, cv, F)
                    if got != serial[k]:
                        errors.append((k, got, serial[k]))
            except Exception as exc:  # collected and reported by the main thread
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(3):
                z_minus_alpha_terms.cache_clear()
                # equal but new shape objects, so the top-variable memo is cold too
                shapes = [dataclasses.replace(s) for s, _, _, _ in points]
                orders = [random.Random(trial * 4 + t).sample(range(len(points)), len(points)) for t in range(4)]
                threads = [threading.Thread(target=work, args=(o, shapes)) for o in orders]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert errors == []
