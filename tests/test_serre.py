"""Serre weights, tame types, special alcoves, setup data, Hecke values."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from alcalc.pval import PVal
from alcalc.serre import (
    DepthError,
    HeckeCharacter,
    InvariantError,
    NonOrdinaryError,
    PresentationError,
    SerreWeightLAP,
    _special_partner,
    build_setup,
    classify_case,
    depth_genericity,
    enumerate_special,
    gl2_f2_jh,
    lowest_alcove_presentation,
    normalize_to_case_a,
    presentation_to_weight,
    ps_parameters,
    serre_canonical,
    serre_eq,
    special_pairs,
)
from alcalc.weyl import (
    Colength,
    ExtAffine,
    PermTuple,
    Weight,
    aff_length,
    all_perms,
    length,
    perm_inv,
    perm_mul,
    restricted_lift,
    restricted_lift_perm,
    transposition,
    up_arrow_leq_aff,
    up_arrow_step_aff,
)


def deep_omega(n, f, p):
    g = p // (n + 1)
    return Weight.of([tuple(g * (n - 1 - i) for i in range(n))] * f)


class TestPresentations:
    def test_trivial(self):
        lap = SerreWeightLAP(ExtAffine.identity(3, 1), Weight.eta(3, 1), 29)
        assert presentation_to_weight(lap) == Weight.zero(3, 1)

    def test_gl2_f2_deep_weight(self):
        p = 31
        lam = Weight.of([(9, 2), (11, 4)])
        lap = lowest_alcove_presentation(lam, p)
        assert lap.wtilde.to_json() == ExtAffine.identity(2, 2).to_json()
        assert lap.omega == lam.add(Weight.eta(2, 2))
        assert presentation_to_weight(lap) == lam

    def test_gl3_roundtrip_recovers_presentation(self):
        p = 29
        w = (0, 2, 1)
        wd = restricted_lift(PermTuple.of([w]))
        omega = Weight.of([(22, 11, 0)])  # entries inside [0, p)
        lap = SerreWeightLAP(wd, omega, p)
        lam = presentation_to_weight(lap)
        back = lowest_alcove_presentation(lam, p)
        assert back.wtilde.to_json() == wd.to_json()
        assert back.omega == omega

    def test_roundtrip_modulo_normalization(self):
        rng = random.Random(0)
        p = 29
        for _ in range(100):
            n, f = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2)])
            lam = Weight.of(
                [tuple(sorted((rng.randrange(p - 1) for _ in range(n)), reverse=True)) for _ in range(f)]
            )
            try:
                lap = lowest_alcove_presentation(lam, p)
            except PresentationError:
                continue
            assert presentation_to_weight(lap) == lam

    def test_wall_error(self):
        with pytest.raises(PresentationError, match="wall"):
            lowest_alcove_presentation(Weight.of([(6, 0, 0)]), 7)

    def test_restrictedness_check_is_a_named_error(self, monkeypatch):
        # the output check must survive python -O, so it is not an assert
        import alcalc.serre as serre_mod

        lap = SerreWeightLAP(ExtAffine.identity(3, 1), Weight.eta(3, 1), 29)
        monkeypatch.setattr(serre_mod, "is_p_restricted", lambda lam, p: False)
        with pytest.raises(InvariantError, match="p-restricted"):
            presentation_to_weight(lap)

    def test_canonical_form(self):
        p = 7
        lam = Weight.of([(3, 1)])
        shifted = Weight.of([(3 + (p - 1), 1 + (p - 1))])
        assert serre_eq(lam, shifted, p)
        assert serre_canonical(lam, p).rows[0][1] in range(p - 1)
        assert not serre_eq(lam, Weight.of([(4, 1)]), p)

    def test_canonical_form_f2(self):
        p = 7
        lam = Weight.of([(3, 1), (2, 0)])
        # (p - pi) shift by c = (1, 0): rows change by (p, -1)
        shifted = Weight.of([(3 + p, 1 + p), (2 - 1, 0 - 1)])
        assert serre_eq(lam, shifted, p)


class TestDepth:
    def test_eta_at_p3(self):
        lap = SerreWeightLAP(ExtAffine.identity(2, 1), Weight.eta(2, 1), 3)
        assert depth_genericity(lap, 0)

    def test_gl3_numbers(self):
        # 3n-deep for n = 3 at p = 29 requires 9 < gaps < 20; the theta-gap
        # of (20, 10, 0) is exactly 20, so the strict test fails there and
        # passes one step lower
        p = 29
        lap = SerreWeightLAP(ExtAffine.identity(3, 1), Weight.of([(20, 10, 0)]), p)
        assert not depth_genericity(lap, 9)
        assert depth_genericity(lap, 8)

    def test_large_m_empty_interval(self):
        p = 29
        lap = SerreWeightLAP(ExtAffine.identity(3, 1), Weight.of([(20, 10, 0)]), p)
        assert not depth_genericity(lap, p // 2 + 1)


def special_perms(n):
    """All w (f = 1) with w^diamond special, by the one-embedding test."""
    return sorted(w for w in all_perms(n) if _special_partner(w) is not None)


class TestSpecial:
    def test_n2_none(self):
        count, total, frac = enumerate_special(2, 1)
        assert count == 0

    def test_counts_f1(self):
        for n in (3, 4, 5, 6, 7):
            count, total, frac = enumerate_special(n, 1)
            assert count == math.factorial(n - 2)
            assert total == math.factorial(n - 1)

    def test_n3_transposition_coset(self):
        sp = special_perms(3)
        # the S-coset of the simple transposition swapping the last two
        assert (0, 2, 1) in sp and len(sp) == 3

    def test_proportions(self):
        for n, f in itertools.product((3, 4), (1, 2, 3)):
            count, total, frac = enumerate_special(n, f)
            assert frac == 1 - Fraction(n - 2, n - 1) ** f
        assert enumerate_special(5, 2)[2] == Fraction(7, 16)
        assert enumerate_special(6, 2)[2] == Fraction(9, 25)

    def test_closed_criterion_f1(self):
        # ground truth matches: w^{-1} maps the endpoints to adjacent
        # values in order, or w^{-1} interchanges them
        for n in (3, 4, 5, 6, 7):
            truth = set(special_perms(n))
            crit = set()
            for w in all_perms(n):
                wi = perm_inv(w)
                if wi[0] + 1 == wi[n - 1] or (wi[0] == n - 1 and wi[n - 1] == 0):
                    crit.add(w)
            assert truth == crit

    def test_one_reflection_matches_search(self):
        # the closed-form covering move against the bounded up-arrow search
        # on every length-difference-one candidate: (candidates, special)
        expected = {3: (3, 3), 4: (8, 8), 5: (50, 30)}
        for n, counts in expected.items():
            salpha = transposition(n, 0, n - 1)
            verdicts = []
            for w in all_perms(n):
                wd = restricted_lift_perm(w)
                ud = restricted_lift_perm(perm_mul(salpha, w))
                if aff_length(wd) != aff_length(ud) + 1:
                    continue
                step = up_arrow_step_aff(ud, wd)
                assert step == up_arrow_leq_aff(ud, wd), w
                verdicts.append(step)
            assert (len(verdicts), sum(verdicts)) == counts

    def test_s_coset_invariance(self):
        from alcalc.weyl import ncycle

        for n in (3, 4):
            g = ncycle(n)
            for w in all_perms(n):
                assert (_special_partner(w) is None) == (_special_partner(perm_mul(w, g)) is None)

    def test_f2_any_embedding(self):
        # an f-tuple heads a special pair iff it is special at some
        # embedding; (0, 2, 1) is special and case A, (1, 2, 0) is not
        heads = {(w.perms, j0) for w, _, j0 in special_pairs(3, 2)}
        assert (((0, 1, 2), (0, 2, 1)), 1) in heads
        assert not any(perms == ((0, 1, 2), (1, 2, 0)) for perms, _ in heads)

    def test_non_restricted_rejected(self):
        # specialness is defined for restricted elements: the setup of a
        # special pair refuses a w~ that is not restricted
        nu, w = restricted_lift_perm((0, 2, 1))
        shifted = ExtAffine(Weight.of([(nu[0] + 1,) + nu[1:]]), PermTuple.of([w]))
        with pytest.raises(PresentationError, match="restricted"):
            build_setup(shifted, restricted_lift(PermTuple.of([(2, 0, 1)])), Weight.of([(26, 13, 0)]), 53)

    def test_coset_constancy_check_is_a_named_error(self, monkeypatch):
        import alcalc.serre as serre_mod

        seen = []

        def alternating(w):
            seen.append(w)
            return w if len(seen) % 2 else None

        monkeypatch.setattr(serre_mod, "_special_partner", alternating)
        with pytest.raises(InvariantError, match="S-coset"):
            enumerate_special(3, 1)


def _special_pairs_by_product(n, f):
    """The brute-force search: every f-tuple of permutations and every
    embedding j0, case-B pairs normalized; repeats kept."""
    i0, k0 = 0, n - 1
    salpha = transposition(n, i0, k0)
    out = []
    for perms in itertools.product(all_perms(n), repeat=f):
        for j0 in range(f):
            uj = perm_mul(salpha, perms[j0])
            wd = restricted_lift_perm(perms[j0])
            ud = restricted_lift_perm(uj)
            if aff_length(wd) != aff_length(ud) + 1:
                continue
            if not up_arrow_leq_aff(ud, wd):
                continue
            w = PermTuple.of(perms)
            u = PermTuple.of([uj if j == j0 else perms[j] for j in range(f)])
            if classify_case(w, u, j0, i0, k0) == "B":
                w, u, _ = normalize_to_case_a(w, u, j0, i0, k0)
            out.append((w.perms, u.perms, j0))
    return out


class TestSpecialPairs:
    @pytest.mark.parametrize("n, f", [(3, 1), (4, 1), (3, 2), (4, 2), (3, 3)])
    def test_matches_product_search(self, n, f):
        pairs = special_pairs(n, f)
        keys = [(w.perms, u.perms, j0) for w, u, j0 in pairs]
        assert set(keys) == set(_special_pairs_by_product(n, f))
        assert len(set(keys)) == len(keys)
        order = [(j0, w, u) for w, u, j0 in keys]
        assert order == sorted(order)

    def test_none_for_n2(self):
        assert special_pairs(2, 1) == []


class TestClassifyCase:
    def test_case_a(self):
        w, u = PermTuple.of([(0, 2, 1)]), PermTuple.of([(2, 0, 1)])
        assert classify_case(w, u, 0, 0, 2) == "A"

    def test_case_b(self):
        w = PermTuple.of([(2, 1, 0)])
        u = PermTuple.of([perm_mul(transposition(3, 0, 2), (2, 1, 0))])
        assert classify_case(w, u, 0, 0, 2) == "B"

    def test_normalize_to_case_a(self):
        w = PermTuple.of([(2, 1, 0)])
        u = PermTuple.of([perm_mul(transposition(3, 0, 2), (2, 1, 0))])
        w2, u2, delta = normalize_to_case_a(w, u, 0, 0, 2)
        assert classify_case(w2, u2, 0, 0, 2) == "A"
        # delta is the displayed cycle power sigma_{j0}(g^{n - w^{-1}(i0)})
        from alcalc.weyl import ncycle

        assert delta.perms[0] == ncycle(3)

    def test_invalid_pair_rejected(self):
        w = PermTuple.of([(0, 2, 1)])
        with pytest.raises(ValueError):
            classify_case(w, w, 0, 0, 2)


class TestBuildSetup:
    def test_canonical_pair_shapes(self):
        p = 53
        sd = build_setup(
            restricted_lift(PermTuple.of([(0, 2, 1)])),
            restricted_lift(PermTuple.of([(2, 0, 1)])),
            Weight.of([(26, 13, 0)]),
            p,
        )
        assert sd.ztilde_shape == (Colength.COLENGTH_ONE,)
        assert sd.ztilde_prime_shape == (Colength.EXTREMAL,)
        # z~ has length l(t_eta) - 1 = 3 through its unstarred partner
        from alcalc.weyl import star

        assert length(star(sd.ztilde)) == 3
        # z~' = (t_{u^{-1}(eta)})^*
        u = (2, 0, 1)
        expect = tuple((2, 1, 0)[u.index(i)] for i in range(3))
        assert sd.ztilde_prime.to_json()["w"] == [[0, 1, 2]]

    def test_genericity_verified(self):
        p = 53
        sd = build_setup(
            restricted_lift(PermTuple.of([(0, 2, 1)])),
            restricted_lift(PermTuple.of([(2, 0, 1)])),
            Weight.of([(26, 13, 0)]),
            p,
        )
        assert depth_genericity(sd.tau, 3)
        assert depth_genericity(sd.tau_prime, 3)

    def test_non_deep_rejected(self):
        with pytest.raises(DepthError):
            build_setup(
                restricted_lift(PermTuple.of([(0, 2, 1)])),
                restricted_lift(PermTuple.of([(2, 0, 1)])),
                Weight.of([(4, 2, 0)]),
                53,
            )


def diamond_oracle(mu: Weight, p: int) -> Weight:
    """Brute force: the p-restricted weight in mu + (p - pi)X*(T)^J."""
    n, f = mu.n, mu.f
    from alcalc.serre import is_p_restricted

    for xi in itertools.product(itertools.product(range(-2, 3), repeat=n), repeat=f):
        rows = []
        for j in range(f):
            shift = tuple(p * xi[j][i] - xi[(j + 1) % f][i] for i in range(n))
            rows.append(tuple(m + s for m, s in zip(mu.rows[j], shift)))
        cand = Weight.of(rows)
        if is_p_restricted(cand, p):
            return cand
    raise AssertionError("no p-restricted representative found in the search box")


class TestGL2F2:
    def test_spec_example_p23(self):
        p = 23
        lam = Weight.of([(10, 3), (12, 5)])
        out = gl2_f2_jh(lam, p)
        assert serre_eq(out["socle"][1], Weight.of([(9, 3), (27, 13)]), p)
        assert serre_eq(out["cosocle"], Weight.of([(3 + p - 1, 10), (5 + p - 1, 12)]), p)

    def test_paper_formulas_vs_diamond_oracle(self):
        p = 23
        rng = random.Random(5)
        for _ in range(20):
            a0, a1 = rng.randrange(8, 15), rng.randrange(8, 15)
            b0, b1 = a0 - rng.randrange(4, 8), a1 - rng.randrange(4, 8)
            lam = Weight.of([(a0, b0), (a1, b1)])
            out = gl2_f2_jh(lam, p)
            # independent: dot-reflect then brute-force p-restrict
            s0_lam = Weight.of([(b0 - 1, a0 + 1), (a1, b1)])
            s1_lam = Weight.of([(a0, b0), (b1 - 1, a1 + 1)])
            s01_lam = Weight.of([(b0, a0), (b1, a1)])
            assert serre_eq(out["socle"][0], diamond_oracle(s0_lam, p), p)
            assert serre_eq(out["socle"][1], diamond_oracle(s1_lam, p), p)
            assert serre_eq(out["cosocle"], diamond_oracle(s01_lam, p), p)
            consts = out["socle"] + [out["cosocle"]]
            # pairwise distinct, p-restricted, and sigma absent
            for i in range(3):
                for k in range(i + 1, 3):
                    assert not serre_eq(consts[i], consts[k], p)
                assert not serre_eq(out["sigma"], consts[i], p)

    def test_wrong_shape_rejected(self):
        with pytest.raises(Exception):
            gl2_f2_jh(Weight.of([(3, 1)]), 23)


class TestPSParameters:
    def test_all_ones(self):
        p = 53
        chi = HeckeCharacter(tuple(PVal.one(p) for _ in range(3)))
        out = ps_parameters(chi, Weight.of([(2, 1, 0)]))
        assert all((r - PVal.one(p)).is_zero() for _, r in out)

    def test_telescoping_powers(self):
        p = 53
        t = PVal.of(5, p)
        vals = []
        acc = PVal.one(p)
        for _ in range(3):
            acc = acc * t
            vals.append(acc)
        chi = HeckeCharacter(tuple(vals))
        out = ps_parameters(chi, Weight.of([(2, 1, 0)]))
        assert all((r - t).is_zero() for _, r in out)

    def test_zero_denominator(self):
        p = 53
        chi = HeckeCharacter((PVal.zero(p), PVal.one(p), PVal.one(p)))
        with pytest.raises(NonOrdinaryError):
            ps_parameters(chi, Weight.of([(2, 1, 0)]))

    def test_distinct_inputs_distinct_outputs(self):
        p = 53
        hw = Weight.of([(2, 1, 0)])
        seen = set()
        for a, b in [(1, 1), (2, 1), (1, 2), (3, 4)]:
            chi = HeckeCharacter((PVal.of(a, p), PVal.of(b, p), PVal.one(p)))
            out = tuple(repr(r) for _, r in ps_parameters(chi, hw))
            assert out not in seen
            seen.add(out)

    def test_x_n_must_be_unit(self):
        p = 53
        with pytest.raises(ValueError):
            HeckeCharacter((PVal.one(p), PVal.one(p), PVal.zero(p)))


class TestUpVersusBruhat:
    def test_up_arrow_not_replaceable_by_bruhat(self):
        # On speciality configurations the two orders agree after case-(a)
        # normalization, but genuinely differ on case-(b) pairs, where the
        # stabilizer components differ and Bruhat comparison is false by
        # the extension rule while the alcove order still holds.
        from alcalc.weyl import (
            aff_omega_degree,
            aff_wa_part,
            bruhat_leq_wa,
        )

        disagreements = 0
        for n in (3, 4):
            salpha = transposition(n, 0, n - 1)
            for w in all_perms(n):
                u = perm_mul(salpha, w)
                wd, ud = restricted_lift_perm(w), restricted_lift_perm(u)
                if aff_length(wd) != aff_length(ud) + 1:
                    continue
                up = up_arrow_leq_aff(ud, wd)
                same_deg = aff_omega_degree(ud) == aff_omega_degree(wd)
                br = same_deg and bruhat_leq_wa(aff_wa_part(ud), aff_wa_part(wd))
                case = classify_case(
                    PermTuple.of([w]), PermTuple.of([u]), 0, 0, n - 1
                )
                if case == "A":
                    assert up == br
                else:
                    assert up and not br
                    disagreements += 1
        assert disagreements > 0
