"""Extended affine Weyl group: group law, alcove coordinates, orders."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcalc.weyl import (
    Colength,
    DimensionMismatchError,
    ExtAffine,
    PermTuple,
    Weight,
    admissible_set,
    aff_identity,
    aff_is_restricted,
    aff_length,
    aff_m,
    aff_mul,
    aff_profile_key,
    aff_translation,
    aff_wa_part,
    alcove_profile,
    all_perms,
    base_alcove_point,
    bfs_length,
    bruhat_leq,
    bruhat_leq_wa,
    classify_colength,
    compose,
    dot_action,
    eta_weight,
    inverse,
    length,
    lower_interval_wa,
    pairing,
    perm_act_vec,
    perm_mul,
    perm_w0,
    pi_twist,
    positive_roots,
    random_reduced_word,
    reduced_word,
    restricted_alcove_classes,
    restricted_lift,
    restricted_lift_perm,
    star,
    up_arrow_leq,
    up_arrow_leq_aff,
    up_arrow_step_aff,
)


def rand_aff(rng, n):
    nu = tuple(rng.randrange(-3, 4) for _ in range(n))
    w = rng.choice(all_perms(n))
    return (nu, w)


def rand_ext(rng, n, f):
    return ExtAffine(
        Weight.of([tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(f)]),
        PermTuple.of([rng.choice(all_perms(n)) for _ in range(f)]),
    )


class TestCompose:
    def test_identity(self):
        rng = random.Random(0)
        for _ in range(20):
            x = rand_ext(rng, 3, 2)
            e = ExtAffine.identity(3, 2)
            assert compose(e, x).to_json() == x.to_json()
            assert compose(x, e).to_json() == x.to_json()

    def test_gl2_monomial_matrix_oracle(self):
        # multiply the 2x2 monomial matrices v^nu * perm and decompose back
        from alcalc.gf import field
        from alcalc.loopmat import LoopMatrix, affine_bruhat_decompose

        F = field(5)
        x = ((1, 0), (1, 0))
        prod = aff_mul(x, x)
        assert prod == ((1, 1), (0, 1))
        Mx = LoopMatrix.monomial(F, x[0], x[1], 30)
        got = affine_bruhat_decompose(Mx.mul(Mx))
        assert got == prod

    def test_star_of_t_eta_w0(self):
        n = 3
        x = aff_mul(aff_translation(eta_weight(n)), ((0,) * n, perm_w0(n)))
        from alcalc.weyl import aff_star

        st_ = aff_star(x)
        # w0^{-1} t_eta = t_{w0^{-1}(eta)} w0^{-1}
        assert st_ == (perm_act_vec(perm_w0(n), eta_weight(n)), perm_w0(n))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(ExtAffine.identity(2, 1), ExtAffine.identity(3, 1))

    def test_star_involution_and_anti_isomorphism(self):
        rng = random.Random(1)
        for _ in range(500):
            n = rng.choice([2, 3])
            f = rng.choice([1, 2])
            x, y = rand_ext(rng, n, f), rand_ext(rng, n, f)
            assert star(star(x)).to_json() == x.to_json()
            assert star(compose(x, y)).to_json() == compose(star(y), star(x)).to_json()

    def test_pi_twist_cycles(self):
        rng = random.Random(2)
        x = rand_ext(rng, 3, 3)
        assert pi_twist(x, 3).to_json() == x.to_json()
        assert pi_twist(pi_twist(x, 1), -1).to_json() == x.to_json()
        assert pi_twist(x, 1).component(0) == x.component(1)

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_group_law_associative(self, n, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        x, y, z = (rand_aff(rng, n) for _ in range(3))
        assert aff_mul(aff_mul(x, y), z) == aff_mul(x, aff_mul(y, z))

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_law(self, n, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        x = rand_ext(rng, n, 2)
        assert compose(x, inverse(x)).to_json() == ExtAffine.identity(n, 2).to_json()


class TestAlcoveProfile:
    def test_identity_profile(self):
        prof = alcove_profile(ExtAffine.identity(3, 1))
        assert all(v == 0 for v in prof.m.values())
        assert prof.restricted == (True,)

    def test_t_eta_gl3(self):
        x = ExtAffine.translation(Weight.eta(3, 1))
        prof = alcove_profile(x)
        ms = sorted(prof.m.values())
        assert ms == [1, 1, 2]
        assert length(x) == 4

    def test_gl2_restricted_s(self):
        x = ExtAffine(Weight.of([(1, 0)]), PermTuple.of([(1, 0)]))
        prof = alcove_profile(x)
        assert prof.restricted == (True,)
        assert restricted_lift(PermTuple.of([(1, 0)])).to_json() == x.to_json()

    def test_floor_formula_against_sample_point(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.choice([2, 3, 4])
            nu, w = rand_aff(rng, n)
            pt = base_alcove_point(n)
            moved = tuple(Fraction(c) + q for c, q in zip(nu, perm_act_vec(w, pt)))
            for root in positive_roots(n):
                direct = (moved[root[0]] - moved[root[1]]).__floor__()
                assert direct == aff_m((nu, w), root)


class TestLength:
    def test_basics(self):
        assert aff_length(aff_identity(3)) == 0
        assert aff_length(aff_translation(eta_weight(3))) == 4
        assert aff_length(((0, 0, 0), perm_w0(3))) == 3
        assert bfs_length(((0, 0, 0), perm_w0(3))) == 3

    def test_length_of_omega_twists(self):
        # l(w~ delta) = l(w~) for stabilizer elements delta
        from alcalc.weyl import delta1

        rng = random.Random(4)
        for _ in range(50):
            n = rng.choice([2, 3])
            x = rand_aff(rng, n)
            assert aff_length(aff_mul(x, delta1(n))) == aff_length(x)

    def test_bfs_agreement_small(self):
        import itertools

        for n in (2, 3):
            for w in all_perms(n):
                for nu in itertools.product(range(-2, 3), repeat=n):
                    a = (tuple(nu), w)
                    if sum(nu) != 0:
                        continue
                    l = aff_length(a)
                    if l <= 8:
                        assert bfs_length(a) == l

    def test_bfs_agreement_f2(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.choice([2, 3, 4])
            x = rand_ext(rng, n, 2)
            if any(sum(r) != 0 for r in x.nu.rows):
                continue
            if length(x) <= 8:
                assert length(x) == sum(bfs_length(c) for c in x.components())


class TestBruhat:
    def test_reflexive(self):
        rng = random.Random(6)
        for _ in range(20):
            x = rand_ext(rng, 3, 1)
            assert bruhat_leq(x, x)

    def test_gl2_chain(self):
        # e <= s_0 <= t_{(1,-1)} = s_0 s_1
        e = aff_identity(2)
        s0 = ((1, -1), (1, 0))
        t = aff_translation((1, -1))
        assert bruhat_leq_wa(e, s0)
        assert bruhat_leq_wa(s0, t)
        assert bruhat_leq_wa(e, t)
        assert not bruhat_leq_wa(t, s0)

    def test_gl3_incomparable_translations(self):
        x = ExtAffine.translation(Weight.of([(1, 0, 0)]))
        y = ExtAffine.translation(Weight.of([(0, 1, 0)]))
        assert not bruhat_leq(x, y)
        assert not bruhat_leq(y, x)

    def test_cross_degree_false(self):
        x = ExtAffine.translation(Weight.of([(1, 0)]))
        y = ExtAffine.translation(Weight.of([(1, 1)]))
        assert not bruhat_leq(x, y)
        assert not bruhat_leq(y, x)

    def test_word_invariance(self):
        rng = random.Random(7)
        from alcalc.weyl import affine_simple_reflections

        for n in (2, 3, 4):
            gens = affine_simple_reflections(n)
            for _ in range(40):
                x, y = aff_identity(n), aff_identity(n)
                for _ in range(rng.randrange(0, 6)):
                    x = aff_mul(x, gens[rng.randrange(len(gens))])
                for _ in range(rng.randrange(0, 8)):
                    y = aff_mul(y, gens[rng.randrange(len(gens))])
                base = bruhat_leq_wa(x, y)
                for _ in range(5):
                    assert bruhat_leq_wa(x, y, word=random_reduced_word(y, rng)) == base

    def test_interval_enumeration_oracle(self):
        # pairwise comparisons within a lower interval agree with membership
        y = aff_wa_part(aff_translation((1, 0, -1)))
        interval = lower_interval_wa(y)
        for z in interval:
            assert bruhat_leq_wa(z, y)
        for z in interval:
            for zz in lower_interval_wa(z):
                assert zz in interval


class TestUpArrow:
    def test_reflexive(self):
        a = restricted_lift(PermTuple.of([(0, 2, 1)]))
        assert up_arrow_leq(a, a)

    def test_special_pair_asymmetry(self):
        # u = the length-0 partner, w = the transposition-coset element
        u = restricted_lift_perm((2, 0, 1))
        w = restricted_lift_perm((0, 2, 1))
        assert aff_length(w) == aff_length(u) + 1
        assert up_arrow_leq_aff(u, w)
        assert not up_arrow_leq_aff(w, u)

    def test_one_step_is_strict_and_directed(self):
        u = restricted_lift_perm((2, 0, 1))
        w = restricted_lift_perm((0, 2, 1))
        assert up_arrow_step_aff(u, w)
        assert not up_arrow_step_aff(w, u)
        assert not up_arrow_step_aff(u, u)
        # e below t_eta needs more than one reflection
        assert not up_arrow_step_aff(aff_identity(3), aff_translation(eta_weight(3)))

    def test_base_alcove_below_translates(self):
        e = aff_identity(3)
        t = aff_translation(eta_weight(3))
        assert up_arrow_leq_aff(e, t, slack=2)
        assert not up_arrow_leq_aff(t, e, slack=2)


class TestDotAction:
    def test_identity(self):
        lam = Weight.of([(3, 1)])
        assert dot_action(ExtAffine.identity(2, 1), lam, 7) == lam

    def test_translation_on_zero(self):
        p = 7
        out = dot_action(ExtAffine.translation(Weight.eta(3, 1)), Weight.zero(3, 1), p)
        assert out == Weight.eta(3, 1).scale(p)

    def test_gl2_example(self):
        out = dot_action(ExtAffine(Weight.zero(2, 1), PermTuple.of([(1, 0)])), Weight.of([(3, 1)]), 7)
        assert out == Weight.of([(0, 4)])


class TestRestrictedLift:
    def test_identity(self):
        assert restricted_lift_perm((0, 1, 2)) == ((0, 0, 0), (0, 1, 2))

    def test_gl2(self):
        assert restricted_lift_perm((1, 0)) == ((1, 0), (1, 0))

    def test_counts(self):
        for n in range(2, 7):
            assert len(restricted_alcove_classes(n)) == math.factorial(n - 1)

    def test_s_coset_compatibility(self):
        # (w delta)^diamond = w^diamond delta^diamond for delta in S
        from alcalc.weyl import ncycle

        for n in (3, 4):
            g = ncycle(n)
            for w in all_perms(n):
                wd = restricted_lift_perm(w)
                gd = restricted_lift_perm(g)
                combined = aff_mul(wd, gd)
                direct = restricted_lift_perm(perm_mul(w, g))
                # equality up to X^0 (constant vectors)
                diff = [a - b for a, b in zip(combined[0], direct[0])]
                assert combined[1] == direct[1]
                assert all(d == diff[0] for d in diff)


class TestAdmissible:
    def test_zero(self):
        adm = admissible_set(Weight.zero(2, 1))
        assert len(adm) == 1
        assert adm[0].to_json() == ExtAffine.identity(2, 1).to_json()

    def test_gl2_size_three(self):
        assert len(admissible_set(Weight.of([(1, 0)]))) == 3

    def test_extremal_classification(self):
        lam = Weight.eta(3, 1)
        for w in all_perms(3):
            x = ExtAffine.translation(Weight.of([perm_act_vec(w, eta_weight(3))]))
            assert classify_colength(x, lam) == (Colength.EXTREMAL,)

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            admissible_set(Weight.of([(0, 1)]))

    def test_length_bound_enforced(self):
        with pytest.raises(ValueError):
            admissible_set(Weight.of([tuple(range(29, -1, -1))]))

    def test_colength_one_count_gl2(self):
        lam = Weight.of([(1, 0)])
        adm = admissible_set(lam)
        kinds = [classify_colength(x, lam)[0] for x in adm]
        assert kinds.count(Colength.EXTREMAL) == 2
        assert kinds.count(Colength.COLENGTH_ONE) == 1


class TestAdmissibleVariants:
    def test_dual_is_star_image(self):
        from alcalc.weyl import admissible_set_dual

        lam = Weight.eta(3, 1)
        adm = admissible_set(lam)
        dual = admissible_set_dual(lam)
        assert sorted(x.to_json()["nu"][0] for x in dual) == sorted(
            star(x).to_json()["nu"][0] for x in adm
        )
        # translations are star-fixed, so the extremal elements stay put
        for x in adm:
            if classify_colength(x, lam) == (Colength.EXTREMAL,):
                assert any(star(x).to_json() == y.to_json() for y in dual)

    def test_regular_subset(self):
        from alcalc.weyl import admissible_set_regular

        lam = Weight.eta(3, 1)
        reg = admissible_set_regular(lam)
        adm = admissible_set(lam)
        assert 0 < len(reg) < len(adm)
        for x in reg:
            assert all(alcove_profile(x).regular)


def test_doctests():
    import doctest

    import alcalc.weyl as m

    results = doctest.testmod(m)
    assert results.failed == 0 and results.attempted >= 3


def test_admissible_contains_matches_enumeration():
    from alcalc.weyl import admissible_contains

    lam = Weight.eta(3, 1)
    adm_set = {(x.nu.rows, x.w.perms) for x in admissible_set(lam)}
    rng = random.Random(12)
    for _ in range(80):
        x = rand_ext(rng, 3, 1)
        assert admissible_contains(lam, x) == ((x.nu.rows, x.w.perms) in adm_set)


def test_reduced_word_thread_safe():
    # four threads grow one cold word table at once; a frequent switch
    # interval interleaves them inside a BFS layer
    import sys
    import threading

    from alcalc.weyl import _word_table, affine_simple_reflections

    rng = random.Random(12)
    gens = affine_simple_reflections(4)
    elems = []
    for _ in range(200):
        x = aff_identity(4)
        for _ in range(rng.randrange(4, 12)):
            x = aff_mul(x, rng.choice(gens))
        elems.append(x)
    errors = []

    def work(order):
        try:
            for x in order:
                word = reduced_word(x)
                y = aff_identity(4)
                for gi in word:
                    y = aff_mul(y, gens[gi])
                assert y == x and len(word) == aff_length(x)
        except Exception as exc:  # collected and reported by the main thread
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            _word_table.cache_clear()
            orders = [random.Random(trial * 4 + t).sample(elems, len(elems)) for t in range(4)]
            threads = [threading.Thread(target=work, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
        _word_table.cache_clear()
    assert errors == []
