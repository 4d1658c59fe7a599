"""Acceptance suite: one test per criterion, exact tolerances, stated
time budgets.  Each test prints a PASS line on success (run with -s to see
them); a failure prints FAIL via the assertion.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import partial

import pytest

from alcalc.charts import minor_identities, partition_lemma_check, z_minus_alpha, z_minus_alpha_poly
from alcalc.chartsolve import ChartShape, vvar
from alcalc.gf import FElem, field
from alcalc.loopmat import LoopMatrix, affine_bruhat_decompose, default_precision, random_iwahori
from alcalc.pval import PVal
from alcalc.serre import (
    build_setup,
    depth_genericity,
    enumerate_special,
    gl2_f2_jh,
    serre_eq,
    special_pairs,
)
from alcalc.weyl import (
    Colength,
    ExtAffine,
    PermTuple,
    Weight,
    aff_identity,
    aff_length,
    aff_m,
    aff_mul,
    aff_wa_part,
    affine_simple_reflections,
    all_perms,
    all_roots,
    admissible_set,
    bfs_length,
    bruhat_leq_wa,
    eta_weight,
    length,
    negative_roots,
    perm_act_vec,
    random_reduced_word,
    restricted_alcove_classes,
    restricted_lift,
    restricted_lift_perm,
)
from alcalc.witness import extremal_chart_point, witness_family, witness_triple_intersection

P_MAIN = 53


def _deep_omega(n, f, p):
    g = p // (n + 1)
    return Weight.of([tuple(g * (n - 1 - i) for i in range(n))] * f)


def test_criterion_01_restricted_alcove_count():
    for n in range(2, 7):
        t0 = time.time()
        classes = restricted_alcove_classes(n)
        elapsed = time.time() - t0
        assert len(classes) == math.factorial(n - 1), f"count mismatch at n={n}"
        assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"
    print("ACCEPTANCE 1: restricted-alcove count (n-1)! for n=2..6: PASS")


def test_criterion_02_special_alcove_counts_and_proportions():
    t0 = time.time()
    assert enumerate_special(2, 1)[0] == 0
    for n in (3, 4, 5):
        count, total, frac = enumerate_special(n, 1)
        assert count == math.factorial(n - 2), f"special count mismatch at n={n}"
    for n, f in itertools.product((3, 4), (1, 2, 3)):
        _, _, frac = enumerate_special(n, f)
        assert frac == 1 - Fraction(n - 2, n - 1) ** f, f"proportion mismatch at (n,f)=({n},{f})"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2: special-alcove counts and exact proportions ({elapsed:.1f}s): PASS")


def test_criterion_03_length_and_bruhat_oracles():
    t0 = time.time()
    for n in (2, 3, 4):
        lam = Weight.eta(n, 1).scale(2)
        for x in admissible_set(lam):
            a = x.component(0)
            assert aff_length(a) == bfs_length(aff_wa_part(a)), f"length mismatch at {x.to_json()}"
    rng = random.Random(2024)
    pairs = 0
    while pairs < 200:
        n = rng.choice([2, 3, 4])
        gens = affine_simple_reflections(n)
        x, y = aff_identity(n), aff_identity(n)
        for _ in range(rng.randrange(0, 6)):
            x = aff_mul(x, gens[rng.randrange(len(gens))])
        for _ in range(rng.randrange(0, 8)):
            y = aff_mul(y, gens[rng.randrange(len(gens))])
        base = bruhat_leq_wa(x, y)
        for _ in range(5):
            assert bruhat_leq_wa(x, y, word=random_reduced_word(y, rng)) == base
        pairs += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3: m-sum length = BFS on Adm(2 eta) and word-invariant Bruhat ({elapsed:.1f}s): PASS")


def test_criterion_04_superadditivity():
    t0 = time.time()
    for n in (2, 3, 4):
        roots = all_roots(n)
        rootset = set(roots)
        sums = [
            (a1, a2, (a1[0], a2[1]))
            for a1 in roots
            for a2 in roots
            if a1[1] == a2[0] and a1[0] != a2[1] and (a1[0], a2[1]) in rootset
        ]
        for x in admissible_set(Weight.eta(n, 1).scale(2)):
            a = x.component(0)
            for a1, a2, s in sums:
                m1, m2, m12 = aff_m(a, a1), aff_m(a, a2), aff_m(a, s)
                assert m1 + m2 <= m12 <= m1 + m2 + 1, f"superadditivity fails at {x.to_json()}, {a1}+{a2}"
    elapsed = time.time() - t0
    print(f"ACCEPTANCE 4: optimal superadditivity on Adm(2 eta), n<=4 ({elapsed:.1f}s): PASS")


def test_criterion_05_setup_shape_contract():
    t0 = time.time()
    p = P_MAIN
    checked = 0
    for n in (3, 4):
        for f in (1, 2):
            omega = _deep_omega(n, f, p)
            for (w, u, j0_orig) in special_pairs(n, f):
                sd = build_setup(restricted_lift(w), restricted_lift(u), omega, p)
                for j in range(f):
                    want = Colength.COLENGTH_ONE if j == sd.j0 else Colength.EXTREMAL
                    assert sd.ztilde_shape[j] == want, f"z~ shape at {(n, f, w.perms, j)}"
                    assert sd.ztilde_prime_shape[j] == Colength.EXTREMAL
                assert depth_genericity(sd.tau, 2 * n - 3)
                assert depth_genericity(sd.tau_prime, 2 * n - 3)
                checked += 1
    elapsed = time.time() - t0
    assert checked > 0
    print(f"ACCEPTANCE 5: setup shape contract on {checked} special pairs ({elapsed:.1f}s): PASS")


def test_criterion_06_minor_identities():
    t0 = time.time()
    rng = random.Random(7)
    F = field(P_MAIN)
    trials = 0
    while trials < 1000:
        n = rng.choice([3, 4, 5])
        av = {b: rng.randrange(F.q) for b in negative_roots(n)}
        for i, (d, r, pth) in enumerate(minor_identities(av, 0, n - 1, F), 2):
            assert d == r, f"direct != recursion at n={n}, i={i}"
            if pth is not None:
                assert d == pth, f"direct != path form at n={n}"
        trials += 1
    elapsed = time.time() - t0
    print(f"ACCEPTANCE 6: minor identities, 1000 random points, zero failures ({elapsed:.1f}s): PASS")


def test_criterion_07_partition_lemma():
    t0 = time.time()
    checked = 0
    for n in (3, 4):
        for f in (1, 2):
            for (w, u, j0) in special_pairs(n, f):
                assert partition_lemma_check(u.perms[j0], w.perms[j0], n), f"partition fails at {(n, f, w.perms)}"
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 7: partition lemma on {checked} configurations ({elapsed:.1f}s): PASS")


def test_criterion_08_z_structure():
    t0 = time.time()
    q = 101
    F = field(q)
    K = partial(FElem, F)
    rng = random.Random(11)
    configs = 0
    samples_per_config = None
    for n in (3, 4):
        ms = [
            (w.perms[0], u.perms[0])
            for (w, u, _) in special_pairs(n, 1)
            if aff_m(restricted_lift_perm(u.perms[0]), (0, n - 1)) > 0
        ]
        if n == 3:
            assert not ms  # the m > 0 branch first appears at n = 4
            continue
        for (w, u) in set(ms):
            a_vec = tuple(23 * (n - i) + 1 for i in range(n))
            shape = ChartShape(n=n, p=q, kind="colength_one", u_perm=u, conj_perm=w, a_vec=a_vec)
            Z = z_minus_alpha_poly(shape, w, K)
            chain = tuple(
                sorted(
                    ((vvar((i + 1, i), shape.degree_bound((i + 1, i))), 1) for i in range(n - 1)),
                    key=lambda t: repr(t[0]),
                )
            )
            assert Z.coefficient_of(chain).is_zero(), "simple-chain monomial present"
            simples = {(i + 1, i) for i in range(n - 1)}
            zero_map = {vvar(b, shape.degree_bound(b)): K(0) for b in negative_roots(n) if b not in simples}
            assert Z.substitute(zero_map).is_zero(), "symbolic restriction nonzero"
            samples_per_config = 10**4 // max(1, len(set(ms)))
            for _ in range(samples_per_config):
                cv = {b: (rng.randrange(1, q) if b in simples else 0) for b in negative_roots(n)}
                assert z_minus_alpha(shape, w, cv, F) == 0, "sampled restriction nonzero"
            configs += 1
    # a nonzero polynomial of total degree <= 4 vanishes on at most a
    # 4/q fraction of samples, so the chance the sampled vanishing claim
    # is wrong is (4/q)^samples -- astronomically below the 1e-2 budget
    per_sample_bound = 4 / q
    total_bound_log10 = samples_per_config * __import__("math").log10(per_sample_bound)
    assert total_bound_log10 < -2
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 8: Z monomial absence + simple-locus vanishing, {configs} configs, "
        f"~{samples_per_config} samples each, failure bound 1e{total_bound_log10:.0f} ({elapsed:.1f}s): PASS"
    )


def test_criterion_09_triple_intersection_witness():
    t0 = time.time()
    p = P_MAIN
    sd = build_setup(
        restricted_lift(PermTuple.of([(0, 2, 1)])),
        restricted_lift(PermTuple.of([(2, 0, 1)])),
        _deep_omega(3, 1, p),
        p,
    )
    res = witness_triple_intersection(sd, t=2)
    for name, val in res.checks.items():
        ok = all(val) if isinstance(val, list) else val
        assert ok, f"witness check {name} failed"
    vals = res.f_sigma.valuations
    assert vals[0] > 0 and vals[1] > 0, "f_1, f_2 must have positive valuation"
    assert vals[2] == 0, "f_3 must be a unit"
    fam = witness_family(sd, t=2, count=10)
    chars = [r.chi_sigma_prime for r in fam]
    assert len(set(chars)) == 10, "family characters not pairwise distinct"
    for r in fam:
        assert (r.f_sigma.values[-1] - PVal.of(2, p)).is_zero(), "family member has wrong f_n"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 9: triple-intersection witness + family of 10 distinct characters ({elapsed:.1f}s): PASS")


def test_criterion_10_extremal_charts_ordinary():
    t0 = time.time()
    rng = random.Random(23)
    p = P_MAIN
    total = 0
    for (n, f) in itertools.product((2, 3, 4), (1, 2)):
        for _ in range(50):
            y = [rng.choice(all_perms(n)) for _ in range(f)]
            g = p // (n + 1)
            base = [g * (n - 1 - i) + rng.randrange(-2, 3) for i in range(n)]
            a_vecs = [
                tuple(perm_act_vec(rng.choice(all_perms(n)), tuple(b + e for b, e in zip(base, eta_weight(n)))))
                for _ in range(f)
            ]
            tops = [{b: rng.randrange(p) for b in negative_roots(n)} for _ in range(f)]
            torus = [[rng.randrange(1, p) for _ in range(n)] for _ in range(f)]
            _, res = extremal_chart_point(n, f, p, y, a_vecs, tops, torus)
            assert res.is_ordinary(), f"non-ordinary extremal point at (n,f)=({n},{f})"
            assert res.f_n_is_unit()
            total += 1
    elapsed = time.time() - t0
    assert total == 300
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 10: 300 random extremal chart points all ordinary ({elapsed:.1f}s): PASS")


def _diamond_oracle(mu: Weight, p: int) -> Weight:
    from alcalc.serre import is_p_restricted

    n, f = mu.n, mu.f
    for xi in itertools.product(itertools.product(range(-2, 3), repeat=n), repeat=f):
        rows = []
        for j in range(f):
            shift = tuple(p * xi[j][i] - xi[(j + 1) % f][i] for i in range(n))
            rows.append(tuple(m + s for m, s in zip(mu.rows[j], shift)))
        cand = Weight.of(rows)
        if is_p_restricted(cand, p):
            return cand
    raise AssertionError("no p-restricted representative found")


def test_criterion_11_gl2_f2_weight_cycling_data():
    t0 = time.time()
    p = 23
    rng = random.Random(31)
    for _ in range(20):
        a0, a1 = rng.randrange(8, 15), rng.randrange(8, 15)
        b0, b1 = a0 - rng.randrange(4, 8), a1 - rng.randrange(4, 8)
        lam = Weight.of([(a0, b0), (a1, b1)])
        out = gl2_f2_jh(lam, p)
        # independent reflection + brute-force restriction oracle
        assert serre_eq(out["socle"][0], _diamond_oracle(Weight.of([(b0 - 1, a0 + 1), (a1, b1)]), p), p)
        assert serre_eq(out["socle"][1], _diamond_oracle(Weight.of([(a0, b0), (b1 - 1, a1 + 1)]), p), p)
        assert serre_eq(out["cosocle"], _diamond_oracle(Weight.of([(b0, a0), (b1, a1)]), p), p)
        consts = out["socle"] + [out["cosocle"]]
        for i in range(3):
            for k in range(i + 1, 3):
                assert not serre_eq(consts[i], consts[k], p), "constituents not distinct"
            assert not serre_eq(out["sigma"], consts[i], p), "sigma appears among the constituents"
    elapsed = time.time() - t0
    print(f"ACCEPTANCE 11: GL2 f=2 weight-cycling constituents, 20 random deep weights ({elapsed:.1f}s): PASS")


def test_criterion_12_coset_invariance():
    t0 = time.time()
    rng = random.Random(43)
    trials = 0
    failures = 0
    while trials < 500:
        n = rng.choice([2, 3, 4])
        q = rng.choice([5, 7])
        F = field(q)
        prec = default_precision(n, 8)
        nu = tuple(rng.randrange(-3, 4) for _ in range(n))
        w = list(range(n))
        rng.shuffle(w)
        w = tuple(w)
        M = LoopMatrix.monomial(F, nu, w, prec)
        A = random_iwahori(F, n, prec, rng).mul(M).mul(random_iwahori(F, n, prec, rng))
        if affine_bruhat_decompose(A) != (nu, w):
            failures += 1
        trials += 1
    elapsed = time.time() - t0
    assert failures == 0, f"{failures} coset-invariance failures"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 12: affine Bruhat decomposition invariant under 500 Iwahori bi-multiplications ({elapsed:.1f}s): PASS")
