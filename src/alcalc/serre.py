"""
Serre weights by lowest alcove presentations, tame inertial types,
special-alcove classification, the paired-weight setup data feeding the
chart calculus, the explicit GL_2 (f=2) weight-cycling constituents, and
principal-series parameters from Hecke characters.

A Serre weight of GL_n(k) is classified by a p-restricted highest weight
lambda in X_1^*(T)^J up to the twist lattice (p - pi)X^0(T)^J, where pi
cyclically shifts embeddings.  A lowest alcove presentation is a pair
(w~, omega) with every component of w~ restricted and
0 < <omega, alpha^vee> < p for positive alpha, presenting
F(pi^{-1}(w~) . (omega - eta)).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .pval import PVal
from .weyl import (
    Colength,
    DimensionMismatchError,
    ExtAffine,
    PermTuple,
    Weight,
    aff_length,
    all_perms,
    classify_colength,
    compose,
    dot_action,
    eta_weight,
    inverse,
    is_restricted,
    nu_w,
    pairing,
    perm_act_vec,
    perm_identity,
    perm_inv,
    perm_mul,
    pi_twist,
    positive_roots,
    restricted_lift_perm,
    root_vec,
    simple_roots,
    star,
    transposition,
    up_arrow_step_aff,
)


class PresentationError(ValueError):
    pass


class DepthError(ValueError):
    pass


class NonOrdinaryError(ValueError):
    pass


class InvariantError(ArithmeticError):
    """An internal consistency check failed; this is a bug, not bad input."""


# -- Serre weight equality mod (p - pi)X^0 ----------------------------------------


def serre_canonical(lam: Weight, p: int) -> Weight:
    """Canonical representative mod (p - pi)X^0: the scalar parts of the
    early embeddings are pushed into the last one, which is reduced mod
    p^f - 1 (for f = 1 this puts the last coordinate in [0, p-1))."""
    f, n = lam.f, lam.n
    d = [lam.rows[j][n - 1] for j in range(f)]
    big = p**f - 1
    N = sum(d[j] * p ** (f - 1 - j) for j in range(f)) % big
    shifts = [-d[j] for j in range(f - 1)] + [N - d[f - 1]]
    return Weight.of([tuple(c + shifts[j] for c in lam.rows[j]) for j in range(f)])


def serre_eq(lam1: Weight, lam2: Weight, p: int) -> bool:
    return serre_canonical(lam1, p) == serre_canonical(lam2, p)


def is_p_restricted(lam: Weight, p: int) -> bool:
    return all(0 <= lam.pairing(j, a) <= p - 1 for j in range(lam.f) for a in simple_roots(lam.n))


# -- lowest alcove presentations ----------------------------------------------------


@dataclass(frozen=True)
class SerreWeightLAP:
    """Lowest alcove presentation (w~, omega) of a Serre weight at p."""

    wtilde: ExtAffine
    omega: Weight
    p: int

    def __post_init__(self):
        if (self.wtilde.n, self.wtilde.f) != (self.omega.n, self.omega.f):
            raise DimensionMismatchError("presentation shape mismatch")
        if not is_restricted(self.wtilde):
            raise PresentationError("w~ must be restricted at every embedding")
        for j in range(self.omega.f):
            for a in positive_roots(self.omega.n):
                c = self.omega.pairing(j, a)
                if not (0 < c < self.p):
                    raise PresentationError(
                        f"omega - eta is not interior to the base p-alcove: <omega, {a}> = {c} at embedding {j}"
                    )

    @property
    def n(self) -> int:
        return self.omega.n

    @property
    def f(self) -> int:
        return self.omega.f

    def to_json(self):
        return {"wtilde": self.wtilde.to_json(), "omega": self.omega.to_json(), "p": self.p}


def presentation_to_weight(lap: SerreWeightLAP) -> Weight:
    """lambda = pi^{-1}(w~) . (omega - eta); the output is p-restricted."""
    lam = dot_action(pi_twist(lap.wtilde, -1), lap.omega.sub(Weight.eta(lap.n, lap.f)), lap.p)
    if not is_p_restricted(lam, lap.p):
        raise InvariantError("the presentation does not give a p-restricted weight")
    return lam


def lowest_alcove_presentation(lam: Weight, p: int) -> SerreWeightLAP:
    """A lowest alcove presentation of F(lambda); exists iff lambda + eta
    lies on no p-alcove wall.  Deterministic: omega entries are the sorted
    residues of lambda + eta mod p."""
    if not is_p_restricted(lam, p):
        raise PresentationError("lambda is not p-restricted")
    f, n = lam.f, lam.n
    eta = eta_weight(n)
    wt_comps: list = [None] * f
    omega_rows: list = [None] * f
    for j in range(f):
        mu = tuple(c + e for c, e in zip(lam.rows[j], eta))
        residues = [c % p for c in mu]
        if len(set(residues)) != n:
            raise PresentationError("no lowest alcove presentation: lambda + eta lies on a p-alcove wall")
        order = sorted(range(n), key=lambda i: -residues[i])
        w = tuple(order)  # w(k) = index with k-th largest residue, so w^{-1}(i) = rank(i)
        omega_rows[j] = tuple(residues[i] for i in order)
        nu = tuple(c // p for c in mu)
        wt_comps[(j - 1) % f] = (nu, w)
    return SerreWeightLAP(ExtAffine.from_components(wt_comps), Weight.of(omega_rows), p)


# -- tame inertial types --------------------------------------------------------------


@dataclass(frozen=True)
class TameTypePresentation:
    """A presentation (s, mu) of the tame inertial type tau(s, mu + eta)."""

    s: PermTuple
    mu: Weight
    p: int

    def __post_init__(self):
        if (self.s.n, self.s.f) != (self.mu.n, self.mu.f):
            raise DimensionMismatchError("type presentation shape mismatch")

    @property
    def n(self) -> int:
        return self.mu.n

    @property
    def f(self) -> int:
        return self.mu.f

    def wtilde(self) -> ExtAffine:
        """w~(tau) = t_{mu+eta} s."""
        return ExtAffine(self.mu.add(Weight.eta(self.n, self.f)), self.s)

    def is_lowest_alcove(self) -> bool:
        return all(
            0 < self.mu.pairing(j, a) + pairing(eta_weight(self.n), a) < self.p
            for j in range(self.f)
            for a in positive_roots(self.n)
        )

    def to_json(self):
        return {"s": self.s.to_json(), "mu": self.mu.to_json(), "p": self.p}


def wtilde_pair(rho: TameTypePresentation, tau: TameTypePresentation) -> ExtAffine:
    """w~(rho, tau) = w~(tau)^{-1} w~(rho)."""
    return compose(inverse(tau.wtilde()), rho.wtilde())


def depth_genericity(obj, m: int) -> bool:
    """sigma m-deep (for a SerreWeightLAP: m < <omega, alpha> < p - m) or
    tau m-generic (for a TameTypePresentation: m < <mu+eta, alpha> < p - m),
    over all embeddings and positive roots, strictly."""
    if not isinstance(obj, (SerreWeightLAP, TameTypePresentation)):
        raise TypeError("expected a SerreWeightLAP or TameTypePresentation")
    return depth_violation(obj, m) is None


def depth_violation(obj, m: int):
    """The first violated inequality, as (embedding, root, value), or None."""
    if isinstance(obj, SerreWeightLAP):
        w, p = obj.omega, obj.p
    else:
        w, p = obj.mu.add(Weight.eta(obj.n, obj.f)), obj.p
    for j in range(w.f):
        for a in positive_roots(w.n):
            c = w.pairing(j, a)
            if not (m < c < p - m):
                return (j, a, c)
    return None


# -- special alcoves ---------------------------------------------------------------


def _nu_mod_x0_eq(nu1, nu2, shift=None) -> bool:
    """nu1 == nu2 (+ shift) modulo constant vectors."""
    n = len(nu1)
    sh = shift or (0,) * n
    d = [nu1[i] - nu2[i] - sh[i] for i in range(n)]
    return all(x == d[0] for x in d)


def classify_case(w: PermTuple, u: PermTuple, j0: int, i0: int, k0: int) -> str:
    """Case A iff nu_w = nu_u (mod X^0), case B iff nu_w = nu_u + alpha."""
    n = w.n
    if w.perms[j0] != perm_mul(transposition(n, i0, k0), u.perms[j0]):
        raise ValueError("w != s_alpha u at the distinguished embedding")
    for j in range(w.f):
        if j != j0 and w.perms[j] != u.perms[j]:
            raise ValueError("w and u differ away from the distinguished embedding")
    nw, nu = nu_w(w.perms[j0]), nu_w(u.perms[j0])
    if _nu_mod_x0_eq(nw, nu):
        return "A"
    if _nu_mod_x0_eq(nw, nu, shift=root_vec(n, (i0, k0))):
        return "B"
    raise ValueError("pair is in neither case (a) nor case (b)")


def normalize_to_case_a(w: PermTuple, u: PermTuple, j0: int, i0: int, k0: int):
    """Right-multiply both by delta = sigma_{j0}(g^{n - w_{j0}^{-1}(i0)})
    (g the n-cycle), turning a case-B pair into case A.  Returns
    (w', u', delta)."""
    n = w.n
    if classify_case(w, u, j0, i0, k0) == "A":
        return w, u, PermTuple.identity(n, w.f)
    power = (n - perm_inv(w.perms[j0])[i0]) % n
    gk = tuple((i + power) % n for i in range(n))  # g^power, g: i -> i + 1 mod n
    delta = PermTuple.of([gk if j == j0 else perm_identity(n) for j in range(w.f)])
    w2, u2 = w.mul(delta), u.mul(delta)
    if classify_case(w2, u2, j0, i0, k0) != "A":
        raise InvariantError("normalization did not reach case (a)")
    return w2, u2, delta


def _special_partner(w: tuple[int, ...]):
    """The one-embedding specialness test: u = s_alpha w for
    alpha = alpha_{0,n-1} (the only root avoiding every proper standard
    Levi) when l(w^d) = l(u^d) + 1 and u^d up-arrow w^d; else None.

    The up-arrow relation is decided by one covering move,
    weyl.up_arrow_step_aff: w^d = s_{beta,m} u^d as alcoves with u^d below
    the wall H_{beta,m} (Jantzen, II.6).  Such a move is an up-arrow chain
    of length 1, so every pair it accepts the bounded search
    weyl.up_arrow_leq_aff accepts too.  The two agree on all 3, 8 and 50
    length-difference-one candidates at n = 3, 4, 5 (3, 8 and 30 of them
    special); beyond n = 5 the counts (n-2)! of (n-1)! classes and the
    independent w^{-1}-endpoint criterion are checked at n = 6, 7."""
    n = len(w)
    u = perm_mul(transposition(n, 0, n - 1), w)
    wd = restricted_lift_perm(w)
    ud = restricted_lift_perm(u)
    if aff_length(wd) == aff_length(ud) + 1 and up_arrow_step_aff(ud, wd):
        return u
    return None


@lru_cache(maxsize=None)
def _special_heads(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The case-(a) normalized (w_j0, u_j0) of every special w, sorted;
    normalizing keeps u = s_alpha w, so they sort by w alone."""
    heads = set()
    for w in all_perms(n):
        u = _special_partner(w)
        if u is not None:
            wt, ut, _ = normalize_to_case_a(PermTuple.of([w]), PermTuple.of([u]), 0, 0, n - 1)
            heads.add((wt.perms[0], ut.perms[0]))
    return tuple(sorted(heads))


@dataclass(frozen=True)
class PairIndex(Sequence):
    """The special pairs of special_pairs(n, f), each decoded from its index."""

    f: int
    heads: tuple
    others: tuple
    size: int  # their number, which len() cannot return beyond sys.maxsize (f >= 24 at n = 3)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> tuple[PermTuple, PermTuple, int]:
        k = range(self.size)[k]  # as on a list: negative k counts from the end, IndexError beyond
        j0, k = divmod(k, self.size // self.f)
        digits = []
        for j in reversed(range(self.f)):
            alphabet = self.heads if j == j0 else self.others
            k, d = divmod(k, len(alphabet))
            digits.append(alphabet[d])
        w, u = zip(*reversed(digits))
        return PermTuple.of(w), PermTuple.of(u), j0


def special_pairs(n: int, f: int) -> PairIndex:
    """All special pairs (w, u, j0) with w and u differing at j0 only,
    case-B pairs normalized to case A, sorted by (j0, w, u), as a read-only
    sequence of f (n!)^(f-1) h pairs: specialness and the normalization only
    look at embedding j0, so a pair is one of the h normalized heads at j0
    and any permutation elsewhere, and entry k is k in mixed radix, j0 first,
    then one digit per embedding (radix h at j0, n! elsewhere)."""
    heads, others = _special_heads(n), tuple((w, w) for w in all_perms(n))
    return PairIndex(f, heads, others, f * len(others) ** (f - 1) * len(heads))


def enumerate_special(n: int, f: int):
    """(count of special classes, total classes, proportion) over the
    p-restricted p-alcoves, i.e. (W/S)^f with at least one special
    coordinate."""
    from .weyl import aff_profile_key

    per_class: dict[tuple, bool] = {}
    for w in all_perms(n):
        key = aff_profile_key(restricted_lift_perm(w))
        sp = _special_partner(w) is not None
        if per_class.get(key, sp) != sp:
            raise InvariantError(f"specialness is not constant on the S-coset of {w}")
        per_class[key] = sp
    classes = list(per_class.values())
    total = len(classes) ** f
    nonspecial = sum(1 for v in classes if not v) ** f
    count = total - nonspecial
    return count, total, Fraction(count, total)


# -- the paired-weight setup --------------------------------------------------------


@dataclass(frozen=True)
class SetupData:
    sigma: SerreWeightLAP
    sigma_prime: SerreWeightLAP
    tau: TameTypePresentation
    tau_prime: TameTypePresentation
    rhobar: TameTypePresentation
    rhobar_prime: TameTypePresentation
    ztilde: ExtAffine
    ztilde_prime: ExtAffine
    j0: int
    i0: int
    k0: int
    case: str
    a_tau: tuple[tuple[int, ...], ...]
    a_tau_prime: tuple[tuple[int, ...], ...]
    ztilde_shape: tuple[Colength, ...]
    ztilde_prime_shape: tuple[Colength, ...]

    @property
    def n(self) -> int:
        return self.sigma.n

    @property
    def f(self) -> int:
        return self.sigma.f

    @property
    def p(self) -> int:
        return self.sigma.p

    def w(self) -> PermTuple:
        return self.sigma.wtilde.w

    def u(self) -> PermTuple:
        return self.sigma_prime.wtilde.w

    def to_json(self):
        return {
            "sigma": self.sigma.to_json(),
            "sigma_prime": self.sigma_prime.to_json(),
            "tau": self.tau.to_json(),
            "tau_prime": self.tau_prime.to_json(),
            "rhobar": self.rhobar.to_json(),
            "rhobar_prime": self.rhobar_prime.to_json(),
            "ztilde": self.ztilde.to_json(),
            "ztilde_prime": self.ztilde_prime.to_json(),
            "j0": self.j0,
            "i0": self.i0,
            "k0": self.k0,
            "case": self.case,
            "a_tau": [list(r) for r in self.a_tau],
            "a_tau_prime": [list(r) for r in self.a_tau_prime],
            "ztilde_shape": [c.value for c in self.ztilde_shape],
            "ztilde_prime_shape": [c.value for c in self.ztilde_prime_shape],
        }


def a_tau_vector(tp: TameTypePresentation) -> tuple[tuple[int, ...], ...]:
    """The integer lift of the monodromy parameter: a_{tau,j} =
    s_j^{-1}(mu_j + eta)."""
    eta = eta_weight(tp.n)
    return tuple(
        perm_act_vec(perm_inv(tp.s.perms[j]), tuple(a + e for a, e in zip(tp.mu.rows[j], eta)))
        for j in range(tp.f)
    )


def build_setup(w_diamond: ExtAffine, u_diamond: ExtAffine, omega: Weight, p: int) -> SetupData:
    """Assemble the six presentations attached to a special pair
    (sigma, sigma') = (F_{(w^d, omega)}, F_{(u^d, omega)}), verifying the
    (3n-4)-deepness of sigma, the (2n-3)-genericity of tau and tau', and
    the shapes of z~ and z~'."""
    n, f = w_diamond.n, w_diamond.f
    w, u = w_diamond.w, u_diamond.w
    i0, k0 = 0, n - 1
    diffs = [j for j in range(f) if w.perms[j] != u.perms[j]]
    if len(diffs) != 1:
        raise ValueError("w and u must differ at exactly one embedding")
    j0 = diffs[0]
    case = classify_case(w, u, j0, i0, k0)

    sigma = SerreWeightLAP(w_diamond, omega, p)
    sigma_prime = SerreWeightLAP(u_diamond, omega, p)
    m_deep = 3 * n - 4
    viol = depth_violation(sigma, m_deep)
    if viol is not None:
        j, a, c = viol
        raise DepthError(
            f"sigma is not {m_deep}-deep: <omega, alpha_{a}> = {c} at embedding {j} violates {m_deep} < . < {p - m_deep}"
        )

    eta = eta_weight(n)
    nus_w = [nu_w(w.perms[j]) for j in range(f)]
    nus_u = [nu_w(u.perms[j]) for j in range(f)]

    # rhobar = tau(pi^{-1}(w)^{-1} u, omega + pi^{-1}(w)^{-1}(nu_u))
    def build_type(left: PermTuple, right: PermTuple, nus, sub_eta: bool) -> TameTypePresentation:
        s_rows = []
        mu_rows = []
        vec_rows = [tuple(a - e for a, e in zip(v, eta)) if sub_eta else v for v in nus]
        for j in range(f):
            lw = left.perms[(j - 1) % f]
            s_rows.append(perm_mul(perm_inv(lw), right.perms[j]))
            mu_rows.append(tuple(o + c for o, c in zip(omega.rows[j], perm_act_vec(perm_inv(lw), vec_rows[j]))))
        return TameTypePresentation(PermTuple.of(s_rows), Weight.of(mu_rows), p)

    rhobar = build_type(w, u, nus_u, sub_eta=False)
    tau = build_type(w, w, nus_w, sub_eta=True)
    rhobar_prime = build_type(u, u, nus_u, sub_eta=False)
    tau_prime = build_type(u, u, nus_u, sub_eta=True)

    for name, tp in (("tau", tau), ("tau'", tau_prime)):
        if not tp.is_lowest_alcove():
            raise PresentationError(f"{name} presentation is not lowest-alcove")
        if not depth_genericity(tp, 2 * n - 3):
            j, a, c = depth_violation(tp, 2 * n - 3)
            raise DepthError(f"{name} is not {2*n-3}-generic: <mu+eta, alpha_{a}> = {c} at embedding {j}")

    wt = wtilde_pair(rhobar, tau)
    wt_prime = wtilde_pair(rhobar_prime, tau_prime)

    # invariant: w~(rhobar, tau) = w^{-1} t_{eta + nu_u - nu_w} u
    for j in range(f):
        winv = perm_inv(w.perms[j])
        shift = tuple(e + a - b for e, a, b in zip(eta, nus_u[j], nus_w[j]))
        expect = ((perm_act_vec(winv, shift)), perm_mul(winv, u.perms[j]))
        if wt.component(j) != expect:
            raise InvariantError(f"w~(rhobar,tau) deviates from w^-1 t_(eta+nu_u-nu_w) u at embedding {j}")
    for j in range(f):
        expect = (perm_act_vec(perm_inv(u.perms[j]), eta), perm_identity(n))
        if wt_prime.component(j) != expect:
            raise InvariantError(f"w~(rhobar',tau') deviates from t_(u^-1 eta) at embedding {j}")

    ztilde = star(wt)
    ztilde_prime = star(wt_prime)
    eta_wt = Weight.eta(n, f)
    shape = classify_colength(ztilde, eta_wt)
    shape_prime = classify_colength(ztilde_prime, eta_wt)
    return SetupData(
        sigma,
        sigma_prime,
        tau,
        tau_prime,
        rhobar,
        rhobar_prime,
        ztilde,
        ztilde_prime,
        j0,
        i0,
        k0,
        case,
        a_tau_vector(tau),
        a_tau_vector(tau_prime),
        shape,
        shape_prime,
    )


# -- GL_2, f = 2 weight cycling data ----------------------------------------------------


def gl2_f2_jh(lam: Weight, p: int):
    """The four weights { F(lam), F((s_0.lam)^d), F((s_1.lam)^d),
    F((s_0 s_1 lam)^d) } by the closed formulas, with the three C_1(sigma)
    constituents tagged socle/cosocle.  Weights are returned in canonical
    form."""
    if (lam.n, lam.f) != (2, 2):
        raise DimensionMismatchError("this datum is specific to n = 2, f = 2")
    lap = lowest_alcove_presentation(lam, p)
    if not depth_genericity(lap, 2):
        raise DepthError("lambda must present a 2-deep weight")
    (a0, b0), (a1, b1) = lam.rows
    s0_d = Weight.of([(b0 - 1 + p, a0 + 1), (a1 - 1, b1)])
    s1_d = Weight.of([(a0 - 1, b0), (b1 - 1 + p, a1 + 1)])
    s01_d = Weight.of([(b0 + p - 1, a0), (b1 + p - 1, a1)])
    out = {
        "sigma": serre_canonical(lam, p),
        "socle": [serre_canonical(s0_d, p), serre_canonical(s1_d, p)],
        "cosocle": serre_canonical(s01_d, p),
    }
    consts = out["socle"] + [out["cosocle"]]
    for c in consts:
        if not is_p_restricted(c, p):
            raise InvariantError("constituent not p-restricted after normalization")
    if any(serre_eq(out["sigma"], c, p) for c in consts):
        raise InvariantError("sigma unexpectedly appears among the C_1 constituents")
    return out


# -- Hecke characters and principal series parameters -------------------------------------


@dataclass(frozen=True)
class HeckeCharacter:
    """Images of the generators x_1..x_n of the spherical Hecke algebra
    F[x_1, ..., x_{n-1}, x_n^{+-}], as exact scalars with p-valuation."""

    values: tuple[PVal, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("empty character")
        if self.values[-1].is_zero():
            raise ValueError("the image of x_n must be invertible")

    @property
    def n(self) -> int:
        return len(self.values)

    def value(self, i: int) -> PVal:
        """chi(T_i), 1-based; T_0 = 1."""
        if i == 0:
            return PVal.one(self.values[0].p)
        return self.values[i - 1]


def ps_parameters(chi: HeckeCharacter, sigma_prime_hw: Weight):
    """Principal-series parameters: for i = 1..n the pair of the i-th
    highest-weight exponent column (over the embeddings) and the ratio
    chi(T_i)/chi(T_{i-1}) with T_0 read as 1."""
    n = chi.n
    if sigma_prime_hw.n != n:
        raise DimensionMismatchError("highest weight rank differs from character rank")
    out = []
    for i in range(1, n + 1):
        den = chi.value(i - 1)
        if den.is_zero():
            raise NonOrdinaryError(f"non-ordinary character: chi(T_{i-1}) = 0")
        ratio = chi.value(i) / den
        column = tuple(sigma_prime_hw.rows[j][i - 1] for j in range(sigma_prime_hw.f))
        out.append((column, ratio))
    return out
