"""
The colength-one/extremal chart calculus: path sets over negative roots,
the trailing-minor identities in their three forms, the distinguished
function Z_{-alpha} on the c = 0 component, the partition identities
behind its monomial structure, and construction of matrices on the
V(c) locus.

Conventions: roots are 0-based pairs (i, k) for e_i - e_k; negative means
i > k.  In a chart attached to a pair (w = s_alpha u) the distinguished
root is alpha = alpha_{i0 k0} with (i0, k0) = (0, n-1) and the a-values
a_beta are the mod-v entries of the lower-unipotent chart matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

from .chartsolve import CVAR, ChartShape, gf_chart_system, vvar
from .gf import GF, FElem
from .mpoly import Poly, SolveError
from .weyl import (
    negative_roots,
    perm_act_root,
    perm_inv,
    root_is_negative,
)


class PathSetError(ValueError):
    pass


@dataclass(frozen=True)
class PathSets:
    """D_beta, P_beta and the filtered I subsets for beta = alpha_{ki}.

    D_beta: pairs (beta_1, beta_2) = (alpha_{ti}, alpha_{kt}), i < t < k.
    P_beta: chains (beta_1, ..., beta_s), beta_m = alpha_{t_m t_{m-1}} with
    t_0 = i < t_1 < ... < t_s = k; the entries sum to beta.
    I[beta_1]: the chains in P_{beta_1} whose delta-sum over w matches
    delta_{w^{-1}(beta_1) > 0}.
    """

    beta: tuple[int, int]
    D: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    P: tuple[tuple[tuple[int, int], ...], ...]
    I: dict


@lru_cache(maxsize=None)
def _chains(k: int, i: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All increasing index chains from i up to k: 2^(k-i-1) of them."""
    out = []
    for r in range(k - i):
        for pick in combinations(range(i + 1, k), r):
            stations = [i] + list(pick) + [k]
            out.append(tuple((stations[m + 1], stations[m]) for m in range(len(stations) - 1)))
    return tuple(out)


def _delta_pos(w, beta: tuple[int, int]) -> int:
    """delta_{w^{-1}(beta) > 0}."""
    return 0 if root_is_negative(perm_act_root(perm_inv(w), beta)) else 1


def path_sets(beta: tuple[int, int], w) -> PathSets:
    """Enumerate D_beta, P_beta, and I_{beta_1} for each first leg."""
    k, i = beta
    if not k > i:
        raise PathSetError(f"{beta} is not a negative root")
    D = tuple(((t, i), (k, t)) for t in range(i + 1, k))
    P = _chains(k, i)
    I = {}
    for (b1, b2) in D:
        target = _delta_pos(w, b1)
        chains = _chains(b1[0], b1[1])
        I[b1] = tuple(ch for ch in chains if sum(_delta_pos(w, b) for b in ch) == target)
    return PathSets(beta, D, P, I)


# -- minors ------------------------------------------------------------------


def minor_matrix(a_values: dict, i: int, i0: int, k0: int):
    """The displayed i x i matrix M_i over the a-values: rows
    k0-i+1..k0, columns (i0, k0-i+1..k0-1)."""
    rows = list(range(k0 - i + 1, k0 + 1))
    cols = [i0] + list(range(k0 - i + 1, k0))
    out = []
    for ridx, r in enumerate(rows):
        row = []
        for cidx, c in enumerate(cols):
            if cidx == 0:
                row.append(a_values[(r, c)])
            elif r == cols[cidx]:
                row.append(1)
            elif r > cols[cidx]:
                row.append(a_values[(r, c)])
            else:
                row.append(0)
        out.append(row)
    return out


def det_int_matrix(M, F: GF) -> int:
    """det(M) mod q by Gaussian elimination over F_q."""
    q = F.q
    A = [[x % q for x in row] for row in M]
    det = 1
    for c in range(len(A)):
        piv = next((r for r in range(c, len(A)) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det = det * A[c][c] % q
        inv = pow(A[c][c], -1, q)
        for r in range(c + 1, len(A)):
            if A[r][c]:
                f = A[r][c] * inv
                A[r] = [(x - f * y) % q for x, y in zip(A[r], A[c])]
    return det


def minor_identities(a_values: dict, i0: int, k0: int, F: GF) -> list[tuple]:
    """(direct, recursive, path_form) evaluations of det(M_i) over F for
    every i = 2..k0-i0, in that order.

    direct: determinant of the displayed matrix, by elimination.
    recursive: det(M_i) = a_{(k0-i+1) i0} det(M'_{i-1}) - det(M_{i-1}),
    with det(M_{i-1}) the direct value of the previous index.
    path_form (only for i = k0-i0, else None): sum over P_{-alpha} of
    (-1)^(k0-i0-s) a_{beta_1} ... a_{beta_s}.
    """
    if k0 - i0 < 2:
        raise ValueError(f"no trailing minor of index 2..{k0 - i0}")
    av = {k: F.from_int(v) if isinstance(v, int) else v for k, v in a_values.items()}

    def chain_sum(top, bottom, length):
        # sum over the chains from bottom up to top of (-1)^(length - s)
        # times the product of their a-values, s the number of legs
        acc = 0
        for ch in _chains(top, bottom):
            term = (-1) ** (length - len(ch))
            for bb in ch:
                term *= av[bb]
            acc += term
        return acc % F.q

    out = []
    prev = av[(k0, i0)]  # det(M_1)
    for i in range(2, k0 - i0 + 1):
        direct = det_int_matrix(minor_matrix(av, i, i0, k0), F)
        # det(M'_{i-1}) for the trailing block is the chain sum of alpha_{k0, k0-i+1}
        rec = (av[(k0 - i + 1, i0)] * chain_sum(k0, k0 - i + 1, i - 1) - prev) % F.q
        path = chain_sum(k0, i0, k0 - i0) if i == k0 - i0 else None
        out.append((direct, rec, path))
        prev = direct
    return out


# -- Z_{-alpha} ----------------------------------------------------------------


class GenericityError(ValueError):
    pass


class ChartInvariantError(ArithmeticError):
    """An internal chart identity failed; this is a bug, not bad input."""


def _pair_a(a_vec, w, beta) -> int:
    """<a, w^{-1}(beta)^vee> for the stored integer vector a."""
    winv = perm_inv(w)
    r, c = beta
    return a_vec[winv[r]] - a_vec[winv[c]]


def kappa_sigma(u, w, beta: tuple[int, int]) -> tuple[int, int]:
    """(kappa_beta, sigma_beta) by the reconstructed three-case split.

    The relation kappa + sigma = -delta_{u^{-1}(beta) > 0} is forced by the
    degree identity; the split itself is reconstructed as: beta is "bad"
    when u^{-1}(beta) < 0 while w^{-1}(beta) > 0 (the sign-discrepancy
    case), giving (0, 0); otherwise sigma = -1 and kappa =
    delta_{u^{-1}(beta) < 0}.  The middle displayed case is empty for
    (i0, k0) = (0, n-1).  Nothing downstream consumes the split beyond the
    sum kappa + m', which is split-independent."""
    d_pos = _delta_pos(u, beta)
    if d_pos == 0 and _delta_pos(w, beta) == 1:
        return 0, 0  # bad
    kappa = 1 - d_pos
    return kappa, -d_pos - kappa


def z_minus_alpha_poly(shape: ChartShape, w, K) -> Poly:
    """Z_{-alpha} as a polynomial in the top-coefficient variables
    c_beta = ("V", i, k, degree_bound), over the field K (see mpoly).

    Z = (m'_{-alpha} - <a, w^{-1}(-alpha)>) c_{-alpha}
        + sum over (beta_1, beta_2) in D_{-alpha} of
          (degV(beta_2) - <a, w^{-1}(beta_2)>) c_{beta_2}
          * sum over I_{beta_1} of (-1)^s c_{beta'_1} ... c_{beta'_s}

    The inner sign is calibrated against the intrinsic oracle p/c on
    integral chart lifts, which pins it to (-1)^s: the displayed
    (-1)^(i-1-s) differs by a per-block factor (-1)^(i-1) that the
    canonical normalization absorbs (coincides at n = 3, separates at
    n = 4; see the module tests).  All brackets carry the degree data
    degV = kappa + m'; m'_{-alpha} = degV(-alpha) - kappa_{-alpha}, and on
    the special-pair domain u^{-1}(-alpha) is positive, so
    kappa_{-alpha} = 0.
    """
    n = shape.n
    i0, k0 = shape.i0, shape.k0
    u = shape.u_perm
    a_vec = shape.a_vec
    malpha = (k0, i0)
    if root_is_negative(perm_act_root(perm_inv(u), malpha)):
        raise GenericityError("u^{-1}(-alpha) is negative: kappa_{-alpha} calibration not validated here")
    m_prime = shape.degree_bound(malpha)  # kappa_{-alpha} = 0
    c1 = m_prime - _pair_a(a_vec, w, malpha)
    if K(c1).is_zero():
        raise GenericityError(f"non-generic a: coefficient of c_(-alpha) vanishes ({c1} mod p)")

    def cvar(beta):
        return Poly.var(K, vvar(beta, shape.degree_bound(beta)))

    ps = path_sets(malpha, w)
    Z = cvar(malpha).scale(K(c1))
    for (b1, b2) in ps.D:
        coeff = shape.degree_bound(b2) - _pair_a(a_vec, w, b2)
        if K(coeff).is_zero():
            raise GenericityError(f"non-generic a: coefficient of c_{b2} vanishes ({coeff} mod p)")
        inner = Poly.zero(K)
        for ch in ps.I[b1]:
            term = Poly.const(K, K(1))
            for bb in ch:
                term = term * cvar(bb)
            if len(ch) % 2:
                term = -term
            inner = inner + term
        Z = Z + cvar(b2).scale(K(coeff)) * inner
    return Z


@lru_cache(maxsize=64)
def z_minus_alpha_terms(shape: ChartShape, w, F: GF) -> tuple:
    """Z_{-alpha} over F_p compiled to integer terms (coefficient,
    ((beta, exponent), ...)), built once per (shape, w, F) and shared by
    every caller.  A GenericityError is raised again on every call, since
    the cache keeps no exceptions."""
    beta_of = shape.tops({b: b for b in negative_roots(shape.n)}, lambda b: b)
    terms = []
    for mono, c in z_minus_alpha_poly(shape, w, partial(FElem, F)).terms.items():
        if any(v not in beta_of for v, _ in mono):
            raise ChartInvariantError("Z_{-alpha} has a variable that is not a top coefficient")
        terms.append((c.a, tuple((beta_of[v], e) for v, e in mono)))
    return tuple(terms)


def z_minus_alpha(shape: ChartShape, w, c_values: dict, F: GF) -> int:
    """Evaluate Z_{-alpha} at concrete top coefficients (int-encoded field
    values keyed by negative root)."""
    acc = 0
    for c, mono in z_minus_alpha_terms(shape, w, F):
        for b, e in mono:
            c *= c_values[b] ** e
        acc += c
    return acc % F.q


# -- partition identities ----------------------------------------------------------


def partition_lemma_check(u, w, n: int) -> bool:
    """Both halves of the delta-sum partition identity for a valid pair
    w = s_alpha u of a speciality certificate.

    m_{u^d, alpha} > 0: the simple-chain delta-sum strictly exceeds
    delta_{w^{-1}(alpha_{(k0-1) i0}) > 0}.
    m_{u^d, alpha} = 0: every chain in P_{beta_1}, for every first leg
    beta_1 of D_{-alpha}, satisfies the delta-sum equality (so the I
    filter is trivial)."""
    from .weyl import aff_m, restricted_lift_perm, transposition, perm_mul

    i0, k0 = 0, n - 1
    if w != perm_mul(transposition(n, i0, k0), u):
        raise ValueError("configuration invalid: w != s_alpha u")
    ud = restricted_lift_perm(u)
    wd = restricted_lift_perm(w)
    from .weyl import aff_length

    if aff_length(wd) != aff_length(ud) + 1:
        raise ValueError("configuration invalid: lengths do not differ by one")
    m_alpha = aff_m(ud, (i0, k0))
    if m_alpha > 0:
        chain = [(i0 + t, i0 + t - 1) for t in range(1, k0 - i0)]
        lhs = sum(_delta_pos(w, b) for b in chain)
        rhs = _delta_pos(w, (k0 - 1, i0))
        return lhs > rhs
    ps = path_sets((k0, i0), w)
    for (b1, b2) in ps.D:
        target = _delta_pos(w, b1)
        for ch in _chains(b1[0], b1[1]):
            if sum(_delta_pos(w, b) for b in ch) != target:
                return False
    return True


# -- chart points and the V(c) matrix ------------------------------------------------


@dataclass
class ChartPoint:
    """A point of the c = 0 chart component: top coefficients c_beta,
    solved constant terms a_beta, the degree data kappa_beta, and the full
    special-fiber solution of the chart's monodromy system."""

    shape: ChartShape
    c_values: dict  # negative root -> int-encoded field value (top coefficients)
    a_values: dict  # negative root -> solved mod-v entry
    kappa: dict
    solution: dict

    def to_json(self):
        return {
            "c_values": {f"{b[0]},{b[1]}": v for b, v in sorted(self.c_values.items())},
            "a_values": {f"{b[0]},{b[1]}": v for b, v in sorted(self.a_values.items())},
            "kappa": {f"{b[0]},{b[1]}": v for b, v in sorted(self.kappa.items())},
        }


class DegreeBoundError(ValueError):
    pass


def build_vc_matrix(shape: ChartShape, c_values: dict, F: GF, prec: int, where: str):
    """Solve the special-fiber monodromy system on the c = 0 component at
    the given top coefficients and return (LoopMatrix, ChartPoint).  The
    caller is expected to re-verify with nabla_check / the Bruhat
    decomposition; degree-bound violations in the input are rejected."""
    roots = negative_roots(shape.n)
    for b in c_values:
        if b not in roots:
            raise DegreeBoundError(f"{b} is not a negative root")
    sysF = gf_chart_system(shape, F)
    assign = shape.tops(c_values, lambda v: FElem(F, v))
    if shape.kind == "colength_one":
        assign[CVAR] = FElem(F, 0)
    try:
        full = sysF.solve(assign, shape.a_vec)
    except SolveError as exc:
        raise SolveError(f"{exc}, solving the special-fiber chart {where}: {shape!r}") from None
    A = sysF.numeric_A_gf(full, F, prec)
    a_values = {}
    for beta in roots:
        # entries whose stored polynomial starts above degree 0 have a_beta
        # equal to the bottom-window coefficient of the unconjugated entry
        val = full.get(vvar(beta, shape.window_bottom(beta)))
        a_values[beta] = val.a if val is not None else None
    kappa = {beta: kappa_sigma(shape.u_perm, shape.conj_perm, beta)[0] for beta in roots}
    return A, ChartPoint(shape, dict(c_values), a_values, kappa, full)
