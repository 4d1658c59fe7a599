"""
End-to-end witness construction for the triple intersection of the two
chart components of a colength-one chart with the ordinary locus of the
companion extremal chart, plus the ordinarity/supersingularity predicates
evaluated on exact integral lifts.

Pipeline for a special pair (any number of embeddings; the
distinguished one carries the colength-one chart, the rest extremal
charts):
  1. pick a point of the c = 0 component with Z_{-alpha} = 0 at the
     distinguished embedding (with f = 1, the proof's simple-root
     support first when the -alpha entry has positive degree; else
     solving the linear Z relation at generic support) and unit trailing
     minors at the companion embedding;
  2. solve each special-fiber monodromy system once, re-verify with the
     independent checkers (nabla, affine Bruhat decomposition per
     embedding) and certify Schubert membership by the legal row
     reduction;
  3. lift each embedding to an integral chart point -- the distinguished
     one over the ramified quadratic extension, where the two special
     fiber components meet at valuation 1/2 exactly -- verify the
     integral monodromy certificates, and read off the Frobenius-minor
     valuations: supersingular with respect to the longer weight;
  4. transfer the point to the companion extremal charts by the exact
     windowed factorization and compute the ordinary Hecke character
     with respect to the shorter weight from honest extremal integral
     lifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .charts import ChartPoint, GenericityError, build_vc_matrix, minor_identities, z_minus_alpha, z_minus_alpha_terms
from .chartsolve import CVAR, ChartShape, pval_chart_system, vvar
from .gf import GF, FElem, field
from .loopmat import LoopMatrix, affine_bruhat_decompose, default_precision, iwahori_row_reduce, nabla_check
from .mpoly import NotAffineError, Poly, SolveError, solve_equations
from .pval import PVal
from .report import SCHEMA_VERSION
from .rmatrix import FrobeniusResult, PMatrix, frobenius_minors_f, nabla_certify
from .serre import SetupData
from .series import Series
from .weyl import (
    aff_m,
    eta_weight,
    negative_roots,
    perm_inv,
    restricted_lift_perm,
)


class WitnessError(ValueError):
    pass


@dataclass
class WitnessResult:
    setup: SetupData
    field_q: int
    point: ChartPoint
    t: int
    checks: dict
    f_sigma: FrobeniusResult
    chi_sigma_prime: tuple[int, ...]  # residues of the ordinary character values
    free_parameters: int

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "setup": self.setup.to_json(),
            "field": {"q": self.field_q, "p": self.setup.p},
            "point": self.point.to_json(),
            "t": self.t,
            "checks": {**self.checks, "f_valuations": [str(v) if v is not None else "inf" for v in self.f_sigma.valuations]},
            "chi_sigma_prime": list(self.chi_sigma_prime),
            "free_parameters": self.free_parameters,
        }


def _m_bounds_for_reduce(u_perm) -> dict:
    """val(f) >= -m_{u^d, beta} legality bounds for the conjugated Iwahori;
    the alcove coordinate handles roots of either sign uniformly."""
    n = len(u_perm)
    ud = restricted_lift_perm(u_perm)
    return {(i, k): aff_m(ud, (i, k)) for i in range(n) for k in range(n) if i != k}


def _unipotent_from_solution(shape: ChartShape, full: dict, F: GF, prec: int) -> LoopMatrix:
    """The lower-unipotent matrix M with entries M_beta = V_beta shifted
    down by the window bottom (exactness of the shift is asserted); the
    upper entries are exact zeros."""
    n = shape.n
    rows = [[Series.one(F, prec) if i == k else Series.zero(F) for k in range(n)] for i in range(n)]
    for beta in negative_roots(n):
        i, k = beta
        bot = shape.window_bottom(beta)
        coeffs = {}
        for d in range(shape.degree_bound(beta) + 1):
            c = full[vvar(beta, d)].a
            if c:
                if d < bot:
                    raise WitnessError(f"window violation at {beta}: nonzero coefficient below degree {bot}")
                coeffs[d - bot] = c
        rows[i][k] = Series.from_coeffs(F, coeffs, prec)
    return LoopMatrix(F, rows)


def _extremal_normal_form(X: LoopMatrix, u_perm, eta, shape_ext: ChartShape) -> tuple[list[int], LoopMatrix]:
    """Chart coordinates of X on the extremal cell: the unique
    factorization W = iota * L with W = P_u X P_u^{-1}, iota in the
    u-conjugated pro-v Iwahori, and L = T' v^eta V' with V' lower
    unipotent inside the chart's degree windows.

    Membership of L W^{-1} in the conjugated pro-v Iwahori is linear in
    the finitely many window coefficients of L, so (T', V') is found by
    one exact linear solve and certified by checking iota afterwards.
    Raises WitnessError when X is not in the cell."""
    F = X.F
    n = X.n
    K = partial(FElem, F)
    uinv = perm_inv(u_perm)
    W = LoopMatrix(F, [[X.rows[uinv[i]][uinv[k]] for k in range(n)] for i in range(n)])
    Winv = W.inverse()
    prec_lim = Winv.min_precision()

    # unknown coefficients of L: row i of L is v^{eta_i} * P_i with
    # P_{ii} = t'_i constant and P_{ik} (i > k) polynomial in the window
    def pvar(i, k, d):
        return ("P", i, k, d)

    unknowns = []
    L_sym: list[list[dict[int, Poly]]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        unknowns.append(pvar(i, i, 0))
        L_sym[i][i] = {eta[i]: Poly.var(K, pvar(i, i, 0))}
        for k in range(n):
            if i > k:
                bnd = shape_ext.degree_bound((i, k))
                ent = {}
                for d in range(bnd + 1):
                    unknowns.append(pvar(i, k, d))
                    ent[eta[i] + d] = Poly.var(K, pvar(i, k, d))
                L_sym[i][k] = ent

    # G = u^{-1} (L W^{-1}) u must be integral, unipotent-diagonal mod v,
    # and strictly-lower-vanishing mod v: all linear in the unknowns
    ud = restricted_lift_perm(u_perm)
    equations = []
    ones = []
    for a in range(n):
        for b in range(n):
            # (L W^{-1})_{ab} as a degree -> Poly map
            acc: dict[int, Poly] = {}
            for m in range(n):
                ent = L_sym[a][m]
                if not ent:
                    continue
                s = Winv.rows[m][b]
                if s.is_zero():
                    continue
                for d1, c1 in ent.items():
                    for j, c2 in enumerate(s.coeffs):
                        if c2:
                            d = d1 + s.val + j
                            if d < prec_lim:
                                term = c1.scale(FElem(F, c2))
                                acc[d] = acc[d] + term if d in acc else term
            # transported position in the Iwahori conditions
            ia, ib = uinv[a], uinv[b]
            floor = 1 if ia > ib else 0
            for d, poly in acc.items():
                if d < floor and not (ia == ib and d == 0):
                    if not poly.is_zero():
                        equations.append(poly)
                elif ia == ib and d == 0:
                    ones.append(poly - Poly.const(K, K(1)))
    equations.extend(ones)
    try:
        solved = solve_equations(K, equations)
    except SolveError as exc:
        raise WitnessError(f"point is not in the extremal cell (no windowed factorization): {exc}") from None
    missing = [v for v in unknowns if v not in solved]
    if missing:
        raise WitnessError(f"extremal factorization underdetermined: {missing}")

    tprime = []
    for i in range(n):
        t = solved[pvar(i, i, 0)].a
        if t == 0:
            raise WitnessError("degenerate torus coordinate in the extremal factorization")
        tprime.append(t)
    prec = W.min_precision()
    Vrows = [[Series.zero(F) for _ in range(n)] for _ in range(n)]
    Lrows = [[Series.zero(F) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        inv_t = F.inv(tprime[i])
        Lrows[i][i] = Series.monomial(F, tprime[i], eta[i], prec)
        Vrows[i][i] = Series.one(F, prec)
        for k in range(i):
            bnd = shape_ext.degree_bound((i, k))
            coeffs = {d: solved[pvar(i, k, d)].a for d in range(bnd + 1)}
            Vrows[i][k] = Series.from_coeffs(F, {d: F.mul(c, inv_t) for d, c in coeffs.items()}, prec)
            Lrows[i][k] = Series.from_coeffs(F, {d + eta[i]: c for d, c in coeffs.items()}, prec)
    L = LoopMatrix(F, Lrows)
    # certify: iota = L W^{-1} lies in the conjugated pro-v Iwahori
    iota = L.mul(Winv)
    for a in range(n):
        for b in range(n):
            e = iota.rows[a][b]
            ia, ib = uinv[a], uinv[b]
            if e.is_zero():
                continue
            if e.val < (1 if ia > ib else 0):
                raise WitnessError("factorization certificate failed: iota outside the pro-v Iwahori")
            if ia == ib and e.coeff(0) != 1:
                raise WitnessError("factorization certificate failed: iota diagonal not pro-v unipotent")
    return tprime, LoopMatrix(F, Vrows)


def _extremal_tops_from_L(L: LoopMatrix, shape: ChartShape):
    """Read the V' coefficients of the extremal normal form from the
    unipotent lower factor, checking the chart degree bounds; returns the
    integral top assignment and the coefficients per negative root."""
    all_coeffs = {}
    for beta in negative_roots(shape.n):
        i, k = beta
        ent = L.rows[i][k]
        bnd = shape.degree_bound(beta)
        for d in range(bnd + 1, min(ent.prec, bnd + 6)):
            if ent.coeff(d) != 0:
                raise WitnessError(f"extremal transfer violates the degree bound at {beta}")
        all_coeffs[beta] = [ent.coeff(d) for d in range(bnd + 1)]
    return shape.tops(all_coeffs, lambda coeffs: PVal.of(coeffs[-1], shape.p)), all_coeffs


def _integral_chart(shape: ChartShape, tops: dict, where: str) -> tuple[dict, PMatrix]:
    """Solve the integral chart of `shape` at the given tops, realize it and
    certify the integral monodromy condition; returns (solution, matrix)."""
    sysO = pval_chart_system(shape)
    try:
        full = sysO.solve(tops, shape.a_vec)
    except SolveError as exc:
        raise SolveError(f"{exc}, solving the integral chart {where}: {shape!r}") from None
    A = sysO.numeric_A_pval(full)
    rep = nabla_certify(A, shape.a_vec, det_vp_order=shape.n * (shape.n - 1) // 2)
    if not rep["ok"]:
        raise WitnessError(f"integral monodromy certificate failed {where}: {rep}")
    return full, A


def witness_triple_intersection(
    setup: SetupData,
    t: int,
    family_index: int = 0,
) -> WitnessResult:
    """Construct and fully check a triple-intersection witness at the
    given setup and target unit t for the determinant-direction Hecke
    value: colength-one chart data at the distinguished embedding,
    extremal chart data elsewhere.  family_index deterministically varies
    the free chart coordinates, giving the infinite-family direction."""
    p = setup.p
    if t % p == 0:
        raise WitnessError("t must be a unit mod p")
    u = setup.u().perms[setup.j0]
    m_alpha = aff_m(restricted_lift_perm(u), (setup.i0, setup.k0))
    try:
        return _witness_at_field(setup, field(p), t, family_index, m_alpha)
    except (GenericityError, SolveError) as exc:
        raise WitnessError(f"no witness found over F_{p}: {exc}") from exc


def _witness_at_field(setup: SetupData, F: GF, t: int, family_index: int, m_alpha: int) -> WitnessResult:
    n, p, f = setup.n, setup.p, setup.f
    j0 = setup.j0
    i0, k0 = setup.i0, setup.k0
    eta = eta_weight(n)
    malpha_root = (k0, i0)
    checks: dict = {}
    w_perms = setup.w().perms
    u_perms = setup.u().perms
    shapes = [
        ChartShape(
            n=n,
            p=p,
            kind="colength_one" if j == j0 else "extremal",
            u_perm=u_perms[j],
            conj_perm=w_perms[j],
            a_vec=setup.a_tau[j],
        )
        for j in range(f)
    ]
    shape0 = shapes[j0]
    w0 = w_perms[j0]
    roots = negative_roots(n)

    def _units(betas, start: int) -> dict:
        # chart coordinates start+1, start+2, ... reduced to units mod p
        return {beta: (start + m) % p or 1 for m, beta in enumerate(betas, 1)}

    # -- step 1: the point at the distinguished embedding ----------------------
    def _simple_support(offset: int) -> dict:
        # the proof's recipe on the deg A_{-alpha} > 0 branch: every Z
        # monomial contains a non-simple coordinate, so Z vanishes here
        simples = _units([b for b in roots if b[0] - b[1] == 1], 2 + offset)
        return {beta: simples.get(beta, 0) for beta in roots}

    def _z_solve_support(offset: int) -> dict:
        # Z is affine-linear in c_{-alpha} with a unit coefficient on any
        # branch: support the other coordinates on units and solve Z = 0
        cv = _units([b for b in roots if b != malpha_root], 2 + offset)
        if any(b == malpha_root and e > 1 for _, mono in z_minus_alpha_terms(shape0, w0, F) for b, e in mono):
            raise NotAffineError("Z has a power of c_(-alpha) above 1, so it is not affine in c_(-alpha)")
        const = z_minus_alpha(shape0, w0, {**cv, malpha_root: 0}, F)
        coeff = F.sub(z_minus_alpha(shape0, w0, {**cv, malpha_root: 1}, F), const)
        if coeff == 0:
            raise GenericityError("Z lost its c_(-alpha) coefficient; non-generic monodromy parameter")
        cv[malpha_root] = F.mul(F.neg(const), F.inv(coeff))
        return cv

    def _open_checks(pt: ChartPoint) -> tuple[list, bool]:
        # unit trailing minors and a unit a_{-alpha} at the point
        a_mod = {b: pt.a_values[b] or 0 for b in roots}
        minors_unit = [d != 0 for d, _, _ in minor_identities(a_mod, i0, k0, F)]
        return minors_unit, a_mod[malpha_root] != 0

    prec = default_precision(n, n + 2)

    # open-locus conditions live at embedding j0 + 1 (the same embedding
    # when f = 1, where the simple-root support is tried first)
    candidates = [_simple_support(family_index)] if m_alpha > 0 and f == 1 else []
    candidates.append(_z_solve_support(family_index))
    for c_values in candidates:
        z_val = z_minus_alpha(shape0, w0, c_values, F)
        if z_val != 0:
            raise WitnessError("constructed point does not satisfy Z = 0")
        A_0, point = build_vc_matrix(shape0, c_values, F, prec, f"at embedding {j0}")
        if f > 1:
            break
        minors_unit, a_unit = _open_checks(point)
        if all(minors_unit) and a_unit:
            break
    else:
        raise WitnessError("open-locus unit conditions failed at the constructed point(s)")
    j1 = (j0 + 1) % f
    A_F_list: list[LoopMatrix] = [None] * f
    A_F_list[j0] = A_0
    open_point = point
    if f > 1:
        for offset in range(family_index, family_index + 8):
            A_F_list[j1], open_point = build_vc_matrix(shapes[j1], _units(roots, 100 + offset), F, prec, f"at embedding {j1}")
            minors_unit, a_unit = _open_checks(open_point)
            if all(minors_unit) and a_unit:
                break
        else:
            raise WitnessError("open-locus unit conditions failed at the companion embedding")
    checks["Z_zero"] = z_val == 0
    checks["minors_unit"] = minors_unit
    checks["a_minus_alpha_unit"] = a_unit

    # remaining embeddings: generic extremal chart points
    cv_by_embedding: list[dict] = [None] * f
    cv_by_embedding[j0] = c_values
    cv_by_embedding[j1] = open_point.c_values
    for m, j in enumerate(j for j in range(f) if A_F_list[j] is None):
        cv_by_embedding[j] = _units(roots, 300 + family_index + m * len(roots))
        A_F_list[j], _ = build_vc_matrix(shapes[j], cv_by_embedding[j], F, prec, f"at embedding {j}")

    # -- step 2: independent special-fiber verification, all embeddings --------
    nabla_ok = []
    cell_ok = []
    for j in range(f):
        amodp = tuple(ai % p for ai in setup.a_tau[j])
        nabla_ok.append(nabla_check(A_F_list[j], amodp))
        nu_z, w_z = affine_bruhat_decompose(A_F_list[j])
        zt = setup.ztilde.component(j)
        cell_ok.append((tuple(nu_z), tuple(w_z)) == (tuple(zt[0]), tuple(zt[1])))
    checks["nabla"] = all(nabla_ok)
    checks["schubert_cell"] = all(cell_ok)

    M = _unipotent_from_solution(open_point.shape, open_point.solution, F, prec)
    bounds = _m_bounds_for_reduce(u_perms[j1])
    iwahori_row_reduce(M, i0, k0, m_bound=bounds)
    checks["schubert_membership"] = True

    # -- step 3: integral lifts and f-valuations --------------------------------
    A_O_list: list[PMatrix] = []
    for j in range(f):
        tops = shapes[j].tops(cv_by_embedding[j], lambda v: PVal.of(v, p))
        if j == j0:
            top_malpha = vvar(malpha_root, shape0.degree_bound(malpha_root))
            tops[top_malpha] = tops[top_malpha] + PVal.sqrt_p(p)
        fullO, A_O = _integral_chart(shapes[j], tops, f"at embedding {j}")
        A_O_list.append(A_O)
        if j == j0:
            c_scalar = fullO[CVAR]
    checks["nabla_integral"] = True
    checks["c_zero"] = c_scalar.valuation() > 0
    checks["cZ_equals_p"] = (c_scalar * (PVal.of(p, p) / c_scalar) - PVal.of(p, p)).is_zero()
    # both chart functions vanish at the reduction iff val(c) = val(Z) = 1/2,
    # the formula-independent certificate of the two-component intersection
    checks["triple_locus_ramified"] = c_scalar.valuation() == Fraction(1, 2)
    if not checks["triple_locus_ramified"]:
        raise WitnessError("lift has val(c) != 1/2: the point misses the second component")

    f_plain = frobenius_minors_f(A_O_list, list(w_perms), p)
    fn = f_plain.values[-1]
    if fn.is_zero() or fn.valuation() != 0:
        raise WitnessError("f_n is not a unit on the constructed lift")
    # torus twist at embedding 0 pinning f_n to t
    d0 = fn * PVal.of(t, p).inverse()
    A_O_t = [A_O_list[0].scale_rows([d0] + [PVal.one(p)] * (n - 1))] + A_O_list[1:]
    f_sigma = frobenius_minors_f(A_O_t, list(w_perms), p)
    checks["f_n_equals_t"] = (f_sigma.values[-1] - PVal.of(t, p)).is_zero()
    checks["supersingular_sigma"] = f_sigma.is_supersingular() and f_sigma.f_n_is_unit()
    if not checks["supersingular_sigma"]:
        raise WitnessError("witness is not supersingular with respect to sigma")

    # -- step 4: transfer to the extremal charts and the ordinary character -----
    d0_res = d0.residue()
    tprimes: list[list[int]] = []
    A_E_t_list: list[PMatrix] = []
    for j in range(f):
        A_F_j = A_F_list[j].scale_rows([d0_res] + [1] * (n - 1)) if j == 0 else A_F_list[j]
        # transfer multiplier w~*(tau) w~*(tau')^{-1} realized at embedding j:
        # perm(s^{-1}) v^{mu - mu'} perm(s')
        s_j = setup.tau.s.perms[j]
        sp_j = setup.tau_prime.s.perms[j]
        dmu = tuple(x - y for x, y in zip(setup.tau.mu.rows[j], setup.tau_prime.mu.rows[j]))
        prec_j = A_F_j.min_precision()
        R = (
            LoopMatrix.monomial(F, (0,) * n, perm_inv(s_j), prec_j)
            .mul(LoopMatrix.monomial(F, dmu, tuple(range(n)), prec_j))
            .mul(LoopMatrix.monomial(F, (0,) * n, sp_j, prec_j))
        )
        X = A_F_j.mul(R)
        shape_ext = ChartShape(
            n=n, p=p, kind="extremal", u_perm=u_perms[j], conj_perm=u_perms[j], a_vec=setup.a_tau_prime[j]
        )
        tprime, L = _extremal_normal_form(X, u_perms[j], eta, shape_ext)
        tprimes.append(tprime)

        # honest extremal integral lift reducing to the transferred point
        tops_ext, coeffs_ext = _extremal_tops_from_L(L, shape_ext)
        fullE, A_E = _integral_chart(shape_ext, tops_ext, f"on the extremal chart at embedding {j}")
        for beta in negative_roots(n):
            for d in range(shape_ext.degree_bound(beta) + 1):
                got = fullE[vvar(beta, d)]
                if got.valuation() < 0 or got.residue() != coeffs_ext[beta][d]:
                    raise WitnessError(f"extremal lift does not reduce to the transferred point at {beta}")
        A_E_t_list.append(A_E.scale_rows([PVal.of(tprime[u_i], p) for u_i in u_perms[j]]))
    checks["nabla_integral_extremal"] = True

    f_sigma_prime = frobenius_minors_f(A_E_t_list, list(u_perms), p)
    checks["ordinary_sigma_prime"] = f_sigma_prime.is_ordinary() and f_sigma_prime.f_n_is_unit()
    chi_residues = [x.residue() for x in f_sigma_prime.values]
    checks["chi_sigma_prime_units"] = all(x != 0 for x in chi_residues)
    if f == 1:
        # the torus coordinate gives the character directly; cross-check
        shortcut = []
        acc = 1
        for m in range(n):
            acc = F.mul(acc, F.inv(tprimes[0][m]))
            shortcut.append(acc)
        checks["chi_matches_extremal_lift"] = shortcut == chi_residues
        if not checks["chi_matches_extremal_lift"]:
            raise WitnessError("shortcut character disagrees with the honest extremal lift")
    if not checks["ordinary_sigma_prime"]:
        raise WitnessError("transferred point is not ordinary with respect to sigma'")
    from .serre import presentation_to_weight, ps_parameters

    chi = f_sigma_prime.to_hecke_character()
    ps_parameters(chi, presentation_to_weight(setup.sigma_prime))  # raises on a zero denominator
    checks["ps_parameters_ordinary"] = True

    return WitnessResult(
        setup=setup,
        field_q=F.q,
        point=point,
        t=t,
        checks=checks,
        f_sigma=f_sigma,
        chi_sigma_prime=tuple(chi_residues),
        free_parameters=(n * (n - 1) // 2) * f - 1,
    )


def witness_family(setup: SetupData, t: int, count: int):
    """A deterministic family of witnesses with pairwise distinct ordinary
    characters and the same determinant value t."""
    out = []
    seen = set()
    idx = 0
    attempts = 0
    while len(out) < count and attempts < 20 * count:
        attempts += 1
        try:
            res = witness_triple_intersection(setup, t, family_index=idx)
        except WitnessError:
            idx += 1
            continue
        idx += 1
        key = res.chi_sigma_prime
        if key in seen:
            continue
        seen.add(key)
        out.append(res)
    if len(out) < count:
        raise WitnessError(f"only {len(out)} distinct characters found in the family search")
    return out


# -- random extremal chart points (ordinarity statistics) ------------------------


def extremal_chart_point(n: int, f: int, p: int, y_perms, a_vecs, tops_values, torus: list[list[int]]):
    """Solve integral extremal chart points at each embedding and return
    (matrices, FrobeniusResult); tops_values[j] maps negative roots to
    integer tops, and torus[j] gives the constant diagonal units that
    left-multiply the point at embedding j."""
    mats = []
    for j in range(f):
        shape = ChartShape(n=n, p=p, kind="extremal", u_perm=tuple(y_perms[j]), conj_perm=tuple(y_perms[j]), a_vec=tuple(a_vecs[j]))
        tops = shape.tops(tops_values[j], lambda v: PVal.of(v, p))
        _, A = _integral_chart(shape, tops, f"on the extremal chart point at embedding {j}")
        mats.append(A.scale_rows([PVal.of(torus[j][u_i], p) for u_i in y_perms[j]]))
    return mats, frobenius_minors_f(mats, [tuple(yp) for yp in y_perms], p)
