"""
Command-line front end.

Subcommands:
  alcoves enumerate   restricted alcove classes and counts
  alcoves special     special alcove count and proportion
  shapes classify     colength classification of the eta-admissible set
  setup build         the six presentations attached to a special pair
  verify weyl|minors|z|partition|nabla|bruhat
  witness triple      triple-intersection witness with all checks
  predicates fi       Frobenius-minor valuations on random extremal charts

Exit codes: 0 all checks pass, 2 at least one check failed (report holds a
counterexample), 1 configuration or runtime error.  All randomized output
is a deterministic function of --seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import charts, serre, weyl, witness
from .gf import field, is_prime
from .loopmat import LoopMatrix, affine_bruhat_decompose, default_precision, nabla_check, random_iwahori
from .report import Report, emit_report
from .weyl import ExtAffine, PermTuple, Weight


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "n": 3,
    "f": 1,
    "p": 53,
    "trials": 100,
    "seed": 0,
    "t": 2,
    "count": 10,
    "format": "json",
    "out": None,
    "pair": 0,
}
FORMATS = ("json", "csv-summary")


def _resolve(args, key):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if args.config_data and key in args.config_data:
        return args.config_data[key]
    return DEFAULTS[key]


def _check_config_data(data):
    """Config-file values must have the types the flags would give them."""
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, val in data.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "format":
            if val not in FORMATS:
                raise ConfigError(f"config key 'format' must be one of {', '.join(FORMATS)}, got {val!r}")
        elif key == "out":
            if not isinstance(val, str):
                raise ConfigError(f"config key 'out' must be a string, got {val!r}")
        elif not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError(f"config key {key!r} must be an integer, got {val!r}")


def _validate(cfg):
    if cfg["n"] < 2:
        raise ConfigError("n must be at least 2")
    if cfg["f"] < 1:
        raise ConfigError("f must be at least 1")
    if not is_prime(cfg["p"]):
        raise ConfigError(f"p = {cfg['p']} is not prime")
    if cfg["trials"] < 1:
        raise ConfigError("trials must be positive")
    if cfg["count"] < 1:
        raise ConfigError("count must be positive")


def _n_within(cfg, command: str, lo: int, hi: int) -> int:
    """cfg["n"] for a subcommand that covers lo <= n <= hi only; any other
    n is refused rather than clamped to a size the report would not name."""
    n = cfg["n"]
    if not lo <= n <= hi:
        raise ConfigError(f"{command} needs {lo} <= n <= {hi}, got n = {n}")
    return n


def _deep_omega(n: int, f: int, p: int) -> Weight:
    g = p // (n + 1)
    row = tuple(g * (n - 1 - i) for i in range(n))
    return Weight.of([row] * f)


def _special_pairs(n: int, f: int):
    """Normalized case-(a) special pairs (w, u, j0), canonically ordered;
    a ConfigError when there are none."""
    pairs = serre.special_pairs(n, f)
    if not pairs:
        raise ConfigError(f"no special pairs exist for n = {n}")
    return pairs


# -- subcommand handlers ------------------------------------------------------------


def cmd_alcoves_enumerate(cfg, report: Report):
    import math

    n = cfg["n"]
    classes = weyl.restricted_alcove_classes(n)
    report.add(
        "restricted_alcove_count",
        len(classes) == math.factorial(n - 1),
        {"count": len(classes), "expected": math.factorial(n - 1)},
        {"classes": [list(c) for c in classes[:5]]},
    )


def cmd_alcoves_special(cfg, report: Report):
    n, f = cfg["n"], cfg["f"]
    count, total, frac = serre.enumerate_special(n, f)
    expected = 1 - Fraction(max(n - 2, 0), n - 1) ** f if n >= 3 else Fraction(0)
    report.add(
        "special_alcove_count",
        frac == expected,
        {"count": count, "total": total, "proportion": str(frac), "expected_proportion": str(expected)},
    )


def cmd_shapes_classify(cfg, report: Report):
    n, f = cfg["n"], cfg["f"]
    lam = Weight.eta(n, f)
    if weyl.length(ExtAffine.translation(lam)) > weyl.MAX_ADMISSIBLE_LENGTH:
        raise ConfigError("eta-admissible set exceeds the enumeration bound for this (n, f)")
    adm = weyl.admissible_set(lam)
    counts = {"extremal": 0, "colength_one": 0, "deeper": 0}
    for x in adm:
        cls = weyl.classify_colength(x, lam)
        if all(c == weyl.Colength.EXTREMAL for c in cls):
            counts["extremal"] += 1
        elif weyl.length(x) == weyl.length(ExtAffine.translation(lam)) - 1:
            counts["colength_one"] += 1
        else:
            counts["deeper"] += 1
    report.add(
        "admissible_classification",
        counts["extremal"] == len(weyl.all_perms(n)) ** f and len(adm) > 0,
        {"sizes": counts, "total": len(adm)},
    )


def cmd_setup_build(cfg, report: Report):
    n, f, p = cfg["n"], cfg["f"], cfg["p"]
    pairs = _special_pairs(n, f)
    idx = cfg["pair"] % len(pairs)
    w, u, j0 = pairs[idx]
    sd = serre.build_setup(weyl.restricted_lift(w), weyl.restricted_lift(u), _deep_omega(n, f, p), p)
    ok_shape = all(
        sd.ztilde_shape[j] == (weyl.Colength.COLENGTH_ONE if j == sd.j0 else weyl.Colength.EXTREMAL) for j in range(f)
    ) and all(c == weyl.Colength.EXTREMAL for c in sd.ztilde_prime_shape)
    report.add("setup_shapes", ok_shape, {"setup": sd.to_json(), "pair_index": idx, "num_pairs": len(pairs)})


def cmd_verify_weyl(cfg, report: Report):
    n = _n_within(cfg, "verify weyl", 2, 4)
    rng = random.Random(cfg["seed"])
    lam = Weight.eta(n, 1).scale(2)
    adm = weyl.admissible_set(lam)
    bad = None
    for x in adm:
        a = x.component(0)
        wa = weyl.aff_wa_part(a)
        if weyl.aff_length(a) != weyl.bfs_length(wa):
            bad = x.to_json()
            break
    report.add("length_equals_bfs_on_Adm_2eta", bad is None, {"n": n, "size": len(adm)}, {"element": bad})
    sup_bad = None
    roots = weyl.all_roots(n)
    for x in adm:
        a = x.component(0)
        for a1 in roots:
            for a2 in roots:
                s = (a1[0], a2[1]) if a1[1] == a2[0] else None
                if s is None or s[0] == s[1] or s not in roots:
                    continue
                m1, m2, m12 = weyl.aff_m(a, a1), weyl.aff_m(a, a2), weyl.aff_m(a, s)
                if not (m1 + m2 <= m12 <= m1 + m2 + 1):
                    sup_bad = {"x": x.to_json(), "a1": a1, "a2": a2}
        if sup_bad:
            break
    report.add("optimal_superadditivity_on_Adm_2eta", sup_bad is None, {"n": n}, sup_bad)
    star_bad = None
    for _ in range(cfg["trials"]):
        xs = []
        for _i in range(2):
            nu = Weight.of([tuple(rng.randrange(-3, 4) for _ in range(n))])
            wperm = PermTuple.of([rng.choice(weyl.all_perms(n))])
            xs.append(ExtAffine(nu, wperm))
        lhs = weyl.star(weyl.compose(xs[0], xs[1]))
        rhs = weyl.compose(weyl.star(xs[1]), weyl.star(xs[0]))
        if lhs.to_json() != rhs.to_json():
            star_bad = {"x": xs[0].to_json(), "y": xs[1].to_json()}
            break
    report.add("star_anti_isomorphism", star_bad is None, {"trials": cfg["trials"]}, star_bad)


def cmd_verify_bruhat(cfg, report: Report):
    n = _n_within(cfg, "verify bruhat", 2, 4)
    rng = random.Random(cfg["seed"])
    gens = weyl.affine_simple_reflections(n)
    bad = None
    pairs = 0
    while pairs < cfg["trials"]:
        x = weyl.aff_identity(n)
        y = weyl.aff_identity(n)
        for _ in range(rng.randrange(0, 7)):
            x = weyl.aff_mul(x, gens[rng.randrange(len(gens))])
        for _ in range(rng.randrange(0, 9)):
            y = weyl.aff_mul(y, gens[rng.randrange(len(gens))])
        base = weyl.bruhat_leq_wa(x, y)
        for _ in range(5):
            word = weyl.random_reduced_word(y, rng)
            if weyl.bruhat_leq_wa(x, y, word=word) != base:
                bad = {"x": x, "y": y, "word": word}
                break
        if bad:
            break
        pairs += 1
    report.add("bruhat_reduced_word_invariance", bad is None, {"pairs": pairs}, bad and {"pair": str(bad)})


def cmd_verify_minors(cfg, report: Report):
    n = _n_within(cfg, "verify minors", 3, 5)
    rng = random.Random(cfg["seed"])
    F = field(cfg["p"])
    i0, k0 = 0, n - 1
    bad = None
    for _ in range(cfg["trials"]):
        av = {b: rng.randrange(F.q) for b in weyl.negative_roots(n)}
        for i, (d, r, pth) in enumerate(charts.minor_identities(av, i0, k0, F), 2):
            if d != r or (pth is not None and d != pth):
                bad = {"a": {str(k): v for k, v in av.items()}, "i": i}
                break
        if bad:
            break
    report.add("minor_identities_triple_agreement", bad is None, {"n": n, "trials": cfg["trials"]}, bad)


def cmd_verify_z(cfg, report: Report):
    from .chartsolve import ChartShape, vvar
    from .mpoly import GFAdapter

    rng = random.Random(cfg["seed"])
    q = max(101, cfg["p"])
    while not is_prime(q):
        q += 1
    F = field(q)
    checked = 0
    bad = None
    for n in (3, 4):
        for (w, u, j0) in _special_pairs(n, 1):
            wp, up = w.perms[0], u.perms[0]
            m_alpha = weyl.aff_m(weyl.restricted_lift_perm(up), (0, n - 1))
            if m_alpha == 0:
                continue
            a_vec = tuple(17 * (n - i) + 1 for i in range(n))  # generic gaps
            shape = ChartShape(n=n, p=q, kind="colength_one", u_perm=up, conj_perm=wp, a_vec=a_vec)
            Z = charts.z_minus_alpha_gf(shape, wp, F)
            chain_mono = tuple(
                sorted(((vvar((i + 1, i), shape.degree_bound((i + 1, i))), 1) for i in range(n - 1)), key=lambda t: repr(t[0]))
            )
            coeff = Z.coefficient_of(chain_mono)
            if not coeff.is_zero():
                bad = {"n": n, "w": wp, "claim": "monomial_absence"}
                break
            simples = {(i + 1, i) for i in range(n - 1)}
            zero_map = {vvar(b, shape.degree_bound(b)): GFAdapter(F).zero() for b in weyl.negative_roots(n) if b not in simples}
            restricted = Z.substitute(zero_map)
            if not restricted.is_zero():
                bad = {"n": n, "w": wp, "claim": "simple_locus_vanishing_symbolic"}
                break
            for _ in range(cfg["trials"]):
                cv = {b: (rng.randrange(1, q) if b in simples else 0) for b in weyl.negative_roots(n)}
                if charts.z_minus_alpha(shape, wp, cv, F) != 0:
                    bad = {"n": n, "w": wp, "claim": "simple_locus_vanishing_sampled", "point": str(cv)}
                    break
            if bad:
                break
            checked += 1
        if bad:
            break
    deg = 4
    bound = min(1.0, (deg / q))
    report.add(
        "z_monomial_absence_and_restriction",
        bad is None and checked > 0,
        {"configs": checked, "samples": cfg["trials"], "per_sample_failure_bound": bound, "field": q},
        bad,
    )


def cmd_verify_partition(cfg, report: Report):
    bad = None
    checked = 0
    for n in (3, 4):
        salpha = weyl.transposition(n, 0, n - 1)
        for u in weyl.all_perms(n):
            w = weyl.perm_mul(salpha, u)
            ud = weyl.restricted_lift_perm(u)
            wd = weyl.restricted_lift_perm(w)
            if weyl.aff_length(wd) != weyl.aff_length(ud) + 1:
                continue
            if not charts.partition_lemma_check(u, w, n):
                bad = {"n": n, "u": u, "w": w}
                break
            checked += 1
        if bad:
            break
    report.add("partition_lemma_exhaustive", bad is None and checked > 0, {"configs": checked}, bad)


def cmd_verify_nabla(cfg, report: Report):
    rng = random.Random(cfg["seed"])
    bad = None
    trials = 0
    for _ in range(cfg["trials"]):
        n = rng.choice([2, 3, 4])
        F = field(rng.choice([5, 7]))
        prec = default_precision(n, 8)
        nu = tuple(rng.randrange(-3, 4) for _ in range(n))
        wp = rng.choice(weyl.all_perms(n))
        M = LoopMatrix.monomial(F, nu, wp, prec)
        a = tuple(rng.randrange(F.p) for _ in range(n))
        if wp == tuple(range(n)) and not nabla_check(M, a):
            bad = {"case": "diagonal_translation", "nu": nu}
            break
        X = random_iwahori(F, n, prec, rng)
        Y = random_iwahori(F, n, prec, rng)
        if affine_bruhat_decompose(X.mul(M).mul(Y)) != (nu, wp):
            bad = {"case": "coset_invariance", "nu": nu, "w": wp}
            break
        trials += 1
    report.add("nabla_diagonal_and_coset_invariance", bad is None, {"trials": trials}, bad)


def cmd_witness_triple(cfg, report: Report):
    n, f, p = cfg["n"], cfg["f"], cfg["p"]
    pairs = _special_pairs(n, f)
    w, u, _ = pairs[cfg["pair"] % len(pairs)]
    sd = serre.build_setup(weyl.restricted_lift(w), weyl.restricted_lift(u), _deep_omega(n, f, p), p)
    res = witness.witness_triple_intersection(sd, t=cfg["t"])
    flat_ok = all(v if not isinstance(v, list) else all(v) for v in res.checks.values())
    report.add("witness_triple_intersection", flat_ok, res.to_json())
    fam = witness.witness_family(sd, t=cfg["t"], count=cfg["count"])
    chars = [r.chi_sigma_prime for r in fam]
    report.add(
        "witness_family_distinct_characters",
        len(set(chars)) == cfg["count"],
        {"count": cfg["count"], "characters": [list(c) for c in chars]},
    )


def cmd_predicates_fi(cfg, report: Report):
    rng = random.Random(cfg["seed"])
    n, f, p = cfg["n"], cfg["f"], cfg["p"]
    bad = None
    done = 0
    for _ in range(cfg["trials"]):
        y = [rng.choice(weyl.all_perms(n)) for _ in range(f)]
        g = p // (n + 1)
        base = [g * (n - 1 - i) + rng.randrange(-2, 3) for i in range(n)]
        a_vecs = [
            tuple(weyl.perm_act_vec(rng.choice(weyl.all_perms(n)), tuple(b + e for b, e in zip(base, weyl.eta_weight(n)))))
            for _ in range(f)
        ]
        tops = [{b: rng.randrange(p) for b in weyl.negative_roots(n)} for _ in range(f)]
        torus = [[rng.randrange(1, p) for _ in range(n)] for _ in range(f)]
        mats, res = witness.extremal_chart_point(n, f, p, y, a_vecs, tops, torus)
        if not (res.is_ordinary() and res.f_n_is_unit()):
            bad = {"y": y, "valuations": [str(v) for v in res.valuations]}
            break
        done += 1
    report.add("extremal_charts_ordinary", bad is None, {"points": done, "n": n, "f": f}, bad)


HANDLERS = {
    ("alcoves", "enumerate"): cmd_alcoves_enumerate,
    ("alcoves", "special"): cmd_alcoves_special,
    ("shapes", "classify"): cmd_shapes_classify,
    ("setup", "build"): cmd_setup_build,
    ("verify", "weyl"): cmd_verify_weyl,
    ("verify", "minors"): cmd_verify_minors,
    ("verify", "z"): cmd_verify_z,
    ("verify", "partition"): cmd_verify_partition,
    ("verify", "nabla"): cmd_verify_nabla,
    ("verify", "bruhat"): cmd_verify_bruhat,
    ("witness", "triple"): cmd_witness_triple,
    ("predicates", "fi"): cmd_predicates_fi,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alcalc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("group", choices=sorted({g for g, _ in HANDLERS}))
    parser.add_argument("action")
    parser.add_argument("--n", type=int)
    parser.add_argument("--f", type=int)
    parser.add_argument("--p", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--t", type=int)
    parser.add_argument("--count", type=int)
    parser.add_argument("--pair", type=int)
    parser.add_argument("--out", type=str)
    parser.add_argument("--format", choices=FORMATS)
    parser.add_argument("--config", type=str, help="JSON config file; flags take precedence")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    args.config_data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                args.config_data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
        try:
            _check_config_data(args.config_data)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    key = (args.group, args.action)
    if key not in HANDLERS:
        print(f"error: unknown subcommand {args.group} {args.action}", file=sys.stderr)
        return 1
    cfg = {k: _resolve(args, k) for k in DEFAULTS}
    try:
        _validate(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = Report(command=f"{args.group} {args.action}", config={k: cfg[k] for k in sorted(cfg) if cfg[k] is not None})
    try:
        HANDLERS[key](cfg, report)
    except (ConfigError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = emit_report(report, cfg["format"])
    if cfg["out"]:
        with open(cfg["out"], "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return report.exit_code()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
