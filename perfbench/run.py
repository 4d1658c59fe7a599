"""
The alcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads are defined in workloads.py
and explained in README.md; every answer is checked by oracle.py; timings
are scaled to a reference CPU speed by speed.py.

--trace 0 measures the end-to-end metrics with tracing off:
  * the workload's first op run 7 times as a fresh `python -m alcalc.cli`
    process, through cold.py (cold_op_s is the median);
  * 4 fresh processes that only import alcalc and build the op list, plus
    the workload process itself (setup_s is the median of the 5);
  * the workload process, which runs whole passes of the op list for about
    S seconds at the reference speed in one closed loop.
--trace 1 runs exactly one pass untraced and one pass traced, each in a
fresh process, checks that both gave the same report bytes, and reports
the per-layer metrics of the traced pass.  Counts are per pass, so they
do not depend on how fast the machine is.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  An op fails if it raises, exits
non-zero, fails its oracle, or emits bytes that differ from another run of
the same argv; `fail_ratio` is `failed / attempted`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import speed
import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # every run must end within 180 s
COLD_RUNS = 7
SETUP_PROBES = 4
TAIL_BEYOND = 10  # op_tail_ms is the latency with this many samples above it

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cold_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Metric stem -> traced function, where the two differ.
ALIAS = {
    "chartsolve.solve": "chartsolve.ChartSystem.solve",
    "chartsolve.assemble": "chartsolve.ChartSystem.assemble",
    "mpoly.substitute": "mpoly.Poly.substitute",
    "rmatrix.det": "rmatrix.PMatrix.det",
    "rmatrix.adjugate": "rmatrix.PMatrix.adjugate",
    "series.mul": "series.Series.mul",
    "series.inverse": "series.Series.inverse",
    "loopmat.det": "loopmat.LoopMatrix.det",
    "cli.special_pairs": "cli._special_pairs",
}

# Exact call counts and inclusive seconds at layer boundaries.
CALLS = (
    "weyl.aff_m",
    "weyl.up_arrow_leq_aff",
    "weyl.classify_colength",
    "weyl.bruhat_leq_wa",
    "weyl.reduced_word",
    "serre.build_setup",
    "chartsolve.solve",
    "chartsolve.assemble",
    "mpoly.solve_equations",
    "mpoly.substitute",
    "rmatrix.nabla_certify",
    "rmatrix.frobenius_minors_f",
    "rmatrix.det",
    "rmatrix.adjugate",
    "series.mul",
    "series.inverse",
    "loopmat.det",
    "charts.minor_identities",
    "witness.witness_triple_intersection",
)
SECONDS = (
    "weyl.up_arrow_leq_aff",
    "weyl.admissible_set",
    "serre.enumerate_special",
    "serre.build_setup",
    "chartsolve.solve",
    "mpoly.solve_equations",
    "rmatrix.nabla_certify",
    "rmatrix.frobenius_minors_f",
    "loopmat.affine_bruhat_decompose",
    "loopmat.nabla_check",
    "loopmat.iwahori_row_reduce",
    "charts.build_vc_matrix",
    "charts.z_minus_alpha_poly",
    "witness.witness_triple_intersection",
    "cli.special_pairs",
    "report.emit_report",
)
# Counts summed over several traced functions.
SUMS = {
    "chartsolve.lookups": ("chartsolve.gf_chart_system", "chartsolve.pval_chart_system"),
    "chartsolve.builds": ("chartsolve.ChartSystem.__init__",),
    "pval.ops": tuple(f"pval.PVal.{m}" for m in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "inverse")),
}
# Ratios; a ratio whose base is 0 reads 0.
RATIOS = ("chartsolve.cache_hit_ratio", "chartsolve.assemble_per_solve", "witness.family_yield", "trace.overhead_ratio")


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"{stem}.calls": "count" for stem in CALLS})
    units.update({f"{stem}.s": "s" for stem in SECONDS})
    units.update({name: "count" for name in SUMS})
    units.update({name: "1" for name in RATIOS})
    return units


class BenchError(RuntimeError):
    pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _spawn(cmd: list[str], env: dict, deadline: float) -> tuple[float, int, bytes, bytes]:
    """Run a child process to completion; return (wall seconds, exit code,
    stdout, stderr).  A child that outlives the deadline is killed and
    waited for."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a process")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def _worker(args, mode: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--mode", mode, "--seconds", str(args.seconds)]
    _, rc, out, err = _spawn(cmd, env, deadline)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"workload process ({mode}) exited {rc}: {err.decode('utf-8', 'replace')[-2000:]}")
    return json.loads(lines[-1])


def _cold(first: list[str], env: dict, deadline: float) -> tuple[float, int, bytes]:
    """(scaled wall seconds, exit code, stdout) of `first` run as a fresh
    `python -m alcalc.cli` process (through cold.py, which samples speed)."""
    wall, rc, out, err = _spawn([sys.executable, str(HERE / "cold.py"), *first], env, deadline)
    last = err.decode("utf-8", "replace").strip().splitlines()[-1:]
    if not last or not last[0].startswith("probe_s "):
        raise BenchError(f"no speed sample from the cold run of {' '.join(first)}")
    return wall * speed.REF_PROBE_S / float(last[0].split()[1]), rc, out


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    xs = sorted(latencies)
    i = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def _failures(records: list[dict]) -> list[str]:
    return [f"{' '.join(r['argv'])}: {r['fail']}" for r in records if r["fail"]]


def measure(args, env: dict, deadline: float) -> tuple[dict, int, list[str]]:
    """The end-to-end metrics, the attempted count and the failures.
    Timings are scaled to the reference speed of speed.py."""
    first = workloads.op_list(args.workload, args.seed)[0]
    cold = [_cold(first, env, deadline) for _ in range(COLD_RUNS)]
    setups = [_worker(args, "setup", env, deadline)["setup_scaled_s"] for _ in range(SETUP_PROBES)]
    res = _worker(args, "timed", env, deadline)
    records = res["records"]
    setups.append(res["setup_scaled_s"])

    failures = _failures(records)
    in_process = records[0]["sha"]
    for _, rc, out in cold:
        fail = oracle.check(first, rc, out)
        if fail is None and hashlib.sha256(out).hexdigest() != in_process:
            fail = "fresh-process report bytes differ from the in-process ones"
        if fail:
            failures.append(f"cold {' '.join(first)}: {fail}")

    lat = [r["scaled_s"] for r in records]
    tail, pct = _tail(lat)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * tail,
        "cold_op_s": statistics.median(c for c, _, _ in cold),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw = [r["s"] for r in records]
    print(
        f"{args.workload} seed {args.seed}: {len(res['pass_s'])} pass(es) of {res['ops_per_pass']} ops in "
        f"{sum(res['pass_s']):.2f} s at reference speed; "
        f"op_tail_ms is p{pct:.1f} of {len(lat)} samples; unscaled: {len(raw) / sum(raw):.4f} ops/s, "
        f"p50 {1000.0 * statistics.median(raw):.1f} ms, CPU at {sum(lat) / sum(raw):.3f} of reference speed"
    )
    return metrics, len(records) + COLD_RUNS, failures


def layer_metrics(plain: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from an untraced and a traced pass of the same op
    list, and the names of those that are absent because the traced
    function no longer exists."""
    stats = traced["trace"]

    def stat(stem: str, field: int) -> float | None:
        key = ALIAS.get(stem, stem)
        return stats[key][field] if key in stats else None

    values: dict[str, float | None] = {f"{layer}.self_s": traced["layer_self_s"].get(layer) for layer in LAYERS}
    values.update({f"{stem}.calls": stat(stem, 0) for stem in CALLS})
    values.update({f"{stem}.s": stat(stem, 2) for stem in SECONDS})
    for name, keys in SUMS.items():
        values[name] = sum(stats[k][0] for k in keys) if all(k in stats for k in keys) else None
    lookups, builds = values["chartsolve.lookups"], values["chartsolve.builds"]
    if lookups is not None and builds is not None:
        values["chartsolve.cache_hit_ratio"] = 1.0 - _ratio(builds, lookups) if lookups else 0.0
    solves, assembles = values["chartsolve.solve.calls"], values["chartsolve.assemble.calls"]
    if solves is not None and assembles is not None:
        values["chartsolve.assemble_per_solve"] = _ratio(assembles, solves)
    attempts = stat("witness.witness_triple_intersection", 3)
    if attempts is not None:
        values["witness.family_yield"] = _ratio(sum(r.get("chars", 0) for r in traced["records"]), attempts)
    values["trace.overhead_ratio"] = sum(traced["pass_s"]) / sum(plain["pass_s"])

    metrics, absent = {}, []
    for name, unit in per_layer_units().items():
        if values.get(name) is None:
            absent.append(name)
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, absent


def measure_traced(args, env: dict, deadline: float) -> tuple[dict, int, list[str], list[str]]:
    """The per-layer metrics, the attempted count, the failures and the
    names of absent metrics."""
    plain = _worker(args, "pass", env, deadline)
    traced = _worker(args, "traced", env, deadline)
    for a, b in zip(plain["records"], traced["records"]):
        if not (a["fail"] or b["fail"]) and a["sha"] != b["sha"]:
            b["fail"] = "traced report bytes differ from untraced ones"
    failures = _failures(plain["records"]) + _failures(traced["records"])
    metrics, absent = layer_metrics(plain, traced)
    self_s = traced["layer_self_s"]
    total = sum(self_s.values())
    shares = ", ".join(f"{layer} {self_s[layer] / total:.3f}" for layer in sorted(self_s, key=self_s.get, reverse=True))
    print(f"{args.workload} seed {args.seed}: self-time shares of the traced pass: {shares}")
    return metrics, len(plain["records"]) + len(traced["records"]), failures, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "alcalc" / "cli.py").is_file():
        print(f"error: no alcalc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Children import alcalc from the bytecode cache, as an installed
    # package does; the first process in a checkout writes it under src/.
    # Otherwise setup_s and cold_op_s would include compiling or not
    # depending on the caller's environment.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        if args.trace:
            metrics, attempted, failures, absent = measure_traced(args, env, deadline)
            if absent:
                print(f"absent metrics: {', '.join(absent)}")
        else:
            values, attempted, failures = measure(args, env, deadline)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"fail_ratio {len(failures) / attempted} ({len(failures)} of {attempted} ops)")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
