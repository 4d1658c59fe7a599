"""
Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import NESTED, run_op  # noqa: E402

from alcalc import cli, weyl  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_ops(name):
    assert workloads.op_list(name, 7) == workloads.op_list(name, 7)
    assert workloads.op_list(name, 7) != workloads.op_list(name, 8)
    # The op timed as a fresh process must not depend on the seed.
    assert len({tuple(workloads.op_list(name, s)[0]) for s in range(20)}) == 1


def test_ordinarity_uses_a_new_prime_per_op():
    for seed in range(20):
        primes = [oracle.flags(op)["p"] for op in workloads.op_list("ordinarity", seed)[:-1]]
        assert len(set(primes)) == len(primes)
        assert set(primes) <= set(workloads.PRIMES)
    assert len(workloads.PRIMES) == 31


def _report(argv):
    rc, _, _, payload, err = run_op(cli, argv)
    assert err is None
    return rc, payload


def _tamper(payload: bytes, check: str, edit) -> bytes:
    report = json.loads(payload)
    for c in report["checks"]:
        if c["name"] == check:
            edit(c["detail"])
    return json.dumps(report).encode()


def test_oracle_accepts_real_answers():
    for argv in (
        ["alcoves", "special", "--n", "4", "--f", "1"],
        ["alcoves", "enumerate", "--n", "5"],
        ["shapes", "classify", "--n", "3", "--f", "1"],
        ["witness", "triple", "--n", "3", "--f", "1", "--pair", "1", "--t", "5"],
    ):
        rc, payload = _report(argv)
        assert oracle.check(argv, rc, payload) is None, argv


def test_oracle_rejects_tampered_reports():
    argv = ["alcoves", "special", "--n", "4", "--f", "1"]
    rc, payload = _report(argv)
    wrong = _tamper(payload, "special_alcove_count", lambda d: d.update(proportion="1/2"))
    assert "proportion" in oracle.check(argv, rc, wrong)
    assert oracle.check(argv, 2, payload) == "exit code 2"

    argv = ["witness", "triple", "--n", "3", "--f", "1", "--pair", "0", "--t", "2"]
    rc, payload = _report(argv)
    dup = _tamper(payload, "witness_family_distinct_characters", lambda d: d["characters"].__setitem__(1, d["characters"][0]))
    assert "distinct characters" in oracle.check(argv, rc, dup)

    argv = ["shapes", "classify", "--n", "3", "--f", "1"]
    rc, payload = _report(argv)
    wrong = _tamper(payload, "admissible_classification", lambda d: d["sizes"].update(extremal=5))
    assert "extremal count" in oracle.check(argv, rc, wrong)
    assert oracle.check(["alcoves", "special"], rc, payload).startswith("report is for")


def test_tracing_leaves_report_bytes_unchanged_and_counts_exact():
    argvs = (
        ["setup", "build", "--n", "3", "--f", "1", "--pair", "1"],
        ["witness", "triple", "--n", "3", "--f", "1", "--pair", "0", "--t", "3"],
    )
    plain = [_report(a) for a in argvs]
    original = weyl.aff_m
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(nested=NESTED)
        try:
            assert weyl.aff_m is not original
            assert [_report(a) for a in argvs] == plain
        finally:
            tracer.uninstall()
        assert weyl.aff_m is original
        counts.append({k: s.calls for k, s in tracer.stats.items()})
        assert tracer.stats["cli._special_pairs"].calls == 2
        assert tracer.stats["witness.witness_triple_intersection"].calls_inside >= 10
    assert counts[0] == counts[1]


def test_missing_function_is_reported_absent():
    stats = {"chartsolve.gf_chart_system": [4, 0.1, 0.1, 0], "chartsolve.pval_chart_system": [0, 0.0, 0.0, 0]}
    stats["chartsolve.ChartSystem.__init__"] = [1, 0.1, 0.1, 0]
    traced = {"trace": stats, "layer_self_s": {}, "records": [], "pass_s": [2.0]}
    metrics, absent = run.layer_metrics({"pass_s": [1.0]}, traced)
    assert metrics["chartsolve.cache_hit_ratio"]["value"] == 0.75
    assert metrics["trace.overhead_ratio"]["value"] == 2.0
    assert "cli.special_pairs.s" in absent and "weyl.aff_m.calls" in absent
    assert set(metrics) | set(absent) == set(run.per_layer_units())


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
