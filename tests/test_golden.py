"""Byte-for-byte golden reports: one per subcommand at cheap, fixed
arguments, plus one csv-summary report.

Regenerate the files (only when a report change is intended) with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

from alcalc.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CASES = {
    "alcoves_enumerate.json": ["alcoves", "enumerate", "--n", "4"],
    "alcoves_special.json": ["alcoves", "special", "--n", "4", "--f", "2"],
    "shapes_classify.json": ["shapes", "classify", "--n", "3", "--f", "2"],
    "setup_build.json": ["setup", "build", "--n", "4", "--f", "1", "--pair", "3"],
    "verify_weyl.json": ["verify", "weyl", "--n", "3", "--trials", "20", "--seed", "1"],
    "verify_minors.json": ["verify", "minors", "--n", "5", "--trials", "20", "--seed", "1"],
    "verify_z.json": ["verify", "z", "--trials", "3", "--seed", "1"],
    "verify_z_t1000.json": ["verify", "z", "--trials", "1000", "--seed", "7"],
    "verify_partition.json": ["verify", "partition"],
    "verify_nabla.json": ["verify", "nabla", "--trials", "12", "--seed", "1"],
    "verify_nabla_t40.json": ["verify", "nabla", "--trials", "40", "--seed", "7"],
    "verify_bruhat.json": ["verify", "bruhat", "--n", "3", "--trials", "20", "--seed", "1"],
    "witness_triple.json": ["witness", "triple", "--n", "4", "--f", "1", "--pair", "1", "--t", "5", "--count", "2"],
    "witness_triple_p521.json": ["witness", "triple", "--n", "3", "--f", "2", "--p", "521", "--t", "2", "--count", "2"],
    "witness_triple_p2147483647.json": ["witness", "triple", "--n", "3", "--f", "1", "--p", "2147483647", "--t", "2", "--count", "2"],
    "witness_triple_n5.json": ["witness", "triple", "--n", "5", "--f", "1", "--p", "101", "--t", "3", "--count", "1"],
    "predicates_fi.json": ["predicates", "fi", "--n", "4", "--f", "2", "--trials", "3", "--seed", "1"],
    "predicates_fi_n5.json": ["predicates", "fi", "--n", "5", "--f", "1", "--p", "197", "--trials", "5", "--seed", "1"],
    "alcoves_special.csv": ["alcoves", "special", "--n", "3", "--f", "3", "--format", "csv-summary"],
}


def _emit(argv) -> tuple[int, bytes]:
    buf = io.BytesIO()
    with contextlib.redirect_stdout(io.TextIOWrapper(buf, encoding="utf-8")) as out:
        code = run(argv)
        out.flush()
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    code, payload = _emit(CASES[name])
    assert code == 0
    assert payload == (GOLDEN / name).read_bytes()


# one golden argv per subcommand, witness and predicates included
PER_SUBCOMMAND = (
    "alcoves_enumerate.json",
    "alcoves_special.json",
    "shapes_classify.json",
    "setup_build.json",
    "verify_weyl.json",
    "verify_minors.json",
    "verify_z.json",
    "verify_partition.json",
    "verify_nabla.json",
    "verify_bruhat.json",
    "witness_triple.json",
    "predicates_fi.json",
)


@pytest.mark.parametrize("seed", ["0", "1"])
def test_report_bytes_stable_across_hash_seeds(seed):
    # the iteration order of a set of strings changes with the hash seed;
    # a fresh CLI process per argv must still print the golden bytes
    assert {argv[0] + " " + argv[1] for argv in map(CASES.get, PER_SUBCOMMAND)} == {
        argv[0] + " " + argv[1] for argv in CASES.values()
    }
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    for name in PER_SUBCOMMAND:
        proc = subprocess.run([sys.executable, "-m", "alcalc.cli", *CASES[name]], capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, (GOLDEN / name).read_bytes()), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, payload = _emit(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / name).write_bytes(payload)
