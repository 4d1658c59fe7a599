"""
`python -m alcalc.cli ARGS...` with the speed sampler on.

    PYTHONPATH=src python3 perfbench/cold.py alcoves enumerate --n 5

Runs the CLI module as `-m` does, so stdout carries the report bytes
unchanged, and writes the mean probe time of the run to stderr as the last
line, so that the caller can scale the wall time it measured.
"""

from __future__ import annotations

import runpy
import statistics
import sys

import speed

if __name__ == "__main__":
    sys.argv = ["alcalc", *sys.argv[1:]]
    sampler = speed.Sampler()
    try:
        with sampler:
            runpy.run_module("alcalc.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        sys.stderr.write(f"\nprobe_s {statistics.mean(sampler.durations)}\n")
