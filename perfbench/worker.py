"""
The workload process of the alcalc benchmark.

One client in a closed loop: each op is an in-process call to
`alcalc.cli.run(argv)` with stdout captured, issued after the previous one
returns.  Every report is checked by `oracle.check`, and its bytes must
equal those of every other run of the same argv in this process.

Modes:
  setup   import alcalc and build the op list, report the time and exit
  timed   run whole passes of the op list, as many as end nearest to
          --seconds at the reference speed (see speed.py)
  pass    run exactly one pass
  traced  run exactly one pass with the span tracer installed

The result is one JSON object, printed as the last line of stdout.
Run from the repository root with `src` on PYTHONPATH, for example
`PYTHONPATH=src python3 perfbench/worker.py --workload witness --seed 1 --mode pass`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import oracle
import speed
import workloads

# Attempts made by witness_family are the witness_triple_intersection calls
# made while it runs.
NESTED = {"witness.witness_triple_intersection": "witness.witness_family"}


def run_op(cli, argv: list[str]) -> tuple[int | None, float, float, bytes, str | None]:
    """Run one CLI op in-process; return (exit code, start time, seconds,
    stdout bytes, error).  An op that raises is a failed op, not a failed
    benchmark."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout
    sys.stdout = out
    rc, err = None, None
    t0 = time.perf_counter()
    try:
        rc = cli.run(list(argv))
        out.flush()
    except Exception:
        err = traceback.format_exc(limit=3)
    finally:
        sys.stdout = saved
    dt = time.perf_counter() - t0
    payload = buf.getvalue()
    out.detach()
    return rc, t0, dt, payload, err


def run_passes(cli, ops: list[list[str]], seconds: float | None, sampler: speed.Sampler) -> dict:
    """Whole passes of `ops`: one if `seconds` is None, else as many as end
    nearest to `seconds`.  Each latency excludes the probes run inside it
    and is also given scaled to the reference speed; `seconds` and the
    pass times count scaled time, so the number of passes does not depend
    on how loaded the machine is."""
    records = []
    first_sha: dict[tuple, str] = {}
    pass_s: list[float] = []
    while True:
        done = len(records)
        for argv in ops:
            rc, t0, dt, payload, err = run_op(cli, argv)
            sha = hashlib.sha256(payload).hexdigest()
            fail = err or oracle.check(argv, rc, payload)
            if fail is None and first_sha.setdefault(tuple(argv), sha) != sha:
                fail = "report bytes differ from an earlier run of the same argv"
            probe_s, factor = sampler.window(t0, t0 + dt)
            rec = {"argv": argv, "rc": rc, "s": dt - probe_s, "scaled_s": (dt - probe_s) * factor, "sha": sha, "fail": fail}
            if fail is None and argv[:2] == ["witness", "triple"]:
                rec["chars"] = oracle.distinct_characters(payload)
            records.append(rec)
        pass_s.append(sum(r["scaled_s"] for r in records[done:]))
        if seconds is None or sum(pass_s) + 0.5 * statistics.mean(pass_s) >= seconds:
            break
    return {"records": records, "pass_s": pass_s, "ops_per_pass": len(ops)}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "pass", "traced"])
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    before = speed.probe(5)
    t0 = time.perf_counter()
    from alcalc import cli

    ops = workloads.op_list(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    factor = speed.REF_PROBE_S / statistics.mean([before, speed.probe(5)])
    result = {"setup_s": setup_s, "setup_scaled_s": setup_s * factor}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(nested=NESTED)
        with speed.Sampler() as sampler:
            result.update(run_passes(cli, ops, args.seconds if args.mode == "timed" else None, sampler))
        if tracer is not None:
            result["trace"] = {k: [s.calls, s.self_s, s.incl_s, s.calls_inside] for k, s in tracer.stats.items()}
            result["layer_self_s"] = tracer.layer_self_s()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
