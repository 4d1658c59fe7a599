"""
Seeded op lists for the alcalc benchmark.

An op is one argv for `alcalc`.  `op_list(workload, seed)` is a pure
function of its arguments, so the same seed always gives the same ops.
The first op of every list is fixed per workload and cheap: it is the op
timed as a fresh process (`cold_op_s`), so it must not depend on the
seed.  The rest of a list is shuffled by the seed, and the first op is
run once more at the end.  A list is sized so that one pass takes 7-13 s at
the reference speed of speed.py at the commit that defined the
benchmark, which a run of `--seconds 8` measures as exactly one pass.

Why each workload exists, and what is deliberately left out, is written
in README.md next to this file.
"""

from __future__ import annotations

import random

# The 31 primes 53 <= p <= 199 used by `ordinarity`.
PRIMES = tuple(p for p in range(53, 200) if all(p % d for d in range(2, int(p**0.5) + 1)))

# Number of special pairs at each (n, f) used by `witness`.  The CLI folds
# any pair index modulo this count, so the values only spread the draws
# evenly over the pairs.
SPECIAL_PAIRS = {(3, 1): 2, (4, 1): 6, (3, 2): 24, (4, 2): 288, (3, 3): 216}


def _argv(*words, **flags) -> list[str]:
    out = [str(w) for w in words]
    for key, val in flags.items():
        out += [f"--{key}", str(val)]
    return out


def _with_repeat(first: list[str], rest: list[list[str]], rng: random.Random) -> list[list[str]]:
    """`first`, then `rest` shuffled, then `first` again so that every run
    compares the bytes of an in-process repeat."""
    rng.shuffle(rest)
    return [first, *rest, first]


def census(rng: random.Random) -> list[list[str]]:
    """Combinatorial subcommands: alcove counts, colength shapes, setups,
    Weyl-group checks.  Only the setup pairs and the Bruhat seed vary."""
    rest = [
        _argv("alcoves", "special", n=5, f=1),
        _argv("shapes", "classify", n=3, f=2),
        _argv("shapes", "classify", n=3, f=3),
        _argv("verify", "weyl", n=4),
        _argv("verify", "bruhat", n=4, trials=400, seed=rng.randrange(10**6)),
        _argv("alcoves", "enumerate", n=7),
    ]
    rest += [_argv("setup", "build", n=4, f=2, pair=k) for k in rng.sample(range(SPECIAL_PAIRS[(4, 2)]), 13)]
    return _with_repeat(_argv("shapes", "classify", n=4, f=1), rest, rng)


# Ops per (n, f), besides the first op and its repeat at (3, 1).  Sorted
# by latency the groups are (3, 1) < (3, 2) < (3, 3) < (4, 1) < (4, 2), and
# within (3, 2), (3, 3) and (4, 2) the cost depends on the pair.  With 6
# ops above the 13 at (3, 1), the median and the tail (11th largest) fall
# inside the (3, 1) group, whose cost does not depend on the seed; the
# n = 4 ops still take more than half of the pass.
WITNESS_OPS = {(3, 1): 11, (3, 2): 1, (3, 3): 1, (4, 1): 2, (4, 2): 2}
UNITS = 52  # t ranges over the units 1..52 mod 53


def witness(rng: random.Random) -> list[list[str]]:
    """`witness triple` (family of 10) at distinct seeded (pair, t)."""
    rest = [
        _argv("witness", "triple", n=n, f=f, pair=c // UNITS, t=c % UNITS + 1)
        for (n, f), count in WITNESS_OPS.items()
        for c in rng.sample(range(SPECIAL_PAIRS[(n, f)] * UNITS), count)
    ]
    return _with_repeat(_argv("witness", "triple", n=3, f=1, pair=0, t=2), rest, rng)


# Ops per (n, f).  With the first op and its repeat at (3, 2), the sorted
# latencies put the median in the middle of the (3, 3) group and the tail
# (11th largest) in the middle of the (4, 1) group, away from the jumps
# between groups.
ORDINARITY_OPS = {(3, 1): 5, (3, 2): 6, (3, 3): 5, (4, 1): 8, (4, 2): 3, (5, 1): 2}


def ordinarity(rng: random.Random) -> list[list[str]]:
    """`predicates fi --trials 10`, two to eight ops per shape, a different
    prime for every op: the first op takes 53 and the others draw from the
    30 primes left."""
    primes = rng.sample(PRIMES[1:], sum(ORDINARITY_OPS.values()))
    rest = [
        _argv("predicates", "fi", n=n, f=f, p=primes.pop(), trials=10, seed=rng.randrange(10**6))
        for (n, f), count in ORDINARITY_OPS.items()
        for _ in range(count)
    ]
    return _with_repeat(_argv("predicates", "fi", n=3, f=2, p=PRIMES[0], trials=10, seed=0), rest, rng)


def loop_fiber(rng: random.Random) -> list[list[str]]:
    """Loop-group and special-fibre checks: `verify nabla` at 7 seeded
    seeds, five Z_{-alpha} checks and three more trailing-minor checks.
    Sorted by latency the groups are minors < z < nabla; these counts put
    the median and the tail (11th largest) inside the z group."""
    seeds = rng.sample(range(1, 10**6), 15)
    rest = [_argv("verify", "nabla", seed=s) for s in seeds[:7]]
    rest += [_argv("verify", "z", trials=1000, seed=s) for s in seeds[7:12]]
    rest += [_argv("verify", "minors", n=5, trials=1000, seed=s) for s in seeds[12:]]
    return _with_repeat(_argv("verify", "minors", n=5, trials=1000, seed=0), rest, rng)


WORKLOADS = {
    "census": census,
    "witness": witness,
    "ordinarity": ordinarity,
    "loop-fiber": loop_fiber,
}


def op_list(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
