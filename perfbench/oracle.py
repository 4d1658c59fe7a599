"""
Answer oracles for the alcalc benchmark.

Each op's report must exit 0 and say `"passed": true`.  Where a closed form
is known, the answer is re-derived here without calling alcalc:

  alcoves special    proportion = 1 - ((n-2)/(n-1))^f, and count/total equals it
  alcoves enumerate  count = (n-1)!
  shapes classify    extremal count = (n!)^f
  witness triple     the family has `count` (10) pairwise distinct characters
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

FAMILY_COUNT = 10  # the CLI default for `--count`, which no op overrides


def flags(argv: list[str]) -> dict[str, int]:
    """The integer `--key value` flags of an argv."""
    return {argv[i][2:]: int(argv[i + 1]) for i in range(2, len(argv) - 1, 2) if argv[i].startswith("--")}


def check(argv: list[str], rc: int | None, payload: bytes) -> str | None:
    """None if the op's answer is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(payload)
    except ValueError:
        return "report is not JSON"
    if report.get("passed") is not True:
        return "report does not say passed"
    if report.get("command") != f"{argv[0]} {argv[1]}":
        return f"report is for {report.get('command')!r}"
    opt = flags(argv)
    n, f = opt.get("n", 3), opt.get("f", 1)
    sub = (argv[0], argv[1])
    try:
        checks = {c["name"]: c["detail"] for c in report["checks"]}
        if sub == ("alcoves", "special"):
            d = checks["special_alcove_count"]
            want = 1 - Fraction(n - 2, n - 1) ** f
            if Fraction(d["proportion"]) != want or Fraction(d["count"], d["total"]) != want:
                return f"special proportion {d['proportion']} (count {d['count']}/{d['total']}), expected {want}"
        elif sub == ("alcoves", "enumerate"):
            got = checks["restricted_alcove_count"]["count"]
            if got != math.factorial(n - 1):
                return f"restricted alcove count {got}, expected {math.factorial(n - 1)}"
        elif sub == ("shapes", "classify"):
            got = checks["admissible_classification"]["sizes"]["extremal"]
            if got != math.factorial(n) ** f:
                return f"extremal count {got}, expected {math.factorial(n) ** f}"
        elif sub == ("witness", "triple"):
            chars = [tuple(c) for c in checks["witness_family_distinct_characters"]["characters"]]
            if len(chars) != FAMILY_COUNT or len(set(chars)) != FAMILY_COUNT:
                return f"family has {len(set(chars))} distinct characters among {len(chars)}, expected {FAMILY_COUNT}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks the expected answer ({exc!r})"
    return None


def distinct_characters(payload: bytes) -> int:
    """Distinct characters of the witness family in a `witness triple` report."""
    chars = json.loads(payload)["checks"]
    fam = next(c for c in chars if c["name"] == "witness_family_distinct_characters")
    return len({tuple(c) for c in fam["detail"]["characters"]})
