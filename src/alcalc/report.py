"""
Run reports: a versioned, canonically-serialized record of checks with
pass/fail flags and minimal counterexamples.

Serialized bytes are a pure function of (schema_version, config, seed):
a report carries no wall-clock timing.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

SCHEMA_VERSION = "2"


@dataclass
class Check:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)
    counterexample: dict | None = None

    def to_json(self):
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if not self.passed:
            out["counterexample"] = self.counterexample or {}
        return out


@dataclass
class Report:
    command: str
    config: dict
    checks: list[Check] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    def add(self, name: str, passed: bool, detail: dict | None = None, counterexample: dict | None = None) -> None:
        self.checks.append(Check(name, bool(passed), detail or {}, counterexample))

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def exit_code(self) -> int:
        return 0 if self.all_passed() else 2

    def to_json(self):
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": self.config,
            "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.name)],
            "passed": self.all_passed(),
        }


def emit_report(report: Report, format: str = "json") -> bytes:
    """Byte-stable serialization.  Formats: "json" or "csv-summary"."""
    if format == "json":
        text = json.dumps(report.to_json(), sort_keys=True, indent=1)
        return (text + "\n").encode("utf-8")
    if format == "csv-summary":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(["check", "passed", "detail"])
        for c in sorted(report.checks, key=lambda c: c.name):
            writer.writerow([c.name, "pass" if c.passed else "fail", json.dumps(c.detail, sort_keys=True)])
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format: {format}")
