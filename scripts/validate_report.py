#!/usr/bin/env python3
"""Validates the machine-readable outputs of an instrumented run.

Usage: scripts/validate_report.py METRICS.json [--trace TRACE.json]

Checks three things, stdlib only (CI runs this with no third-party deps):

1. Shape: METRICS.json matches scripts/report_schema.json (the checked-in
   contract for schema "cni-run-report"; see src/obs/report.cpp).
2. Consistency: per point, the "totals" section equals the per-name sum of
   the node counters it claims to aggregate.
3. Legacy parity: every account in the "legacy" section has a matching
   entry in "totals" with the exact same value. A node's counters are its
   sim::NodeStats fields, and the writer prints "legacy" and "totals" from
   one sum of them, so the two sections agree by construction; schema v2
   keeps both, and the next version bump can drop "legacy" and this check.

With --trace, also validates the Chrome trace_event JSON emitted via
--trace-out= (envelope, event phases, span durations).

Exits non-zero and prints every violation on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parent / "report_schema.json"

PRIMITIVES = {
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # bool is a subclass of int in Python; reject it explicitly.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


class Checker:
    def __init__(self, types: dict):
        self.types = types
        self.errors: list[str] = []

    def fail(self, where: str, msg: str) -> None:
        self.errors.append(f"{where}: {msg}")

    def check(self, value, type_name: str, where: str) -> None:
        if type_name in PRIMITIVES:
            if not PRIMITIVES[type_name](value):
                self.fail(where, f"expected {type_name}, got {type(value).__name__}")
        elif type_name.startswith("object<"):
            inner = type_name[len("object<") : -1]
            if not isinstance(value, dict):
                self.fail(where, f"expected object, got {type(value).__name__}")
                return
            for k, v in value.items():
                self.check(v, inner, f"{where}.{k}")
        elif type_name.startswith("nullable<"):
            if value is not None:
                self.check(value, type_name[len("nullable<") : -1], where)
        elif type_name.startswith("array<"):
            inner = type_name[len("array<") : -1]
            if not isinstance(value, list):
                self.fail(where, f"expected array, got {type(value).__name__}")
                return
            for i, v in enumerate(value):
                self.check(v, inner, f"{where}[{i}]")
        elif type_name in self.types:
            spec = self.types[type_name]
            if not isinstance(value, dict):
                self.fail(where, f"expected {type_name} object, got {type(value).__name__}")
                return
            for k, t in spec["required"].items():
                if k not in value:
                    self.fail(where, f"missing required key '{k}'")
                else:
                    self.check(value[k], t, f"{where}.{k}")
            known = set(spec["required"]) | set(spec["optional"])
            for k in value:
                if k not in known:
                    self.fail(where, f"unknown key '{k}' (schema drift? bump report_schema.json)")
                elif k in spec["optional"]:
                    self.check(value[k], spec["optional"][k], f"{where}.{k}")
        else:
            self.fail(where, f"schema bug: unknown type '{type_name}'")


def validate_metrics(report: dict, schema: dict) -> list[str]:
    checker = Checker(schema["types"])
    checker.check(report, "report", "report")
    if checker.errors:
        return checker.errors  # deep checks below assume the shape holds

    errors = []
    if report["schema"] != schema["schema"]:
        errors.append(f"schema name '{report['schema']}' != '{schema['schema']}'")
    if report["version"] != schema["version"]:
        errors.append(f"report version {report['version']} != schema version {schema['version']}")

    for i, pt in enumerate(report["points"]):
        where = f"points[{i}] ({pt['label']!r})"

        # Totals must be exactly the per-name sum of the node counters.
        summed: dict[str, int] = {}
        for node in pt["nodes"]:
            for name, v in node["counters"].items():
                summed[name] = summed.get(name, 0) + v
        if summed != pt["totals"]:
            for name in sorted(set(summed) | set(pt["totals"])):
                a, b = summed.get(name), pt["totals"].get(name)
                if a != b:
                    errors.append(f"{where}: totals[{name}]={b} but node counters sum to {a}")

        # Legacy parity: the metrics layer mirrors every NodeStats account.
        for name, legacy_v in pt["legacy"].items():
            if name not in pt["totals"]:
                errors.append(f"{where}: legacy account '{name}' missing from totals")
            elif pt["totals"][name] != legacy_v:
                errors.append(
                    f"{where}: totals[{name}]={pt['totals'][name]} != legacy {legacy_v}"
                )

        # trace_truncated honesty: the per-point flag must match the per-node
        # drop counters, and the top-level flag must OR the points.
        dropped = any(node["trace"]["dropped"] > 0 for node in pt["nodes"])
        if pt["trace_truncated"] != dropped:
            errors.append(
                f"{where}: trace_truncated={pt['trace_truncated']} but node "
                f"rings report dropped={'>0' if dropped else '0'}"
            )

        # Critpath internal consistency: buckets must sum to attributed_ps and
        # cover the window (end - start == total).
        cp = pt["critpath"]
        if cp is not None:
            if cp["end_ps"] - cp["start_ps"] != cp["total_ps"]:
                errors.append(f"{where}: critpath total_ps != end_ps - start_ps")
            if sum(cp["stages"].values()) != cp["attributed_ps"]:
                errors.append(f"{where}: critpath stage buckets do not sum to attributed_ps")

    truncated = any(pt["trace_truncated"] for pt in report["points"])
    if report["trace_truncated"] != truncated:
        errors.append(
            f"report: trace_truncated={report['trace_truncated']} but points say {truncated}"
        )
    return errors


# Phases the report writer emits: metadata, spans (plain and causal) and
# instants. Anything else, a counter record included, is a violation.
TRACE_PHASES = {"M", "X", "i"}


def validate_trace(trace: dict) -> list[str]:
    errors = []
    for key in ("displayTimeUnit", "traceEvents", "otherData"):
        if key not in trace:
            errors.append(f"trace: missing top-level key '{key}'")
    if errors:
        return errors
    if trace["otherData"].get("schema") != "cni-chrome-trace":
        errors.append(f"trace: otherData.schema is {trace['otherData'].get('schema')!r}")
    for i, ev in enumerate(trace["traceEvents"]):
        where = f"traceEvents[{i}]"
        for key in ("ph", "pid", "name"):
            if key not in ev:
                errors.append(f"{where}: missing '{key}'")
        ph = ev.get("ph")
        if ph not in TRACE_PHASES:
            errors.append(f"{where}: unexpected phase {ph!r}")
        if ph in ("X", "i"):
            if "ts" not in ev or "tid" not in ev:
                errors.append(f"{where}: {ph} event needs 'ts' and 'tid'")
        if ph == "X" and "dur" not in ev:
            errors.append(f"{where}: span without 'dur'")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("metrics", help="run report JSON (from --metrics-out=)")
    ap.add_argument("--trace", help="Chrome trace JSON (from --trace-out=)")
    args = ap.parse_args()

    schema = json.loads(SCHEMA_PATH.read_text())
    report = json.loads(Path(args.metrics).read_text())
    errors = validate_metrics(report, schema)

    n_events = None
    if args.trace:
        trace = json.loads(Path(args.trace).read_text())
        errors += validate_trace(trace)
        n_events = len(trace.get("traceEvents", []))

    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    if errors:
        print(f"validate_report: {len(errors)} violation(s)", file=sys.stderr)
        return 1

    if report.get("trace_truncated"):
        dropped_points = [
            pt["label"] for pt in report["points"] if pt.get("trace_truncated")
        ]
        print("=" * 64, file=sys.stderr)
        print(
            "WARNING: TRACE TRUNCATED — a trace ring dropped records on "
            f"{len(dropped_points)} point(s):",
            file=sys.stderr,
        )
        for label in dropped_points:
            print(f"  - {label}", file=sys.stderr)
        print(
            "Causal chains and critpath attribution may be incomplete. "
            "Re-run with a larger --trace-capacity=.",
            file=sys.stderr,
        )
        print("=" * 64, file=sys.stderr)

    n_points = len(report["points"])
    n_accounts = len(report["points"][0]["legacy"]) if n_points else 0
    msg = (
        f"validate_report: OK — {n_points} point(s), "
        f"{n_accounts} legacy accounts all matched by totals"
    )
    if n_events is not None:
        msg += f", {n_events} trace events"
    print(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
