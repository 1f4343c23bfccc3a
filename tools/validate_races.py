#!/usr/bin/env python3
"""Validate race-detector JSON reports against the checked-in schema.

Usage: validate_races.py [--require-clean] RACES.json [RACES2.json ...]

Parses each report with the stdlib json module and validates it
against tools/race_schema.json, reusing the same dependency-free
JSON-Schema subset as validate_trace.py (type, required, properties,
enum, items, minimum).

Beyond the schema, enforces the cross-field rules the race detector
guarantees but vanilla JSON Schema cannot express here:

  * races_detected == len(races) + records_dropped (every unique
    racing pair is either carried in full or counted as dropped);
  * races_suppressed == number of races with "suppressed": true, and
    every suppressed race carries a non-empty suppress_reason;
  * races are sorted by (second.tick, addr) — the deterministic order
    that makes --race-check --jobs=N reports identical to serial;
  * truncated is true exactly when records_dropped > 0;
  * addr parses as hexadecimal ("0x...").

With --require-clean, additionally fails any report whose unsuppressed
race count (races_detected - races_suppressed) is non-zero — the mode
CI runs against the paper workloads, which must all be race-free —
and any truncated report: dropped records were never classified, so a
truncated report cannot prove cleanliness (more unique races than
the detector's record cap, RaceDetector::kMaxRecords = 128).

Exits 0 if every file validates, 1 otherwise.
"""

import os
import sys

from validate_trace import run

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "race_schema.json")


def check_race_rules(report, errors):
    """Cross-field rules the schema subset cannot express."""
    summary = report.get("summary")
    races = report.get("races")
    if not isinstance(summary, dict) or not isinstance(races, list):
        return

    detected = summary.get("races_detected")
    dropped = summary.get("records_dropped", 0)
    if isinstance(detected, int) and isinstance(dropped, int):
        if detected != len(races) + dropped:
            errors.append(
                f"$.summary: races_detected {detected} != "
                f"{len(races)} records + {dropped} dropped")

    truncated = summary.get("truncated")
    if isinstance(dropped, int) and isinstance(truncated, bool):
        if truncated != (dropped > 0):
            errors.append(
                f"$.summary: truncated={truncated} inconsistent with "
                f"records_dropped={dropped}")

    suppressed = sum(1 for r in races
                     if isinstance(r, dict) and r.get("suppressed"))
    declared = summary.get("races_suppressed")
    if isinstance(declared, int) and declared != suppressed:
        errors.append(
            f"$.summary: races_suppressed {declared} but "
            f"{suppressed} races carry suppressed=true")

    last_key = None
    for i, race in enumerate(races):
        if not isinstance(race, dict):
            continue
        path = f"$.races[{i}]"
        if race.get("suppressed") and not race.get("suppress_reason"):
            errors.append(f"{path}: suppressed without a reason")
        addr = race.get("addr")
        addr_val = None
        if isinstance(addr, str):
            try:
                addr_val = int(addr, 16)
            except ValueError:
                errors.append(f"{path}.addr: {addr!r} not hex")
        second = race.get("second")
        tick = second.get("tick") if isinstance(second, dict) else None
        if isinstance(tick, int) and addr_val is not None:
            key = (tick, addr_val)
            if last_key is not None and key < last_key:
                errors.append(
                    f"{path}: out of (tick, addr) order "
                    f"{key} after {last_key}")
            last_key = key


def require_clean(report, errors):
    """--require-clean: no unsuppressed race, and no truncation."""
    summary = report.get("summary", {})
    detected = summary.get("races_detected", 0)
    suppressed = summary.get("races_suppressed", 0)
    if isinstance(detected, int) and isinstance(suppressed, int) and \
            detected - suppressed > 0:
        errors.append(
            f"$.summary: {detected - suppressed} unsuppressed race(s)"
            f" but --require-clean was given")
    if summary.get("truncated"):
        # A truncated report cannot prove cleanliness: the dropped
        # records were never classified or suppressed.
        errors.append(
            "$.summary: report truncated (records dropped past the "
            "cap) but --require-clean was given")


def ok_line(report):
    summary = report.get("summary", {})
    return (f"{summary.get('data_accesses', 0)} accesses,"
            f" {summary.get('hb_edges', 0)} HB edges,"
            f" {summary.get('races_detected', 0)} race(s)"
            f" ({summary.get('races_suppressed', 0)} suppressed)")


def main(argv):
    return run(argv, __doc__, SCHEMA_PATH, check_race_rules, ok_line,
               "--require-clean", require_clean)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
