#!/usr/bin/env python3
"""Validate litmus-exploration JSON reports against the schema.

Usage: validate_explore.py [--require-pass] REPORT.json [REPORT2.json ...]

Parses each report with the stdlib json module and validates it
against tools/explore_schema.json, reusing the same dependency-free
JSON-Schema subset as validate_trace.py (type, required, properties,
enum, items, minimum).

Beyond the schema, enforces the cross-field rules the explorer
guarantees but vanilla JSON Schema cannot express here:

  * summary verdict counts (passed/failed/budget_exhausted) match the
    per-cell verdicts and sum to summary.cells == len(cells);
  * summary.schedules_explored is the sum over cells;
  * all_pass is true exactly when every cell's verdict is "pass";
  * verdict consistency per cell: "fail" iff violations_total > 0;
    a violation-free cell with frontier_remaining > 0 must carry
    "budget-exhausted" (coverage gaps are never silent); "pass"
    requires an empty frontier and no violations;
  * violations carries at most violations_total entries (the array is
    capped, the counter is not);
  * outcome counts are >= 1, sum to at most schedules_explored, and
    outcomes are sorted by outcome string -- the deterministic order
    that makes --jobs=N reports byte-identical to serial;
  * race-expectation coherence on "pass" cells: a cell expecting a
    scope race has no clean schedule, a cell expecting none has no
    racy schedule, and clean + racy == schedules_explored.

With --require-pass, additionally fails any report whose all_pass is
not true -- the mode CI runs, where a budget-exhausted exploration
must not slip through as success.

Exits 0 if every file validates, 1 otherwise.
"""

import os
import sys

from validate_trace import run

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "explore_schema.json")


def check_cell_rules(i, cell, errors):
    path = f"$.cells[{i}]"
    verdict = cell.get("verdict")
    violations_total = cell.get("violations_total", 0)
    violations = cell.get("violations", [])
    frontier = cell.get("frontier_remaining", 0)
    explored = cell.get("schedules_explored", 0)

    if isinstance(violations, list) and \
            isinstance(violations_total, int) and \
            len(violations) > violations_total:
        errors.append(
            f"{path}: {len(violations)} violation strings but "
            f"violations_total={violations_total}")

    if verdict == "fail" and violations_total == 0:
        errors.append(f"{path}: verdict 'fail' with no violations")
    if verdict != "fail" and violations_total > 0:
        errors.append(
            f"{path}: {violations_total} violation(s) but verdict "
            f"{verdict!r}")
    if verdict == "pass" and frontier > 0:
        errors.append(
            f"{path}: verdict 'pass' with {frontier} frontier "
            f"schedule(s) unexplored")
    if verdict == "budget-exhausted" and violations_total > 0:
        errors.append(
            f"{path}: verdict 'budget-exhausted' must yield to "
            f"'fail' when violations exist")

    outcomes = cell.get("outcomes", [])
    if isinstance(outcomes, list):
        total = 0
        last = None
        for j, entry in enumerate(outcomes):
            if not isinstance(entry, dict):
                continue
            total += entry.get("count", 0)
            name = entry.get("outcome")
            if isinstance(name, str):
                if last is not None and name <= last:
                    errors.append(
                        f"{path}.outcomes[{j}]: {name!r} out of "
                        f"sorted order after {last!r}")
                last = name
            if not entry.get("allowed") and verdict != "fail":
                errors.append(
                    f"{path}.outcomes[{j}]: disallowed outcome "
                    f"{name!r} but verdict {verdict!r}")
        if isinstance(explored, int) and total > explored:
            errors.append(
                f"{path}: outcome counts sum to {total} > "
                f"{explored} schedules explored")

    clean = cell.get("clean_schedules")
    racy = cell.get("racy_schedules")
    expect = cell.get("expect_scope_race")
    if verdict == "pass" and isinstance(clean, int) and \
            isinstance(racy, int) and isinstance(explored, int):
        if clean + racy != explored:
            errors.append(
                f"{path}: clean {clean} + racy {racy} != explored "
                f"{explored} on a passing cell")
        if expect is True and clean != 0:
            errors.append(
                f"{path}: expects a scope race but {clean} clean "
                f"schedule(s) passed")
        if expect is False and racy != 0:
            errors.append(
                f"{path}: expects no race but {racy} racy "
                f"schedule(s) passed")


def check_explore_rules(report, errors):
    """Cross-field rules the schema subset cannot express."""
    summary = report.get("summary")
    cells = report.get("cells")
    if not isinstance(summary, dict) or not isinstance(cells, list):
        return

    counts = {"pass": 0, "fail": 0, "budget-exhausted": 0}
    explored_sum = 0
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            continue
        verdict = cell.get("verdict")
        if verdict in counts:
            counts[verdict] += 1
        explored = cell.get("schedules_explored")
        if isinstance(explored, int):
            explored_sum += explored
        check_cell_rules(i, cell, errors)

    declared = summary.get("cells")
    if isinstance(declared, int) and declared != len(cells):
        errors.append(
            f"$.summary.cells {declared} != {len(cells)} cell "
            f"records")
    for field, key in (("passed", "pass"), ("failed", "fail"),
                       ("budget_exhausted", "budget-exhausted")):
        value = summary.get(field)
        if isinstance(value, int) and value != counts[key]:
            errors.append(
                f"$.summary.{field} {value} != {counts[key]} cells "
                f"with verdict {key!r}")
    total = summary.get("schedules_explored")
    if isinstance(total, int) and total != explored_sum:
        errors.append(
            f"$.summary.schedules_explored {total} != per-cell sum "
            f"{explored_sum}")
    all_pass = summary.get("all_pass")
    if isinstance(all_pass, bool) and \
            all_pass != (counts["pass"] == len(cells)):
        errors.append(
            f"$.summary.all_pass={all_pass} inconsistent with "
            f"{counts['pass']}/{len(cells)} passing cells")


def require_pass(report, errors):
    """--require-pass: every cell passed."""
    if report.get("summary", {}).get("all_pass") is not True:
        errors.append(
            "$.summary: all_pass is not true but --require-pass was "
            "given (a budget-exhausted exploration is not a pass)")


def ok_line(report):
    summary = report.get("summary", {})
    return (f"{summary.get('cells', 0)} cells,"
            f" {summary.get('schedules_explored', 0)} schedules"
            f" ({summary.get('passed', 0)} pass,"
            f" {summary.get('failed', 0)} fail,"
            f" {summary.get('budget_exhausted', 0)} budget-exhausted)")


def main(argv):
    return run(argv, __doc__, SCHEMA_PATH, check_explore_rules, ok_line,
               "--require-pass", require_pass)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
