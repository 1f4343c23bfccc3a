#!/usr/bin/env python3
"""Validate litmus-axiom JSON reports against the schema.

Usage: validate_axiom.py [--require-clean] REPORT.json [REPORT2.json ...]

Parses each report with the stdlib json module and validates it
against tools/axiom_schema.json, reusing the same dependency-free
JSON-Schema subset as validate_trace.py (type, required, properties,
enum, items, minimum).

Beyond the schema, enforces the cross-field rules the axiomatic
checker guarantees but vanilla JSON Schema cannot express here:

  * summary verdict counts (race_free/scope_race/data_race) match the
    per-cell verdicts and sum to summary.cells == len(cells);
  * summary cross-check counts match the per-cell cross_check blocks,
    and all_ok is true exactly when every cell is oracle-clean and
    every performed cross-check passed;
  * verdict consistency per cell: "race-free" iff no race pairs of
    either kind; "data-race" iff data_race_pairs > 0 (a data race
    outranks a scope race); racy_executions is positive iff any race
    pairs exist, and never exceeds executions;
  * the model name matches the config column: HRF configs (GH, DH)
    carry "hrf-scoped", DD+SE carries "sc-drf-engine", the remaining
    DRF configs carry "sc-drf";
  * outcomes are sorted by outcome string (the deterministic order
    reports are diffed under), and a cell with a disallowed outcome
    must have oracle_ok false;
  * a cross_check block with diffs must have ok false, and vice
    versa a checked, diff-free block must have ok true.

With --require-clean, additionally fails any report whose all_ok is
not true or whose cells were not all cross-checked -- the mode CI
runs, where a static-only pass must not stand in for the proven
three-way agreement.

Exits 0 if every file validates, 1 otherwise.
"""

import os
import sys

from validate_trace import run

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "axiom_schema.json")

MODEL_FOR_CONFIG = {
    "GD": "sc-drf",
    "DD": "sc-drf",
    "DD+RO": "sc-drf",
    "DD+PR": "sc-drf",
    "DD+SE": "sc-drf-engine",
    "GH": "hrf-scoped",
    "DH": "hrf-scoped",
}


def check_cell_rules(i, cell, errors):
    path = f"$.cells[{i}]"
    verdict = cell.get("verdict")
    data_pairs = cell.get("data_race_pairs", 0)
    scope_pairs = cell.get("scope_race_pairs", 0)
    racy = cell.get("racy_executions", 0)
    executions = cell.get("executions", 0)

    if isinstance(data_pairs, int) and isinstance(scope_pairs, int):
        if verdict == "race-free" and data_pairs + scope_pairs > 0:
            errors.append(
                f"{path}: verdict 'race-free' with "
                f"{data_pairs + scope_pairs} race pair(s)")
        if verdict == "data-race" and data_pairs == 0:
            errors.append(
                f"{path}: verdict 'data-race' with no data race "
                f"pairs")
        if verdict == "scope-race" and \
                (scope_pairs == 0 or data_pairs > 0):
            errors.append(
                f"{path}: verdict 'scope-race' needs scope pairs "
                f"and no data pairs (got {scope_pairs}/{data_pairs})")
        if isinstance(racy, int):
            if (racy > 0) != (data_pairs + scope_pairs > 0):
                errors.append(
                    f"{path}: {racy} racy execution(s) inconsistent "
                    f"with {data_pairs + scope_pairs} race pair(s)")
    if isinstance(racy, int) and isinstance(executions, int) and \
            racy > executions:
        errors.append(
            f"{path}: racy_executions {racy} > executions "
            f"{executions}")

    config = cell.get("config")
    model = cell.get("model")
    expected = MODEL_FOR_CONFIG.get(config)
    if expected is not None and isinstance(model, str) and \
            model != expected:
        errors.append(
            f"{path}: config {config!r} must carry model "
            f"{expected!r}, got {model!r}")

    outcomes = cell.get("outcomes", [])
    oracle_ok = cell.get("oracle_ok")
    if isinstance(outcomes, list):
        last = None
        any_disallowed = False
        for j, entry in enumerate(outcomes):
            if not isinstance(entry, dict):
                continue
            name = entry.get("outcome")
            if isinstance(name, str):
                if last is not None and name <= last:
                    errors.append(
                        f"{path}.outcomes[{j}]: {name!r} out of "
                        f"sorted order after {last!r}")
                last = name
            if entry.get("allowed") is False:
                any_disallowed = True
        if any_disallowed and oracle_ok is True:
            errors.append(
                f"{path}: disallowed outcome but oracle_ok=true")

    cross = cell.get("cross_check")
    if isinstance(cross, dict):
        diffs = cross.get("diffs")
        ok = cross.get("ok")
        checked = cross.get("checked")
        if isinstance(diffs, list):
            if diffs and ok is True:
                errors.append(
                    f"{path}.cross_check: ok=true with "
                    f"{len(diffs)} diff(s)")
            if checked is True and not diffs and ok is False:
                errors.append(
                    f"{path}.cross_check: checked and diff-free "
                    f"but ok=false")


def check_axiom_rules(report, errors):
    """Cross-field rules the schema subset cannot express."""
    summary = report.get("summary")
    cells = report.get("cells")
    if not isinstance(summary, dict) or not isinstance(cells, list):
        return

    counts = {"race-free": 0, "scope-race": 0, "data-race": 0}
    checked = 0
    check_failed = 0
    all_ok = True
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            continue
        verdict = cell.get("verdict")
        if verdict in counts:
            counts[verdict] += 1
        cross = cell.get("cross_check")
        if isinstance(cross, dict):
            if cross.get("checked") is True:
                checked += 1
            if cross.get("ok") is not True:
                check_failed += 1
                if cross.get("checked") is True:
                    all_ok = False
        if cell.get("oracle_ok") is not True:
            all_ok = False
        check_cell_rules(i, cell, errors)

    declared = summary.get("cells")
    if isinstance(declared, int) and declared != len(cells):
        errors.append(
            f"$.summary.cells {declared} != {len(cells)} cell "
            f"records")
    for field, key in (("race_free", "race-free"),
                       ("scope_race", "scope-race"),
                       ("data_race", "data-race")):
        value = summary.get(field)
        if isinstance(value, int) and value != counts[key]:
            errors.append(
                f"$.summary.{field} {value} != {counts[key]} cells "
                f"with verdict {key!r}")
    declared_checked = summary.get("cross_checked")
    if isinstance(declared_checked, int) and \
            declared_checked != checked:
        errors.append(
            f"$.summary.cross_checked {declared_checked} != "
            f"{checked} checked cells")
    # The emitter counts a not-performed cross-check as not failed;
    # only compare when every cell was actually checked.
    declared_failed = summary.get("cross_check_failed")
    if checked == len(cells) and \
            isinstance(declared_failed, int) and \
            declared_failed != check_failed:
        errors.append(
            f"$.summary.cross_check_failed {declared_failed} != "
            f"{check_failed} failing cross-checks")
    declared_all_ok = summary.get("all_ok")
    # all_ok also requires every *attempted* cross-check slot to be
    # coherent; the recomputation here is a lower bound, so only a
    # true claim contradicted by the cells is an error.
    if declared_all_ok is True and not all_ok:
        errors.append(
            "$.summary.all_ok=true but a cell has oracle_ok=false "
            "or a failed cross-check")


def require_clean(report, errors):
    """--require-clean: all_ok, and every cell cross-checked."""
    summary = report.get("summary", {})
    if summary.get("all_ok") is not True:
        errors.append(
            "$.summary: all_ok is not true but --require-clean "
            "was given")
    cells = summary.get("cells")
    checked = summary.get("cross_checked")
    if isinstance(cells, int) and isinstance(checked, int) and \
            checked != cells:
        errors.append(
            f"$.summary: only {checked}/{cells} cells "
            f"cross-checked but --require-clean demands the "
            f"proven three-way agreement")


def ok_line(report):
    summary = report.get("summary", {})
    return (f"{summary.get('cells', 0)} cells"
            f" ({summary.get('race_free', 0)} race-free,"
            f" {summary.get('scope_race', 0)} scope-race,"
            f" {summary.get('data_race', 0)} data-race,"
            f" {summary.get('cross_checked', 0)} cross-checked)")


def main(argv):
    return run(argv, __doc__, SCHEMA_PATH, check_axiom_rules, ok_line,
               "--require-clean", require_clean)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
