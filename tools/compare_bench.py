#!/usr/bin/env python3
"""Compare BENCH_*.json sweep records against a checked-in baseline.

Usage:
    compare_bench.py BASELINE CURRENT [BASELINE CURRENT]...

Each (BASELINE, CURRENT) pair is matched cell by cell: on the cell
line (the "cell" member, e.g. "LAVA GD scale=20 sb=32") when every
cell of both records carries one, else on (workload, config,
scale_percent), which is how records written before cell lines
match. The simulated metrics -- cycles,
energy_total and traffic_total -- must match exactly: the simulator
is deterministic, so any drift is a real behavior change. Host-side
timings (host_ms, events_per_sec) are never compared; they vary from
run to run.

Every baseline cell must be present in the current record, and every
current cell must pass its functional checks (ok == true). Cells new
in the current record are listed but don't fail the gate.

Exit status: 0 all gates pass, 1 regression/mismatch, 2 usage error.
Standard library only.
"""

import argparse
import json
import sys

SIM_METRICS = ("cycles", "energy_total", "traffic_total")


def cell_key(cell, by_line):
    if by_line:
        return cell["cell"]
    return (cell["workload"], cell["config"], cell.get("scale_percent"))


def key_str(key):
    return key if isinstance(key, str) else "%s/%s@%s%%" % key


def load_record(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as err:
        sys.exit("error: cannot read %s: %s" % (path, err))
    if "cells" not in record:
        sys.exit("error: %s is not a BENCH sweep record (no cells)"
                 % path)
    return record


def index_cells(record, path, by_line):
    cells = {}
    for cell in record["cells"]:
        key = cell_key(cell, by_line)
        if key in cells:
            sys.exit("error: %s has duplicate cell %s"
                     % (path, key_str(key)))
        cells[key] = cell
    return cells


def compare_pair(base_path, cur_path):
    base_record = load_record(base_path)
    cur_record = load_record(cur_path)
    by_line = all("cell" in cell for cell in
                  base_record["cells"] + cur_record["cells"])
    base = index_cells(base_record, base_path, by_line)
    cur = index_cells(cur_record, cur_path, by_line)
    label = "%s vs %s" % (base_path, cur_path)
    failures = []

    for key, cur_cell in sorted(cur.items()):
        if not cur_cell.get("ok", False):
            failures.append("%s: %s failed its functional checks"
                            % (label, key_str(key)))

    for key, base_cell in sorted(base.items()):
        cur_cell = cur.get(key)
        if cur_cell is None:
            failures.append("%s: cell %s missing from current record"
                            % (label, key_str(key)))
            continue
        for metric in SIM_METRICS:
            b, c = base_cell.get(metric), cur_cell.get(metric)
            if b is None or c is None:
                continue
            if b != c:
                failures.append("%s: %s %s changed %s -> %s"
                                % (label, key_str(key), metric, b, c))

    new_cells = sorted(set(cur) - set(base))
    for key in new_cells:
        print("note: %s: new cell %s (not in baseline)"
              % (label, key_str(key)))
    matched = len(set(base) & set(cur))
    print("%s: %d cells matched, %d new, %d failures"
          % (label, matched, len(new_cells), len(failures)))
    return failures


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("pairs", nargs="+", metavar="JSON",
                        help="alternating BASELINE CURRENT paths")
    args = parser.parse_args(argv)

    if len(args.pairs) % 2 != 0:
        parser.error("expected BASELINE CURRENT pairs, got an odd "
                     "number of paths")

    failures = []
    for i in range(0, len(args.pairs), 2):
        failures += compare_pair(args.pairs[i], args.pairs[i + 1])

    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if failures:
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
