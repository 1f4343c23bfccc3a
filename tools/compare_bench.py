#!/usr/bin/env python3
"""Compare BENCH_*.json sweep records against a checked-in baseline.

Usage:
    compare_bench.py [options] BASELINE CURRENT [BASELINE CURRENT]...

Each (BASELINE, CURRENT) pair is matched cell by cell on
(workload, config, scale_percent). Simulated metrics are gated:

  * cycles     -- exact by default (the simulator is deterministic,
                  so any drift is a real behavior change), or within
                  --rel-tol-cycles if nonzero.
  * energy/traffic totals -- same tolerance as cycles.

Host-side timings (host_ms, events_per_sec, wall_ms) are reported but
never gated by default: CI machines vary, so wall-clock comparisons
across runs are noise. Opt in with --check-host to flag cells whose
host_ms regressed by more than --rel-tol-host (useful only when both
records came from the same machine).

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


def cell_key(cell):
    return (cell["workload"], cell["config"], cell.get("scale_percent"))


def key_str(key):
    return "%s/%s@%s%%" % key


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


def index_cells(record, path):
    cells = {}
    for cell in record["cells"]:
        key = cell_key(cell)
        if key in cells:
            sys.exit("error: %s has duplicate cell %s"
                     % (path, key_str(key)))
        cells[key] = cell
    return cells


def within(baseline, current, rel_tol):
    if baseline == current:
        return True
    if rel_tol <= 0:
        return False
    scale = max(abs(baseline), abs(current), 1e-12)
    return abs(current - baseline) <= rel_tol * scale


def compare_pair(base_path, cur_path, args):
    base = index_cells(load_record(base_path), base_path)
    cur = index_cells(load_record(cur_path), cur_path)
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
            if not within(b, c, args.rel_tol_cycles):
                failures.append(
                    "%s: %s %s changed %s -> %s (tol %.3g)"
                    % (label, key_str(key), metric, b, c,
                       args.rel_tol_cycles))
        if args.check_host:
            b = base_cell.get("host_ms")
            c = cur_cell.get("host_ms")
            if b and c and c > b * (1.0 + args.rel_tol_host):
                failures.append(
                    "%s: %s host_ms regressed %.1f -> %.1f "
                    "(>%.0f%% tolerance)"
                    % (label, key_str(key), b, c,
                       args.rel_tol_host * 100.0))

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
    parser.add_argument("--rel-tol-cycles", type=float, default=0.0,
                        help="relative tolerance for simulated metrics"
                             " (default 0: exact, the simulator is"
                             " deterministic)")
    parser.add_argument("--check-host", action="store_true",
                        help="also gate host_ms (same-machine records"
                             " only)")
    parser.add_argument("--rel-tol-host", type=float, default=0.25,
                        help="relative host_ms tolerance with"
                             " --check-host (default 0.25)")
    args = parser.parse_args(argv)

    if len(args.pairs) % 2 != 0:
        parser.error("expected BASELINE CURRENT pairs, got an odd "
                     "number of paths")

    failures = []
    for i in range(0, len(args.pairs), 2):
        failures += compare_pair(args.pairs[i], args.pairs[i + 1],
                                 args)

    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if failures:
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
