#!/usr/bin/env python3
"""Unit tests for the stdlib-only JSON report validators in tools/.

Each validator (validate_trace, validate_races, validate_explore,
validate_axiom) is exercised on canonical good fixture documents and
on targeted mutations of them: every mutation breaks exactly one
schema or cross-field rule, and the test asserts both the failing
exit code and that the diagnostic names the broken rule. The good
fixtures are built in code so the tests document the minimal valid
shape of each report. compare_bench, the exact gate on BENCH sweep
records, is exercised the same way against a copy of its baseline.

Run directly (python3 tests/tools/test_validators.py) or via ctest /
CI as the tools_validators test.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "tools")
sys.path.insert(0, TOOLS_DIR)

import compare_bench     # noqa: E402
import validate_axiom    # noqa: E402
import validate_explore  # noqa: E402
import validate_races    # noqa: E402
import validate_trace    # noqa: E402


GOOD_TRACE = {
    "displayTimeUnit": "ns",
    "otherData": {
        "tool": "nosync-sim",
        "time_unit": "cycle",
        "events_recorded": 2,
        "events_dropped": 0,
        "txns_dropped": 0,
    },
    "traceEvents": [
        {"name": "tb0 load", "ph": "X", "ts": 5, "dur": 12,
         "pid": 0, "tid": 0, "args": {"addr": 64, "txn": 1}},
        {"name": "l2 perform", "ph": "i", "ts": 7, "s": "p",
         "pid": 0, "tid": 0, "args": {"addr": 64, "txn": 1}},
        {"name": "l1 fill", "ph": "i", "ts": 9, "s": "p",
         "pid": 0, "tid": 0, "args": {"addr": 64, "txn": 1}},
    ],
}

GOOD_RACES = {
    "schema_version": 1,
    "workload": "misscoped",
    "config": "GH",
    "summary": {
        "data_accesses": 10,
        "sync_performs": 2,
        "hb_edges": 1,
        "words_tracked": 2,
        "races_detected": 1,
        "races_suppressed": 1,
        "records_dropped": 0,
        "truncated": False,
    },
    "races": [
        {
            "kind": "scope",
            "addr": "0x1000",
            "suppressed": True,
            "suppress_reason": "expected by litmus oracle",
            "first": {"kernel": 0, "tb": 0, "cu": 0, "tick": 10,
                      "access": "store", "sync": False},
            "second": {"kernel": 0, "tb": 1, "cu": 1, "tick": 90,
                       "access": "load", "sync": False},
        },
    ],
}

GOOD_EXPLORE = {
    "schema_version": 1,
    "harness": "litmus_explore",
    "budget": {
        "max_schedules": 4096,
        "max_cycles_per_schedule": 2000000,
        "deliver_depth": 1,
        "dpor": True,
    },
    "summary": {
        "cells": 1,
        "passed": 1,
        "failed": 0,
        "budget_exhausted": 0,
        "schedules_explored": 3,
        "all_pass": True,
    },
    "cells": [
        {
            "program": "mp",
            "config": "GD",
            "verdict": "pass",
            "expect_scope_race": False,
            "schedules_explored": 3,
            "schedules_pruned": 1,
            "frontier_remaining": 0,
            "choice_points": 6,
            "max_depth": 2,
            "clean_schedules": 3,
            "racy_schedules": 0,
            "outcomes": [
                {"outcome": "f=0", "count": 2, "allowed": True},
                {"outcome": "f=1 d=41", "count": 1, "allowed": True},
            ],
            "violations": [],
            "violations_total": 0,
        },
    ],
}

GOOD_AXIOM = {
    "schema_version": 1,
    "harness": "litmus_axiom",
    "summary": {
        "cells": 2,
        "race_free": 1,
        "scope_race": 1,
        "data_race": 0,
        "cross_checked": 2,
        "cross_check_failed": 0,
        "all_ok": True,
    },
    "cells": [
        {
            "program": "mp",
            "config": "GD",
            "model": "sc-drf",
            "verdict": "race-free",
            "oracle_ok": True,
            "interleavings": 3,
            "executions": 3,
            "rf_pruned": 2,
            "racy_executions": 0,
            "data_race_pairs": 0,
            "scope_race_pairs": 0,
            "outcomes": [
                {"outcome": "f=0", "allowed": True},
                {"outcome": "f=1 d=41", "allowed": True},
            ],
            "races": [],
            "cross_check": {"checked": True, "ok": True, "diffs": []},
        },
        {
            "program": "misscoped",
            "config": "GH",
            "model": "hrf-scoped",
            "verdict": "scope-race",
            "oracle_ok": True,
            "interleavings": 1,
            "executions": 1,
            "rf_pruned": 0,
            "racy_executions": 1,
            "data_race_pairs": 0,
            "scope_race_pairs": 1,
            "outcomes": [{"outcome": "f=0 d=0", "allowed": True}],
            "races": ["scope race on data: t0 write vs t1 load"],
            "cross_check": {"checked": True, "ok": True, "diffs": []},
        },
    ],
}

GOOD_BENCH = {
    "harness": "scale_sweep/4x4",
    "cells": [
        {"workload": "FAM_G", "config": "GD", "scale_percent": 10,
         "cycles": 642854, "energy_total": 220517817,
         "traffic_total": 1891798, "host_ms": 280.9, "ok": True},
        {"workload": "FAM_G", "config": "DD", "scale_percent": 10,
         "cycles": 608274, "energy_total": 145612964,
         "traffic_total": 226871, "host_ms": 98.2, "ok": True},
    ],
}


class ValidatorCase(unittest.TestCase):
    """Shared machinery: write a fixture, run a validator's main()."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def write(self, doc, name="report.json"):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_validator(self, module, doc, flags=()):
        path = self.write(doc)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = module.main(["prog", *flags, path])
        return code, out.getvalue()

    def assert_ok(self, module, doc, flags=()):
        code, out = self.run_validator(module, doc, flags)
        self.assertEqual(code, 0, f"expected OK, got:\n{out}")

    def assert_fail(self, module, doc, needle, flags=()):
        code, out = self.run_validator(module, doc, flags)
        self.assertEqual(code, 1, f"expected FAIL, got:\n{out}")
        self.assertIn(needle, out)


class TestValidateTrace(ValidatorCase):
    def test_good(self):
        self.assert_ok(validate_trace, GOOD_TRACE)

    def test_rejects_malformed_json(self):
        path = os.path.join(self._tmp.name, "bad.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = validate_trace.main(["prog", path])
        self.assertEqual(code, 1)

    def test_rejects_missing_required_key(self):
        doc = copy.deepcopy(GOOD_TRACE)
        del doc["otherData"]["tool"]
        self.assert_fail(validate_trace, doc, "tool")

    def test_rejects_duration_without_dur(self):
        doc = copy.deepcopy(GOOD_TRACE)
        del doc["traceEvents"][0]["dur"]
        self.assert_fail(validate_trace, doc, "dur")

    def test_rejects_instant_without_scope(self):
        doc = copy.deepcopy(GOOD_TRACE)
        del doc["traceEvents"][1]["s"]
        self.assert_fail(validate_trace, doc, "missing 's'")

    def test_rejects_unsorted_instants(self):
        doc = copy.deepcopy(GOOD_TRACE)
        doc["traceEvents"][1]["ts"] = 99
        self.assert_fail(validate_trace, doc, "out of order")

    def test_rejects_event_count_mismatch(self):
        doc = copy.deepcopy(GOOD_TRACE)
        doc["otherData"]["events_recorded"] = 7
        self.assert_fail(validate_trace, doc, "retained")

    def test_error_names_full_path(self):
        # Paths are rendered only for errors, but in full.
        doc = copy.deepcopy(GOOD_TRACE)
        doc["traceEvents"][2]["args"]["addr"] = "x"
        self.assert_fail(validate_trace, doc,
                         "$.traceEvents[2].args.addr: expected integer,"
                         " got str")
        doc = copy.deepcopy(GOOD_TRACE)
        del doc["traceEvents"][1]["pid"]
        self.assert_fail(validate_trace, doc,
                         "$.traceEvents[1]: missing required key 'pid'")
        doc = copy.deepcopy(GOOD_TRACE)
        doc["otherData"]["events_dropped"] = True
        self.assert_fail(validate_trace, doc,
                         "$.otherData.events_dropped: expected integer,"
                         " got boolean")
        doc = copy.deepcopy(GOOD_TRACE)
        doc["traceEvents"][0]["ts"] = -1
        self.assert_fail(validate_trace, doc,
                         "$.traceEvents[0].ts: -1 below minimum 0")
        doc = copy.deepcopy(GOOD_TRACE)
        doc["traceEvents"][1]["s"] = "q"
        self.assert_fail(validate_trace, doc,
                         "$.traceEvents[1].s: 'q' not in ['t', 'p', 'g']")


class TestValidateRaces(ValidatorCase):
    def test_good(self):
        self.assert_ok(validate_races, GOOD_RACES)

    def test_good_passes_require_clean_when_suppressed(self):
        self.assert_ok(validate_races, GOOD_RACES,
                       flags=("--require-clean",))

    def test_rejects_bad_config_enum(self):
        doc = copy.deepcopy(GOOD_RACES)
        doc["config"] = "XX"
        self.assert_fail(validate_races, doc, "config")

    def test_rejects_detected_count_mismatch(self):
        doc = copy.deepcopy(GOOD_RACES)
        doc["summary"]["races_detected"] = 5
        self.assert_fail(validate_races, doc, "races_detected")

    def test_rejects_suppressed_without_reason(self):
        doc = copy.deepcopy(GOOD_RACES)
        del doc["races"][0]["suppress_reason"]
        self.assert_fail(validate_races, doc, "suppressed without a reason")

    def test_rejects_truncated_flag_mismatch(self):
        doc = copy.deepcopy(GOOD_RACES)
        doc["summary"]["truncated"] = True
        self.assert_fail(validate_races, doc, "truncated")

    def test_require_clean_rejects_unsuppressed_race(self):
        doc = copy.deepcopy(GOOD_RACES)
        doc["races"][0]["suppressed"] = False
        del doc["races"][0]["suppress_reason"]
        doc["summary"]["races_suppressed"] = 0
        self.assert_fail(validate_races, doc, "--require-clean",
                         flags=("--require-clean",))


class TestValidateExplore(ValidatorCase):
    def test_good(self):
        self.assert_ok(validate_explore, GOOD_EXPLORE)

    def test_good_passes_require_pass(self):
        self.assert_ok(validate_explore, GOOD_EXPLORE,
                       flags=("--require-pass",))

    def test_rejects_unknown_program(self):
        doc = copy.deepcopy(GOOD_EXPLORE)
        doc["cells"][0]["program"] = "mp_typo"
        self.assert_fail(validate_explore, doc, "program")

    def test_accepts_sixth_config_and_mp_dev(self):
        doc = copy.deepcopy(GOOD_EXPLORE)
        doc["cells"][0]["program"] = "mp_dev"
        doc["cells"][0]["config"] = "DD+SE"
        self.assert_ok(validate_explore, doc)

    def test_rejects_fail_verdict_without_violations(self):
        doc = copy.deepcopy(GOOD_EXPLORE)
        doc["cells"][0]["verdict"] = "fail"
        doc["summary"]["passed"] = 0
        doc["summary"]["failed"] = 1
        doc["summary"]["all_pass"] = False
        self.assert_fail(validate_explore, doc, "no violations")

    def test_rejects_silent_coverage_gap(self):
        doc = copy.deepcopy(GOOD_EXPLORE)
        doc["cells"][0]["frontier_remaining"] = 4
        self.assert_fail(validate_explore, doc, "frontier")

    def test_rejects_outcome_counts_exceeding_explored(self):
        doc = copy.deepcopy(GOOD_EXPLORE)
        doc["cells"][0]["outcomes"][0]["count"] = 100
        self.assert_fail(validate_explore, doc, "outcome counts")

    def test_rejects_unsorted_outcomes(self):
        doc = copy.deepcopy(GOOD_EXPLORE)
        doc["cells"][0]["outcomes"].reverse()
        self.assert_fail(validate_explore, doc, "sorted")

    def test_rejects_summary_count_mismatch(self):
        doc = copy.deepcopy(GOOD_EXPLORE)
        doc["summary"]["schedules_explored"] = 99
        self.assert_fail(validate_explore, doc,
                         "schedules_explored")

    def test_require_pass_rejects_budget_exhausted(self):
        doc = copy.deepcopy(GOOD_EXPLORE)
        doc["cells"][0]["verdict"] = "budget-exhausted"
        doc["cells"][0]["frontier_remaining"] = 2
        doc["summary"]["passed"] = 0
        doc["summary"]["budget_exhausted"] = 1
        doc["summary"]["all_pass"] = False
        self.assert_fail(validate_explore, doc, "--require-pass",
                         flags=("--require-pass",))


class TestValidateAxiom(ValidatorCase):
    def test_good(self):
        self.assert_ok(validate_axiom, GOOD_AXIOM)

    def test_good_passes_require_clean(self):
        self.assert_ok(validate_axiom, GOOD_AXIOM,
                       flags=("--require-clean",))

    def test_rejects_unknown_model(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        doc["cells"][0]["model"] = "tso"
        self.assert_fail(validate_axiom, doc, "model")

    def test_rejects_model_config_mismatch(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        doc["cells"][1]["model"] = "sc-drf"
        self.assert_fail(validate_axiom, doc, "hrf-scoped")

    def test_rejects_race_free_verdict_with_pairs(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        doc["cells"][1]["verdict"] = "race-free"
        doc["summary"]["race_free"] = 2
        doc["summary"]["scope_race"] = 0
        self.assert_fail(validate_axiom, doc, "race-free")

    def test_rejects_scope_race_verdict_with_data_pairs(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        doc["cells"][1]["data_race_pairs"] = 1
        self.assert_fail(validate_axiom, doc, "scope-race")

    def test_rejects_racy_exceeding_executions(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        doc["cells"][1]["racy_executions"] = 5
        self.assert_fail(validate_axiom, doc, "racy_executions")

    def test_rejects_unsorted_outcomes(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        doc["cells"][0]["outcomes"].reverse()
        self.assert_fail(validate_axiom, doc, "sorted")

    def test_rejects_disallowed_outcome_with_clean_oracle(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        doc["cells"][0]["outcomes"][0]["allowed"] = False
        self.assert_fail(validate_axiom, doc, "oracle_ok")

    def test_rejects_ok_cross_check_with_diffs(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        doc["cells"][0]["cross_check"]["diffs"] = [
            "mp on GD: axiomatic outcome 'f=9' was never observed "
            "operationally"]
        self.assert_fail(validate_axiom, doc, "diff")

    def test_rejects_summary_verdict_mismatch(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        doc["summary"]["scope_race"] = 0
        doc["summary"]["data_race"] = 1
        self.assert_fail(validate_axiom, doc, "scope_race")

    def test_rejects_all_ok_contradicted_by_cells(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        doc["cells"][0]["cross_check"]["ok"] = False
        doc["cells"][0]["cross_check"]["diffs"] = ["mp on GD: diff"]
        self.assert_fail(validate_axiom, doc, "all_ok")

    def test_require_clean_rejects_unchecked_cells(self):
        doc = copy.deepcopy(GOOD_AXIOM)
        for cell in doc["cells"]:
            cell["cross_check"] = {"checked": False, "ok": False,
                                   "diffs": []}
        doc["summary"]["cross_checked"] = 0
        self.assert_ok(validate_axiom, doc)
        self.assert_fail(validate_axiom, doc, "cross-checked",
                         flags=("--require-clean",))


class TestCompareBench(ValidatorCase):
    def compare(self, current, baseline=GOOD_BENCH):
        base = self.write(baseline, "base.json")
        cur = self.write(current, "cur.json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            code = compare_bench.main([base, cur])
        return code, out.getvalue()

    def assert_compare_fails(self, current, needle, baseline=GOOD_BENCH):
        code, out = self.compare(current, baseline)
        self.assertEqual(code, 1, f"expected FAIL, got:\n{out}")
        self.assertIn(needle, out)

    def test_identical_records_pass(self):
        code, out = self.compare(GOOD_BENCH)
        self.assertEqual(code, 0, out)
        self.assertIn("2 cells matched, 0 new, 0 failures", out)

    def test_host_timings_are_not_compared(self):
        doc = copy.deepcopy(GOOD_BENCH)
        doc["cells"][0]["host_ms"] *= 3
        code, out = self.compare(doc)
        self.assertEqual(code, 0, out)

    def test_one_cycle_drift_fails(self):
        doc = copy.deepcopy(GOOD_BENCH)
        doc["cells"][1]["cycles"] += 1
        self.assert_compare_fails(
            doc, "FAM_G/DD@10% cycles changed 608274 -> 608275")

    def test_missing_baseline_cell_fails(self):
        doc = copy.deepcopy(GOOD_BENCH)
        del doc["cells"][0]
        self.assert_compare_fails(
            doc, "cell FAM_G/GD@10% missing from current record")

    def test_failed_cell_fails(self):
        doc = copy.deepcopy(GOOD_BENCH)
        doc["cells"][0]["ok"] = False
        self.assert_compare_fails(
            doc, "FAM_G/GD@10% failed its functional checks")

    def with_lines(self, doc, *suffixes):
        # Cell lines as the harnesses write them: "<workload> <config>"
        # and the fields off their defaults.
        for cell, suffix in zip(doc["cells"], suffixes):
            cell["cell"] = "%s %s%s" % (cell["workload"], cell["config"],
                                        suffix)
        return doc

    def test_cells_differing_only_in_hop_match_separately(self):
        # One (workload, config, scale) on two machines, as the NoC
        # latency ablation records it: keyed by line, not a duplicate.
        doc = copy.deepcopy(GOOD_BENCH)
        doc["cells"][1] = copy.deepcopy(doc["cells"][0])
        doc["cells"][1]["cycles"] += 100
        self.with_lines(doc, " scale=10", " scale=10 hop=6")
        code, out = self.compare(doc, doc)
        self.assertEqual(code, 0, out)
        self.assertIn("2 cells matched, 0 new, 0 failures", out)
        drifted = copy.deepcopy(doc)
        drifted["cells"][1]["cycles"] += 1
        self.assert_compare_fails(
            drifted, "FAM_G GD scale=10 hop=6 cycles changed 642954 -> "
            "642955", doc)

    def test_baseline_without_lines_matches_record_with_them(self):
        doc = self.with_lines(copy.deepcopy(GOOD_BENCH),
                              " scale=10", " scale=10")
        code, out = self.compare(doc)
        self.assertEqual(code, 0, out)
        self.assertIn("2 cells matched, 0 new, 0 failures", out)
        doc["cells"][1]["cycles"] += 1
        self.assert_compare_fails(
            doc, "FAM_G/DD@10% cycles changed 608274 -> 608275")

    def test_odd_number_of_paths_exits_2(self):
        base = self.write(GOOD_BENCH, "base.json")
        with contextlib.redirect_stderr(io.StringIO()), \
                self.assertRaises(SystemExit) as exit_:
            compare_bench.main([base])
        self.assertEqual(exit_.exception.code, 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
