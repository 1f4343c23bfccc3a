/**
 * @file
 * Machine-readable sweep records (BENCH_*.json).
 *
 * Every bench harness can emit its full result matrix as JSON: one
 * cell per simulation with the paper's three metrics plus host-side
 * performance (wall-clock, simulated events, events/sec), and a
 * header with the sweep's own wall-clock and thread count. CI
 * archives these files per PR so the simulator's performance
 * trajectory is tracked alongside its accuracy.
 */

#ifndef RUNNER_BENCH_JSON_HH
#define RUNNER_BENCH_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hh"
#include "runner/cell_spec.hh"

namespace nosync
{

/** One simulation's worth of a sweep record: the cell and its run. */
struct SweepCell
{
    CellSpec spec;
    RunResult result;
};

/** A harness's full sweep, ready to serialize. */
struct SweepRecord
{
    std::string harness;
    unsigned jobs = 1;
    double wallMillis = 0.0;

    std::vector<SweepCell> cells;

    /** Write the record to @p path. @return false on I/O failure. */
    bool writeJson(const std::string &path) const;
};

} // namespace nosync

#endif // RUNNER_BENCH_JSON_HH
