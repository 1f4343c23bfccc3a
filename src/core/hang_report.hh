/**
 * @file
 * Structured hang diagnostics.
 *
 * When a run ends without workload completion — the event queue
 * drained with thread blocks still suspended (deadlock) or the cycle
 * watchdog fired (livelock / pathological slowdown) — the System
 * assembles a HangReport instead of a bare failure string: every
 * outstanding piece of state that explains *why* nothing (or nothing
 * useful) is happening, plus everything needed to reproduce the run.
 */

#ifndef CORE_HANG_REPORT_HH
#define CORE_HANG_REPORT_HH

#include <string>
#include <vector>

#include "coherence/snapshot.hh"
#include "noc/mesh.hh"

namespace nosync
{

/** Everything known about a run that failed to complete. */
struct HangReport
{
    /**
     * Structured reason codes, stable for machine matching (the
     * exploration driver and harness scripts branch on these; the
     * human-readable `reason` string is free to change).
     */
    static constexpr const char *kDeadlock = "deadlock";
    static constexpr const char *kBudgetExhausted = "budget-exhausted";

    /** Tick at which the run was declared hung. */
    Tick tick = 0;

    /** kDeadlock (queue empty) or kBudgetExhausted (cycle budget). */
    std::string reasonCode;

    /** Human-readable elaboration of reasonCode. */
    std::string reason;

    std::string workload;
    std::string config;

    /** Fault-injection seed of the run; 0 when it ran fault-free. */
    std::uint64_t faultSeed = 0;

    /** Per-thread-block coroutine wait states (incomplete TBs only). */
    std::vector<std::string> tbWaits;

    /** Messages still traversing the mesh at the hang tick. */
    std::vector<InFlightMsg> meshMessages;

    /** Snapshots of every non-quiescent cache controller. */
    std::vector<ControllerSnapshot> controllers;

    /** Protocol invariant violations found at the hang tick. */
    std::vector<std::string> violations;
};

} // namespace nosync

#endif // CORE_HANG_REPORT_HH
