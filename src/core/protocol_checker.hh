/**
 * @file
 * Protocol invariant checker.
 *
 * Sweeps the simulated cache hierarchy for states that no correct
 * execution can reach. Two severities of sweep exist because the
 * protocols have legitimate transient windows:
 *
 *  - sweepRacy() checks only invariants that hold at *every* tick:
 *    at most one DeNovo L1 holds a word Registered (the old owner
 *    invalidates before the transfer is sent), registry entries point
 *    at live L1 ids, registered (written) words never lie in the
 *    declared read-only region, and each controller's internal
 *    bookkeeping is self-consistent. Safe to run mid-simulation at
 *    any event boundary.
 *
 *  - sweepQuiesced() additionally checks invariants that only hold
 *    once all traffic has drained: L1 ownership and the L2 registry
 *    agree exactly, and every MSHR / store buffer / unacked write
 *    is empty (leak detection). Stale Valid copies of owned words are
 *    deliberately *not* flagged: DeNovo never invalidates remote
 *    copies, so they legally persist until the holder's next acquire
 *    sweeps them.
 *
 * The sweeps are driven from System::run's event loop — never from
 * scheduled events, which would keep the queue non-empty and defeat
 * deadlock detection.
 */

#ifndef CORE_PROTOCOL_CHECKER_HH
#define CORE_PROTOCOL_CHECKER_HH

#include <string>
#include <vector>

#include "sim/types.hh"

namespace nosync
{

class System;

/** Invariant sweeps over one System's cache hierarchy. */
class ProtocolChecker
{
  public:
    explicit ProtocolChecker(System &sys) : _sys(sys) {}

    /** Invariants valid at any event boundary. Empty when clean. */
    std::vector<std::string> sweepRacy() const;

    /** Full sweep; only valid once all traffic drained. */
    std::vector<std::string> sweepQuiesced() const;

    /**
     * Compare the allocated global-memory image of @p test against
     * @p golden word by word (coherent reads on both hierarchies).
     * Used by the fault harness to cross-check a fault-injected run
     * against a fault-free golden execution of the same workload.
     */
    static std::vector<std::string> compareMemory(System &test,
                                                  System &golden);

  private:
    std::vector<std::string> sweep(bool quiesced) const;

    System &_sys;
};

} // namespace nosync

#endif // CORE_PROTOCOL_CHECKER_HH
