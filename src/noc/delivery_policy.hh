/**
 * @file
 * Message-delivery policy seam.
 *
 * The Mesh computes a nominal arrival tick for every message and then
 * consults an optional DeliveryPolicy, which may move the arrival
 * later (never earlier) and may request a duplicate delivery of
 * idempotent messages. Two implementations exist:
 *
 *  - FaultInjector (noc/fault_injector.hh): seeded random
 *    perturbation for chaos testing;
 *  - explore::ExploringPolicy (explore/exploring_policy.hh): the
 *    stateless model checker's replayable delivery-choice recorder,
 *    which forces specific cross-pair reorderings from a decision
 *    script.
 *
 * Every implementation must preserve same-pair FIFO: the protocols
 * rely on per-(src, dst) in-order delivery (DESIGN.md "ordering
 * invariants"), so an adjusted arrival is clamped to the pair's
 * latest already-scheduled arrival by the one floor both share,
 * DeliveryPolicy::fifoFloor. Reordering is only legal *across* pairs
 * — exactly the freedom a real adaptive/multi-VC network has.
 */

#ifndef NOC_DELIVERY_POLICY_HH
#define NOC_DELIVERY_POLICY_HH

#include <cstdint>
#include <unordered_map>

#include "sim/types.hh"

namespace nosync
{

/** Hook deciding when (and how often) a mesh message is delivered. */
class DeliveryPolicy
{
  public:
    virtual ~DeliveryPolicy() = default;

    /**
     * Map a message's nominal arrival tick to its actual arrival
     * tick. Must return >= @p nominal and must pass its choice
     * through fifoFloor, so same-pair FIFO holds.
     */
    virtual Tick adjust(NodeId src, NodeId dst, Tick nominal) = 0;

    /** Whether to deliver an idempotent message a second time. */
    virtual bool rollDuplicate() = 0;

    /** Extra delay of the duplicate delivery (must be >= 1). */
    virtual Cycles duplicateDelay() = 0;

  protected:
    /**
     * Same-pair FIFO floor: raise @p arrival to the latest arrival
     * already scheduled on the (src, dst) pair, and record the result
     * as that pair's latest.
     */
    Tick
    fifoFloor(NodeId src, NodeId dst, Tick arrival)
    {
        std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
             << 32) |
            static_cast<std::uint32_t>(dst);
        Tick &last = _lastArrival[key];
        if (arrival < last)
            arrival = last;
        last = arrival;
        return arrival;
    }

  private:
    /** Latest arrival tick already scheduled per (src, dst) pair. */
    std::unordered_map<std::uint64_t, Tick> _lastArrival;
};

} // namespace nosync

#endif // NOC_DELIVERY_POLICY_HH
