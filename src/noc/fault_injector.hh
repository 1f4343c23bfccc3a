/**
 * @file
 * Deterministic fault injection for the mesh interconnect.
 *
 * The injector perturbs message delivery at the Mesh::send seam:
 *  - latency jitter: a message arrives a few cycles late;
 *  - cross-pair reordering: occasional large delays let messages of
 *    *different* (src, dst) pairs overtake each other;
 *  - duplication: messages the sender flagged idempotent (e.g. GPU
 *    read requests) are occasionally delivered twice.
 *
 * Two properties are load-bearing:
 *  1. Same-pair FIFO is preserved. The protocols rely on per-(src,
 *     dst) in-order delivery (see DESIGN.md "ordering invariants"),
 *     so every perturbed arrival is clamped to the latest arrival
 *     already scheduled for its pair (DeliveryPolicy::fifoFloor).
 *     Reordering therefore happens only *across* pairs, which is
 *     exactly the freedom a real adaptive/multi-VC network would
 *     have.
 *  2. Everything is deterministic. All randomness comes from one
 *     seeded Rng consumed in event order, so a (workload, config,
 *     fault seed) triple replays byte-for-byte.
 */

#ifndef NOC_FAULT_INJECTOR_HH
#define NOC_FAULT_INJECTOR_HH

#include <cstdint>

#include "noc/delivery_policy.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace nosync
{

/**
 * Deterministic, FIFO-preserving message perturbation. The seed
 * (SystemConfig::Execution::faultSeed) is its only setting; the rates
 * are the constants below.
 */
class FaultInjector : public DeliveryPolicy
{
  public:
    /** Chance a message picks up small extra latency. */
    static constexpr double kJitterProb = 0.3;
    /** Maximum extra latency from jitter (uniform in [1, max]). */
    static constexpr Cycles kJitterMax = 24;
    /** Chance of a large delay (drives cross-pair reordering). */
    static constexpr double kReorderProb = 0.05;
    /** Maximum extra latency of a reorder-scale delay. */
    static constexpr Cycles kReorderMax = 400;
    /** Chance an idempotent message is delivered twice. */
    static constexpr double kDupProb = 0.05;
    /** Maximum gap between the two deliveries of a duplicate. */
    static constexpr Cycles kDupDelayMax = 64;

    explicit FaultInjector(std::uint64_t seed) : _rng(seed) {}

    /**
     * Perturb a message nominally arriving at @p nominal on the
     * (src, dst) pair, returning the faulted arrival tick, raised to
     * the pair's FIFO floor.
     */
    Tick
    adjust(NodeId src, NodeId dst, Tick nominal) override
    {
        Tick t = nominal;
        if (_rng.chance(kJitterProb)) {
            t += _rng.range(1, kJitterMax);
            ++_jittered;
        }
        if (_rng.chance(kReorderProb)) {
            t += _rng.range(1, kReorderMax);
            ++_delayed;
        }
        return fifoFloor(src, dst, t);
    }

    /** Whether to deliver an idempotent message a second time. */
    bool
    rollDuplicate() override
    {
        if (!_rng.chance(kDupProb))
            return false;
        ++_duplicated;
        return true;
    }

    /** Extra delay of the duplicate delivery (always >= 1, so the
     *  duplicate cannot be delivered before the original). */
    Cycles
    duplicateDelay() override
    {
        return static_cast<Cycles>(_rng.range(1, kDupDelayMax));
    }

    // Injection counters (diagnostics / reports) ----------------------
    std::uint64_t jittered() const { return _jittered; }
    std::uint64_t delayed() const { return _delayed; }
    std::uint64_t duplicated() const { return _duplicated; }

  private:
    Rng _rng;

    std::uint64_t _jittered = 0;
    std::uint64_t _delayed = 0;
    std::uint64_t _duplicated = 0;
};

} // namespace nosync

#endif // NOC_FAULT_INJECTOR_HH
