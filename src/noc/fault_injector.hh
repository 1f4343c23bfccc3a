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
 *     already scheduled for its pair. Reordering therefore happens
 *     only *across* pairs, which is exactly the freedom a real
 *     adaptive/multi-VC network would have.
 *  2. Everything is deterministic. All randomness comes from one
 *     seeded Rng consumed in event order, so a (workload, config,
 *     fault seed) triple replays byte-for-byte.
 */

#ifndef NOC_FAULT_INJECTOR_HH
#define NOC_FAULT_INJECTOR_HH

#include <cstdint>
#include <unordered_map>

#include "noc/delivery_policy.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace nosync
{

/** Knobs for the fault injector; all probabilities in [0, 1]. */
struct FaultConfig
{
    /** Master switch; everything below is ignored when false. */
    bool enabled = false;

    /** Seed for the fault Rng. Kept separate from SystemConfig::seed
     *  so the workload shape stays fixed while faults vary. */
    std::uint64_t seed = 1;

    /** Chance a message picks up small extra latency. */
    double jitterProb = 0.3;
    /** Maximum extra latency from jitter (uniform in [1, max]). */
    Cycles jitterMax = 24;

    /** Chance of a large delay (drives cross-pair reordering). */
    double reorderProb = 0.05;
    /** Maximum extra latency of a reorder-scale delay. */
    Cycles reorderMax = 400;

    /** Chance an idempotent message is delivered twice. */
    double dupProb = 0.05;
    /** Maximum gap between the two deliveries of a duplicate. */
    Cycles dupDelayMax = 64;
};

/** Deterministic, FIFO-preserving message perturbation. */
class FaultInjector : public DeliveryPolicy
{
  public:
    explicit FaultInjector(const FaultConfig &config)
        : _config(config), _rng(config.seed)
    {}

    const FaultConfig &config() const { return _config; }

    /**
     * Perturb a message nominally arriving at @p nominal on the
     * (src, dst) pair, returning the faulted arrival tick. Clamps to
     * the pair's latest scheduled arrival so same-pair FIFO holds.
     */
    Tick
    adjust(NodeId src, NodeId dst, Tick nominal) override
    {
        Tick t = nominal;
        if (_rng.chance(_config.jitterProb) && _config.jitterMax > 0) {
            t += _rng.range(1, _config.jitterMax);
            ++_jittered;
        }
        if (_rng.chance(_config.reorderProb) &&
            _config.reorderMax > 0) {
            t += _rng.range(1, _config.reorderMax);
            ++_delayed;
        }
        Tick &last = _lastArrival[pairKey(src, dst)];
        if (t < last)
            t = last; // preserve same-pair FIFO
        last = t;
        return t;
    }

    /** Whether to deliver an idempotent message a second time. */
    bool
    rollDuplicate() override
    {
        if (!_rng.chance(_config.dupProb))
            return false;
        ++_duplicated;
        return true;
    }

    /** Extra delay of the duplicate delivery (always >= 1, so the
     *  duplicate cannot be delivered before the original). */
    Cycles
    duplicateDelay() override
    {
        Cycles max = _config.dupDelayMax ? _config.dupDelayMax : 1;
        return static_cast<Cycles>(_rng.range(1, max));
    }

    // Injection counters (diagnostics / reports) ----------------------
    std::uint64_t jittered() const { return _jittered; }
    std::uint64_t delayed() const { return _delayed; }
    std::uint64_t duplicated() const { return _duplicated; }

  private:
    static std::uint64_t
    pairKey(NodeId src, NodeId dst)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(src))
                << 32) |
               static_cast<std::uint32_t>(dst);
    }

    FaultConfig _config;
    Rng _rng;
    /** Latest arrival tick already scheduled per (src, dst) pair. */
    std::unordered_map<std::uint64_t, Tick> _lastArrival;

    std::uint64_t _jittered = 0;
    std::uint64_t _delayed = 0;
    std::uint64_t _duplicated = 0;
};

} // namespace nosync

#endif // NOC_FAULT_INJECTOR_HH
