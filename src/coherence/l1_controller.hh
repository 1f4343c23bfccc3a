/**
 * @file
 * Abstract L1 cache controller interface.
 *
 * A compute unit drives its L1 through this interface. The controller
 * owns the full consistency-model sequencing for synchronization
 * accesses: a release-flavored sync first makes prior writes visible
 * per the protocol (drain writethroughs / obtain ownership), and an
 * acquire-flavored sync self-invalidates per the protocol and scope
 * when it completes. Callers guarantee (and the thread-block contexts
 * do) that a thread issues a sync access only after all of its own
 * previous accesses completed, which together with the controller-side
 * sequencing implements the program-order requirement of Section 2.
 */

#ifndef COHERENCE_L1_CONTROLLER_HH
#define COHERENCE_L1_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "coherence/protocol.hh"
#include "coherence/snapshot.hh"
#include "energy/energy_model.hh"
#include "sim/sim_object.hh"
#include "sim/recycled.hh"
#include "sim/small_fn.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace nosync
{

namespace trace
{
class TraceSink;
}

namespace analysis
{
class RaceDetector;
}

/**
 * Inline capacity of a controller continuation: three words, enough
 * for the {this, slot, ...} closures of the access path while keeping
 * a callback as small as the std::function it replaces (so MSHR
 * targets and waiter lists do not grow). Anything larger is parked in
 * a per-op record (see L1Controller::SyncRecord) rather than captured.
 */
inline constexpr std::size_t kCallbackCapacity = 24;

/** Callback returning a loaded / atomic-returned value. */
using ValueCallback = SmallFn<void(std::uint32_t), kCallbackCapacity>;

/** Completion callback. */
using DoneCallback = SmallFn<void(), kCallbackCapacity>;

/** Statistics common to every L1 controller flavour. */
struct L1Stats
{
    L1Stats(stats::StatSet &set, const std::string &prefix)
        : loadHits(set.registerScalar(prefix + ".load_hits",
                                      "data loads hitting in L1/SB")),
          loadMisses(set.registerScalar(prefix + ".load_misses",
                                        "data loads missing in L1")),
          storeHits(
              set.registerScalar(prefix + ".store_hits",
                                 "data stores completing in L1")),
          storeBuffered(
              set.registerScalar(prefix + ".store_buffered",
                                 "data stores entering the SB")),
          storeCoalesced(
              set.registerScalar(prefix + ".store_coalesced",
                                 "stores coalescing into SB "
                                 "entries")),
          sbOverflowDrains(
              set.registerScalar(prefix + ".sb_overflow_drains",
                                 "store-buffer drains forced by "
                                 "overflow")),
          syncHits(set.registerScalar(
              prefix + ".sync_hits",
              "sync accesses performed at L1 without "
              "network traffic")),
          syncMisses(set.registerScalar(prefix + ".sync_misses",
                                        "sync accesses requiring the "
                                        "network")),
          acquireInvalidations(
              set.registerScalar(prefix + ".acquire_invalidations",
                                 "flash/self invalidation "
                                 "operations")),
          wordsInvalidated(
              set.registerScalar(prefix + ".words_invalidated",
                                 "words discarded by "
                                 "self-invalidation")),
          wordsPreserved(
              set.registerScalar(prefix + ".words_preserved",
                                 "words preserved across "
                                 "acquires")),
          releaseDrains(
              set.registerScalar(prefix + ".release_drains",
                                 "release-triggered SB drains")),
          evictions(set.registerScalar(prefix + ".evictions",
                                       "L1 line evictions"))
    {}

    stats::Handle<stats::Scalar> loadHits;
    stats::Handle<stats::Scalar> loadMisses;
    stats::Handle<stats::Scalar> storeHits;
    stats::Handle<stats::Scalar> storeBuffered;
    stats::Handle<stats::Scalar> storeCoalesced;
    stats::Handle<stats::Scalar> sbOverflowDrains;
    stats::Handle<stats::Scalar> syncHits;
    stats::Handle<stats::Scalar> syncMisses;
    stats::Handle<stats::Scalar> acquireInvalidations;
    stats::Handle<stats::Scalar> wordsInvalidated;
    stats::Handle<stats::Scalar> wordsPreserved;
    stats::Handle<stats::Scalar> releaseDrains;
    stats::Handle<stats::Scalar> evictions;
};

/** Interface a compute unit uses to access memory through its L1. */
class L1Controller : public SimObject
{
  public:
    L1Controller(const std::string &name, EventQueue &eq,
                 stats::StatSet &stats, EnergyModel &energy,
                 NodeId node, const ProtocolConfig &config,
                 trace::TraceSink *trace = nullptr)
        : SimObject(name, eq), _node(node), _config(config),
          _energy(energy), _stats(stats, name), _trace(trace)
    {}

    NodeId node() const { return _node; }
    const ProtocolConfig &config() const { return _config; }
    const L1Stats &l1Stats() const { return _stats; }

    /** Structured occupancy snapshot for hang diagnostics. */
    virtual ControllerSnapshot snapshot() const = 0;

    /** Protocol invariant sweep; returns violation descriptions. */
    virtual std::vector<std::string>
    checkInvariants(bool quiesced) const = 0;

    /** Issue a data load; @p cb fires with the value when it returns. */
    virtual void load(Addr addr, ValueCallback cb) = 0;

    /**
     * Issue a data store; @p cb fires when the store retires from the
     * issuing thread's perspective (it may still be buffered). The
     * controller stalls the callback while the store buffer drains if
     * it is full.
     */
    virtual void store(Addr addr, std::uint32_t value,
                       DoneCallback cb) = 0;

    /**
     * Issue a synchronization access. Release sequencing (prior-write
     * visibility) happens before the atomic performs; acquire
     * sequencing (self-invalidation) happens when it completes; then
     * @p cb fires with the atomic's return value.
     */
    virtual void sync(const SyncOp &op, ValueCallback cb) = 0;

    /**
     * Kernel-boundary begin: the implicit global acquire at kernel
     * launch (self-invalidate per protocol).
     */
    virtual void kernelBegin() = 0;

    /**
     * Kernel-boundary end: the implicit global release at kernel
     * completion; @p cb fires once all prior writes are visible per
     * the protocol.
     */
    virtual void kernelEnd(DoneCallback cb) = 0;

    /** Drain any buffered writes at the given scope (fence helper). */
    virtual void drainWrites(Scope scope, DoneCallback cb) = 0;

    /**
     * Attach the happens-before race detector (nullptr = disabled).
     * The controller notifies it whenever an atomic functionally
     * performs at this L1, i.e. at the point the operation takes its
     * place in coherence order.
     */
    void setRaceDetector(analysis::RaceDetector *races)
    {
        _races = races;
    }

  protected:
    /**
     * A sync access between issue and completion. The op, its
     * effective scope and the caller's callback are parked here so
     * the release-drain, perform and finish continuations capture
     * only {this, slot} instead of nesting one closure in the next.
     */
    struct SyncRecord
    {
        SyncOp op;
        Scope scope = Scope::Global;
        ValueCallback cb;
    };
    SlotPool<SyncRecord> _syncs;

    NodeId _node;
    ProtocolConfig _config;
    EnergyModel &_energy;
    L1Stats _stats;
    /** Observability sink; nullptr when tracing is disabled. */
    trace::TraceSink *_trace = nullptr;
    /** Race detector; nullptr when race checking is disabled. */
    analysis::RaceDetector *_races = nullptr;
};

} // namespace nosync

#endif // COHERENCE_L1_CONTROLLER_HH
