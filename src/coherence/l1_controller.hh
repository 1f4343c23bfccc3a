/**
 * @file
 * L1 cache controller: the interface and the protocol-independent shell.
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

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "coherence/cache_timings.hh"
#include "coherence/protocol.hh"
#include "coherence/snapshot.hh"
#include "energy/energy_model.hh"
#include "mem/cache_array.hh"
#include "mem/line_table.hh"
#include "mem/store_buffer.hh"
#include "sim/sim_object.hh"
#include "sim/recycled.hh"
#include "sim/small_fn.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/trace_event.hh"

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

class L2Controller;
class Mesh;

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

/**
 * Completion state of one coalesced warp access in flight
 * (L1Controller::loadMany / storeMany). The issuer owns it and keeps
 * it in place until @c done fires, once, after the last word.
 */
struct WarpBatch
{
    /** Words not yet complete. */
    unsigned remaining = 0;
    DoneCallback done;

    /** Count @p words as complete; run @c done after the last one. */
    void
    complete(unsigned words)
    {
        remaining -= words;
        if (remaining == 0) {
            // Move out first: done may end the issuer, and this with it.
            DoneCallback fn = std::move(done);
            fn();
        }
    }
};

/** Statistics common to every L1 controller flavour. */
struct L1Stats
{
    L1Stats(stats::StatSet &set, const std::string &prefix)
        : loadHits(set.registerScalar(prefix, ".load_hits",
                                      "data loads hitting in L1/SB")),
          loadMisses(set.registerScalar(prefix, ".load_misses",
                                        "data loads missing in L1")),
          storeHits(
              set.registerScalar(prefix, ".store_hits",
                                 "data stores completing in L1")),
          storeBuffered(
              set.registerScalar(prefix, ".store_buffered",
                                 "data stores entering the SB")),
          storeCoalesced(
              set.registerScalar(prefix, ".store_coalesced",
                                 "stores coalescing into SB "
                                 "entries")),
          sbOverflowDrains(
              set.registerScalar(prefix, ".sb_overflow_drains",
                                 "store-buffer drains forced by "
                                 "overflow")),
          syncHits(set.registerScalar(
              prefix, ".sync_hits",
              "sync accesses performed at L1 without "
              "network traffic")),
          syncMisses(set.registerScalar(prefix, ".sync_misses",
                                        "sync accesses requiring the "
                                        "network")),
          acquireInvalidations(
              set.registerScalar(prefix, ".acquire_invalidations",
                                 "flash/self invalidation "
                                 "operations")),
          wordsInvalidated(
              set.registerScalar(prefix, ".words_invalidated",
                                 "words discarded by "
                                 "self-invalidation")),
          wordsPreserved(
              set.registerScalar(prefix, ".words_preserved",
                                 "words preserved across "
                                 "acquires")),
          releaseDrains(
              set.registerScalar(prefix, ".release_drains",
                                 "release-triggered SB drains")),
          evictions(set.registerScalar(prefix, ".evictions",
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

/**
 * The L1 a compute unit accesses memory through, and the half of it
 * both protocol families share (Table 1): the coalescing store buffer
 * with its overflow stall queue, release drains and their waiters,
 * parked sync accesses, words sent home and still unacknowledged,
 * acquire-side self-invalidation (an epoch bump; each protocol sweeps
 * a line lazily) and the kernel-boundary hooks. A protocol supplies
 * only its state transitions: loads and fills, how a write becomes
 * visible, and how a sync performs.
 */
class L1Controller : public SimObject
{
  public:
    L1Controller(const std::string &name, EventQueue &eq,
                 stats::StatSet &stats, EnergyModel &energy, Mesh &mesh,
                 NodeId node, const ProtocolConfig &config,
                 const CacheGeometry &geom,
                 trace::TraceSink *trace = nullptr);

    NodeId node() const { return _node; }
    const ProtocolConfig &config() const { return _config; }
    const L1Stats &l1Stats() const { return _stats; }

    /** Test hook: number of buffered stores. */
    std::size_t storeBufferSize() const { return _sb.size(); }

    /**
     * Structured occupancy snapshot for hang diagnostics. Gauges, in
     * order: mshr, sb, the protocol's gauges, unacked_words,
     * stalled_stores, drain_waiters.
     */
    ControllerSnapshot snapshot() const;

    /**
     * Protocol invariant sweep. @p quiesced additionally requires
     * every outstanding-state structure to be empty (leak detection
     * after the workload completed and the event queue drained).
     * @return violation descriptions; empty when clean.
     */
    std::vector<std::string> checkInvariants(bool quiesced) const;

    /**
     * Issue a coalesced warp of independent loads: @p values[i]
     * receives the word at @p addrs[i]. Every data load enters the L1
     * here; a plain load is a warp of one. The words this L1 serves
     * count toward @p batch together and share one hit-latency event;
     * a miss completes at its own fill. @p batch.done fires after the
     * last word. @pre addrs is not empty and matches values in size
     */
    void loadMany(std::span<const Addr> addrs,
                  std::span<std::uint32_t> values, WarpBatch &batch);

    /**
     * Issue a coalesced warp of independent stores of @p values[i] to
     * @p addrs[i]; a plain store is a warp of one. Stores that retire
     * at once (in place or into the store buffer) share one
     * hit-latency event; a store that stalls on a full buffer
     * completes on its own. @p batch.done fires after the last word.
     * @pre addrs is not empty and matches values in size
     */
    void storeMany(std::span<const Addr> addrs,
                   std::span<const std::uint32_t> values,
                   WarpBatch &batch);

    /**
     * Issue a synchronization access. Release sequencing (prior-write
     * visibility) happens before the atomic performs; acquire
     * sequencing (self-invalidation) happens when it completes; then
     * @p cb fires with the atomic's return value.
     */
    void sync(const SyncOp &op, ValueCallback cb);

    /**
     * Kernel-boundary begin: the implicit global acquire at kernel
     * launch (self-invalidate per protocol).
     */
    void kernelBegin();

    /**
     * Kernel-boundary end: the implicit global release at kernel
     * completion; @p cb fires once all prior writes are visible per
     * the protocol.
     */
    void kernelEnd(DoneCallback cb);

    /** Drain any buffered writes at the given scope (fence helper). */
    void drainWrites(Scope scope, DoneCallback cb);

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
    // Protocol hooks --------------------------------------------------
    /**
     * Serve a load from this L1 if it can (frame, store buffer or a
     * write still in flight), setting @p value. @return false on a
     * miss, with nothing changed but lazy self-invalidation.
     */
    virtual bool loadLocal(Addr addr, std::uint32_t &value) = 0;

    /** Fetch a word loadLocal missed; @p cb fires with its value. */
    virtual void loadMiss(Addr addr, ValueCallback cb) = 0;

    /**
     * Retire a store without a buffer slot if the protocol can (GH
     * write-allocate, a DeNovo Registered hit). @return false when
     * the store must be buffered. The shell sends the reply.
     */
    virtual bool storeInPlace(Addr addr, std::uint32_t value) = 0;

    /** Keep the local copy of a just-buffered store coherent. */
    virtual void mirrorStore(Addr addr, std::uint32_t value) = 0;

    /**
     * Start making every buffered store visible (GPU: writethroughs;
     * DeNovo: registrations), counting each word or message still
     * unacknowledged in _pendingWrites.
     */
    virtual void issueDrain() = 0;

    /** Perform the parked sync in @p slot (after any release drain). */
    virtual void performSync(std::uint32_t slot) = 0;

    /**
     * The home bank acked the words @p mask of @p line_addr that
     * writeHome sent; they have already left the unacked table.
     */
    virtual void writeAcked(Addr line_addr, WordMask mask) = 0;

    /** Snapshot parts: MSHR entries, then the protocol's own gauges
     *  (including its name for _pendingWrites) and detail lines. */
    virtual std::size_t mshrOccupancy() const = 0;
    virtual void describeProtocol(ControllerSnapshot &snap) const = 0;

    /** Protocol-specific invariant violations, appended to @p out. */
    virtual void checkProtocol(std::vector<std::string> &out) const = 0;

    // Shared machinery ------------------------------------------------
    /** Drain the store buffer; @p cb fires when every write is
     *  visible (the protocol's acks all returned). */
    void startDrain(DoneCallback cb);
    /** Run the drain waiters once nothing is pending. */
    void maybeFinishDrains();

    /** Post-perform acquire step; unparks the sync and replies. */
    void finishSync(std::uint32_t slot, std::uint32_t value);

    /**
     * Perform the parked sync in @p slot at this L1 on @p old_value:
     * charge the L1 access and the ALU, tell the race detector, and
     * apply the atomic. The caller stores the new value where its
     * protocol keeps the word. With @p reply, finishSync runs
     * l1Atomic cycles later with the returned value.
     */
    AtomicResult performAtL1(std::uint32_t slot, std::uint32_t old_value,
                             bool reply = true);

    /**
     * Send the parked sync in @p slot to @p home, its line's L2 bank,
     * to perform there (GD/GH global atomics, DD+SE's sync engine);
     * the bank's reply finishes it.
     */
    void performAtHome(std::uint32_t slot, L2Controller &home);

    /**
     * Send the words @p mask of @p line_addr to @p home, their line's
     * L2 bank (GPU writethroughs, DeNovo eviction writebacks), traced
     * as @p phase. The words stay readable through unackedValue until
     * the bank acks them; then writeAcked runs.
     */
    void writeHome(L2Controller &home, Addr line_addr, WordMask mask,
                   const LineData &data, trace::Phase phase);

    /** The newest value of @p addr sent home and not yet acked. */
    bool unackedValue(Addr addr, std::uint32_t &value) const;

    /** The words of @p line_addr sent home and not yet acked. */
    WordMask unackedWords(Addr line_addr) const;

    /**
     * Acquire-side self-invalidation. A gang operation in hardware;
     * here an O(1) epoch bump, and each protocol's refreshLine sweeps
     * a line whose epoch lags on its next touch, keeping the words
     * that protocol preserves.
     */
    void selfInvalidate();

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

    /** A load waiting on a fill, with its acquire epoch at issue. */
    struct ReadTarget
    {
        Addr addr;
        ValueCallback cb;
        std::uint64_t epoch;
    };
    /** Target lists of retired MSHR entries, for reuse. */
    VectorPool<ReadTarget> _targetPool;

    NodeId _node;
    ProtocolConfig _config;
    EnergyModel &_energy;
    L1Stats _stats;
    /** Observability sink; nullptr when tracing is disabled. */
    trace::TraceSink *_trace = nullptr;
    /** Race detector; nullptr when race checking is disabled. */
    analysis::RaceDetector *_races = nullptr;

    Mesh &_mesh;
    CacheArray _array;
    StoreBuffer _sb;

    /** Drained writes not yet visible (see issueDrain). */
    unsigned _pendingWrites = 0;

    /** Current acquire epoch (lazy self-invalidation). */
    std::uint64_t _curEpoch = 0;

  private:
    /**
     * Retire a store now if it needs no wait (in place, or into the
     * store buffer); the caller then owes the hit-latency reply.
     * @return false when the store must stall on a full buffer.
     */
    bool retireStore(Addr addr, std::uint32_t value);

    /** Park a store on the stall queue until the buffer drains. */
    void stallStore(Addr addr, std::uint32_t value, DoneCallback cb);

    /** Reply to a batch's @p hits words at hit latency (none: no event). */
    void replyBatchHits(WarpBatch &batch, unsigned hits);

    /** Buffer a store that has a slot (or coalesces). */
    void acceptStore(Addr addr, std::uint32_t value);

    /** Retry stalled stores in order, draining again when full. */
    void serviceStallQueue();

    /** Take one acked write of @p mask out of the unacked table. */
    void releaseUnacked(Addr line_addr, WordMask mask);

    std::vector<DoneCallback> _drainWaiters;
    VectorPool<DoneCallback> _drainBatch;

    /** Stores stalled on a full store buffer. */
    struct StalledStore
    {
        Addr addr;
        std::uint32_t value;
        DoneCallback cb;
    };
    std::deque<StalledStore> _stalledStores;
    bool _overflowDrainActive = false;

    /**
     * Words of one line sent home and not yet acked: each word's
     * newest value and how many unacked writes carry it. Until the
     * last one is acked the word stays readable: a load must see its
     * own CU's drained or evicted store, a fill must not install the
     * bank's older copy over it (GPU), and a forward racing a
     * writeback is still answered (DeNovo).
     */
    struct UnackedLine
    {
        /** Words with at least one write in flight. */
        WordMask words = 0;
        LineData value{};
        std::array<std::uint32_t, kWordsPerLine> count{};
    };
    /** The words sent home and not yet acked (writeHome). */
    LineTable<UnackedLine> _unacked;
};

} // namespace nosync

#endif // COHERENCE_L1_CONTROLLER_HH
