/**
 * @file
 * L1 controller for conventional GPU coherence (GD and GH configs).
 *
 * Reader-initiated invalidation, no ownership: data stores coalesce in
 * the store buffer and write through to the shared L2; acquires flash
 * self-invalidate the L1; globally scoped atomics execute at the L2.
 * Under HRF, locally scoped synchronization executes at the L1 on
 * per-word-dirty data and skips invalidations and drains, which is the
 * entire performance advantage of the GH configuration.
 */

#ifndef COHERENCE_GPU_L1_HH
#define COHERENCE_GPU_L1_HH

#include <array>
#include <deque>
#include <utility>
#include <vector>

#include "coherence/cache_timings.hh"
#include "coherence/gpu_l2.hh"
#include "coherence/l1_controller.hh"
#include "coherence/snapshot.hh"
#include "mem/cache_array.hh"
#include "mem/line_table.hh"
#include "mem/mshr.hh"
#include "mem/store_buffer.hh"

namespace nosync
{

/** GPU-coherence L1 data cache controller. */
class GpuL1Cache : public L1Controller
{
  public:
    GpuL1Cache(const std::string &name, EventQueue &eq,
               stats::StatSet &stats, EnergyModel &energy, Mesh &mesh,
               NodeId node, const ProtocolConfig &config,
               std::vector<GpuL2Bank *> banks,
               const CacheGeometry &geom, const CacheTimings &timings,
               trace::TraceSink *trace = nullptr);

    void load(Addr addr, ValueCallback cb) override;
    void store(Addr addr, std::uint32_t value, DoneCallback cb)
        override;
    void sync(const SyncOp &op, ValueCallback cb) override;
    void kernelBegin() override;
    void kernelEnd(DoneCallback cb) override;
    void drainWrites(Scope scope, DoneCallback cb) override;

    /** Test hook: whether the word is valid in the L1 array. */
    bool wordValid(Addr addr) const;
    /** Test hook: number of buffered stores. */
    std::size_t storeBufferSize() const { return _sb.size(); }

    // Diagnostics -----------------------------------------------------
    /** Structured view of outstanding transaction state. */
    ControllerSnapshot snapshot() const override;

    /**
     * Controller-local invariant sweep. @p quiesced additionally
     * requires every outstanding-state structure to be empty (leak
     * detection after the workload completed and the event queue
     * drained). @return violation descriptions; empty when clean.
     */
    std::vector<std::string>
    checkInvariants(bool quiesced) const override;

  private:
    /** A load waiting on a fill, with its acquire epoch at issue. */
    struct ReadTarget
    {
        Addr addr;
        ValueCallback cb;
        std::uint64_t epoch;
    };

    /**
     * Per-line outstanding read transaction.
     *
     * Fills carry the acquire epoch at which their request was sent;
     * a fill satisfies exactly the targets issued at or before that
     * epoch (older data may not be given to loads that followed a
     * newer acquire), and installs only if no acquire intervened.
     * This keeps flash invalidation precise per thread block instead
     * of starving every in-flight load on the CU.
     */
    struct ReadEntry
    {
        bool requestOutstanding = false;
        std::vector<ReadTarget> targets;
        /** HRF local atomics (parked sync slots) waiting for the
         *  line to arrive. */
        std::vector<std::uint32_t> atomicTargets;
    };

    GpuL2Bank &homeBank(Addr addr);

    /** Find or allocate the MSHR entry for a line. */
    ReadEntry &entryFor(Addr line_addr);

    /** Issue the line fetch for an already-allocated MSHR entry. */
    void issueRead(Addr line_addr);
    void onFill(Addr line_addr, const LineData &data,
                std::uint64_t sent_epoch);

    /** Install a fetched line, evicting (and flushing) a victim. */
    CacheLine &installFill(Addr line_addr, const LineData &data);

    /** Flash self-invalidation (global acquire / kernel begin). */
    void flashInvalidate();

    /**
     * Lazily apply any flash invalidations this line missed: a line
     * whose epoch lags the controller's is swept, keeping only words
     * the protocol preserves (HRF: locally dirty words).
     */
    void refreshLine(CacheLine &line);

    /** Perform the parked sync in @p slot (after any drain). */
    void performSync(std::uint32_t slot);

    /** Execute an atomic at this L1 (HRF local scope). */
    void performLocalAtomic(std::uint32_t slot);
    void applyLocalAtomic(CacheLine &line, std::uint32_t slot);

    /** Execute an atomic at the home L2 bank (global scope). */
    void performRemoteAtomic(std::uint32_t slot);

    /** Post-perform acquire step; unparks the sync and replies. */
    void finishSync(std::uint32_t slot, std::uint32_t value);

    /** Send one writethrough group and track its ack. */
    void sendWriteThrough(Addr line_addr, WordMask mask,
                          const LineData &data);
    void onWriteThroughAck(Addr line_addr, WordMask mask);

    /** Collect L1-dirty words not covered by the store buffer. */
    std::vector<StoreBuffer::DrainGroup> collectDirtyWords();

    /** Start a full drain; cb fires when every ack returned. */
    void startDrain(DoneCallback cb);
    void maybeFinishDrains();

    /** Accept a store into the SB, draining on overflow. */
    void acceptStore(Addr addr, std::uint32_t value, DoneCallback cb);
    void serviceStallQueue();

    Mesh &_mesh;
    std::vector<GpuL2Bank *> _banks;
    CacheArray _array;
    StoreBuffer _sb;
    CacheTimings _timings;
    MshrTable<ReadEntry> _mshr;
    /** Target lists of retired MSHR entries, for reuse. */
    VectorPool<ReadTarget> _targetPool;

    /** Outstanding writethrough acks (drains + evictions). */
    unsigned _pendingWtAcks = 0;
    std::vector<DoneCallback> _drainWaiters;
    VectorPool<DoneCallback> _drainBatch;

    /**
     * Writethroughs still in flight, per line: each word's newest
     * in-flight value and how many unacknowledged writethroughs carry
     * it. A drained store leaves the SB before its data reaches the
     * L2; loads must keep seeing it (read-own-write), and fills must
     * not install the L2's stale copy over it.
     */
    struct PendingWtLine
    {
        /** Words with at least one writethrough in flight. */
        WordMask words = 0;
        LineData value{};
        std::array<std::uint32_t, kWordsPerLine> count{};
    };
    LineTable<PendingWtLine> _pendingWt;

    /** The in-flight writethrough value of @p addr, if any. */
    bool pendingWtValue(Addr addr, std::uint32_t &value) const;

    /** Whether a word's freshest copy is a local buffer (SB/WT). */
    bool bufferedValue(Addr addr, std::uint32_t &value) const;

    /** Stores stalled on a full store buffer. */
    struct StalledStore
    {
        Addr addr;
        std::uint32_t value;
        DoneCallback cb;
    };
    std::deque<StalledStore> _stalledStores;
    bool _overflowDrainActive = false;

    /** Current acquire epoch (lazy flash invalidation). */
    std::uint64_t _curEpoch = 0;

    /**
     * Whether any frame may hold a dirty word: set with every dirty
     * bit (HRF stores and local atomics), cleared by the drain scan,
     * so release drains that cannot find one skip the scan.
     */
    bool _anyDirty = false;
};

} // namespace nosync

#endif // COHERENCE_GPU_L1_HH
