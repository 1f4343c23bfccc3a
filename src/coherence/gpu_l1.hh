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

#include <utility>
#include <vector>

#include "coherence/gpu_l2.hh"
#include "coherence/l1_controller.hh"
#include "mem/mshr.hh"

namespace nosync
{

/** GPU-coherence L1 data cache controller. */
class GpuL1Cache final : public L1Controller
{
  public:
    GpuL1Cache(const std::string &name, EventQueue &eq,
               stats::StatSet &stats, EnergyModel &energy, Mesh &mesh,
               NodeId node, const ProtocolConfig &config,
               std::vector<GpuL2Bank *> banks,
               const CacheGeometry &geom,
               trace::TraceSink *trace = nullptr);

    /** Test hook: whether the word is valid in the L1 array. */
    bool wordValid(Addr addr) const;

  private:
    // L1Controller hooks ----------------------------------------------
    /** Forward from the SB, then the frame, then an unacked
     *  writethrough. */
    bool loadLocal(Addr addr, std::uint32_t &value) override;
    void loadMiss(Addr addr, ValueCallback cb) override;
    /** GH: write-allocate into the frame and set the word's dirty
     *  bit; GD buffers every store. */
    bool storeInPlace(Addr addr, std::uint32_t value) override;
    void mirrorStore(Addr addr, std::uint32_t value) override;
    /** Write through the SB and (GH) the L1-dirty words. */
    void issueDrain() override;
    void performSync(std::uint32_t slot) override;
    /** A writethrough merged: one fewer write for drains to wait on. */
    void writeAcked(Addr line_addr, WordMask mask) override;
    std::size_t mshrOccupancy() const override { return _mshr.size(); }
    void describeProtocol(ControllerSnapshot &snap) const override;
    void checkProtocol(std::vector<std::string> &out) const override;

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

    /**
     * Prepare @p victim for reuse: under HRF, locally performed
     * atomics and stores leave dirty words that exist only in this
     * L1, so they are written through first.
     */
    void evictFrame(CacheLine &victim);

    /**
     * Lazily apply any flash invalidations this line missed: a line
     * whose epoch lags the controller's is swept, keeping only words
     * the protocol preserves (HRF: locally dirty words).
     */
    void refreshLine(CacheLine &line);

    /** Execute an atomic at this L1 (HRF local scope), fetching its
     *  line first if the frame lacks the word. */
    void performLocalAtomic(std::uint32_t slot);

    /** Collect and clear the L1-dirty words (HRF only). */
    std::vector<StoreBuffer::DrainGroup> collectDirtyWords();

    std::vector<GpuL2Bank *> _banks;
    MshrTable<ReadEntry> _mshr;

    /** Whether a word's freshest copy is the SB or an unacked
     *  writethrough. */
    bool bufferedValue(Addr addr, std::uint32_t &value) const;

    /**
     * Whether any frame may hold a dirty word: set with every dirty
     * bit (HRF stores and local atomics), cleared by the drain scan,
     * so release drains that cannot find one skip the scan.
     */
    bool _anyDirty = false;
};

} // namespace nosync

#endif // COHERENCE_GPU_L1_HH
