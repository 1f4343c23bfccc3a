/**
 * @file
 * DeNovo L1 cache controller (DD, DD+RO, and DH configurations).
 *
 * Word-granularity Invalid/Valid/Registered states with no transient
 * states: an in-flight transaction is simply a word whose MSHR entry
 * records what is pending. Writes and synchronization accesses obtain
 * ownership (registration); acquires self-invalidate only Valid words,
 * so owned data and synchronization variables are reused across
 * synchronization boundaries — the paper's central mechanism.
 *
 * Synchronization follows DeNovoSync0: sync reads and writes both
 * register; racy registrations serialize at the registry and form a
 * distributed queue via forwards, with same-CU requests coalescing in
 * the MSHR and serviced before any queued remote request.
 */

#ifndef COHERENCE_DENOVO_L1_HH
#define COHERENCE_DENOVO_L1_HH

#include <utility>
#include <vector>

#include "coherence/denovo_l2.hh"
#include "coherence/l1_controller.hh"
#include "coherence/region_map.hh"
#include "mem/mshr.hh"

namespace nosync
{

/** DeNovo L1 data cache controller. */
class DenovoL1Cache final : public L1Controller
{
  public:
    DenovoL1Cache(const std::string &name, EventQueue &eq,
                  stats::StatSet &stats, EnergyModel &energy,
                  Mesh &mesh, NodeId node, const ProtocolConfig &config,
                  std::vector<DenovoL2Bank *> banks,
                  const RegionMap &regions, const CacheGeometry &geom,
                  trace::TraceSink *trace = nullptr);

    /** Wire the peer L1s (for direct owner-to-requestor transfers). */
    void setPeers(std::vector<DenovoL1Cache *> peers)
    {
        _peers = std::move(peers);
    }

    // Network-facing handlers (invoked at arrival via mesh closures) -
    /**
     * Registry forwarded a data read: we own the words. @p req_epoch
     * is the requestor's opaque freshness token, echoed back with the
     * data.
     */
    void handleReadFwd(Addr line_addr, WordMask mask, NodeId requestor,
                       std::uint64_t req_epoch);

    /** Registry transferred our ownership to @p new_owner. */
    void handleTransferReq(Addr line_addr, WordMask mask,
                           NodeId new_owner, bool is_sync, bool to_l2);

    /** Ownership (and value, for sync) arriving from an old owner. */
    void handleTransferResp(Addr line_addr, WordMask mask,
                            const LineData &values, bool is_sync);

    // Test hooks ------------------------------------------------------
    WordState wordState(Addr addr) const;
    /** Functional view of a word this L1 holds; false if absent. */
    bool peekWord(Addr addr, std::uint32_t &value)
    {
        return peekLocal(addr, value);
    }
    /** Whether this L1 currently owns (has registered) the word. */
    bool
    ownsWord(Addr addr) const
    {
        return wordState(addr) == WordState::Registered;
    }

    /** Invoke @p fn with the word address of every Registered word. */
    void forEachRegisteredWord(
        const std::function<void(Addr)> &fn) const;

    /**
     * Test hook for checker regression tests: force a word's
     * coherence state, bypassing the protocol entirely. Installs a
     * frame if the line is absent. NEVER call outside tests.
     */
    void debugCorruptWordState(Addr addr, WordState st);

  private:
    // L1Controller hooks ----------------------------------------------
    /** Any word peekLocal finds (SB, pending registration, frame,
     *  unacked writeback). */
    bool loadLocal(Addr addr, std::uint32_t &value) override;
    /** Wait on a pending registration of the word, or coalesce a
     *  line read for this cycle. */
    void loadMiss(Addr addr, ValueCallback cb) override;
    /** Stores to Registered words complete in the L1 without touching
     *  the store buffer: the key DeNovo write-reuse benefit. */
    bool storeInPlace(Addr addr, std::uint32_t value) override;
    void mirrorStore(Addr addr, std::uint32_t value) override;
    /** Register the SB's words (DD+PR: write streaming-region words
     *  through); _pendingWrites counts words awaiting completion. */
    void issueDrain() override;
    void performSync(std::uint32_t slot) override;
    /** An eviction writeback was acked: release the registrations
     *  it held back. */
    void writeAcked(Addr line_addr, WordMask mask) override;
    std::size_t mshrOccupancy() const override { return _mshr.size(); }
    void describeProtocol(ControllerSnapshot &snap) const override;
    void checkProtocol(std::vector<std::string> &out) const override;

    /** Remote request queued behind this CU's pending activity. */
    struct QueuedRemote
    {
        enum class Kind
        {
            ReadFwd,
            Transfer,
        };
        Kind kind;
        WordMask mask;
        NodeId target;
        bool isSync = false;
        bool toL2 = false;
        /** Arrival order relative to local sync ops (fairness). */
        std::uint64_t seq = 0;
        /** Requestor's freshness token (ReadFwd only). */
        std::uint64_t reqEpoch = 0;
    };

    /** Sync access waiting for ownership of its word. */
    struct SyncWaiter
    {
        unsigned word;
        /** The parked sync (op and callback) in _syncs. */
        std::uint32_t slot;
        /** Arrival order relative to queued remote requests. */
        std::uint64_t seq = 0;
    };

    /** Per-line transaction state (the MSHR payload). */
    struct LineEntry
    {
        WordMask readPending = 0;
        /** Miss words accumulated this cycle, coalesced into one
         *  request per line (a coalesced warp access is one message,
         *  not one per word). */
        WordMask readUnsent = 0;
        bool readFlushScheduled = false;
        /**
         * Loads awaiting data. A reply satisfies targets whose epoch
         * is at most the request's send epoch; newer targets (issued
         * after a later acquire) trigger a fresh fetch, which keeps
         * self-invalidation precise per thread block.
         */
        std::vector<ReadTarget> readTargets;

        /** Words awaiting data-write registration; values below. */
        WordMask dataRegPending = 0;
        LineData pendingStoreData{};

        /** Words awaiting sync registration. */
        WordMask syncRegPending = 0;

        /**
         * Pending registrations held back because a writeback of the
         * same word is still unacknowledged: issuing them early could
         * be reordered with the writeback at the registry and let a
         * stale writeback clobber the new registration. Subset of
         * dataRegPending | syncRegPending.
         */
        WordMask regWaitingWb = 0;
        std::vector<SyncWaiter> syncQueue;
        /** Words whose sync queue is being executed right now. */
        WordMask syncRunning = 0;

        std::vector<QueuedRemote> remoteQueue;

        /** Monotonic arrival counter feeding the seq fields. */
        std::uint64_t nextSeq = 0;

        bool
        idle() const
        {
            return readPending == 0 && readUnsent == 0 &&
                   readTargets.empty() && dataRegPending == 0 &&
                   syncRegPending == 0 && syncQueue.empty() &&
                   syncRunning == 0 && remoteQueue.empty();
        }
    };

    DenovoL2Bank &homeBank(Addr addr);

    /** Look up / allocate the MSHR entry for a line. */
    LineEntry &entryFor(Addr line_addr);
    void maybeFreeEntry(Addr line_addr);

    /** Find a frame for @p line_addr, evicting if necessary. */
    CacheLine &ensureFrame(Addr line_addr);
    void evictFrame(CacheLine &victim);

    void issueRead(Addr line_addr, WordMask mask);
    /** Send the cycle's accumulated miss words as one request. */
    void flushUnsentReads(Addr line_addr);
    void issueRegistration(Addr line_addr, WordMask mask,
                           bool is_sync);

    /**
     * DD+PR: write streaming-region words through to the home bank
     * without obtaining ownership (the GPU-style store path applied
     * selectively to regions the program declared streaming).
     */
    void issueStreamingWrite(Addr line_addr, WordMask mask,
                             const LineData &data);
    void onStreamAck(Addr line_addr, WordMask mask);

    /** Register @p mask; words a writeback still holds wait for it. */
    void registerUnlessHeld(LineEntry &entry, Addr line_addr,
                            WordMask mask, bool is_sync);
    /** Issue registrations that were waiting for a writeback ack. */
    void releaseHeldRegistrations(Addr line_addr);

    /**
     * Read data for @p l2_mask arriving from the home bank or, with
     * @p self_mask 0, forwarded by a remote owner; @p self_mask words
     * the bank found registered to this L1 arrive with no data.
     */
    void onReadReply(Addr line_addr, WordMask l2_mask,
                     const LineData &data, WordMask self_mask,
                     std::uint64_t sent_epoch);
    void onRegAck(Addr line_addr, WordMask direct_mask,
                  const LineData &values, bool is_sync);

    /** Ownership of @p mask arrived (ack or transfer). */
    void grantWords(Addr line_addr, WordMask mask,
                    const LineData &values, bool values_valid);

    /**
     * Mark arriving read data Valid (never downgrading Registered).
     * Words whose request predates the current acquire epoch are
     * only installed when they lie in the read-only region (DD+RO):
     * read-only data cannot be stale, so self-invalidation exempts
     * it; everything else must observe post-acquire values.
     */
    void installReadData(Addr line_addr, WordMask mask,
                         const LineData &values,
                         std::uint64_t sent_epoch);

    /**
     * Serve locally satisfiable read targets, then serve targets old
     * enough for the arriving reply data (@p reply_mask words at
     * @p sent_epoch), and re-fetch whatever remains unsatisfied.
     */
    void settleReads(Addr line_addr, WordMask reply_mask,
                     const LineData &reply_data,
                     std::uint64_t sent_epoch);

    /** Try reading a word from SB / MSHR / array / unacked writeback. */
    bool peekLocal(Addr addr, std::uint32_t &value);

    /**
     * Service the per-word queue of local sync ops and remote
     * requests in arrival order (DeNovoSync0: coalesced local ops
     * already queued are serviced before a queued remote transfer;
     * locals arriving after the transfer re-register afterwards).
     */
    void processSyncQueue(Addr line_addr, unsigned word);

    /** Whether this L1 can currently supply the word's value. */
    bool holdsWord(Addr line_addr, unsigned word);

    /** Respond to a remote read/transfer for currently-served words. */
    void respondReadFwd(Addr line_addr, WordMask mask,
                        NodeId requestor, std::uint64_t req_epoch);
    void respondTransfer(Addr line_addr, WordMask mask, NodeId target,
                         bool is_sync, bool to_l2);

    /** The words of @p mask this L1 can serve right now: held, and
     *  not tied up in local activity. */
    WordMask servableNow(Addr line_addr, WordMask mask);

    /** Queue @p remote (its seq assigned here) behind the local
     *  activity on its words, then service each word's queue. */
    void queueRemote(Addr line_addr, QueuedRemote remote);

    /** Whether a word has pending local activity (sync coalescing). */
    bool wordBusy(Addr line_addr, unsigned word);

    /**
     * Lazily apply acquire invalidations this line missed: sweep
     * Valid words (keeping read-only-region words under DD+RO;
     * Registered words are never invalidated).
     */
    void refreshLine(CacheLine &line);
    /** Words that survive an acquire (DD+RO: the read-only ones). */
    WordMask acquireSurvivors(Addr line_addr) const;

    /** Obtain ownership of the sync word, then perform at this L1. */
    void performOwnedSync(std::uint32_t slot);
    void performLocalHrfSync(std::uint32_t slot);

    std::vector<DenovoL2Bank *> _banks;
    std::vector<DenovoL1Cache *> _peers;
    const RegionMap &_regions;
    MshrTable<LineEntry> _mshr;

    /** A satisfied load: its value and callback (read batches). */
    using ReadyLoad = std::pair<std::uint32_t, ValueCallback>;
    VectorPool<ReadyLoad> _readyBatch;

    stats::Handle<stats::Scalar> _remoteReadsServed;
    stats::Handle<stats::Scalar> _ownershipTransfers;
    stats::Handle<stats::Scalar> _registrationsIssued;
    stats::Handle<stats::Scalar> _syncCoalesced;
    stats::Handle<stats::Scalar> _streamingWrites;
};

} // namespace nosync

#endif // COHERENCE_DENOVO_L1_HH
