/**
 * @file
 * DeNovo L2 bank: the registry.
 *
 * The shared L2's data banks double as the ownership registry: for
 * every word the bank either holds the up-to-date data (word state
 * Valid) or records which L1 owns it (word state Registered plus an
 * owner id stored in the data bank). There are no sharer lists and no
 * transient states; racy registrations are serialized in arrival order
 * and forwarded to the registered L1, forming DeNovoSync0's
 * distributed queue.
 */

#ifndef COHERENCE_DENOVO_L2_HH
#define COHERENCE_DENOVO_L2_HH

#include <deque>
#include <functional>
#include <vector>

#include "coherence/l1_controller.hh"
#include "coherence/l2_controller.hh"
#include "coherence/protocol.hh"
#include "mem/functional_mem.hh"
#include "mem/line_table.hh"
#include "noc/mesh.hh"

namespace nosync
{

class DenovoL1Cache;

/** Reply to a data read: words served from L2, and words the
 *  requestor itself still owns (e.g. a writeback raced the read). */
using ReadReply =
    SmallFn<void(WordMask l2_mask, const LineData &data,
                 WordMask self_mask),
            kCallbackCapacity>;

/** Reply to a registration: words granted directly from the L2 (with
 *  current values, needed by sync registrations). Words not covered
 *  arrive later as ownership transfers from previous owners. */
using RegReply = SmallFn<void(WordMask direct_mask, const LineData &data),
                         kCallbackCapacity>;

/** One bank of the DeNovo registry. */
class DenovoL2Bank final : public L2Controller
{
  public:
    DenovoL2Bank(const std::string &name, EventQueue &eq,
                 stats::StatSet &stats, EnergyModel &energy, Mesh &mesh,
                 NodeId node, FunctionalMem &memory,
                 const CacheGeometry &geom,
                 trace::TraceSink *trace = nullptr);

    /** Wire the L1 caches (for protocol forwards). */
    void setL1s(std::vector<DenovoL1Cache *> l1s)
    {
        _l1s = std::move(l1s);
        _fwdScratch.assign(_l1s.size(), 0);
    }

    /**
     * Data read: replies with L2-valid words; forwards to owner L1s
     * for requested words registered elsewhere. @p req_epoch is the
     * requestor's opaque freshness token, passed through to owners.
     */
    void handleReadReq(Addr line_addr, WordMask mask, NodeId requestor,
                       std::uint64_t req_epoch, ReadReply reply);

    /**
     * Registration (ownership) request for the masked words; @p
     * is_sync distinguishes synchronization registrations (which need
     * the current value and count as atomic traffic).
     */
    void handleRegReq(Addr line_addr, WordMask mask, bool is_sync,
                      NodeId requestor, RegReply reply);

    /**
     * Writeback of registered words on L1 eviction: a word the
     * requestor still owns returns to the bank; one whose ownership
     * moved on is stale and dropped.
     */
    void handleWrite(Addr line_addr, WordMask mask, const LineData &data,
                     NodeId requestor, DoneCallback ack) override;

    /**
     * DD+PR streaming-region write-through: the L1 never owned the
     * words, so the bank stores the data in place without any owner
     * change. A word meanwhile registered to an L1 (a program that
     * mixes sync or owned stores into a streaming region, i.e. racy
     * or mis-declared) keeps the registered copy authoritative and
     * the write-through is dropped as stale.
     */
    void handleStreamingWrite(Addr line_addr, WordMask mask,
                              const LineData &data, NodeId requestor,
                              DoneCallback ack);

    /** Ownership + data returned by an L1 during an L2 recall (or a
     *  sync-engine reclaim, which reuses the recall response path). */
    void handleRecallData(Addr line_addr, WordMask mask,
                          const LineData &data);

    /**
     * DD+SE memory-side sync engine: perform @p op at this bank and
     * reply with the returned value. If the sync word is registered
     * to an L1 (e.g. it was written as plain data by an earlier
     * kernel), the bank first reclaims it; queued sync ops on the
     * same word perform in arrival order once the word returns.
     */
    void handleAtomic(const SyncOp &op, NodeId requestor,
                      ValueCallback reply) override;

    /** Test hook: the L1 registered for @p addr, or kNoNode. */
    NodeId ownerOf(Addr addr);

    /** Invoke @p fn(word_addr, owner) for every registered word. */
    void forEachRegisteredWord(
        const std::function<void(Addr, NodeId)> &fn) const;

    /**
     * Test hook for checker regression tests: force a registry entry
     * (word state Registered, owner id), bypassing the protocol.
     * Installs a frame if the line is absent. NEVER call outside
     * tests.
     */
    void debugSetOwner(Addr addr, NodeId owner);

  private:
    /** Park @p fn on the line's recall, if one is in progress. */
    bool deferWhileRecalling(Addr line_addr, LineFn &fn) override;
    /** A victim holding registered words is recalled first. */
    bool recallFirst(CacheLine &victim, Addr line_addr) override;
    /** Adds the recalls and pending_syncs gauges. */
    void describeProtocol(ControllerSnapshot &snap) const override;
    /** Every registry entry must point at a live L1. */
    void checkProtocol(std::vector<std::string> &out) const override;

    /** Begin recalling every registered word of @p victim. */
    void startRecall(CacheLine &victim);
    void finishRecall(Addr line_addr);

    std::vector<DenovoL1Cache *> _l1s;

    /**
     * Per-owner forwarding masks, indexed by NodeId. A flat array
     * rebuilt per request: requests group at most kWordsPerLine
     * owners, so zero-filling and scanning a few dozen entries beats
     * the node allocations of the std::map it replaces. Iterated in
     * ascending NodeId order, matching the old map order exactly.
     */
    std::vector<WordMask> _fwdScratch;

    struct RecallState
    {
        WordMask outstanding = 0;
        /** Requests that arrived for the victim line mid-recall;
         *  each replays through withLine once the recall ends. */
        std::vector<LineFn> deferred;
        /** Fetches whose install waits on this recall. */
        std::vector<Addr> blockedFetches;
    };
    LineTable<RecallState> _recalls;

    /** Sync ops waiting for their word to be reclaimed (DD+SE). */
    struct PendingSync
    {
        SyncOp op;
        NodeId requestor = kNoNode;
        ValueCallback reply;
    };
    struct PendingSyncState
    {
        /** Words with a reclaim transfer request in flight. */
        WordMask requested = 0;
        std::deque<PendingSync> ops;
    };
    LineTable<PendingSyncState> _pendingSyncs;

    /** Reclaim @p bit of @p line (registered elsewhere) for a sync. */
    void issueSyncReclaim(CacheLine &line, Addr line_addr,
                          WordMask bit);

    /** Run queued sync ops whose words returned to the bank. */
    void servePendingSyncs(CacheLine &line, Addr line_addr);

    stats::Handle<stats::Scalar> _registrations;
    stats::Handle<stats::Scalar> _syncRegistrations;
    stats::Handle<stats::Scalar> _forwards;
    stats::Handle<stats::Scalar> _writebacks;
    stats::Handle<stats::Scalar> _streamingWritesStat;
    stats::Handle<stats::Scalar> _staleWritebacks;
    stats::Handle<stats::Scalar> _recallsStat;
    /** Sync ops executed at this bank's sync engine (DD+SE). */
    stats::Handle<stats::Scalar> _engineSyncs;
};

} // namespace nosync

#endif // COHERENCE_DENOVO_L2_HH
