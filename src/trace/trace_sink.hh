/**
 * @file
 * Transaction trace sink: slab-buffered protocol event capture plus
 * per-transaction-class latency distributions.
 *
 * One TraceSink exists per traced System; components hold a nullable
 * pointer to it and the entire instrumentation cost when tracing is
 * disabled is a single null check at each seam (the sink is simply
 * never constructed). When enabled, record() appends a 32-byte POD
 * TraceEvent to a chunked ring buffer: slabs of 64 Ki events are
 * allocated lazily up to the capacity, after which the oldest slab's
 * slots are overwritten and the overwritten events counted as
 * dropped. Thread-block accesses additionally open/close transactions
 * (beginTxn/endTxn), whose issue-to-completion latencies feed typed
 * stats::Distribution handles — one per TxnClass — registered in the
 * owning StatSet as trace.latency.<class>.
 *
 * writeChromeJson() renders the buffer in the Chrome trace-event JSON
 * format (chrome://tracing, Perfetto): completed transactions become
 * "X" duration events and protocol events become "i" instants, with
 * pid 0 and tid = mesh node, timestamps in simulated cycles.
 */

#ifndef TRACE_TRACE_SINK_HH
#define TRACE_TRACE_SINK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/trace_event.hh"

namespace nosync
{
namespace trace
{

/** A completed (begin/end matched) thread-block transaction. */
struct CompletedTxn
{
    std::uint64_t id;
    Tick begin;
    Tick end;
    Addr addr;
    std::int32_t node;
    TxnClass cls;
};

class TraceSink
{
  public:
    /** Events retained before the ring recycles the oldest slab. */
    static constexpr std::size_t kDefaultCapacity = std::size_t{1}
                                                    << 20;

    explicit TraceSink(stats::StatSet &stats,
                       std::size_t capacity = kDefaultCapacity);

    /** Append one protocol event. */
    void
    record(Tick tick, Phase phase, NodeId node, Addr addr,
           std::uint64_t txn = 0, std::uint16_t aux = 0)
    {
        std::size_t slot = _total % _capacity;
        std::size_t chunk = slot / kChunkEvents;
        if (chunk >= _chunks.size())
            _chunks.push_back(
                std::make_unique<TraceEvent[]>(kChunkEvents));
        _chunks[chunk][slot % kChunkEvents] =
            TraceEvent{tick, txn, addr,
                       static_cast<std::int32_t>(node), phase, aux};
        ++_total;
        ++_phaseCounts[static_cast<std::size_t>(phase)];
    }

    /** Open a tracked transaction; returns its id (never 0). */
    std::uint64_t beginTxn(TxnClass cls, Tick tick, NodeId node,
                           Addr addr);

    /** Close a transaction: samples its latency distribution. */
    void endTxn(std::uint64_t id, Tick tick);

    /** Events recorded over the sink's lifetime. */
    std::uint64_t recorded() const { return _total; }

    /** Events currently retained (time-ordered window). */
    std::size_t
    size() const
    {
        return _total < _capacity ? static_cast<std::size_t>(_total)
                                  : _capacity;
    }

    /** Events overwritten by ring recycling. */
    std::uint64_t
    dropped() const
    {
        return _total < _capacity ? 0 : _total - _capacity;
    }

    /** The @p i'th retained event, oldest first; i < size(). */
    const TraceEvent &
    event(std::size_t i) const
    {
        std::size_t slot = (dropped() + i) % _capacity;
        return _chunks[slot / kChunkEvents][slot % kChunkEvents];
    }

    /** Lifetime count of events with the given phase. */
    std::uint64_t
    countPhase(Phase phase) const
    {
        return _phaseCounts[static_cast<std::size_t>(phase)];
    }

    /** Transactions begun but not yet ended. */
    std::size_t openTxns() const { return _open.size(); }

    /** Completed transactions, oldest first (ring-bounded). */
    const std::vector<CompletedTxn> &completed() const
    {
        return _completed;
    }

    /** Latency distribution for one transaction class. */
    const stats::Distribution &
    latency(TxnClass cls) const
    {
        return *_latency[static_cast<std::size_t>(cls)];
    }

    /**
     * Write the retained window as Chrome trace-event JSON.
     * Returns false if the file cannot be opened.
     */
    bool writeChromeJson(const std::string &path) const;

  private:
    static constexpr std::size_t kChunkEvents = std::size_t{1} << 16;
    static constexpr std::size_t kMaxCompletedTxns = std::size_t{1}
                                                     << 18;

    struct OpenTxn
    {
        Tick begin;
        Addr addr;
        std::int32_t node;
        TxnClass cls;
    };

    std::size_t _capacity;
    std::vector<std::unique_ptr<TraceEvent[]>> _chunks;
    std::uint64_t _total = 0;
    std::uint64_t _phaseCounts[kNumPhases] = {};

    std::uint64_t _nextTxn = 1;
    std::unordered_map<std::uint64_t, OpenTxn> _open;
    std::vector<CompletedTxn> _completed;
    std::uint64_t _droppedTxns = 0;

    stats::Handle<stats::Distribution> _latency[kNumTxnClasses];
};

} // namespace trace
} // namespace nosync

#endif // TRACE_TRACE_SINK_HH
