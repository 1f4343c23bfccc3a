#include "trace/trace_sink.hh"

#include <fstream>

#include "sim/logging.hh"

namespace nosync
{
namespace trace
{

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::L1MissIssue: return "L1MissIssue";
      case Phase::L1RegIssue: return "L1RegIssue";
      case Phase::L1RegAck: return "L1RegAck";
      case Phase::L1WritebackIssue: return "L1WritebackIssue";
      case Phase::L1WriteThrough: return "L1WriteThrough";
      case Phase::L2ReadServe: return "L2ReadServe";
      case Phase::L2OwnerChange: return "L2OwnerChange";
      case Phase::L2Forward: return "L2Forward";
      case Phase::L2WriteThrough: return "L2WriteThrough";
      case Phase::L2Atomic: return "L2Atomic";
      case Phase::FlitEnqueue: return "FlitEnqueue";
      case Phase::FlitDeliver: return "FlitDeliver";
      case Phase::TbSyncAcquire: return "TbSyncAcquire";
      case Phase::TbSyncRelease: return "TbSyncRelease";
      case Phase::KernelLaunch: return "KernelLaunch";
      case Phase::KernelDrain: return "KernelDrain";
      case Phase::NumPhases: break;
    }
    return "Unknown";
}

const char *
txnClassName(TxnClass cls)
{
    switch (cls) {
      case TxnClass::Load: return "load";
      case TxnClass::Store: return "store";
      case TxnClass::SyncAcquire: return "sync_acquire";
      case TxnClass::SyncRelease: return "sync_release";
      case TxnClass::SyncAcqRel: return "sync_acqrel";
      case TxnClass::SyncAcquireDevice: return "sync_acquire_device";
      case TxnClass::SyncReleaseDevice: return "sync_release_device";
      case TxnClass::SyncAcqRelDevice: return "sync_acqrel_device";
      case TxnClass::NumClasses: break;
    }
    return "unknown";
}

TraceSink::TraceSink(stats::StatSet &stats, std::size_t capacity)
    : _capacity(capacity ? capacity : 1)
{
    for (std::size_t c = 0; c < kNumTxnClasses; ++c) {
        TxnClass cls = static_cast<TxnClass>(c);
        _latency[c] = stats.registerDistribution(
            std::string("trace.latency.") + txnClassName(cls),
            std::string("issue-to-completion latency of ") +
                txnClassName(cls) + " accesses (cycles)");
    }
}

std::uint64_t
TraceSink::beginTxn(TxnClass cls, Tick tick, NodeId node, Addr addr)
{
    std::uint64_t id = _nextTxn++;
    _open.emplace(id, OpenTxn{tick, addr,
                              static_cast<std::int32_t>(node), cls});
    return id;
}

void
TraceSink::endTxn(std::uint64_t id, Tick tick)
{
    auto it = _open.find(id);
    panic_if(it == _open.end(), "endTxn(", id,
             "): no such open transaction");
    const OpenTxn &open = it->second;
    _latency[static_cast<std::size_t>(open.cls)]->sample(
        static_cast<double>(tick - open.begin));
    // Completed-transaction storage is bounded separately from the
    // event ring; past the cap, latencies still feed the
    // distributions but the timeline entry is dropped.
    if (_completed.size() < kMaxCompletedTxns) {
        _completed.push_back(CompletedTxn{id, open.begin, tick,
                                          open.addr, open.node,
                                          open.cls});
    } else {
        ++_droppedTxns;
    }
    _open.erase(it);
}

bool
TraceSink::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;

    out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
        << "\"tool\":\"nosync-sim\",\"time_unit\":\"cycle\","
        << "\"events_recorded\":" << _total
        << ",\"events_dropped\":" << dropped()
        << ",\"txns_dropped\":" << _droppedTxns
        << "},\"traceEvents\":[";

    bool first = true;
    auto sep = [&] {
        if (!first)
            out << ",";
        first = false;
        out << "\n";
    };

    // Completed thread-block transactions render as duration events
    // on their CU's row, so a sync access visually spans the protocol
    // instants it caused.
    for (const CompletedTxn &txn : _completed) {
        sep();
        out << "{\"name\":\"" << txnClassName(txn.cls)
            << "\",\"ph\":\"X\",\"ts\":" << txn.begin
            << ",\"dur\":" << (txn.end - txn.begin)
            << ",\"pid\":0,\"tid\":" << txn.node
            << ",\"args\":{\"addr\":" << txn.addr
            << ",\"txn\":" << txn.id << "}}";
    }

    for (std::size_t i = 0; i < size(); ++i) {
        const TraceEvent &ev = event(i);
        sep();
        out << "{\"name\":\"" << phaseName(ev.phase)
            << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ev.tick
            << ",\"pid\":0,\"tid\":" << ev.node
            << ",\"args\":{\"addr\":" << ev.addr
            << ",\"txn\":" << ev.txn << ",\"aux\":" << ev.aux
            << "}}";
    }

    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace trace
} // namespace nosync
