#include "coherence/gpu_l2.hh"

#include "analysis/race_detector.hh"
#include "trace/trace_sink.hh"

namespace nosync
{

GpuL2Bank::GpuL2Bank(const std::string &name, EventQueue &eq,
                     stats::StatSet &stats, EnergyModel &energy,
                     Mesh &mesh, NodeId node, FunctionalMem &memory,
                     const CacheGeometry &geom,
                     const CacheTimings &timings,
                     trace::TraceSink *trace)
    : L2Controller(name, eq, energy, mesh, node, memory, geom, timings,
                   trace),
      _reads(stats.registerScalar(name, ".reads",
                                  "read requests served")),
      _writethroughs(stats.registerScalar(
          name, ".writethroughs", "writethrough messages merged")),
      _atomics(stats.registerScalar(name, ".atomics",
                                    "atomics executed at this bank")),
      _dramFetches(stats.registerScalar(name, ".dram_fetches",
                                        "line fetches from memory")),
      _dramWritebacks(
          stats.registerScalar(name, ".dram_writebacks",
                               "dirty line writebacks to memory"))
{
}

CacheLine &
GpuL2Bank::installLine(Addr line_addr)
{
    CacheLine *victim = _array.findVictim(line_addr);
    if (victim->valid && victim->dirty) {
        // Dirty words go back to the functional backing store. DRAM
        // bandwidth is not a bottleneck in any studied workload, so
        // the writeback is not placed on the eviction's critical path.
        _memory.writeLineMasked(victim->addr, victim->data,
                                victim->dirty);
        ++_dramWritebacks;
    }
    _array.install(*victim, line_addr);
    victim->data = _memory.readLine(line_addr);
    return *victim;
}

void
GpuL2Bank::startFetch(Addr line_addr)
{
    ++_dramFetches;
    scheduleIn(_timings.l2Access + _timings.dramLatency,
               [this, line_addr] {
                   CacheLine &line = installLine(line_addr);
                   FetchEntry *entry = _fetches.find(line_addr);
                   panic_if(!entry, "L2 fetch entry vanished");
                   auto waiters = std::move(entry->waiters);
                   _fetches.deallocate(line_addr);
                   for (auto &waiter : waiters)
                       waiter(line);
                   processStalled();
               });
}

void
GpuL2Bank::handleReadReq(Addr line_addr, NodeId requestor,
                         LineReply reply)
{
    ++_reads;
    withLine(line_addr, [this, line_addr, requestor,
                         reply = std::move(reply)](
                            CacheLine &line) mutable {
        if (_trace) {
            _trace->record(curTick(), trace::Phase::L2ReadServe, _node,
                           line_addr, 0,
                           static_cast<std::uint16_t>(requestor));
        }
        _mesh.send(_node, requestor, kLineFlits, TrafficClass::Read,
                   [reply = std::move(reply), data = line.data] {
                       reply(data);
                   });
    });
}

void
GpuL2Bank::handleWriteThrough(Addr line_addr, WordMask mask,
                              const LineData &data, NodeId requestor,
                              DoneCallback ack)
{
    ++_writethroughs;
    withLine(line_addr,
             [this, line_addr, mask, data, requestor,
              ack = std::move(ack)](CacheLine &line) mutable {
                 if (_trace) {
                     _trace->record(curTick(),
                                    trace::Phase::L2WriteThrough,
                                    _node, line_addr, 0, mask);
                 }
                 for (unsigned w = 0; w < kWordsPerLine; ++w) {
                     if (mask & (1u << w))
                         line.data[w] = data[w];
                 }
                 line.dirty |= mask;
                 _mesh.send(_node, requestor, kControlFlits,
                            TrafficClass::WriteBack, std::move(ack));
             });
}

void
GpuL2Bank::handleAtomic(const SyncOp &op, NodeId requestor,
                        ValueCallback reply)
{
    ++_atomics;
    _energy.atomicAlu();
    withLine(op.addr, [this, op, requestor,
                       reply = std::move(reply)](
                          CacheLine &line) mutable {
        if (_trace) {
            _trace->record(curTick(), trace::Phase::L2Atomic, _node,
                           op.addr, 0,
                           static_cast<std::uint16_t>(requestor));
        }
        unsigned w = wordInLine(op.addr);
        if (_races)
            _races->syncPerformed(op, curTick());
        AtomicResult res = applyAtomic(op, line.data[w]);
        if (res.stored) {
            line.data[w] = res.newValue;
            line.dirty |= static_cast<WordMask>(1u << w);
        }
        unsigned flits = flitsForWords(1);
        _mesh.send(_node, requestor, flits, TrafficClass::Atomic,
                   [reply = std::move(reply), v = res.returned] {
                       reply(v);
                   });
    });
}

void
GpuL2Bank::describeProtocol(ControllerSnapshot &snap) const
{
    _fetches.forEach([&](Addr line_addr, const FetchEntry &entry) {
        std::ostringstream os;
        os << "fetch line 0x" << std::hex << line_addr << std::dec
           << " waiters=" << entry.waiters.size();
        snap.detail.push_back(os.str());
    });
}

} // namespace nosync
