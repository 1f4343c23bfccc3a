#include "coherence/gpu_l2.hh"

#include "trace/trace_sink.hh"

namespace nosync
{

GpuL2Bank::GpuL2Bank(const std::string &name, EventQueue &eq,
                     stats::StatSet &stats, EnergyModel &energy,
                     Mesh &mesh, NodeId node, FunctionalMem &memory,
                     const CacheGeometry &geom,
                     trace::TraceSink *trace)
    : L2Controller(name, eq, stats, energy, mesh, node, memory, geom,
                   trace),
      _writethroughs(stats.registerScalar(
          name, ".writethroughs", "writethrough messages merged")),
      _atomics(stats.registerScalar(name, ".atomics",
                                    "atomics executed at this bank"))
{
    registerFillStats(stats, "dirty line writebacks to memory");
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
GpuL2Bank::handleWrite(Addr line_addr, WordMask mask,
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
    withLine(op.addr, [this, op, requestor,
                       reply = std::move(reply)](
                          CacheLine &line) mutable {
        performAtomic(line, op, requestor, std::move(reply));
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
