#include "coherence/l2_controller.hh"

#include <algorithm>

#include "analysis/race_detector.hh"
#include "energy/energy_model.hh"
#include "mem/functional_mem.hh"
#include "noc/mesh.hh"
#include "trace/trace_sink.hh"

namespace nosync
{

L2Controller::L2Controller(const std::string &name, EventQueue &eq,
                           stats::StatSet &stats, EnergyModel &energy,
                           Mesh &mesh, NodeId node, FunctionalMem &memory,
                           const CacheGeometry &geom,
                           trace::TraceSink *trace)
    : SimObject(name, eq), _node(node), _trace(trace), _mesh(mesh),
      _energy(energy), _memory(memory),
      _array(geom.l2BankBytes, geom.l2Assoc),
      _fetches(geom.l2MshrEntries),
      _reads(stats.registerScalar(name, ".reads",
                                  "read requests served"))
{}

void
L2Controller::registerFillStats(stats::StatSet &stats,
                                const char *writeback_desc)
{
    _dramFetches = stats.registerScalar(name(), ".dram_fetches",
                                        "line fetches from memory");
    _dramWritebacks =
        stats.registerScalar(name(), ".dram_writebacks", writeback_desc);
}

std::uint32_t
L2Controller::peekWord(Addr addr)
{
    if (CacheLine *line = _array.lookup(lineAlign(addr)))
        return line->data[wordInLine(addr)];
    return _memory.readWord(addr);
}

void
L2Controller::withLine(Addr line_addr, LineFn fn)
{
    line_addr = lineAlign(line_addr);
    _energy.l2Access();
    if (deferWhileRecalling(line_addr, fn))
        return;
    withLineReady(line_addr, std::move(fn));
}

void
L2Controller::withLineReady(Addr line_addr, LineFn fn, bool queued)
{
    // Pipelined bank: one new access per l2CycleTime cycles.
    Tick start = std::max(curTick(), _bankFree);
    _bankFree = start + kL2CycleTime;
    Cycles queue_delay = start - curTick();

    if (CacheLine *line = _array.lookup(line_addr)) {
        _array.touch(*line);
        // Re-resolve at fire time: a concurrent fetch may evict and
        // repurpose this frame, or a recall may start, during the
        // access latency window.
        auto access = [this, line_addr, fn = std::move(fn)]() mutable {
            if (deferWhileRecalling(line_addr, fn))
                return;
            if (CacheLine *line = _array.lookup(line_addr)) {
                fn(*line);
                return;
            }
            withLineReady(line_addr, std::move(fn));
        };
        static_assert(EventFn::fitsInline<decltype(access)>(),
                      "an L2 bank access outgrew EventFn's inline "
                      "buffer");
        scheduleIn(queue_delay + kL2AccessLatency, std::move(access));
        return;
    }

    if (FetchEntry *entry = _fetches.find(line_addr)) {
        entry->waiters.push_back(std::move(fn));
        return;
    }

    // A retry from the stall queue always finds a free fetch MSHR:
    // processStalled retries only while one is.
    if ((!queued && !_stalled.empty()) || _fetches.full()) {
        // All fetch MSHRs busy: stall in strict arrival order.
        _stalled.emplace_back(line_addr, std::move(fn));
        return;
    }

    FetchEntry &entry = _fetches.allocate(line_addr);
    entry.waiters.push_back(std::move(fn));
    startFetch(line_addr);
}

void
L2Controller::startFetch(Addr line_addr)
{
    ++_dramFetches;
    scheduleIn(kL2AccessLatency + kDramLatency,
               [this, line_addr] {
                   FetchEntry *entry = _fetches.find(line_addr);
                   panic_if(!entry, "L2 fetch entry vanished");
                   entry->dramDone = true;
                   finishFetch(line_addr);
               });
}

void
L2Controller::finishFetch(Addr line_addr)
{
    FetchEntry *entry = _fetches.find(line_addr);
    if (!entry || !entry->dramDone)
        return;

    // Prefer victims that need no recall. A GPU bank registers no
    // word, so it always gets the plain LRU victim.
    CacheLine *victim = _array.findVictimPreferring(
        line_addr, [](const CacheLine &line) {
            return line.maskInState(WordState::Registered) == 0;
        });
    if (victim->valid && recallFirst(*victim, line_addr))
        return;

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
    victim->wstate.fill(WordState::Valid);

    auto waiters = std::move(entry->waiters);
    _fetches.deallocate(line_addr);
    for (auto &waiter : waiters)
        waiter(*victim);
    processStalled();
}

void
L2Controller::performAtomic(CacheLine &line, const SyncOp &op,
                            NodeId requestor, ValueCallback reply)
{
    if (_trace) {
        _trace->record(curTick(), trace::Phase::L2Atomic, _node, op.addr,
                       0, static_cast<std::uint16_t>(requestor));
    }
    if (_races)
        _races->syncPerformed(op, curTick());
    _energy.atomicAlu();
    unsigned w = wordInLine(op.addr);
    AtomicResult res = applyAtomic(op, line.data[w]);
    if (res.stored) {
        line.data[w] = res.newValue;
        line.dirty |= static_cast<WordMask>(1u << w);
    }
    _mesh.send(_node, requestor, flitsForWords(1), TrafficClass::Atomic,
               [reply = std::move(reply), v = res.returned] {
                   reply(v);
               });
}

ControllerSnapshot
L2Controller::snapshot() const
{
    ControllerSnapshot snap;
    snap.name = name();
    snap.gauge("fetches", _fetches.size());
    snap.gauge("stalled", _stalled.size());
    describeProtocol(snap);
    return snap;
}

std::vector<std::string>
L2Controller::checkInvariants(bool quiesced) const
{
    std::vector<std::string> out;
    _fetches.forEach([&](Addr line_addr, const FetchEntry &entry) {
        if (entry.waiters.empty()) {
            std::ostringstream os;
            os << name() << ": DRAM fetch of line 0x" << std::hex
               << line_addr << " with no waiters";
            out.push_back(os.str());
        }
    });
    checkProtocol(out);
    if (quiesced) {
        ControllerSnapshot snap = snapshot();
        if (!snap.quiescent()) {
            out.push_back(name() + ": state leaked at quiesce: " +
                          snap.summary());
        }
    }
    return out;
}

void
L2Controller::processStalled()
{
    while (!_stalled.empty() && !_fetches.full()) {
        auto [line_addr, fn] = std::move(_stalled.front());
        _stalled.pop_front();
        withLineReady(line_addr, std::move(fn), true);
    }
}

} // namespace nosync
